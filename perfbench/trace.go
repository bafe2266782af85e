package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cell"
	"repro/internal/cluster"
	"repro/internal/handover"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Traced-run sampling.
const (
	// traceEvery picks the traced terminals (t % traceEvery == 0); their
	// reports carry spans.  traceSlots is each traced terminal's ring of
	// in-flight span records, indexed by report number; it exceeds
	// closedInflight, so a record is complete before its slot is reused.
	traceEvery = 8
	traceSlots = 32
	// Capture bounds for the offline codec and kernel timing.
	captureBatches  = 256
	captureOutcomes = 1 << 15
	captureRows     = 1 << 16
	// spansWritten bounds the span records written to the trace file.
	spansWritten = 5000
)

// Span boundary events of one report, in path order.  gen.send is the
// root span (generation → delivered); the others are its children.
const (
	evGen = iota
	evSubS
	evSubE
	evDsubS
	evDsubE
	evScoreS
	evScoreE
	evRouteS
	evRouteE
	evDelS
	evDelE
	numEv
)

// spanSlot is one traced report's in-flight record.  seq holds the
// report number + 1 (0: empty); hooks on other goroutines check it
// before writing, so a stale hook never writes into a reused slot.
type spanSlot struct {
	seq atomic.Uint64
	ev  [numEv]atomic.Int64
}

// hopRecord is a completed report's span boundaries.
type hopRecord struct {
	terminal int
	seq      uint64
	ev       [numEv]int64
}

// tracer records spans and counters from the benchmark's own wrappers
// around the calls into each layer.  Everything stays in memory; the
// spans are written out when the run ends.
type tracer struct {
	sched *schedule
	tcp   bool

	slots   []spanSlot
	subSeq  []uint64        // per traced terminal; generator-owned
	dsubSeq []atomic.Uint64 // per traced terminal; daemon ingest
	// harvestEvery keeps one in harvestEvery completed records, so the
	// kept records span the whole window at every throughput.
	harvestEvery uint64

	hopsMu   sync.Mutex
	hops     []hopRecord
	unfinish atomic.Uint64

	// cluster.submit
	submitDur  obs.Histogram
	submitBusy atomic.Int64
	// serve.daemon.submit and serve.daemon.route
	dsubDur     obs.Histogram
	dsubCalls   atomic.Uint64
	dsubReports atomic.Uint64
	routeDur    obs.Histogram
	// net, counted on the daemon side of every connection
	rxBytes      atomic.Uint64 // daemon reads: client → node bytes
	txBytes      atomic.Uint64 // daemon writes: node → client bytes
	daemonWrites atomic.Uint64
	// serve.client send-queue depth samples
	queuedMu sync.Mutex
	queued   []float64
	// cluster migrations
	moved     atomic.Uint64
	bufferMax atomic.Int64

	tapsMu sync.Mutex
	taps   []*scorerTap

	// captures for the offline timing
	capMu      sync.Mutex
	capBatches [][]serve.Report
	capNext    atomic.Uint64
	capOut     []serve.Outcome
	capOutN    atomic.Uint64
}

func newTracer(w workload, sched *schedule) *tracer {
	n := numTerminals / traceEvery
	tr := &tracer{
		sched:        sched,
		tcp:          w.tcp,
		slots:        make([]spanSlot, n*traceSlots),
		subSeq:       make([]uint64, n),
		dsubSeq:      make([]atomic.Uint64, n),
		harvestEvery: 1,
		capOut:       make([]serve.Outcome, captureOutcomes),
	}
	if !w.tcp && w.rate == 0 {
		// The in-process closed loop decides ~20× more reports per
		// second than the TCP workloads.
		tr.harvestEvery = 16
	}
	return tr
}

func (tr *tracer) slot(t int, seq uint64) *spanSlot {
	return &tr.slots[t/traceEvery*traceSlots+int(seq%traceSlots)]
}

// harvest moves a slot's completed record into the kept set.
func (tr *tracer) harvest(t int, s *spanSlot) {
	seq1 := s.seq.Load()
	if seq1 == 0 {
		return
	}
	if s.ev[evDelE].Load() == 0 {
		tr.unfinish.Add(1)
		return
	}
	if (seq1-1)%tr.harvestEvery != 0 {
		return
	}
	rec := hopRecord{terminal: t, seq: seq1 - 1}
	for i := range rec.ev {
		rec.ev[i] = s.ev[i].Load()
	}
	tr.hopsMu.Lock()
	tr.hops = append(tr.hops, rec)
	tr.hopsMu.Unlock()
}

// harvestAll collects every slot once the run has drained.
func (tr *tracer) harvestAll() {
	for i := range tr.slots {
		t := i / traceSlots * traceEvery
		tr.harvest(t, &tr.slots[i])
		tr.slots[i].seq.Store(0)
	}
}

// submit is the cluster.submit wrapper: it opens the traced reports'
// records (gen.send root plus the cluster.submit child) and times the
// router's SubmitBatch.
func (tr *tracer) submit(router cluster.Router, rs []serve.Report, built int64) error {
	var traced [batchSize]*spanSlot
	nt := 0
	start := mono()
	for i := range rs {
		t := int(rs[i].Terminal)
		if t%traceEvery != 0 {
			continue
		}
		k := t / traceEvery
		seq := tr.subSeq[k]
		tr.subSeq[k]++
		s := tr.slot(t, seq)
		tr.harvest(t, s)
		s.seq.Store(0)
		for e := range s.ev {
			s.ev[e].Store(0)
		}
		gen := built
		if tr.sched != nil {
			gen = tr.sched.at(tr.sched.index(t, seq))
		}
		s.ev[evGen].Store(gen)
		s.ev[evSubS].Store(start)
		s.seq.Store(seq + 1)
		if nt < len(traced) {
			traced[nt] = s
			nt++
		}
	}
	if n := tr.capNext.Add(1); n%8 == 0 && n/8 <= captureBatches {
		tr.captureBatch(router, rs)
	}
	err := router.SubmitBatch(rs)
	end := mono()
	for _, s := range traced[:nt] {
		s.ev[evSubE].Store(end)
	}
	tr.submitDur.Observe(uint64(end - start))
	tr.submitBusy.Add(end - start)
	return err
}

// captureBatch keeps a copy of the batch as the per-node lines a TCP
// router would write for it.
func (tr *tracer) captureBatch(router cluster.Router, rs []serve.Report) {
	byNode := map[int][]serve.Report{}
	for _, r := range rs {
		n := router.NodeOf(r.Terminal)
		byNode[n] = append(byNode[n], r)
	}
	tr.capMu.Lock()
	for _, sub := range byNode {
		tr.capBatches = append(tr.capBatches, sub)
	}
	tr.capMu.Unlock()
}

// daemonSubmit is the serve.daemon.submit wrapper around a daemon's
// engine ingest.  Per-terminal order is preserved, so the hook counts
// each traced terminal's reports to find their records.
func (tr *tracer) daemonSubmit(submit func([]serve.Report) error, rs []serve.Report) error {
	start := mono()
	err := submit(rs)
	end := mono()
	tr.dsubDur.Observe(uint64(end - start))
	tr.dsubCalls.Add(1)
	tr.dsubReports.Add(uint64(len(rs)))
	for i := range rs {
		t := int(rs[i].Terminal)
		if t%traceEvery != 0 {
			continue
		}
		pos := tr.dsubSeq[t/traceEvery].Add(1) - 1
		if s := tr.slot(t, pos); s.seq.Load() == pos+1 {
			s.ev[evDsubS].Store(start)
			s.ev[evDsubE].Store(end)
		}
	}
	return err
}

// route is called by the serve.daemon.route wrapper (engine OnDecision
// → Mux.Route) after the route returns; it also attributes the frame the
// report was scored in, which ran on the same shard goroutine just
// before.
func (tr *tracer) route(tap *scorerTap, o serve.Outcome, start, end int64) {
	tr.routeDur.Observe(uint64(end - start))
	t := int(o.Terminal)
	if t%traceEvery != 0 {
		return
	}
	if s := tr.slot(t, o.Seq); s.seq.Load() == o.Seq+1 {
		s.ev[evScoreS].Store(tap.lastS)
		s.ev[evScoreE].Store(tap.lastE)
		s.ev[evRouteS].Store(start)
		s.ev[evRouteE].Store(end)
	}
}

// deliver is the cluster.deliver hook (the router callback).  tap is the
// deciding engine's scorer for in-process nodes, whose callback runs on
// the shard goroutine; nil over TCP, where route attributed it.
func (tr *tracer) deliver(tap *scorerTap, o serve.Outcome, start, end int64) {
	if n := tr.capOutN.Add(1); n <= captureOutcomes {
		tr.capOut[n-1] = o
	}
	t := int(o.Terminal)
	if t%traceEvery != 0 {
		return
	}
	s := tr.slot(t, o.Seq)
	if s.seq.Load() != o.Seq+1 {
		return
	}
	if tap != nil {
		s.ev[evScoreS].Store(tap.lastS)
		s.ev[evScoreE].Store(tap.lastE)
	}
	s.ev[evDelS].Store(start)
	s.ev[evDelE].Store(end)
}

// newScorerTap wraps a real scorer for the handover.score span.
func (tr *tracer) newScorerTap(inner handover.BatchScorer) *scorerTap {
	tap := &scorerTap{BatchScorer: inner, axes: inner.Schema().Len()}
	tr.tapsMu.Lock()
	tr.taps = append(tr.taps, tap)
	tr.tapsMu.Unlock()
	return tap
}

// scorerTap is the benchmark-side BatchScorer: it delegates every call to
// the real scorer and records the handover.score span, frame and row
// counts, and a capture of the feature columns it scored.  Each engine
// shard owns one tap and drives it from its own goroutine.
type scorerTap struct {
	handover.BatchScorer
	axes         int
	lastS, lastE int64

	frames, rows, evaluated uint64
	scoreNs                 int64
	// cols holds captured rows that reached the FLC, one column per
	// schema feature; frameEnds marks the captured frames' boundaries.
	cols      [][]float64
	frameEnds []int
	tmp       [][]float64
}

// ScoreFrame implements handover.BatchScorer.
func (s *scorerTap) ScoreFrame(f *handover.FeatureFrame) error {
	n := f.Len()
	capture := s.capturedRows() < captureRows
	if capture {
		if s.tmp == nil {
			s.tmp = make([][]float64, s.axes)
			s.cols = make([][]float64, s.axes)
		}
		for k := range s.tmp {
			s.tmp[k] = append(s.tmp[k][:0], f.Col(k)...)
		}
	}
	start := mono()
	err := s.BatchScorer.ScoreFrame(f)
	end := mono()
	s.lastS, s.lastE = start, end
	s.frames++
	s.rows += uint64(n)
	s.scoreNs += end - start
	if err != nil {
		return err
	}
	kept := false
	for i := 0; i < n; i++ {
		if f.Status[i] == handover.ScoreGated {
			continue
		}
		s.evaluated++
		if capture {
			for k := range s.cols {
				s.cols[k] = append(s.cols[k], s.tmp[k][i])
			}
			kept = true
		}
	}
	if kept {
		s.frameEnds = append(s.frameEnds, s.capturedRows())
	}
	return nil
}

// Decide implements handover.Algorithm: the engine's one-report path,
// which scores without a frame.
func (s *scorerTap) Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (handover.Decision, error) {
	start := mono()
	d, err := s.BatchScorer.Decide(m, prevServingDB, havePrev)
	end := mono()
	s.lastS, s.lastE = start, end
	s.frames++
	s.rows++
	s.scoreNs += end - start
	if d.Scored {
		s.evaluated++
	}
	return d, err
}

func (s *scorerTap) capturedRows() int {
	if len(s.cols) == 0 {
		return 0
	}
	return len(s.cols[0])
}

// countedListener wraps a daemon's listener: it tracks live connections
// so teardown can wait for every connection handler, and in a traced run
// counts the bytes and write calls on each accepted connection.
type countedListener struct {
	net.Listener
	tr    *tracer
	conns sync.WaitGroup
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns.Add(1)
	if l.tr == nil {
		return &trackedConn{Conn: c, l: l}, nil
	}
	return &countedConn{trackedConn: trackedConn{Conn: c, l: l}, tr: l.tr}, nil
}

type trackedConn struct {
	net.Conn
	l    *countedListener
	once sync.Once
}

func (c *trackedConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(c.l.conns.Done)
	return err
}

type countedConn struct {
	trackedConn
	tr *tracer
}

func (c *countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.tr.rxBytes.Add(uint64(n))
	return n, err
}

func (c *countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.tr.txBytes.Add(uint64(n))
	c.tr.daemonWrites.Add(1)
	return n, err
}

// hop is one segment of a report's path between consecutive span
// boundaries.  A span or gap whose end runs past the next boundary of the
// same report (a batch call still busy with other reports) is cut there,
// so the segments partition generation → delivery exactly.
type hop struct {
	name     string
	from, to int
}

func hopsFor(tcp bool) []hop {
	if tcp {
		return []hop{
			{"gen.send", evGen, evSubS},
			{"cluster.submit", evSubS, evSubE},
			{"router buffer+client queue+socket+daemon decode", evSubE, evDsubS},
			{"serve.daemon.submit", evDsubS, evDsubE},
			{"shard queue", evDsubE, evScoreS},
			{"handover.score", evScoreS, evScoreE},
			{"decide+commit", evScoreE, evRouteS},
			{"serve.daemon.route", evRouteS, evRouteE},
			{"sink hold+socket+client decode", evRouteE, evDelS},
			{"cluster.deliver", evDelS, evDelE},
		}
	}
	return []hop{
		{"gen.send", evGen, evSubS},
		{"cluster.submit", evSubS, evSubE},
		{"shard queue", evSubE, evScoreS},
		{"handover.score", evScoreS, evScoreE},
		{"decide+commit", evScoreE, evDelS},
		{"cluster.deliver", evDelS, evDelE},
	}
}

// clamped returns the record's boundaries made monotone backwards from
// delivery: each boundary is at most the next one.  ok is false when a
// boundary is missing.
func (h *hopRecord) clamped(tcp bool) (ev [numEv]int64, ok bool) {
	ev = h.ev
	order := []int{evGen, evSubS, evSubE, evScoreS, evScoreE, evDelS, evDelE}
	if tcp {
		order = []int{evGen, evSubS, evSubE, evDsubS, evDsubE, evScoreS, evScoreE, evRouteS, evRouteE, evDelS, evDelE}
	}
	for _, e := range order {
		if ev[e] == 0 {
			return ev, false
		}
	}
	for i := len(order) - 2; i >= 0; i-- {
		ev[order[i]] = min(ev[order[i]], ev[order[i+1]])
	}
	return ev, true
}

// hopTable summarizes the kept records: per-hop medians and means, and
// the end-to-end median, from complete records only.
type hopTable struct {
	names   []string
	p50     []float64 // ns
	mean    []float64 // ns
	e2eP50  float64
	e2eMean float64
	records int
}

func (tr *tracer) table() hopTable {
	hs := hopsFor(tr.tcp)
	segs := make([][]float64, len(hs))
	var e2e []float64
	for i := range tr.hops {
		ev, ok := tr.hops[i].clamped(tr.tcp)
		if !ok {
			continue
		}
		for k, h := range hs {
			segs[k] = append(segs[k], float64(ev[h.to]-ev[h.from]))
		}
		e2e = append(e2e, float64(ev[evDelE]-ev[evGen]))
	}
	t := hopTable{records: len(e2e)}
	for k, h := range hs {
		t.names = append(t.names, h.name)
		t.p50 = append(t.p50, quantile(segs[k], 0.5))
		t.mean = append(t.mean, mean(segs[k]))
	}
	t.e2eP50 = quantile(e2e, 0.5)
	t.e2eMean = mean(e2e)
	return t
}

// rawQuantile returns the q-quantile (ns) of one raw boundary gap over
// the complete records.
func (tr *tracer) rawQuantile(from, to int, q float64) float64 {
	var v []float64
	for i := range tr.hops {
		ev := tr.hops[i].ev
		if ev[from] != 0 && ev[to] != 0 {
			v = append(v, float64(ev[to]-ev[from]))
		}
	}
	return quantile(v, q)
}

// reconcile returns the sum of the hop medians over the end-to-end median.
func (t hopTable) reconcile() float64 {
	sum := 0.0
	for _, v := range t.p50 {
		sum += v
	}
	return sum / t.e2eP50
}

// print writes the per-hop table to w.
func (t hopTable) print(w io.Writer, name string) {
	fmt.Fprintf(w, "perfbench: %s per-hop ledger (%d traced reports)\n", name, t.records)
	fmt.Fprintf(w, "  %-48s %12s %12s %8s\n", "hop", "p50 µs", "mean µs", "mean %")
	for i, n := range t.names {
		fmt.Fprintf(w, "  %-48s %12.1f %12.1f %7.1f%%\n", n, t.p50[i]/1e3, t.mean[i]/1e3, 100*t.mean[i]/t.e2eMean)
	}
	fmt.Fprintf(w, "  %-48s %12.1f %12.1f\n", "end to end", t.e2eP50/1e3, t.e2eMean/1e3)
	fmt.Fprintf(w, "  sum of hop p50s / end-to-end p50 = %.3f\n", t.reconcile())
}

// writeSpans writes up to spansWritten traced reports as span trees, one
// JSON object per line: the gen.send root and its children with start,
// end and self time (duration minus the part the children cover).
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type span struct {
		Name   string `json:"name"`
		Parent string `json:"parent,omitempty"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		SelfNs int64  `json:"self_ns"`
	}
	children := []struct {
		name    string
		s, e    int
		tcpOnly bool
	}{
		{"cluster.submit", evSubS, evSubE, false},
		{"serve.daemon.submit", evDsubS, evDsubE, true},
		{"handover.score", evScoreS, evScoreE, false},
		{"serve.daemon.route", evRouteS, evRouteE, true},
		{"cluster.deliver", evDelS, evDelE, false},
	}
	step := max(1, len(tr.hops)/spansWritten)
	for i := 0; i < len(tr.hops); i += step {
		h := tr.hops[i]
		root := span{Name: "gen.send", Start: h.ev[evGen], End: h.ev[evDelE]}
		spans := []span{}
		var cover [][2]int64
		for _, c := range children {
			if c.tcpOnly && !tr.tcp {
				continue
			}
			s := span{Name: c.name, Parent: "gen.send", Start: h.ev[c.s], End: h.ev[c.e]}
			s.SelfNs = s.End - s.Start
			spans = append(spans, s)
			cover = append(cover, [2]int64{max(s.Start, root.Start), min(s.End, root.End)})
		}
		root.SelfNs = root.End - root.Start - covered(cover)
		spans = append([]span{root}, spans...)
		if err := enc.Encode(map[string]any{"terminal": h.terminal, "seq": h.seq, "spans": spans}); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}
