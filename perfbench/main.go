// Command perfbench is the repository benchmark: it runs one named
// workload against the handover-decision stack (compiled fuzzy kernel →
// serve shards → wire codec → cluster router), prints every end-to-end
// metric with its unit, and checks that the delivered decisions are
// correct.  With --trace 1 it runs the workload twice — untraced, then
// with spans and counters recorded by the benchmark's own wrappers — and
// prints the per-layer metrics instead.  See README.md for why each
// workload exists and what each metric should move.
//
//	go -C perfbench run . --workload tcp-closed --seed 1 --seconds 10 --trace 0
//	go -C perfbench run . --curve perfbench/results/curve.json --seconds 5
//
// The last line of standard output is the result object; the line
// before it carries the run's provenance and sample counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Run shape.
const (
	warmup       = time.Second
	setupRepeats = 10
	// segments is how many fresh topologies one untraced run measures.
	segments = 5
	// tmpRoot and traceDir hold everything a run writes, inside the
	// checkout it runs from.
	tmpRoot  = ".bench_build/tmp"
	traceDir = ".bench_build/traces"
)

// workload is one named traffic mix; README.md records why each exists.
type workload struct {
	name   string
	family string // sim scenario family: "paper" or "trend"
	algo   string // handover.AlgorithmFactoryFor selector, compiled
	tcp    bool   // nodes are daemons behind cluster.DialTCP
	rate   float64
	churn  time.Duration
	nodes  int // initial ring members
}

var workloads = []workload{
	{name: "local-closed", family: "paper", algo: "fuzzy", nodes: numNodes},
	{name: "tcp-closed", family: "paper", algo: "fuzzy", tcp: true, nodes: numNodes},
	{name: "tcp-open-50k", family: "paper", algo: "fuzzy", tcp: true, rate: 50000, nodes: numNodes},
	{name: "trend-churn", family: "trend", algo: "trendfuzzy", tcp: true, rate: 30000, churn: 500 * time.Millisecond, nodes: 1},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		curve   = flag.String("curve", "", "run the tcp-open latency/throughput ladder and write it to this file")
	)
	flag.Parse()
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be > 0"))
	}
	if *curve != "" {
		if err := runCurve(*curve, *seed, *seconds); err != nil {
			fatal(err)
		}
		return
	}
	w, err := lookup(*name)
	if err != nil {
		fatal(err)
	}
	var res result
	var detail map[string]any
	if *trace == 1 {
		res, detail, err = runTraced(w, *seed, *seconds)
	} else {
		res, detail, err = runE2E(w, *seed, *seconds)
	}
	if err != nil {
		fatal(err)
	}
	detail["provenance"] = provenance(w, *seed)
	line, err := json.Marshal(detail)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// phase is one measured load run on a built topology.
type phase struct {
	window float64 // measured seconds
	load   float64 // generators' running seconds, warm-up included
	// rates, cpuPer, p50s and p99s hold one value per measured window:
	// decisions/s and CPU µs per decision over the whole window, and the
	// latency quantiles over all of its samples.  Merged segments report
	// their median, so one slow topology instance does not decide the
	// result, while anything that recurs within a window still shows.
	rates, cpuPer, p50s, p99s []float64
	// liveMB is the live heap after a full GC once the window's load has
	// drained: what the system retains, without the in-flight reports
	// whose amount depends on when a GC happened to run.
	liveMB []float64
	// latN counts latency samples across merged segments.
	latN  int
	lag   obs.Histogram
	migMs []float64
	gens  int
	check check
}

// merge pools another segment's samples and checks into p.
func (p *phase) merge(q *phase) {
	p.window += q.window
	p.rates = append(p.rates, q.rates...)
	p.cpuPer = append(p.cpuPer, q.cpuPer...)
	p.liveMB = append(p.liveMB, q.liveMB...)
	p.p50s = append(p.p50s, q.p50s...)
	p.p99s = append(p.p99s, q.p99s...)
	p.latN += q.latN
	p.migMs = append(p.migMs, q.migMs...)
	c := &p.check
	c.submitted += q.check.submitted
	c.delivered += q.check.delivered
	c.lost += q.check.lost
	c.errors += q.check.errors
	c.rejected += q.check.rejected
	c.outOfOrder += q.check.outOfOrder
	c.checkedTerminals += q.check.checkedTerminals
	c.mismatchTerminals += q.check.mismatchTerminals
	c.mismatchReports += q.check.mismatchReports
}

func (p *phase) decisionsPerS() float64  { return quantile(p.rates, 0.5) }
func (p *phase) cpuPerDecision() float64 { return quantile(p.cpuPer, 0.5) }
func (p *phase) heapMB() float64         { return quantile(p.liveMB, 0.5) }
func (p *phase) latencyP50() float64     { return quantile(p.p50s, 0.5) }
func (p *phase) latencyP99() float64     { return quantile(p.p99s, 0.5) }

// measure records latency for the window's length and takes the window's
// totals: the router's delivered decisions, the process CPU time, and the
// quantiles of every latency sample the window recorded.  The samples
// are dropped once their quantiles are taken.
func (p *phase) measure(router cluster.Router, led *ledger, window time.Duration) {
	led.take()
	led.recording.Store(true)
	t0, d0, c0 := time.Now(), router.Stats().Totals().Decisions, cpuTime()
	time.Sleep(window)
	t1, d1, c1 := time.Now(), router.Stats().Totals().Decisions, cpuTime()
	led.recording.Store(false)
	p.window = t1.Sub(t0).Seconds()
	if d1 > d0 {
		p.rates = append(p.rates, float64(d1-d0)/p.window)
		p.cpuPer = append(p.cpuPer, (c1-c0)/float64(d1-d0))
	}
	lat := led.take()
	p.latN += len(lat)
	if len(lat) >= 100 {
		p.p50s = append(p.p50s, quantile(lat, 0.5))
		p.p99s = append(p.p99s, quantile(lat, 0.99))
	}
}

func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e3
}

// runPhase warms the topology up under the workload's load, measures a
// window of the given length, stops the load, drains, and checks the
// run.  atEnd, when non-nil, is called as the window closes.
func runPhase(w workload, st *streamSet, led *ledger, tp *topology, window time.Duration, tr *tracer, seed int64, atEnd func()) (*phase, error) {
	p := &phase{}
	var stop atomic.Bool
	var wg sync.WaitGroup
	var errMu sync.Mutex
	var loadErrs []error
	fail := func(err error) {
		errMu.Lock()
		loadErrs = append(loadErrs, err)
		errMu.Unlock()
	}
	submit := func(rs []serve.Report, _ int64) error { return tp.router.SubmitBatch(rs) }
	if tr != nil {
		submit = func(rs []serve.Report, built int64) error { return tr.submit(tp.router, rs, built) }
	}
	loadStart := time.Now()
	var ol *openLoop
	if w.rate > 0 {
		led.sched.start = mono()
		ol = &openLoop{sched: led.sched, submit: submit, report: st.report, lag: &p.lag}
		p.gens = 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := ol.run(&stop); err != nil {
				fail(err)
			}
		}()
	} else {
		p.gens = min(2, runtime.NumCPU())
		for g := 0; g < p.gens; g++ {
			lo, hi := g*numTerminals/p.gens, (g+1)*numTerminals/p.gens
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := closedLoop(st, led, lo, hi, submit, &stop); err != nil {
					fail(err)
				}
			}()
		}
	}
	aux := make(chan struct{})
	var auxWG sync.WaitGroup
	if w.churn > 0 {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			ms, err := tp.churnLoop(w.churn, seed, aux, tr)
			p.migMs = ms
			if err != nil {
				fail(err)
			}
		}()
	}
	if tr != nil && tp.tcp != nil {
		auxWG.Add(1)
		go func() {
			defer auxWG.Done()
			tr.sampleQueues(tp.tcp, aux)
		}()
	}

	time.Sleep(warmup)
	p.measure(tp.router, led, window)
	if atEnd != nil {
		atEnd()
	}

	stop.Store(true)
	wg.Wait()
	p.load = time.Since(loadStart).Seconds()
	close(aux)
	auxWG.Wait()
	if ol != nil {
		ol.sentTo(led)
	}
	if err := tp.router.Flush(60 * time.Second); err != nil {
		fail(fmt.Errorf("drain: %w", err))
	}
	runtime.GC()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(live)
	p.liveMB = []float64{float64(live[0].Value.Uint64()) / (1 << 20)}
	if err := errors.Join(loadErrs...); err != nil {
		return p, err
	}
	c, err := verify(w, st, led, tp.router, seed)
	p.check = c
	return p, err
}

// newRunLedger returns a fresh ledger (with the open-loop schedule for
// open workloads).
func newRunLedger(w workload) *ledger {
	var sched *schedule
	if w.rate > 0 {
		sched = &schedule{rate: w.rate, terminals: numTerminals}
	}
	return newLedger(sched)
}

// runE2E is the untraced run.  The window is split into segments, each
// on a freshly built topology (set up setupRepeats times, the last one
// kept).  Each segment yields its window's totals and latency quantiles,
// and every metric is the median over the segments, so one slow topology
// instance does not decide the result.
func runE2E(w workload, seed int64, seconds float64) (result, map[string]any, error) {
	var setups []float64
	p := &phase{}
	for seg := 0; seg < segments; seg++ {
		var tp *topology
		var st *streamSet
		var led *ledger
		for i := 0; i < setupRepeats; i++ {
			if tp != nil {
				if err := tp.close(); err != nil {
					return result{}, nil, err
				}
			}
			start := time.Now()
			var err error
			if st, err = buildStreams(w.family, seed); err != nil {
				return result{}, nil, err
			}
			led = newRunLedger(w)
			if tp, err = buildTopology(w, led, nil); err != nil {
				return result{}, nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		q, err := runPhase(w, st, led, tp, dur(seconds/segments), nil, seed, nil)
		if cerr := tp.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, nil, err
		}
		p.merge(q)
	}
	res := result{
		Correct:   p.check.ok(),
		Attempted: p.check.submitted + p.check.rejected,
		Failed:    p.check.failed(),
		Metrics: map[string]metric{
			"setup_s":             {quantile(setups, 0.5), "s"},
			"decisions_per_s":     {p.decisionsPerS(), "1/s"},
			"latency_p50_ms":      {p.latencyP50(), "ms"},
			"latency_p99_ms":      {p.latencyP99(), "ms"},
			"cpu_us_per_decision": {p.cpuPerDecision(), "us"},
			"heap_inuse_mb":       {p.heapMB(), "MB"},
		},
	}
	detail := map[string]any{
		"latency_samples":         p.latN,
		"latency_p50_ms_segments": p.p50s,
		"latency_p99_ms_segments": p.p99s,
		"latency_from":            latencyFrom(w),
		"setup_s_samples":         setups,
		"rate_segments":           len(p.rates),
		"checked_terminals":       p.check.checkedTerminals,
		"mismatches":              p.check.mismatchTerminals,
		"lost":                    p.check.lost,
	}
	if len(p.migMs) > 0 {
		detail["migrate_ms"] = p.migMs
	}
	report(os.Stderr, w, p, res)
	return res, detail, nil
}

func latencyFrom(w workload) string {
	if w.rate > 0 {
		return "scheduled send time (open loop)"
	}
	return fmt.Sprintf("closed-loop submit with ≤%d reports in flight per terminal", closedInflight)
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// report prints a human-readable summary of a phase.
func report(f *os.File, w workload, p *phase, res result) {
	fmt.Fprintf(f, "perfbench: %s: %.0f decisions/s over %.2fs, %d latency samples, %d terminals checked, correct=%v failed=%d/%d\n",
		w.name, p.decisionsPerS(), p.window, p.latN, p.check.checkedTerminals, res.Correct, res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(f, "  %-48s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if len(p.migMs) > 0 {
		fmt.Fprintf(f, "  membership changes: %d, median %.1f ms\n", len(p.migMs), quantile(p.migMs, 0.5))
	}
}

// runTraced measures the workload untraced and then traced (half the
// window each), and derives the per-layer metrics from the traced run.
func runTraced(w workload, seed int64, seconds float64) (result, map[string]any, error) {
	window := dur(max(seconds/2, 1))
	st, err := buildStreams(w.family, seed)
	if err != nil {
		return result{}, nil, err
	}
	led := newRunLedger(w)
	tp, err := buildTopology(w, led, nil)
	if err != nil {
		return result{}, nil, err
	}
	un, err := runPhase(w, st, led, tp, window, nil, seed, nil)
	if cerr := tp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, nil, err
	}

	led = newRunLedger(w)
	tr := newTracer(w, led.sched)
	if tp, err = buildTopology(w, led, tr); err != nil {
		return result{}, nil, err
	}
	p, err := runPhase(w, st, led, tp, window, tr, seed, nil)
	var snaps []serve.TerminalSnapshot
	if err == nil {
		for _, e := range tp.engines() {
			s, serr := e.SnapshotTerminals()
			if serr != nil {
				err = serr
				break
			}
			snaps = append(snaps, s...)
		}
	}
	stats := tp.router.Stats()
	points := [][]obs.Point{}
	for _, r := range tp.registries() {
		points = append(points, r.Export())
	}
	taps := tp.taps()
	if cerr := tp.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, nil, err
	}
	tr.harvestAll()
	table := tr.table()
	table.print(os.Stderr, w.name)
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return result{}, nil, err
	}
	spanFile := filepath.Join(traceDir, w.name+".spans.jsonl")
	if err := tr.writeSpans(spanFile); err != nil {
		return result{}, nil, err
	}

	m := map[string]metric{}
	// cluster
	m["cluster.submit_us_p50"] = metric{float64(tr.submitDur.Quantile(0.5)) / 1e3, "us"}
	m["cluster.submit_us_p99"] = metric{float64(tr.submitDur.Quantile(0.99)) / 1e3, "us"}
	m["cluster.submit_busy_share"] = metric{float64(tr.submitBusy.Load()) / 1e9 / (p.load * float64(p.gens)), "ratio"}
	var total, busiest uint64
	for _, n := range stats.Nodes {
		total += n.Submitted
		busiest = max(busiest, n.Submitted)
	}
	m["cluster.node_share_max"] = metric{float64(busiest) / float64(max(1, total)), "ratio"}
	m["cluster.migrate_ms_p50"] = metric{quantile(p.migMs, 0.5), "ms"}
	m["cluster.migrate_ms_max"] = metric{quantile(p.migMs, 1), "ms"}
	moved := 0.0
	if len(p.migMs) > 0 {
		moved = float64(tr.moved.Load()) / float64(len(p.migMs))
	}
	m["cluster.moved_terminals_per_op"] = metric{moved, "count"}
	m["cluster.migration_buffered_max"] = metric{float64(tr.bufferMax.Load()), "count"}
	// serve.client, serve.daemon and net exist only over TCP; they read 0
	// in process.
	lines := float64(tr.dsubCalls.Load())
	perLine := float64(tr.dsubReports.Load()) / max(1, lines)
	m["serve.client.reports_per_line"] = metric{perLine, "count"}
	m["serve.client.queued_lines_p99"] = metric{quantile(tr.queued, 0.99), "count"}
	decided := float64(max(1, stats.Totals().Decisions))
	m["net.tx_bytes_per_report"] = metric{float64(tr.rxBytes.Load()) / float64(max(1, stats.Totals().Submitted)), "bytes"}
	m["net.rx_bytes_per_decision"] = metric{float64(tr.txBytes.Load()) / decided, "bytes"}
	m["net.writes_per_kdecision"] = metric{(lines + float64(tr.daemonWrites.Load())) * 1000 / decided, "count"}
	m["serve.daemon.reports_per_submit"] = metric{perLine, "count"}
	m["serve.daemon.submit_us_p50"] = metric{float64(tr.dsubDur.Quantile(0.5)) / 1e3, "us"}
	m["serve.daemon.route_ns_p50"] = metric{float64(tr.routeDur.Quantile(0.5)), "ns"}
	var returnMs, ingestMs float64
	if w.tcp {
		returnMs = tr.rawQuantile(evRouteE, evDelS, 0.5) / 1e6
		ingestMs = tr.rawQuantile(evDsubS, evRouteS, 0.5) / 1e6
	} else {
		ingestMs = tr.rawQuantile(evSubS, evDelS, 0.5) / 1e6
	}
	m["serve.daemon.return_ms_p50"] = metric{returnMs, "ms"}
	m["serve.engine.ingest_to_route_ms_p50"] = metric{ingestMs, "ms"}
	// serve.engine stage histograms, count-weighted across nodes
	m["serve.engine.queue_wait_us_p50"] = metric{histQuantile(points, "serve_queue_wait_ns", 0.5) / 1e3, "us"}
	m["serve.engine.queue_wait_us_p99"] = metric{histQuantile(points, "serve_queue_wait_ns", 0.99) / 1e3, "us"}
	m["serve.engine.service_us_p50"] = metric{histQuantile(points, "serve_batch_service_ns", 0.5) / 1e3, "us"}
	// handover
	var frames, rows, evaluated uint64
	var scoreNs int64
	for _, t := range taps {
		frames += t.frames
		rows += t.rows
		evaluated += t.evaluated
		scoreNs += t.scoreNs
	}
	m["handover.rows_per_frame"] = metric{float64(rows) / float64(max(1, frames)), "count"}
	m["handover.score_ns_per_row"] = metric{float64(scoreNs) / float64(max(1, rows)), "ns"}
	m["handover.evaluated_share"] = metric{float64(evaluated) / float64(max(1, rows)), "ratio"}
	// offline codec and kernel timing on the captured traffic
	outs := tr.capOut[:min(uint64(len(tr.capOut)), tr.capOutN.Load())]
	wire, err := wireTimings(tr.capBatches, outs, snaps)
	if err != nil {
		return result{}, nil, err
	}
	for k, v := range wire {
		m[k] = v
	}
	axes, nsRow, err := kernelTiming(taps)
	if err != nil {
		return result{}, nil, err
	}
	m["fuzzy.eval_ns_per_row_3axis"] = metric{0, "ns"}
	m["fuzzy.eval_ns_per_row_4axis"] = metric{0, "ns"}
	m[fmt.Sprintf("fuzzy.eval_ns_per_row_%daxis", axes)] = metric{nsRow, "ns"}
	// generator and trace
	lagMs, overhead := 0.0, p.decisionsPerS()/un.decisionsPerS()
	if w.rate > 0 {
		lagMs = float64(p.lag.Quantile(0.99)) / 1e6
		// At a fixed offered rate throughput cannot move; the capacity
		// tracing costs shows as CPU per decision instead.
		overhead = un.cpuPerDecision() / p.cpuPerDecision()
	}
	m["gen.lag_ms_p99"] = metric{lagMs, "ms"}
	m["trace.overhead_share"] = metric{overhead, "ratio"}
	m["trace.reconcile_ratio"] = metric{table.reconcile(), "ratio"}

	ok := un.check.ok() && p.check.ok()
	res := result{
		Correct:   ok,
		Attempted: un.check.submitted + un.check.rejected + p.check.submitted + p.check.rejected,
		Failed:    un.check.failed() + p.check.failed(),
		Metrics:   m,
	}
	report(os.Stderr, w, p, res)
	detail := map[string]any{
		"traced_reports":      table.records,
		"unfinished_records":  tr.unfinish.Load(),
		"span_file":           spanFile,
		"untraced_decision_s": un.decisionsPerS(),
		"traced_decision_s":   p.decisionsPerS(),
		"hops_p50_us":         hopMap(table),
		"e2e_p50_us":          table.e2eP50 / 1e3,
	}
	return res, detail, nil
}

func hopMap(t hopTable) map[string]float64 {
	out := map[string]float64{}
	for i, n := range t.names {
		out[n] = t.p50[i] / 1e3
	}
	return out
}

// histQuantile reads a stage histogram's exported quantile from every
// registry point of that name and averages it weighted by sample count.
func histQuantile(points [][]obs.Point, name string, q float64) float64 {
	var sum, n float64
	for _, ps := range points {
		for _, p := range ps {
			if p.Name != name || p.Count == 0 {
				continue
			}
			for _, qq := range p.Quantiles {
				if qq.Q == q {
					sum += qq.Value * float64(p.Count)
					n += float64(p.Count)
				}
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// provenance records where and how the run was made.
func provenance(w workload, seed int64) map[string]any {
	p := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"link":       "in-process",
		"terminals":  numTerminals,
		"nodes":      fmt.Sprintf("%d × %d shard", w.nodes, nodeShards),
	}
	if w.tcp {
		p["link"] = "loopback"
	}
	if w.rate > 0 {
		p["offered_rate_per_s"] = w.rate
	} else {
		p["offered_rate_per_s"] = fmt.Sprintf("closed loop, ≤%d in flight per terminal", closedInflight)
	}
	if w.churn > 0 {
		p["churn_every"] = w.churn.String()
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown (built outside a git checkout)"
}
