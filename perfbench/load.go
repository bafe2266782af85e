package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Load shape.
const (
	// batchSize is the closed loops' reports per SubmitBatch call.
	batchSize = 256
	// closedInflight bounds each terminal's undecided reports in the
	// closed loops: a terminal sends its next report only while fewer
	// than this many of its earlier ones are still undecided.
	closedInflight = 4
	// stampSlots is the per-terminal ring of closed-loop submit stamps;
	// it must exceed closedInflight so a stamp outlives its report.
	stampSlots = 32
	// latSampleEvery picks the terminals whose closed-loop latency is
	// recorded (t % latSampleEvery == 0); the open loop records all.
	latSampleEvery = 16
	// openTick is the open-loop send period and openMaxBatch the most
	// reports one tick hands to SubmitBatch in one call.
	openTick     = time.Millisecond
	openMaxBatch = 256
	latShards    = 8
)

// epoch anchors mono, the one clock every hook in the process reads.
var epoch = time.Now()

// mono returns monotonic nanoseconds since epoch.
func mono() int64 { return int64(time.Since(epoch)) }

// submitFn hands one batch to the system under test.  built is when the
// generator started building the batch (mono); closed loops use it as
// the reports' generation time.
type submitFn func(rs []serve.Report, built int64) error

// termState is one terminal's delivery record, written by whichever
// callback goroutine delivers its outcomes (one at a time: per-terminal
// order is preserved end to end) and read by its generator.
type termState struct {
	delivered atomic.Uint64
	digest    atomic.Uint64
}

// ledger accounts every report the generators send and every outcome the
// router delivers: per-terminal sent/delivered counts and decision
// digests for the correctness check, and latency samples while the
// measured window is open.
type ledger struct {
	terms []termState
	// sent[t] is written only by the generator goroutine owning t.
	sent []uint64
	// stamps holds closed-loop submit times of the latency-sampled
	// terminals, stampSlots per terminal, indexed by seq.
	stamps []atomic.Int64
	// sched, when non-nil, is the open-loop schedule: latency runs from
	// a report's scheduled send time.
	sched *schedule

	recording  atomic.Bool
	outOfOrder atomic.Uint64
	rejected   atomic.Uint64
	lat        [latShards]struct {
		mu sync.Mutex
		v  []int64
	}
}

func newLedger(sched *schedule) *ledger {
	return &ledger{
		terms:  make([]termState, numTerminals),
		sent:   make([]uint64, numTerminals),
		stamps: make([]atomic.Int64, numTerminals/latSampleEvery*stampSlots),
		sched:  sched,
	}
}

// stamp records a closed-loop submit time for a latency-sampled report.
func (l *ledger) stamp(t int, seq uint64, at int64) {
	l.stamps[t/latSampleEvery*stampSlots+int(seq%stampSlots)].Store(at)
}

// foldOutcome extends a terminal's decision digest by one outcome: its
// sequence number, verdict flags and exact score bits.
func foldOutcome(d uint64, o serve.Outcome) uint64 {
	x := o.Seq
	if o.Decision.Handover {
		x ^= 1 << 61
	}
	if o.Executed {
		x ^= 1 << 62
	}
	if o.PingPong {
		x ^= 1 << 63
	}
	x ^= math.Float64bits(o.Decision.Score) * 0x9E3779B97F4A7C15
	d = (d ^ x) * 0x100000001B3
	return d ^ d>>29
}

// deliver records one outcome delivered to the router callback at now.
func (l *ledger) deliver(node int, o serve.Outcome, now int64) {
	t := int(o.Terminal)
	if t < 0 || t >= len(l.terms) {
		l.outOfOrder.Add(1)
		return
	}
	ts := &l.terms[t]
	n := ts.delivered.Load()
	if o.Seq != n || o.Err != nil {
		l.outOfOrder.Add(1)
	}
	ts.digest.Store(foldOutcome(ts.digest.Load(), o))
	ts.delivered.Store(n + 1)
	if !l.recording.Load() {
		return
	}
	var from int64
	switch {
	case l.sched != nil:
		from = l.sched.at(l.sched.index(t, o.Seq))
	case t%latSampleEvery == 0:
		from = l.stamps[t/latSampleEvery*stampSlots+int(o.Seq%stampSlots)].Load()
	default:
		return
	}
	sh := &l.lat[node%latShards]
	sh.mu.Lock()
	sh.v = append(sh.v, now-from)
	sh.mu.Unlock()
}

// take returns the latency samples recorded since the previous take, in
// ms, and drops them from the ledger, so no sample stays reachable once
// the caller is done with it.
func (l *ledger) take() []float64 {
	var out []float64
	for i := range l.lat {
		sh := &l.lat[i]
		sh.mu.Lock()
		v := sh.v
		sh.v = nil
		sh.mu.Unlock()
		for _, x := range v {
			out = append(out, float64(x)/1e6)
		}
	}
	return out
}

// totals sums sent and delivered reports over the population.
func (l *ledger) totals() (sent, delivered uint64) {
	for t := range l.terms {
		sent += l.sent[t]
		delivered += l.terms[t].delivered.Load()
	}
	return sent, delivered
}

// closedLoop drives terminals [lo, hi) until stop: one report per
// terminal per pass, in batches of batchSize, with at most
// closedInflight undecided reports per terminal.  A terminal at its
// bound makes the generator hand over its partial batch and sleep, so
// the generator never spins against the system it measures.
func closedLoop(st *streamSet, l *ledger, lo, hi int, submit submitFn, stop *atomic.Bool) error {
	batch := make([]serve.Report, 0, batchSize)
	seqs := make([]uint64, 0, batchSize)
	var built int64
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		now := mono()
		for i := range batch {
			if t := int(batch[i].Terminal); t%latSampleEvery == 0 {
				l.stamp(t, seqs[i], now)
			}
		}
		err := submit(batch, built)
		if err != nil {
			l.rejected.Add(uint64(len(batch)))
		}
		batch, seqs = batch[:0], seqs[:0]
		return err
	}
	for {
		for t := lo; t < hi; t++ {
			seq := l.sent[t]
			for seq-l.terms[t].delivered.Load() >= closedInflight {
				if err := flush(); err != nil {
					return err
				}
				if stop.Load() {
					return nil
				}
				time.Sleep(50 * time.Microsecond)
			}
			if stop.Load() {
				return flush()
			}
			if len(batch) == 0 {
				built = mono()
			}
			batch = append(batch, st.report(t, seq))
			seqs = append(seqs, seq)
			l.sent[t] = seq + 1
			if len(batch) == batchSize {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
}

// schedule is the open loop's arrival plan: report g (terminal g mod N,
// that terminal's report number g div N) is due at start + g/rate.
type schedule struct {
	rate      float64
	terminals int
	start     int64
}

func (s *schedule) index(t int, seq uint64) uint64 {
	return seq*uint64(s.terminals) + uint64(t)
}

func (s *schedule) at(g uint64) int64 {
	return s.start + int64(float64(g)*1e9/s.rate)
}

// due returns how many reports are due by now.
func (s *schedule) due(now int64) uint64 {
	if now < s.start {
		return 0
	}
	return uint64(float64(now-s.start)*s.rate/1e9) + 1
}

// openLoop sends the schedule's reports on openTick ticks: each tick
// hands every report now due to submit (in batches of at most
// openMaxBatch) and sleeps to the next tick.  A stalled submit delays
// later sends but never their schedule, so the latency the ledger
// records from the schedule includes the stall (no coordinated
// omission), and lag records how late each report was sent.
type openLoop struct {
	sched  *schedule
	submit submitFn
	report func(t int, seq uint64) serve.Report
	lag    *obs.Histogram
	next   uint64
}

// run sends until stop and returns the number of reports sent.
func (g *openLoop) run(stop *atomic.Bool) (uint64, error) {
	batch := make([]serve.Report, 0, openMaxBatch)
	n := uint64(g.sched.terminals)
	for tick := int64(1); !stop.Load(); tick++ {
		due := g.sched.due(mono())
		for g.next < due {
			batch = batch[:0]
			first := g.next
			for g.next < due && len(batch) < openMaxBatch {
				batch = append(batch, g.report(int(g.next%n), g.next/n))
				g.next++
			}
			sendAt := mono()
			for i := first; i < g.next; i++ {
				g.lag.Observe(uint64(max(0, sendAt-g.sched.at(i))))
			}
			if err := g.submit(batch, sendAt); err != nil {
				return g.next, err
			}
		}
		wake := g.sched.start + tick*int64(openTick)
		if d := wake - mono(); d > 0 {
			time.Sleep(time.Duration(d))
		} else {
			// Missed ticks are not replayed one by one: the next pass
			// sends everything due, which is the same reports.
			tick = (mono() - g.sched.start) / int64(openTick)
		}
	}
	return g.next, nil
}

// sentTo fills l.sent from the count of reports the open loop sent.
func (g *openLoop) sentTo(l *ledger) {
	n := uint64(g.sched.terminals)
	for t := range l.sent {
		l.sent[t] = g.next / n
		if uint64(t) < g.next%n {
			l.sent[t]++
		}
	}
}
