package main

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// TestOpenLoopCountsStall is the coordinated-omission self-test of the
// open-loop generator: the target stalls once for 50 ms, and every report
// scheduled during the stall must record at least the time it waited,
// while gen.lag shows the generator ran late.
func TestOpenLoopCountsStall(t *testing.T) {
	const (
		rate  = 20000
		terms = 64
		stall = 50 * time.Millisecond
		run   = 500 * time.Millisecond
	)
	sched := &schedule{rate: rate, terminals: terms, start: mono()}
	led := newLedger(sched)
	led.recording.Store(true)
	stallAt := sched.start + int64(200*time.Millisecond)
	var stallStart, stallEnd int64
	seqs := make([]uint64, terms)
	// lat[g] is report g's latency as the ledger's clock sees it.
	lat := map[uint64]int64{}
	submit := func(rs []serve.Report, _ int64) error {
		if stallEnd == 0 && mono() >= stallAt {
			stallStart = mono()
			time.Sleep(stall)
			stallEnd = mono()
		}
		now := mono()
		for _, r := range rs {
			term := int(r.Terminal)
			o := serve.Outcome{Terminal: r.Terminal, Seq: seqs[term]}
			seqs[term]++
			led.deliver(0, o, now)
			lat[sched.index(term, o.Seq)] = now - sched.at(sched.index(term, o.Seq))
		}
		return nil
	}
	g := &openLoop{
		sched:  sched,
		submit: submit,
		report: func(t int, _ uint64) serve.Report { return serve.Report{Terminal: serve.TerminalID(t)} },
		lag:    new(obs.Histogram),
	}
	var stop atomic.Bool
	time.AfterFunc(run, func() { stop.Store(true) })
	sent, err := g.run(&stop)
	if err != nil {
		t.Fatal(err)
	}
	if stallEnd == 0 {
		t.Fatal("the target never stalled")
	}
	if want := uint64(run.Seconds() * rate * 0.9); sent < want {
		t.Fatalf("sent %d reports, want ≥ %d: the generator did not catch up after the stall", sent, want)
	}
	during := 0
	for gi := uint64(0); gi < sent; gi++ {
		at := sched.at(gi)
		if at < stallStart || at >= stallEnd {
			continue
		}
		during++
		if wait := stallEnd - at; lat[gi] < wait {
			t.Errorf("report %d scheduled %v into the stall recorded %v, less than its %v wait",
				gi, time.Duration(at-stallStart), time.Duration(lat[gi]), time.Duration(wait))
		}
	}
	if during < int(stall.Seconds()*rate/2) {
		t.Fatalf("only %d reports were scheduled during the stall", during)
	}
	// The ledger path the benchmark reports from sees the same waits:
	// every report due in the stall's first half waited ≥ half the stall.
	half := int64(stall / 2)
	long := 0
	for _, ms := range led.take() {
		if ms*1e6 >= float64(half) {
			long++
		}
	}
	if want := int(float64(stallEnd-half-stallStart) / 1e9 * rate); long < want {
		t.Errorf("ledger recorded %d latencies ≥ %v, want ≥ %d", long, time.Duration(half), want)
	}
	if p99 := time.Duration(g.lag.Quantile(0.99)); p99 < stall/2 {
		t.Errorf("gen.lag p99 = %v, want ≥ %v after a %v stall", p99, stall/2, stall)
	}
}
