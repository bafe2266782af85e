package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// curveRates is the open-loop ladder of offered rates (reports/s).
var curveRates = []float64{10000, 20000, 50000, 80000, 110000}

// curveLimitMs is the p99 latency limit the curve's capacity figure uses.
const curveLimitMs = 100

type curvePoint struct {
	OfferedPerS   float64 `json:"offered_per_s"`
	DecidedPerS   float64 `json:"decided_per_s"`
	P50Ms         float64 `json:"latency_p50_ms"`
	P99Ms         float64 `json:"latency_p99_ms"`
	Samples       int     `json:"latency_samples"`
	BacklogGrowth float64 `json:"backlog_growth_reports"`
	Growing       bool    `json:"backlog_growing"`
	Correct       bool    `json:"correct"`
	Failed        uint64  `json:"failed"`
}

// runCurve measures the tcp-open-50k topology at every rate of the
// ladder and writes the latency/throughput curve with the highest rate
// whose p99 stays under curveLimitMs without a growing backlog.  Failed
// or lost reports count as missing the limit.  Latency quantiles are
// taken over every sample of the rate's window.
func runCurve(path string, seed int64, seconds float64) error {
	w, err := lookup("tcp-open-50k")
	if err != nil {
		return err
	}
	st, err := buildStreams(w.family, seed)
	if err != nil {
		return err
	}
	var points []curvePoint
	best := 0.0
	for _, rate := range curveRates {
		w.rate = rate
		led := newRunLedger(w)
		tp, err := buildTopology(w, led, nil)
		if err != nil {
			return err
		}
		// The backlog is what the schedule has made due but the router
		// has not delivered.  It is 0 when the load starts, so its value
		// as the window closes is its growth since the load started,
		// warm-up included.
		var backlog float64
		p, perr := runPhase(w, st, led, tp, dur(seconds), nil, seed, func() {
			backlog = float64(led.sched.due(mono())) - float64(tp.router.Stats().Totals().Decisions)
		})
		if cerr := tp.close(); perr == nil {
			perr = cerr
		}
		if perr != nil {
			return perr
		}
		pt := curvePoint{
			OfferedPerS:   rate,
			DecidedPerS:   p.decisionsPerS(),
			P50Ms:         p.latencyP50(),
			P99Ms:         p.latencyP99(),
			Samples:       p.latN,
			BacklogGrowth: backlog,
			Correct:       p.check.ok(),
			Failed:        p.check.failed(),
		}
		// More than curveLimitMs of offered load left undelivered is a
		// queue that has built up, not reports in flight.
		pt.Growing = pt.BacklogGrowth > rate*curveLimitMs/1000
		points = append(points, pt)
		fmt.Fprintf(os.Stderr, "perfbench: curve %6.0f/s → %8.0f/s  p50 %8.2f ms  p99 %8.2f ms  backlog Δ %8.0f  correct=%v\n",
			rate, pt.DecidedPerS, pt.P50Ms, pt.P99Ms, pt.BacklogGrowth, pt.Correct)
		if pt.Correct && !pt.Growing && pt.P99Ms < curveLimitMs {
			best = rate
		}
	}
	out := map[string]any{
		"workload":              "tcp-open-50k topology, offered-rate ladder",
		"seconds_per_rate":      seconds,
		"p99_limit_ms":          curveLimitMs,
		"max_rate_within_limit": best,
		"points":                points,
		"provenance":            provenance(w, seed),
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
