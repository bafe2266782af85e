package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/handover"
	"repro/internal/serve"
)

// offlineBudget is the wall time each offline timing loop runs for.
const offlineBudget = 150 * time.Millisecond

// timePer runs f over items 0..n-1 repeatedly for offlineBudget (after
// one warm pass) and returns wall ns and heap allocations per call.  It
// runs after the topology is torn down, so nothing else allocates.
func timePer(n int, f func(i int)) (ns, allocs float64) {
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		f(i)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	calls := 0
	start := time.Now()
	for time.Since(start) < offlineBudget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// wireTimings times the wire codec on the run's captured traffic: the
// batch lines the router sent (per node), the outcome lines it received,
// and the nodes' terminal snapshots as snapshot lines and as the
// control-plane chunks a migration streams.
func wireTimings(batches [][]serve.Report, outs []serve.Outcome, snaps []serve.TerminalSnapshot) (map[string]metric, error) {
	m := map[string]metric{}
	var lines [][]byte
	reports := 0
	for _, b := range batches {
		lines = append(lines, serve.AppendBatchJSON(nil, b))
		reports += len(b)
	}
	if len(lines) == 0 || len(outs) == 0 || len(snaps) == 0 {
		return nil, fmt.Errorf("offline timing: captured %d batch lines, %d outcomes, %d snapshots", len(lines), len(outs), len(snaps))
	}
	perLine := float64(reports) / float64(len(lines))
	parsed := make([][]serve.Report, len(lines))
	for i, l := range lines {
		rs, err := serve.ParseBatchLine(l)
		if err != nil {
			return nil, fmt.Errorf("captured batch line %d: %w", i, err)
		}
		parsed[i] = rs
	}
	ns, allocs := timePer(len(lines), func(i int) { serve.ParseBatchLine(lines[i]) })
	m["serve.wire.batch_decode_ns_per_report"] = metric{ns / perLine, "ns"}
	m["serve.wire.batch_decode_allocs_per_report"] = metric{allocs / perLine, "allocs"}
	buf := make([]byte, 0, 1<<16)
	ns, _ = timePer(len(parsed), func(i int) { buf = serve.AppendBatchJSON(buf[:0], parsed[i]) })
	m["serve.wire.batch_encode_ns_per_report"] = metric{ns / perLine, "ns"}

	olines := make([][]byte, len(outs))
	for i, o := range outs {
		olines[i] = serve.AppendOutcomeJSON(nil, o)
	}
	ns, allocs = timePer(len(olines), func(i int) { serve.ParseOutcomeLine(olines[i]) })
	m["serve.wire.outcome_decode_ns"] = metric{ns, "ns"}
	m["serve.wire.outcome_decode_allocs"] = metric{allocs, "allocs"}
	ns, _ = timePer(len(outs), func(i int) { buf = serve.AppendOutcomeJSON(buf[:0], outs[i]) })
	m["serve.wire.outcome_encode_ns"] = metric{ns, "ns"}

	slines := make([][]byte, len(snaps))
	for i, s := range snaps {
		slines[i] = serve.AppendSnapshotJSON(nil, s)
	}
	ns, _ = timePer(len(slines), func(i int) { serve.ParseSnapshotLine(slines[i]) })
	m["serve.wire.snapshot_decode_ns"] = metric{ns, "ns"}
	ns, _ = timePer(len(snaps), func(i int) { buf = serve.AppendSnapshotJSON(buf[:0], snaps[i]) })
	m["serve.wire.snapshot_encode_ns"] = metric{ns, "ns"}

	// Control lines carry snapshots in chunks, as an extract streams them.
	const chunk = 512
	var clines [][]byte
	for rest := snaps; len(rest) > 0; {
		n := min(len(rest), chunk)
		clines = append(clines, serve.AppendControlJSON(nil, serve.WireControl{Op: "snapshots", Snapshots: rest[:n]}))
		rest = rest[n:]
	}
	ns, _ = timePer(len(clines), func(i int) { serve.ParseControlLine(clines[i]) })
	m["serve.wire.control_decode_ns_per_snapshot"] = metric{ns * float64(len(clines)) / float64(len(snaps)), "ns"}
	return m, nil
}

// kernelTiming times CompiledSurface.EvaluateBatch on the captured frame
// columns (rows that reached the FLC), clamped to the universes exactly
// as the scorers clamp them, frame by frame.  It returns ns per row, or
// 0 when no frames were captured.
func kernelTiming(taps []*scorerTap) (axes int, nsPerRow float64, err error) {
	var frames [][][]float64
	rows := 0
	for _, tap := range taps {
		axes = tap.axes
		from := 0
		for _, end := range tap.frameEnds {
			cols := make([][]float64, tap.axes)
			for k := range cols {
				cols[k] = append([]float64(nil), tap.cols[k][from:end]...)
			}
			frames = append(frames, cols)
			rows += end - from
			from = end
		}
	}
	if rows == 0 {
		return axes, 0, nil
	}
	var surf *fuzzy.CompiledSurface
	switch axes {
	case 3:
		flc, err := core.DefaultCompiledFLC()
		if err != nil {
			return axes, 0, err
		}
		surf = flc.Surface()
	case 4:
		if surf, err = handover.DefaultTrendSurface(); err != nil {
			return axes, 0, err
		}
	default:
		return axes, 0, fmt.Errorf("no compiled surface for %d axes", axes)
	}
	for _, cols := range frames {
		for i := range cols[0] {
			cols[0][i], cols[1][i], cols[2][i] = core.ClampInputs(cols[0][i], cols[1][i], cols[2][i])
			if axes == 4 {
				cols[3][i] = handover.ClampToUniverse(cols[3][i], handover.TrendMin, handover.TrendMax)
			}
		}
	}
	dst := make([]float64, 1<<12)
	ns, _ := timePer(len(frames), func(i int) {
		surf.EvaluateBatch(dst[:len(frames[i][0])], frames[i])
	})
	return axes, ns * float64(len(frames)) / float64(rows), nil
}
