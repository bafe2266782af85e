package serve

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// The BenchmarkWire* family times the wire codec on realistic lines: a
// 25-report paper batch (the per-node line size of the benchmark's
// tcp-open-50k workload) and a 512-snapshot trend "snapshots" chunk (one
// migration chunk).  Each reports ns and heap allocations per item.  The
// prefix keeps them out of hobench's gated default filter.

// wireBenchReports returns n paper reports with full-precision floats,
// as a simulation walk produces them.
func wireBenchReports(n int) []Report {
	rng := rand.New(rand.NewSource(1))
	rs := make([]Report, n)
	for i := range rs {
		serving := -70 - 30*rng.Float64()
		rs[i] = Report{
			Terminal: TerminalID(rng.Intn(4096)),
			Meas: wireMeas(rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)-4, rng.Intn(9)+5,
				serving, serving+10*rng.NormFloat64(), -4*rng.Float64(),
				2*rng.Float64(), 10*rng.Float64(), 50*rng.Float64()),
		}
	}
	return rs
}

// wireBenchSnapshots returns n trend-schema snapshots with partly filled
// ping-pong rings.
func wireBenchSnapshots(n int) []TerminalSnapshot {
	rng := rand.New(rand.NewSource(2))
	snaps := make([]TerminalSnapshot, n)
	for i := range snaps {
		total := rng.Intn(12)
		s := TerminalSnapshot{
			Terminal:    TerminalID(i),
			Seq:         uint64(rng.Intn(5000)),
			PrevDB:      -70 - 30*rng.Float64(),
			HavePrev:    true,
			Serving:     hexgrid.Cell{I: rng.Intn(9) - 4, J: rng.Intn(9) - 4},
			HaveServing: true,
			Handovers:   uint64(total),
			PingPongs:   uint64(total / 3),
			TotalEvents: uint64(total),
			Trend:       handover.TrendState{PrevSSN: -70 - 30*rng.Float64(), Slope: rng.NormFloat64(), Have: true},
		}
		for k := 0; k < min(total, pingPongHistory); k++ {
			s.Events = append(s.Events, SnapshotEvent{
				From:     hexgrid.Cell{I: k, J: -k},
				To:       hexgrid.Cell{I: k + 1, J: -k},
				WalkedKm: 10 * rng.Float64(),
			})
		}
		snaps[i] = s
	}
	return snaps
}

// benchPerItem runs op b.N times and reports ns and allocations per
// item, each op covering items items.
func benchPerItem(b *testing.B, items int, unit string, op func()) {
	b.Helper()
	op() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&m1)
	n := float64(b.N) * float64(items)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/"+unit)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/n, "allocs/"+unit)
}

func BenchmarkWireDecodeBatch(b *testing.B) {
	line := AppendBatchJSON(nil, wireBenchReports(25))
	b.Run("parse", func(b *testing.B) {
		benchPerItem(b, 25, "report", func() {
			if _, err := ParseBatchLine(line); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("reuse", func(b *testing.B) {
		var buf []Report
		benchPerItem(b, 25, "report", func() {
			var err error
			if buf, err = AppendBatchLine(buf[:0], line); err != nil {
				b.Fatal(err)
			}
		})
	})
}

// wireBenchOutcomeLines encodes a mix of decision shapes.
func wireBenchOutcomeLines() [][]byte {
	rng := rand.New(rand.NewSource(3))
	reasons := []string{"FLC-threshold", "POTLC-gate", "below threshold", "execute-handover"}
	lines := make([][]byte, 64)
	for i := range lines {
		o := Outcome{Terminal: TerminalID(rng.Intn(4096)), Seq: uint64(rng.Intn(1 << 20))}
		o.Decision.Reason = reasons[i%len(reasons)]
		if i%4 != 1 {
			o.Decision.Scored, o.Decision.Score = true, rng.Float64()
		}
		o.Decision.Handover = i%7 == 0
		o.Executed = o.Decision.Handover
		lines[i] = AppendOutcomeJSON(nil, o)
	}
	return lines
}

func BenchmarkWireDecodeOutcome(b *testing.B) {
	lines := wireBenchOutcomeLines()
	b.Run("parse", func(b *testing.B) {
		benchPerItem(b, len(lines), "outcome", func() {
			for _, l := range lines {
				if _, err := ParseOutcomeLine(l); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("interned", func(b *testing.B) {
		var tab stringIntern
		benchPerItem(b, len(lines), "outcome", func() {
			for _, l := range lines {
				if _, err := decodeOutcomeLine(l, &tab); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

func BenchmarkWireDecodeSnapshot(b *testing.B) {
	snaps := wireBenchSnapshots(512)
	lines := make([][]byte, len(snaps))
	for i, s := range snaps {
		lines[i] = AppendSnapshotJSON(nil, s)
	}
	benchPerItem(b, len(lines), "snapshot", func() {
		for _, l := range lines {
			if _, err := ParseSnapshotLine(l); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireDecodeControl(b *testing.B) {
	snaps := wireBenchSnapshots(snapshotChunk)
	line := AppendControlJSON(nil, WireControl{Op: "snapshots", Snapshots: snaps})
	benchPerItem(b, len(snaps), "snapshot", func() {
		if _, err := ParseControlLine(line); err != nil {
			b.Fatal(err)
		}
	})
}

func BenchmarkWireEncodeBatch(b *testing.B) {
	rs := wireBenchReports(25)
	buf := make([]byte, 0, 1<<13)
	benchPerItem(b, len(rs), "report", func() {
		buf = AppendBatchJSON(buf[:0], rs)
	})
}

func BenchmarkWireEncodeOutcome(b *testing.B) {
	lines := wireBenchOutcomeLines()
	outs := make([]Outcome, len(lines))
	for i, l := range lines {
		w, err := ParseOutcomeLine(l)
		if err != nil {
			b.Fatal(err)
		}
		outs[i] = w.Outcome()
	}
	buf := make([]byte, 0, 256)
	benchPerItem(b, len(outs), "outcome", func() {
		for i := range outs {
			buf = AppendOutcomeJSON(buf[:0], outs[i])
		}
	})
}
