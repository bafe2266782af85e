package serve

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// simStreams runs the given configs through the single-threaded simulator
// and returns one tagged report stream per run plus the reference results.
func simStreams(t *testing.T, cfgs []sim.Config) ([][]Report, []*sim.Result) {
	t.Helper()
	streams := make([][]Report, len(cfgs))
	results := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("sim config %d: %v", i, err)
		}
		results[i] = res
		streams[i] = ReplayReports(TerminalID(i), res.Measurements())
	}
	return streams, results
}

// paperFleetConfigs expands both paper scenarios across replicas × speeds —
// a small fleet with runs that do and do not hand over.
func paperFleetConfigs() []sim.Config {
	var cfgs []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
		c, _ := sim.SweepGrid("x", base, 2, []float64{0, 30})
		cfgs = append(cfgs, c...)
	}
	return cfgs
}

// recorder collects outcomes per terminal.  Entries are created before the
// engine starts; each terminal's slice is appended to by exactly one shard
// goroutine, so no locking is needed.
type recorder map[TerminalID]*[]Outcome

func newRecorder(n int) recorder {
	r := make(recorder, n)
	for i := 0; i < n; i++ {
		r[TerminalID(i)] = new([]Outcome)
	}
	return r
}

func (r recorder) record(o Outcome) { *r[o.Terminal] = append(*r[o.Terminal], o) }

// checkAgainstSim compares each terminal's outcome sequence with the
// reference sim run: decision (verdict, score, reason), execution flag and
// ping-pong accounting must all match epoch by epoch.
func checkAgainstSim(t *testing.T, rec recorder, results []*sim.Result, shards int) {
	t.Helper()
	for i, res := range results {
		got := *rec[TerminalID(i)]
		if len(got) != len(res.Epochs) {
			t.Fatalf("shards=%d terminal %d: %d outcomes, sim has %d epochs",
				shards, i, len(got), len(res.Epochs))
		}
		pingpongs := 0
		for j, o := range got {
			e := res.Epochs[j]
			if o.Err != nil {
				t.Fatalf("shards=%d terminal %d epoch %d: %v", shards, i, j, o.Err)
			}
			if o.Seq != uint64(j) {
				t.Fatalf("shards=%d terminal %d epoch %d: seq %d", shards, i, j, o.Seq)
			}
			if o.Decision != e.Decision {
				t.Errorf("shards=%d terminal %d epoch %d: decision %+v, sim %+v",
					shards, i, j, o.Decision, e.Decision)
			}
			if o.Executed != e.Executed {
				t.Errorf("shards=%d terminal %d epoch %d: executed %v, sim %v",
					shards, i, j, o.Executed, e.Executed)
			}
			if o.PingPong {
				pingpongs++
			}
		}
		if pingpongs != res.PingPongCount {
			t.Errorf("shards=%d terminal %d: %d ping-pongs, sim counted %d",
				shards, i, pingpongs, res.PingPongCount)
		}
	}
}

// TestDeterminismMatchesSim is the multi-shard determinism guarantee:
// replaying sim-generated walks for a fleet of terminals through the
// engine — reports interleaved round-robin across terminals, any shard
// count — yields per-terminal decision sequences identical to the
// single-threaded sim path.
func TestDeterminismMatchesSim(t *testing.T) {
	cfgs := paperFleetConfigs()
	streams, results := simStreams(t, cfgs)
	reports := InterleaveReports(streams)

	for _, shards := range []int{1, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rec := newRecorder(len(cfgs))
			e, err := New(Config{
				Shards:           shards,
				QueueDepth:       64,
				PingPongWindowKm: sim.DefaultPingPongWindowKm,
				OnDecision:       rec.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			if err := e.SubmitBatch(reports); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			if err := e.Stop(); err != nil {
				t.Fatal(err)
			}
			checkAgainstSim(t, rec, results, shards)

			totals := e.Stats().Totals()
			wantHO, wantPP := uint64(0), uint64(0)
			for _, res := range results {
				wantHO += uint64(res.HandoverCount())
				wantPP += uint64(res.PingPongCount)
			}
			if totals.Decisions != uint64(len(reports)) ||
				totals.Handovers != wantHO || totals.PingPongs != wantPP ||
				totals.Terminals != uint64(len(cfgs)) || totals.Errors != 0 {
				t.Errorf("totals %+v, want decisions=%d handovers=%d pingpongs=%d terminals=%d",
					totals, len(reports), wantHO, wantPP, len(cfgs))
			}
		})
	}
}

// trendFleetConfigs expands the trend-drift scenario family across
// replicas × speeds with the given algorithm factory — the fleet for the
// 4-input stateful-schema determinism pins.
func trendFleetConfigs(factory func() handover.Algorithm) []sim.Config {
	cfgs, _ := sim.SweepGrid("trend", sim.TrendDriftConfig(), 2, []float64{0, 30})
	for i := range cfgs {
		cfgs[i].AlgorithmFactory = factory
	}
	return cfgs
}

// TestDeterminismTrendFuzzy pins the stateful-schema columnar path: the
// 4-input trend controller's serve decisions — the SSN-trend feature
// extracted from shard-held per-terminal derived state and scored through
// the whole-frame gather — must match the single-threaded sim path, which
// advances the same derivation inside the scalar Decide.  Interleaved
// streams keep sub-batch terminals distinct, so this drives the
// whole-frame stateful gather.
func TestDeterminismTrendFuzzy(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			factory, err := handover.AlgorithmFactoryFor("trendfuzzy", compiled)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := trendFleetConfigs(factory)
			streams, results := simStreams(t, cfgs)
			reports := InterleaveReports(streams)

			for _, shards := range []int{1, 4} {
				rec := newRecorder(len(cfgs))
				e, err := New(Config{
					Shards:           shards,
					QueueDepth:       64,
					AlgorithmFactory: factory,
					PingPongWindowKm: sim.DefaultPingPongWindowKm,
					OnDecision:       rec.record,
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := handover.TrendFeatureSchema().Hash(); e.SchemaHash() != want {
					t.Fatalf("engine schema hash %#x, want trend schema %#x", e.SchemaHash(), want)
				}
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				if err := e.SubmitBatch(reports); err != nil {
					t.Fatal(err)
				}
				e.Flush()
				if err := e.Stop(); err != nil {
					t.Fatal(err)
				}
				checkAgainstSim(t, rec, results, shards)
			}
		})
	}
}

// TestDeterminismTrendFuzzySequentialBatches submits each terminal's
// stream contiguously, so repeated terminals share sub-batches and the
// stateful frame cut serves them; decisions must still match the sim
// reference.  The trend fleet's few handovers are followed by rows the
// POTLC gate settles, so TestStatefulFrameCutMatchesPerReport is what
// pins the cut itself.
func TestDeterminismTrendFuzzySequentialBatches(t *testing.T) {
	factory, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := trendFleetConfigs(factory)
	streams, results := simStreams(t, cfgs)
	var reports []Report
	for _, s := range streams {
		reports = append(reports, s...)
	}

	rec := newRecorder(len(cfgs))
	e, err := New(Config{
		Shards:           4,
		QueueDepth:       64,
		AlgorithmFactory: factory,
		PingPongWindowKm: sim.DefaultPingPongWindowKm,
		OnDecision:       rec.record,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	checkAgainstSim(t, rec, results, 4)
}

// trendChurnStreams is a seeded stateful-schema workload that hands over
// often.  Every report sits below the POTLC gate (serving under −75 dB),
// so the trend FLC and the PRTLC decide each one, and a terminal's
// reports hop at random between two cells: the row after an executed
// handover either confirms the new attachment or reattaches the terminal
// externally, and both reset its SSN-trend derivation mid-stream.
func trendChurnStreams(terminals, reports int, seed int64) [][]Report {
	rng := rand.New(rand.NewSource(seed))
	cells := [2]hexgrid.Cell{{I: 0, J: 0}, {I: 1, J: 0}}
	streams := make([][]Report, terminals)
	for id := range streams {
		stream := make([]Report, reports)
		walked := 0.0
		for j := range stream {
			k := rng.Intn(2)
			walked += 0.05
			stream[j] = Report{Terminal: TerminalID(id), Meas: cell.Measurement{
				WalkedKm:   walked,
				Serving:    cells[k],
				Neighbor:   cells[1-k],
				ServingDB:  -76 - 20*rng.Float64(),
				CSSPdB:     -8 + 10*rng.Float64(),
				NeighborDB: -100 + 20*rng.Float64(),
				DMBNorm:    0.4 + rng.Float64(),
				SpeedKmh:   30,
			}}
		}
		streams[id] = stream
	}
	return streams
}

// TestStatefulFrameCutMatchesPerReport pins the stateful frame cut: a
// trendfuzzy sub-batch that repeats terminals must decide exactly as the
// same reports submitted one at a time.  A frame holding two rows of one
// terminal would gather the second row before the first one's commit —
// before a mid-batch handover resets the trend — so every outcome
// (verdict, score bits, execution, ping-pong, seq) is compared.  The
// contiguous order repeats each terminal in adjacent rows; the
// interleaved order repeats them through the routing table's bucket
// chains, where the cut needs each terminal's latest earlier row.
func TestStatefulFrameCutMatchesPerReport(t *testing.T) {
	factory, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	streams := trendChurnStreams(8, 200, 15)
	var contiguous []Report
	for _, s := range streams {
		contiguous = append(contiguous, s...)
	}
	run := func(reports []Report, batch bool) (recorder, uint64) {
		t.Helper()
		rec := newRecorder(len(streams))
		e, err := New(Config{Shards: 1, QueueDepth: 64, AlgorithmFactory: factory, OnDecision: rec.record})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		if batch {
			err = e.SubmitBatch(reports)
		} else {
			for _, r := range reports {
				if err = e.Submit(r); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Flush()
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
		return rec, e.Stats().Totals().Handovers
	}
	for _, tc := range []struct {
		name    string
		reports []Report
	}{
		{"contiguous", contiguous},
		{"interleaved", InterleaveReports(streams)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, handovers := run(tc.reports, false)
			// Without frequent mid-stream handovers the cut is never
			// exercised: the POTLC gate would settle the repeats anyway.
			if handovers < 100 {
				t.Fatalf("per-report reference executed %d handovers; the workload no longer churns", handovers)
			}
			got, _ := run(tc.reports, true)
			mismatches := 0
			for id, w := range want {
				g := *got[id]
				if len(g) != len(*w) {
					t.Fatalf("terminal %d: %d batch outcomes, %d per-report", id, len(g), len(*w))
				}
				for j, o := range *w {
					if g[j] != o {
						if mismatches < 3 {
							t.Errorf("terminal %d report %d: batch %+v, per-report %+v", id, j, g[j], o)
						}
						mismatches++
					}
				}
			}
			if mismatches > 0 {
				t.Errorf("%d of %d outcomes differ from per-report submission (%d handovers)", mismatches, len(tc.reports), handovers)
			}
		})
	}
}

// TestNewRejectsNonBatchScorer pins the serving contract: every report
// is decided through the frame pipeline, so an algorithm without a frame
// path is refused at construction, by name.
func TestNewRejectsNonBatchScorer(t *testing.T) {
	_, err := New(Config{Shards: 2, AlgorithmFactory: func() handover.Algorithm { return handover.NewHysteresisTTT(3, 2) }})
	if err == nil {
		t.Fatal("New accepted an algorithm that is not a BatchScorer")
	}
	if name := handover.NewHysteresisTTT(3, 2).Name(); !strings.Contains(err.Error(), name) || !strings.Contains(err.Error(), "BatchScorer") {
		t.Fatalf("error %q does not name the algorithm %q and the BatchScorer requirement", err, name)
	}
}
