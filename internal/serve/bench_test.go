package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/handover"
	"repro/internal/obs"
)

// benchQueueDepth is the per-shard queue bound of the serve benchmarks:
// deep enough that ingest is never the bottleneck, shallow enough that the
// warm-up pass can build the complete sub-batch buffer population (shards
// × depth buffers; see bufPool) before the timer starts.
const benchQueueDepth = 256

// benchEngine builds and starts an engine with the given shard count.
func benchEngine(b *testing.B, shards int, compiled bool) *Engine {
	b.Helper()
	return benchEngineCfg(b, Config{Shards: shards, QueueDepth: benchQueueDepth, Compiled: compiled})
}

func benchEngineCfg(b *testing.B, cfg Config) *Engine {
	b.Helper()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Stop() })
	return e
}

// warmEngine pushes enough reports through the engine to build every
// steady-state resource: terminal state structs, inference scratches, and
// — the big one — the full sub-batch buffer population of every shard
// queue (a queue of depth D lazily builds D buffers while producers
// outpace the shard).  Benchmarks that skip this measure the population
// build as per-op bytes that scale with shards × depth instead of the
// steady state, which is exactly the artifact the old BENCH_serve.json
// recorded.
func warmEngine(b *testing.B, e *Engine, batches [][]Report) {
	b.Helper()
	runLoad(b, e, batches, e.NumShards()*benchQueueDepth*maxSubBatch+4*512)
}

// runLoad pushes n reports through the engine from `submitters` concurrent
// goroutines, each cycling its own terminal-disjoint batch, then flushes.
func runLoad(b *testing.B, e *Engine, batches [][]Report, n int) {
	b.Helper()
	var wg sync.WaitGroup
	per := (n + len(batches) - 1) / len(batches)
	for _, batch := range batches {
		wg.Add(1)
		go func(batch []Report) {
			defer wg.Done()
			sent := 0
			for sent < per {
				if err := e.SubmitBatch(batch); err != nil {
					b.Error(err)
					return
				}
				sent += len(batch)
			}
		}(batch)
	}
	wg.Wait()
	e.Flush()
}

// submitterBatches splits a terminal population into terminal-disjoint
// batches, one per submitter, so per-terminal report order is preserved.
func submitterBatches(submitters, batchLen, terminals int) [][]Report {
	out := make([][]Report, submitters)
	for s := range out {
		batch := steadyBatch(batchLen, terminals/submitters)
		for i := range batch {
			batch[i].Terminal = TerminalID(s*1_000_000) + batch[i].Terminal
		}
		out[s] = batch
	}
	return out
}

// benchServeShards is the body shared by the shard scaling benchmarks
// (exact, compiled and adaptive): 4 submitter goroutines feed every
// configuration so ingest is never the bottleneck, and the warm-up builds
// the full buffer population so the timed region is true steady state.
func benchServeShards(b *testing.B, e *Engine) {
	benchServeBatches(b, e, submitterBatches(4, 512, 256))
}

// benchServeBatches warms the engine on batches, then times b.N reports
// of them and reports the decision rate.
func benchServeBatches(b *testing.B, e *Engine, batches [][]Report) {
	warmEngine(b, e, batches)
	before := e.Stats().Totals().Decisions
	b.ReportAllocs()
	b.ResetTimer()
	runLoad(b, e, batches, b.N)
	b.StopTimer()
	decided := e.Stats().Totals().Decisions - before
	b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/sec")
}

// BenchmarkServeShards measures steady-state serving throughput (ns per
// decision) as the shard count grows — the scaling headline.
func BenchmarkServeShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServeShards(b, benchEngine(b, shards, false))
		})
	}
}

// BenchmarkServeCompiled is BenchmarkServeShards on the compiled control
// surface: the shard decide loop drains sub-batches through the columnar
// EvaluateBatch pipeline instead of per-decision Mamdani inference.
func BenchmarkServeCompiled(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServeShards(b, benchEngine(b, shards, true))
		})
	}
}

// BenchmarkServeCompiledMetrics is BenchmarkServeCompiled with the full
// telemetry layer live — registry, stage histograms, verdict tallies —
// recording what always-on metrics cost the compiled hot path (the
// acceptance budget is <2% against the uninstrumented baseline).
func BenchmarkServeCompiledMetrics(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngineCfg(b, Config{
				Shards: shards, QueueDepth: benchQueueDepth, Compiled: true,
				Metrics: obs.NewRegistry(),
			})
			benchServeShards(b, e)
		})
	}
}

// BenchmarkServeAdaptive serves the speed-adaptive extension on the
// compiled kernel through the columnar pipeline — the third decision mode
// the bench-smoke gate tracks.
func BenchmarkServeAdaptive(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngineCfg(b, Config{
				Shards: shards, QueueDepth: benchQueueDepth,
				AlgorithmFactory: func() handover.Algorithm {
					a, err := handover.NewCompiledAdaptiveFuzzy()
					if err != nil {
						panic(err)
					}
					return a
				},
			})
			benchServeShards(b, e)
		})
	}
}

// BenchmarkServeTrend serves the 4-input trendfuzzy controller on its
// compiled kernel from one shard: the stateful-schema path, where decide
// cuts a sub-batch into frames at repeated terminals.  The interleaved
// order cycles 64 terminals per submitter, so each sub-batch holds every
// terminal once and scores as one frame; the contiguous order sends each
// terminal runs of 8 adjacent reports, so frames hold one or two rows.
func BenchmarkServeTrend(b *testing.B) {
	factory, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		b.Fatal(err)
	}
	for _, order := range []struct {
		name string
		run  int
	}{{"interleaved", 1}, {"contiguous", 8}} {
		b.Run(order.name, func(b *testing.B) {
			batches := submitterBatches(4, 512, 256)
			for s, batch := range batches {
				for i := range batch {
					batch[i].Terminal = TerminalID(s*1_000_000 + (i/order.run)%64)
				}
			}
			e := benchEngineCfg(b, Config{Shards: 1, QueueDepth: benchQueueDepth, AlgorithmFactory: factory})
			benchServeBatches(b, e, batches)
		})
	}
}

// BenchmarkServeIngestOnly isolates the routing/queueing overhead: every
// report is settled by the POTLC quality gate, so the decision work is a
// branch and the measurement is hash + channel + state bookkeeping.
func BenchmarkServeIngestOnly(b *testing.B) {
	e := benchEngine(b, 4, false)
	batches := make([][]Report, 4)
	for s := range batches {
		batch := make([]Report, 512)
		for i := range batch {
			batch[i] = gateMeas(TerminalID(s*1_000_000 + i%64))
		}
		batches[s] = batch
	}
	warmEngine(b, e, batches)
	b.ReportAllocs()
	b.ResetTimer()
	runLoad(b, e, batches, b.N)
}

// BenchmarkServeSubmitBatch measures the producer-side cost alone: one
// goroutine submitting against idle-enough shards (large queue, 4 shards).
func BenchmarkServeSubmitBatch(b *testing.B) {
	e := benchEngine(b, 4, false)
	batch := steadyBatch(512, 64)
	warmEngine(b, e, [][]Report{batch})
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		if err := e.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
		sent += len(batch)
	}
	e.Flush()
}
