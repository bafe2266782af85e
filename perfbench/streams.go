package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
)

// Population shape shared by every workload: hoload's walk grid (seed
// replicas × speeds 0, 10, 30, 50 km/h per scenario family), with 16
// replicas instead of hoload's default 4.  With 4, the trend family has
// only 16 walks, and which 16 the seed picks moved trend-churn's
// migration time and latency p99 by a third from seed to seed; 16
// replicas average that out.
const (
	numTerminals = 4096
	simReplicas  = 16
)

var simSpeeds = []float64{0, 10, 30, 50}

// streamSet is the generated input of one run: the simulated report
// streams and the seeded assignment of terminals to them.  Terminal t's
// report number k is streams[of[t]][(off[t]+k) % len] with Terminal = t,
// so the program only ever sees generated reports, and the whole input
// is a function of the seed.
type streamSet struct {
	streams [][]serve.Report
	of      []int
	off     []int
}

// buildStreams simulates the scenario family's walk grid on seed-derived
// sub-streams and maps the terminal population onto it.
func buildStreams(family string, seed int64) (*streamSet, error) {
	var bases []sim.Config
	switch family {
	case "paper":
		bases = []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()}
	case "trend":
		bases = []sim.Config{sim.TrendDriftConfig()}
	default:
		return nil, fmt.Errorf("unknown scenario family %q", family)
	}
	var cfgs []sim.Config
	for _, b := range bases {
		// The benchmark seed selects which sub-streams of the family's
		// anchor seed are walked; replicas then derive from that.
		b.Seed = rng.DeriveSeed(b.Seed, int(uint32(seed)))
		c, _ := sim.SweepGrid(family, b, simReplicas, simSpeeds)
		cfgs = append(cfgs, c...)
	}
	results, err := sim.RunFleet(cfgs, 0)
	if err != nil {
		return nil, err
	}
	st := &streamSet{
		streams: make([][]serve.Report, len(results)),
		of:      make([]int, numTerminals),
		off:     make([]int, numTerminals),
	}
	for i, res := range results {
		st.streams[i] = serve.ReplayReports(0, res.Measurements())
		if len(st.streams[i]) == 0 {
			return nil, fmt.Errorf("sim config %d produced an empty stream", i)
		}
	}
	r := rand.New(rand.NewPCG(uint64(seed), 0x7e4f1d))
	for t := range st.of {
		st.of[t] = r.IntN(len(st.streams))
		st.off[t] = r.IntN(len(st.streams[st.of[t]]))
	}
	return st, nil
}

// report returns terminal t's report number seq.
func (st *streamSet) report(t int, seq uint64) serve.Report {
	s := st.streams[st.of[t]]
	r := s[(uint64(st.off[t])+seq)%uint64(len(s))]
	r.Terminal = serve.TerminalID(t)
	return r
}

// wireForm returns a copy of the set whose reports went through the wire
// codec once — exactly what a daemon decodes from a batch line — so a
// reference replay of TCP traffic sees the bytes the nodes saw.
func (st *streamSet) wireForm() (*streamSet, error) {
	out := &streamSet{streams: make([][]serve.Report, len(st.streams)), of: st.of, off: st.off}
	for i, s := range st.streams {
		rs, err := serve.ParseBatchLine(serve.AppendBatchJSON(nil, s))
		if err != nil {
			return nil, fmt.Errorf("stream %d does not survive the wire codec: %w", i, err)
		}
		out.streams[i] = rs
	}
	return out, nil
}
