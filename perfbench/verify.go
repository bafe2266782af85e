package main

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/cluster"
	"repro/internal/serve"
)

// replayBudget bounds the reports the reference replay decides; a run
// that sent more checks a seeded sample of terminals instead of all.
const replayBudget = 2_000_000

// check is the outcome of one run's correctness check.
type check struct {
	submitted, delivered uint64
	lost, errors         uint64
	rejected, outOfOrder uint64
	checkedTerminals     int
	mismatchTerminals    int
	mismatchReports      uint64
}

// failed counts the reports the run failed: rejected, lost, decided with
// an error, delivered out of order, or delivered with decisions that
// differ from the reference engine's.
func (c check) failed() uint64 {
	return c.rejected + c.lost + c.errors + c.outOfOrder + c.mismatchReports
}

func (c check) ok() bool {
	return c.failed() == 0 && c.submitted == c.delivered+c.lost
}

// verify checks a drained run.  The ledger must balance exactly
// (Submitted = Delivered + Lost with Lost = 0), and each checked
// terminal's delivered decision sequence must equal what one in-process
// serve.Engine decides for the exact report sequence the terminal sent.
func verify(w workload, st *streamSet, led *ledger, router cluster.Router, seed int64) (check, error) {
	tot := router.Stats().Totals()
	c := check{
		submitted:  tot.Submitted,
		delivered:  tot.Decisions,
		lost:       tot.Lost,
		errors:     tot.Errors,
		rejected:   led.rejected.Load(),
		outOfOrder: led.outOfOrder.Load(),
	}
	sent, delivered := led.totals()
	if sent != tot.Submitted+c.rejected || delivered != tot.Decisions {
		return c, fmt.Errorf("ledger mismatch: generators sent %d (rejected %d), router submitted %d; callback saw %d, router delivered %d",
			sent, c.rejected, tot.Submitted, delivered, tot.Decisions)
	}
	ref := st
	if w.tcp {
		var err error
		if ref, err = st.wireForm(); err != nil {
			return c, err
		}
	}
	// Pick the terminals to replay: all of them, or a seeded sample
	// sized to the replay budget.
	terms := rand.New(rand.NewPCG(uint64(seed), 0x5eed)).Perm(numTerminals)
	if sent > replayBudget {
		terms = terms[:max(1, int(uint64(numTerminals)*replayBudget/sent))]
	}
	c.checkedTerminals = len(terms)

	digest := make([]uint64, numTerminals)
	count := make([]uint64, numTerminals)
	cfg, err := engineConfig(w, nil, nil)
	if err != nil {
		return c, err
	}
	cfg.OnDecision = func(o serve.Outcome) {
		t := int(o.Terminal)
		digest[t] = foldOutcome(digest[t], o)
		count[t]++
	}
	eng, err := serve.New(cfg)
	if err != nil {
		return c, err
	}
	if err := eng.Start(); err != nil {
		return c, err
	}
	var longest uint64
	for _, t := range terms {
		longest = max(longest, led.sent[t])
	}
	batch := make([]serve.Report, 0, batchSize)
	for seq := uint64(0); seq < longest; seq++ {
		for _, t := range terms {
			if seq >= led.sent[t] {
				continue
			}
			batch = append(batch, ref.report(t, seq))
			if len(batch) == batchSize {
				if err := eng.SubmitBatch(batch); err != nil {
					eng.Stop()
					return c, err
				}
				batch = batch[:0]
			}
		}
	}
	if err := eng.SubmitBatch(batch); err != nil {
		eng.Stop()
		return c, err
	}
	if err := eng.Stop(); err != nil {
		return c, err
	}
	for _, t := range terms {
		ts := &led.terms[t]
		if count[t] != ts.delivered.Load() || digest[t] != ts.digest.Load() {
			c.mismatchTerminals++
			c.mismatchReports += max(count[t], ts.delivered.Load())
		}
	}
	return c, nil
}
