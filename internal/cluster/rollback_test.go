package cluster

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// errInjected is the fault faultyNode injects.
var errInjected = errors.New("injected restore failure")

// faultyNode wraps a member and fails the restores failRestore picks —
// the fault that drives a membership change into rollback.  Restores run
// only on the goroutine driving the change, so the hook needs no lock.
type faultyNode struct {
	node
	failRestore func(skipLive bool) bool
}

func (f *faultyNode) restore(snaps []serve.TerminalSnapshot, skipLive bool) error {
	if f.failRestore(skipLive) {
		return errInjected
	}
	return f.node.restore(snaps, skipLive)
}

// failNth fails the n-th plain (non-skip-live) restore and nothing else.
func failNth(n int) func(skipLive bool) bool {
	calls := 0
	return func(skipLive bool) bool {
		if skipLive {
			return false
		}
		calls++
		return calls == n
	}
}

// wrapMember swaps member id for a faultyNode around it until the
// returned function restores the original.
func wrapMember(l *Local, id int, fail func(skipLive bool) bool) (unwrap func()) {
	l.memMu.Lock()
	inner := l.nodes[id]
	l.nodes[id] = &faultyNode{node: inner, failRestore: fail}
	l.memMu.Unlock()
	return func() {
		l.memMu.Lock()
		l.nodes[id] = inner
		l.memMu.Unlock()
	}
}

// addFaultyNode is Local.AddNode with the joining engine wrapped.
func addFaultyNode(l *Local, fail func(skipLive bool) bool) (int, error) {
	return l.addNode("", func(id int) (node, error) {
		n, err := l.startNode(id)
		if err != nil {
			return nil, err
		}
		return &faultyNode{node: n, failRestore: fail}, nil
	})
}

// newRecordedLocal is a 2-member in-process cluster whose outcomes feed
// rec.
func newRecordedLocal(t *testing.T, rec *outcomeRecorder, orphanDir string) *Local {
	t.Helper()
	var recMu sync.Mutex
	l, err := NewLocal(LocalConfig{
		Nodes:     2,
		Engine:    serve.Config{Shards: 2, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm},
		OrphanDir: orphanDir,
		OnDecision: func(_ int, o serve.Outcome) {
			recMu.Lock()
			rec.record(o)
			recMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// checkRolledBack asserts a membership change failed on the injected
// fault and left the ring exactly as it was, with no migration open.
func checkRolledBack(t *testing.T, l *Local, label string, err error, want []int) {
	t.Helper()
	if !errors.Is(err, errInjected) {
		t.Fatalf("%s = %v, want the injected restore failure", label, err)
	}
	if got := l.Members(); !equalInts(got, want) {
		t.Fatalf("%s rolled back to members %v, want %v", label, got, want)
	}
	if ms := l.Migration(); ms.Active {
		t.Fatalf("%s rolled back with the migration still active: %+v", label, ms)
	}
}

// TestLocalMembershipRollback drives AddNode and RemoveNode into
// rollback through a member whose restore fails after part of the state
// has already landed, and demands that each rollback leaves the old
// membership, no open migration, and terminal state such that the
// replay continues byte-identical to a single engine with nothing lost —
// including through a later successful change over the same arcs.
func TestLocalMembershipRollback(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	rec := newOutcomeRecorder(terminals)
	l := newRecordedLocal(t, rec, t.TempDir())
	defer l.Close()
	replayChunks(t, l.SubmitBatch, reports, 4, func(chunk int) {
		switch chunk {
		case 1:
			// The joining member takes node 0's arcs, then fails on node
			// 1's: rollback reclaims what landed and returns it.
			_, err := addFaultyNode(l, failNth(2))
			checkRolledBack(t, l, "AddNode", err, []int{0, 1})
			if id, err := l.AddNode(); err != nil || id != 2 {
				t.Fatalf("AddNode after rollback = %d, %v; want 2, nil", id, err)
			}
		case 2:
			// Node 1 leaves; its terminals land on node 0, then node 2
			// fails: rollback strips node 0's copies.
			unwrap := wrapMember(l, 2, failNth(1))
			err := l.RemoveNode(1)
			unwrap()
			checkRolledBack(t, l, "RemoveNode", err, []int{0, 1, 2})
		case 3:
			// The same change over the same arcs now succeeds: nothing the
			// rollback left behind collides with it.
			if err := l.RemoveNode(1); err != nil {
				t.Fatal(err)
			}
		}
	})
	if err := l.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkSequencesEqual(t, "local/rollback", rec, ref)
	tot := l.Stats().Totals()
	if tot.Decisions != uint64(len(reports)) || tot.Lost != 0 {
		t.Errorf("totals %+v, want decisions=%d lost=0", tot, len(reports))
	}
}

// TestLocalRollbackQuarantinesOrphans: when the return-to-owner restore
// of a rollback fails too, exactly the terminals that had moved are
// written to a cluster-orphans-*.jsonl file under OrphanDir that
// serve.ReadSnapshots reads back — state is quarantined, never dropped.
func TestLocalRollbackQuarantinesOrphans(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	dir := t.TempDir()
	rec := newOutcomeRecorder(terminals)
	l := newRecordedLocal(t, rec, dir)
	defer l.Close()
	mid := len(reports) / 2
	replayChunks(t, l.SubmitBatch, reports[:mid], 1, nil)

	// The joining member takes node 0's arcs and fails on node 1's; node 0
	// then refuses them back, so they can land nowhere.
	unwrap := wrapMember(l, 0, func(skipLive bool) bool { return skipLive })
	_, err := addFaultyNode(l, failNth(2))
	unwrap()
	checkRolledBack(t, l, "AddNode", err, []int{0, 1})

	oldRing, err := NewRingMembers([]int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRingMembers([]int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[serve.TerminalID]bool{}
	for _, r := range reports[:mid] {
		if oldRing.NodeOf(r.Terminal) == 0 && newRing.NodeOf(r.Terminal) == 2 {
			wantSet[r.Terminal] = true
		}
	}
	if len(wantSet) == 0 {
		t.Fatal("degenerate setup: node 0 moves no terminals to the joining member")
	}
	files, err := filepath.Glob(filepath.Join(dir, "cluster-orphans-*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("orphan files %v (%v), want exactly one", files, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := serve.ReadSnapshots(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var got, want []int
	for _, s := range snaps {
		got = append(got, int(s.Terminal))
	}
	for id := range wantSet {
		want = append(want, int(id))
	}
	sort.Ints(got)
	sort.Ints(want)
	if !equalInts(got, want) {
		t.Fatalf("quarantined terminals %v, want the moved ones %v", got, want)
	}

	// Node 0 never released its originals, so the replay still continues
	// byte-identical.
	replayChunks(t, l.SubmitBatch, reports[mid:], 1, nil)
	if err := l.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkSequencesEqual(t, "local/orphans", rec, ref)
}
