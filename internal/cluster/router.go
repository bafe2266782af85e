package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/serve"
)

// Router routes measurement reports to the engine node owning each
// terminal.  Both backends (Local and TCP) are the same router driving
// different node kinds, and both guarantee per-terminal submission order
// is preserved end to end, which is what makes cluster decision
// sequences identical to a single engine's.
//
// Backpressure semantics are part of the contract:
//
//   - SubmitBatch blocks while a destination cannot accept (an
//     in-process node blocks in Engine.SubmitBatch's bounded queues; a
//     TCP node blocks on its client's send queue).
//   - TrySubmitBatch never blocks: a full destination fails fast with a
//     *BacklogError (errors.Is serve.ErrBacklogged) naming the lowest
//     backlogged member and how many reports were shed — sub-batches
//     bound for other nodes are still accepted, so the error is the
//     caller's resubmission ledger, never a silent drop.
type Router interface {
	// Submit routes one report.
	Submit(r serve.Report) error
	// SubmitBatch routes a batch, coalescing per destination node and
	// blocking under backpressure.
	SubmitBatch(rs []serve.Report) error
	// TrySubmitBatch routes a batch without blocking; see the
	// backpressure contract above.
	TrySubmitBatch(rs []serve.Report) error
	// Flush blocks until every routed report is decided (or accounted
	// lost by a failed node), up to timeout.
	Flush(timeout time.Duration) error
	// Stats snapshots the per-node counters.
	Stats() Stats
	// NumNodes returns the member count.
	NumNodes() int
	// Members returns the live member IDs in ascending order.
	Members() []int
	// NodeOf returns the ring's owner for a terminal.
	NodeOf(id serve.TerminalID) int
	// Migration snapshots the in-flight membership change, if any:
	// Active=false means the ring is stable.  Submissions never block on
	// a migration — unmoved arcs route normally and moving arcs buffer —
	// so this is observability, not a gate.
	Migration() MigrationStatus
	// Close tears the router down.  In-process engines are drained and
	// stopped; TCP node connections are flushed and closed.
	Close() error
}

// MigrationStatus is the observable progress of an in-flight membership
// change (Router.Migration, /statusz).
type MigrationStatus struct {
	// Active reports a change in flight; Op ("addnode"/"removenode") and
	// Node name it; Phase is the current step ("prepare", "copy:<src>",
	// "restore:<dst>", "release", "cutover").
	Active bool   `json:"active"`
	Op     string `json:"op,omitempty"`
	Node   int    `json:"node"`
	Phase  string `json:"phase,omitempty"`
	// Buffered counts reports for moving terminals held in the
	// route-to-both buffer, to be released at cutover.
	Buffered int `json:"buffered"`
}

// BacklogError reports a fail-fast submission that shed reports because a
// node's queue was full.  It unwraps to serve.ErrBacklogged.
type BacklogError struct {
	// Node is the lowest backlogged member ID (a full migration buffer
	// counts against the moving reports' new owners); Shed the total
	// reports (across all backlogged members) that were NOT accepted and
	// may be resubmitted by the caller.
	Node int
	Shed int
}

func (e *BacklogError) Error() string {
	return fmt.Sprintf("cluster: node %d backlogged; %d reports shed", e.Node, e.Shed)
}

func (e *BacklogError) Unwrap() error { return serve.ErrBacklogged }

// NodeStats is one member's counter snapshot.
type NodeStats struct {
	// Node is the member index (-1 in aggregated totals); Addr its dial
	// address for the TCP backend ("" in-process).
	Node int
	Addr string
	// Submitted counts reports routed to the node; Decisions the
	// decisions it delivered; Lost the reports a failed TCP connection
	// dropped (always 0 in-process).
	Submitted, Decisions, Lost uint64
	// Handovers/PingPongs/Errors tally executed handovers, flagged
	// returns, and errors (algorithm errors in-process; line-level remote
	// rejects over TCP) among the node's decisions.
	Handovers, PingPongs, Errors uint64
	// Terminals is the distinct-terminal count (in-process only: the wire
	// protocol does not carry it).
	Terminals uint64
	// Reconnects counts re-established node connections (TCP only).
	Reconnects uint64
	// QueueDepth is the instantaneous ingest backlog (sub-batches
	// in-process, encoded lines over TCP).
	QueueDepth int
	// Departed marks a node removed from the ring: its counters are the
	// frozen final snapshot, kept so totals still account its work.
	Departed bool
}

// Stats is a point-in-time snapshot of every node's counters, merging the
// per-node serve.Stats (in-process) or client ledgers (TCP).
type Stats struct {
	Nodes []NodeStats
}

// Totals aggregates the per-node counters (Node is -1).
func (s Stats) Totals() NodeStats {
	t := NodeStats{Node: -1}
	for _, n := range s.Nodes {
		t.Submitted += n.Submitted
		t.Decisions += n.Decisions
		t.Lost += n.Lost
		t.Handovers += n.Handovers
		t.PingPongs += n.PingPongs
		t.Errors += n.Errors
		t.Terminals += n.Terminals
		t.Reconnects += n.Reconnects
		t.QueueDepth += n.QueueDepth
	}
	return t
}

// String implements fmt.Stringer.
func (n NodeStats) String() string {
	s := fmt.Sprintf("submitted=%d decisions=%d handovers=%d pingpong=%d errors=%d lost=%d reconnects=%d queue=%d",
		n.Submitted, n.Decisions, n.Handovers, n.PingPongs, n.Errors, n.Lost, n.Reconnects, n.QueueDepth)
	if n.Departed {
		s += " departed"
	}
	return s
}

// node is one ring member as the router drives it: an in-process engine
// (engineNode, the Local backend) or a remote daemon behind a
// serve.NodeClient (clientNode, the TCP backend).  The router owns the
// ring, ordering, membership and migration; a node decides reports,
// moves terminal state on request and reports its counters.
type node interface {
	// submit queues rs on the node, blocking under its backpressure.
	submit(rs []serve.Report) error
	// trySubmit queues a prefix of rs without blocking and returns its
	// length; a full node fails with serve.ErrBacklogged, the rest shed.
	trySubmit(rs []serve.Report) (accepted int, err error)
	// flush waits until every submitted report is decided or accounted
	// lost, up to timeout.
	flush(timeout time.Duration) error
	// extract, restore and release are the migration steps of
	// MigrationHooks and the daemon control plane: copy (keep) or remove
	// every terminal the ring over members does not give to self; install
	// snapshots (skipLive: leave terminals the node already holds
	// untouched); drop the terminals a landed copy moved away.
	extract(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error)
	restore(snaps []serve.TerminalSnapshot, skipLive bool) error
	release(members []int, vnodes, self int) error
	// stats snapshots the node's counters; the router fills in Node.
	stats() NodeStats
	// close drains and tears the node down.
	close() error
}

// ringRouter is the one cluster router behind both backends: the
// consistent-hash ring over a set of nodes, the membership state machine
// that moves terminal state between them (see change), the migration
// buffer, and the per-node ledgers.  Local and TCP embed it and add only
// what differs between node kinds.
type ringRouter struct {
	vnodes    int // effective per-member virtual-node count
	bufCap    int // migration buffer cap
	orphanDir string
	// onError, when non-nil, hears about reports Close drops from an
	// in-flight migration's buffer (they are in no node's ledger).
	onError func(node int, err error)
	// journal, when non-nil, makes membership changes crash-safe.
	journal *Journal

	// changeMu serializes membership changes — one migration at a time.
	// memMu orders the brief ring mutations against routing: submits
	// hold the read side; only the install and cutover steps take the
	// write side.  The copy/restore/release window itself runs under
	// neither — that is the two-phase overlap.
	changeMu sync.Mutex
	memMu    sync.RWMutex
	ring     *Ring
	nodes    map[int]node
	nextID   int
	retired  []NodeStats
	// mig is non-nil while a membership change is in flight; submit
	// paths consult it under the read lock (see migration).
	mig     *migration
	migStat migTracker

	// phaseHook is a test-only hook consulted once per membership change
	// at each phase boundary ("copy", "restored", "pre-cutover",
	// "cutover").  Returning true abandons the change exactly as a killed
	// router would — no rollback, no journal truncation — so recovery
	// tests can replay the journal from a realistic half-done state;
	// blocking in it holds the migration window open.
	phaseHook func(phase string) bool

	// scatter recycles the per-call node → sub-slice tables.
	scatter sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// newRingRouter returns a router with no ring and no members yet; the
// backend constructor installs both before the router serves.
func newRingRouter(vnodes, bufCap int, orphanDir string) *ringRouter {
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	if bufCap == 0 {
		bufCap = DefaultMigrateBufferCap
	}
	r := &ringRouter{vnodes: vnodes, bufCap: bufCap, orphanDir: orphanDir, nodes: map[int]node{}}
	r.scatter.New = func() any { return &map[int][]serve.Report{} }
	return r
}

// NumNodes implements Router.
//
//fuzzyho:nolockio
func (r *ringRouter) NumNodes() int {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	return r.ring.Nodes()
}

// Members returns the live member IDs in ascending order.
//
//fuzzyho:nolockio
func (r *ringRouter) Members() []int {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	return r.ring.Members()
}

// NodeOf implements Router.
//
//fuzzyho:nolockio
func (r *ringRouter) NodeOf(id serve.TerminalID) int {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	return r.ring.NodeOf(id)
}

// Submit implements Router.  During a membership change a report for a
// moving terminal buffers until cutover; everything else routes as if no
// change were in flight.
//
//fuzzyho:nolockio
func (r *ringRouter) Submit(rep serve.Report) error {
	return r.SubmitBatch([]serve.Report{rep})
}

// SubmitBatch implements Router: reports scatter into per-node sub-slices
// (preserving per-terminal order) and each node gets one coalesced
// submit, which blocks under that node's backpressure.  During a
// membership change, moving-terminal reports peel off into the migration
// buffer first.
//
//fuzzyho:nolockio
func (r *ringRouter) SubmitBatch(rs []serve.Report) error {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	if r.mig != nil {
		rs = r.mig.intercept(rs)
	}
	return r.submitLocked(rs)
}

// submitLocked routes rs under a held member lock (read side for
// submissions, write side for the cutover/abort buffer flush).
//
//fuzzyho:nolockio
func (r *ringRouter) submitLocked(rs []serve.Report) error {
	return r.scatterLocked(rs, func(_ int, n node, sub []serve.Report) error {
		return n.submit(sub)
	})
}

// TrySubmitBatch implements Router: like SubmitBatch, but a backlogged
// node sheds the rest of its sub-batch and the call fails with
// *BacklogError instead of blocking; other nodes' sub-batches are still
// accepted.  A full migration buffer sheds moving-terminal reports the
// same way.
//
//fuzzyho:nolockio
func (r *ringRouter) TrySubmitBatch(rs []serve.Report) error {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	shed, lowest := 0, -1
	if r.mig != nil {
		rs, shed, lowest = r.mig.interceptTry(rs)
	}
	err := r.scatterLocked(rs, func(id int, n node, sub []serve.Report) error {
		accepted, err := n.trySubmit(sub)
		if !errors.Is(err, serve.ErrBacklogged) {
			return err
		}
		shed += len(sub) - accepted
		if lowest < 0 || id < lowest {
			lowest = id
		}
		return nil
	})
	if err != nil {
		return err
	}
	if shed > 0 {
		return &BacklogError{Node: lowest, Shed: shed}
	}
	return nil
}

// scatterLocked hands each member its sub-batch of rs, in ascending
// member order, under a held member lock.
//
//fuzzyho:nolockio
func (r *ringRouter) scatterLocked(rs []serve.Report, send func(id int, n node, sub []serve.Report) error) error {
	if len(rs) == 0 {
		return nil
	}
	if r.ring.Nodes() == 1 {
		sole := r.ring.NodeOf(rs[0].Terminal)
		if err := send(sole, r.nodes[sole], rs); err != nil {
			return fmt.Errorf("cluster: node %d: %w", sole, err)
		}
		return nil
	}
	bufs := r.scatter.Get().(*map[int][]serve.Report)
	defer r.putScatter(bufs)
	for i := range rs {
		id := r.ring.NodeOf(rs[i].Terminal)
		(*bufs)[id] = append((*bufs)[id], rs[i])
	}
	for _, id := range sortedKeys(*bufs) {
		sub := (*bufs)[id]
		if len(sub) == 0 {
			continue
		}
		if err := send(id, r.nodes[id], sub); err != nil {
			return fmt.Errorf("cluster: node %d: %w", id, err)
		}
	}
	return nil
}

//fuzzyho:nolockio
func (r *ringRouter) putScatter(bufs *map[int][]serve.Report) {
	for id, sub := range *bufs {
		(*bufs)[id] = sub[:0]
	}
	r.scatter.Put(bufs)
}

// Flush implements Router: waits until every node's ledger balances
// within the shared timeout (in-process engines drain deterministically
// and ignore it).  Node failures are returned joined, not hidden.
func (r *ringRouter) Flush(timeout time.Duration) error {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	deadline := time.Now().Add(timeout)
	var errs []error
	for _, id := range sortedKeys(r.nodes) {
		if err := r.nodes[id].flush(max(time.Until(deadline), 0)); err != nil {
			errs = append(errs, fmt.Errorf("cluster: node %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// Stats implements Router from the per-node counters.  Departed members
// appear after the live ones with frozen counters, so cluster totals
// still account every decision ever made.
//
//fuzzyho:nolockio
func (r *ringRouter) Stats() Stats {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	st := Stats{Nodes: make([]NodeStats, 0, len(r.nodes)+len(r.retired))}
	for _, id := range sortedKeys(r.nodes) {
		ns := r.nodes[id].stats()
		ns.Node = id
		st.Nodes = append(st.Nodes, ns)
	}
	st.Nodes = append(st.Nodes, r.retired...)
	return st
}

// Migration implements Router.
//
//fuzzyho:nolockio
func (r *ringRouter) Migration() MigrationStatus {
	r.memMu.RLock()
	buffered := 0
	if r.mig != nil {
		buffered = r.mig.buffered()
	}
	r.memMu.RUnlock()
	return r.migStat.status(buffered)
}

// Close implements Router: every node is drained and closed (engines
// decide all accepted reports and stop; clients flush their queues and
// read the remaining decisions).  Reports still held in an in-flight
// migration's buffer are in no node's ledger, so Close surfaces their
// count through onError instead of dropping them silently.
func (r *ringRouter) Close() error {
	r.closeOnce.Do(func() {
		r.memMu.Lock()
		defer r.memMu.Unlock()
		var errs []error
		if r.mig != nil {
			if buf := r.mig.take(); len(buf) > 0 && r.onError != nil {
				r.onError(-1, fmt.Errorf("cluster: %d buffered reports dropped by Close during an in-flight migration", len(buf)))
			}
			r.mig = nil
		}
		for _, id := range sortedKeys(r.nodes) {
			if err := r.nodes[id].close(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: node %d: %w", id, err))
			}
		}
		if r.journal != nil {
			if err := r.journal.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: closing journal: %w", err))
			}
		}
		r.closeErr = errors.Join(errs...)
	})
	return r.closeErr
}

// sortedKeys collects a map's keys in ascending order — the pattern that
// turns map iteration into a deterministic visit order.
//
//fuzzyho:nolockio
//fuzzyho:deterministic
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	//fuzzyho:allow order-insensitive reduction: the keys are sorted below, so the result cannot observe iteration order
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
