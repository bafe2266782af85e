package cluster

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// LocalConfig configures an in-process cluster: N serve.Engines in one
// process, partitioned by the consistent-hash ring.
type LocalConfig struct {
	// Nodes is the initial member count (≥ 1); members get IDs
	// 0..Nodes-1.  AddNode grows the set with fresh IDs.
	Nodes int
	// VirtualNodes is the ring's per-member virtual node count (0:
	// DefaultVirtualNodes).
	VirtualNodes int
	// Engine is the per-node engine template (shards, queue depth,
	// algorithm, ping-pong window).  Engine.OnDecision must be nil — use
	// OnDecision below, which carries the node ID.
	Engine serve.Config
	// OnDecision, when non-nil, receives every outcome together with the
	// ID of the node that decided it, on that node's shard goroutine.
	OnDecision func(node int, o serve.Outcome)
	// Metrics, when non-nil, is the shared registry every member engine
	// registers its instruments in, each labeled node="<id>" (overriding
	// Engine.Metrics/Engine.MetricsLabels).  Engines added later by
	// AddNode register under their fresh IDs in the same registry.
	Metrics *obs.Registry
	// OrphanDir is where rollback double-failures quarantine terminal
	// snapshots that could be delivered to no live owner ("": the OS temp
	// directory).
	OrphanDir string
	// MigrateBufferCap bounds the reports buffered for moving terminals
	// during a membership change; TrySubmitBatch sheds past it (0:
	// DefaultMigrateBufferCap).
	MigrateBufferCap int
}

// Local is the in-process Router backend: the cheapest way to run one
// terminal population across several engines (tests, single-box NUMA-ish
// scaling) and the reference the TCP backend is checked against.  It is
// the shared router over engine nodes, so membership changes run the
// same two-phase copy → restore → release sequence as over TCP.
//
// Membership is elastic: AddNode/RemoveNode migrate exactly the
// terminals whose ring arc moved, and submissions keep flowing while the
// migration runs — unmoved arcs route normally, moving arcs buffer until
// the cutover flips the ring (see migration).
type Local struct {
	*ringRouter
	cfg LocalConfig
}

// NewLocal validates the configuration, builds and starts the node
// engines.  The router is ready to submit when NewLocal returns.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Engine.OnDecision != nil {
		return nil, fmt.Errorf("cluster: set LocalConfig.OnDecision (with the node ID), not Engine.OnDecision")
	}
	ring, err := NewRing(cfg.Nodes, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	l := &Local{ringRouter: newRingRouter(cfg.VirtualNodes, cfg.MigrateBufferCap, cfg.OrphanDir), cfg: cfg}
	l.ring, l.nextID = ring, cfg.Nodes
	for id := 0; id < cfg.Nodes; id++ {
		n, err := l.startNode(id)
		if err != nil {
			l.Close()
			return nil, err
		}
		l.nodes[id] = n
	}
	return l, nil
}

// startNode builds and starts one member engine (does not link it into
// the member map).
func (l *Local) startNode(id int) (node, error) {
	ecfg := l.cfg.Engine
	if l.cfg.OnDecision != nil {
		ecfg.OnDecision = func(o serve.Outcome) { l.cfg.OnDecision(id, o) }
	}
	if l.cfg.Metrics != nil {
		ecfg.Metrics = l.cfg.Metrics
		ecfg.MetricsLabels = []obs.Label{obs.L("node", strconv.Itoa(id))}
	}
	e, err := serve.New(ecfg)
	if err == nil {
		err = e.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	n := &engineNode{engine: e}
	n.extractFn, n.restoreFn, n.releaseFn = MigrationHooks(e)
	return n, nil
}

// AddNode starts a fresh member engine, migrates to it exactly the
// terminals the grown ring assigns to it, and routes to it from then on.
// Returns the new member's ID.  Submissions keep flowing while the
// migration runs: unmoved arcs route normally, moving arcs buffer until
// the cutover flips the ring — every moved terminal resumes its decision
// sequence on the new node exactly where it stopped on the old one.
func (l *Local) AddNode() (int, error) {
	return l.addNode("", l.startNode)
}

// Engine returns member id's engine (read-only use: stats, shard
// count), or nil after the member departed.
func (l *Local) Engine(id int) *serve.Engine {
	l.memMu.RLock()
	defer l.memMu.RUnlock()
	if n, ok := l.nodes[id].(*engineNode); ok {
		return n.engine
	}
	return nil
}

// EngineStats returns member id's full per-shard serve.Stats (the
// in-process backend's extra observability over the merged Stats view);
// zero after the member departed.
func (l *Local) EngineStats(id int) serve.Stats {
	if e := l.Engine(id); e != nil {
		return e.Stats()
	}
	return serve.Stats{}
}

// SnapshotAll drains every member and returns the whole cluster's
// terminal snapshots (crash-recovery export; state stays live).
func (l *Local) SnapshotAll() ([]serve.TerminalSnapshot, error) {
	l.memMu.RLock()
	defer l.memMu.RUnlock()
	var all []serve.TerminalSnapshot
	for _, id := range sortedKeys(l.nodes) {
		e := l.nodes[id].(*engineNode).engine
		e.Flush()
		snaps, err := e.SnapshotTerminals()
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshotting node %d: %w", id, err)
		}
		all = append(all, snaps...)
	}
	return all, nil
}

// RestoreAll scatters a whole-cluster snapshot set to the members the
// current ring assigns each terminal to (crash-recovery import).
func (l *Local) RestoreAll(snaps []serve.TerminalSnapshot) error {
	l.memMu.RLock()
	defer l.memMu.RUnlock()
	byDest := map[int][]serve.TerminalSnapshot{}
	for _, s := range snaps {
		d := l.ring.NodeOf(s.Terminal)
		byDest[d] = append(byDest[d], s)
	}
	for _, d := range sortedKeys(byDest) {
		if err := l.nodes[d].restore(byDest[d], false); err != nil {
			return fmt.Errorf("cluster: restoring into node %d: %w", d, err)
		}
	}
	return nil
}

// engineNode is an in-process member: an engine driven directly, its
// MigrationHooks as the migration steps, and the router's route ledger
// for it (the engine counts decisions, not what was routed to it).
type engineNode struct {
	engine    *serve.Engine
	submitted atomic.Uint64
	extractFn func(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error)
	restoreFn func(snaps []serve.TerminalSnapshot, skipLive bool) error
	releaseFn func(members []int, vnodes, self int) (int, error)
}

// submit accounts before the engine call, as the engine itself does:
// once a report is queued the node may decide it immediately, and a
// counter that lags lets Stats observe decisions > submitted.
//
//fuzzyho:nolockio
func (n *engineNode) submit(rs []serve.Report) error {
	n.submitted.Add(uint64(len(rs)))
	//fuzzyho:allow backpressure by design: the engine's shard consumers drain independently of memMu, so this wait is bounded by shard progress, never by the membership change itself
	if err := n.engine.SubmitBatch(rs); err != nil {
		n.submitted.Add(^uint64(len(rs) - 1)) // roll back the optimistic accounting
		return err
	}
	return nil
}

// trySubmit offers reports one at a time; the first backlogged shard
// sheds the rest, so order within the node is never violated by
// accepting later reports after shedding earlier ones.
//
//fuzzyho:nolockio
func (n *engineNode) trySubmit(rs []serve.Report) (int, error) {
	n.submitted.Add(uint64(len(rs)))
	for i := range rs {
		if err := n.engine.TrySubmit(rs[i]); err != nil {
			n.submitted.Add(^uint64(len(rs) - i - 1))
			return i, err
		}
	}
	return len(rs), nil
}

// flush ignores the timeout: in-process queues drain deterministically,
// and Engine.Flush returns once every accepted report is decided.
func (n *engineNode) flush(time.Duration) error {
	n.engine.Flush()
	return nil
}

func (n *engineNode) extract(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error) {
	return n.extractFn(members, vnodes, self, keep)
}

func (n *engineNode) restore(snaps []serve.TerminalSnapshot, skipLive bool) error {
	return n.restoreFn(snaps, skipLive)
}

func (n *engineNode) release(members []int, vnodes, self int) error {
	_, err := n.releaseFn(members, vnodes, self)
	return err
}

//fuzzyho:nolockio
func (n *engineNode) stats() NodeStats {
	tot := n.engine.Stats().Totals()
	return NodeStats{
		Submitted:  n.submitted.Load(),
		Decisions:  tot.Decisions,
		Handovers:  tot.Handovers,
		PingPongs:  tot.PingPongs,
		Errors:     tot.Errors,
		Terminals:  tot.Terminals,
		QueueDepth: tot.QueueDepth,
	}
}

// close drains the engine (Stop decides all accepted reports) and stops it.
func (n *engineNode) close() error { return n.engine.Stop() }
