package cluster

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/serve"
)

// DefaultMigrateTimeout bounds each extract/restore control exchange
// during a TCP membership change.
const DefaultMigrateTimeout = 30 * time.Second

// TCPConfig configures a TCP cluster router: one serve.NodeClient per
// remote hoserve daemon, partitioned by the consistent-hash ring.
type TCPConfig struct {
	// Addrs are the node daemons' dial addresses; the ring member ID is
	// the position in this slice, so the address order is part of the
	// cluster identity (reordering remaps terminals).  AddNode grows the
	// member set with fresh IDs past the initial ones.
	Addrs []string
	// VirtualNodes is the ring's per-member virtual node count (0:
	// DefaultVirtualNodes).
	VirtualNodes int
	// QueueDepth bounds each node's send queue in encoded batch lines (0:
	// serve.DefaultNodeQueueDepth).  A full queue is that node's
	// backpressure signal.
	QueueDepth int
	// RedialWait/RedialMaxWait/MaxRedials/CloseGrace tune each node
	// client's reconnection backoff and bounded teardown (0: serve
	// defaults).
	RedialWait    time.Duration
	RedialMaxWait time.Duration
	MaxRedials    int
	CloseGrace    time.Duration
	// MigrateTimeout bounds each node's extract/restore exchange during
	// AddNode/RemoveNode (0: DefaultMigrateTimeout).
	MigrateTimeout time.Duration
	// Journal, when non-empty, is the migration intent journal path.
	// Membership changes are journaled before any state moves, and a
	// router restarted on the same journal recovers both the committed
	// membership (which then supersedes Addrs) and any half-done change —
	// completing or rolling it back from the daemons' state.  Empty
	// disables crash-safe membership (changes still work; a router killed
	// mid-change strands the moving terminals).
	Journal string
	// OrphanDir is where rollback double-failures quarantine terminal
	// snapshots that could be delivered to no live owner ("": the OS temp
	// directory).
	OrphanDir string
	// MigrateBufferCap bounds the reports buffered for moving terminals
	// during a membership change; TrySubmitBatch sheds past it (0:
	// DefaultMigrateBufferCap).
	MigrateBufferCap int
	// OnDecision, when non-nil, receives every outcome with the deciding
	// node's ID, on that node client's reader goroutine.
	OnDecision func(node int, o serve.Outcome)
	// OnError receives per-node failures: line-level remote rejects,
	// lost-report notices, connection losses.  Routing never drops
	// reports silently — when a connection dies, the in-flight count is
	// surfaced here and in Stats().Lost.
	OnError func(node int, err error)
	// Dial, when non-nil, replaces net.Dial for every node client (fault
	// injection, custom transports).
	Dial func(addr string) (net.Conn, error)
	// SchemaHash is the feature-schema hash every node client announces
	// in its hello line (serve.NodeClientConfig.SchemaHash).  Member
	// daemons serving a different schema reject the connection, so a
	// mixed-schema cluster fails at dial time instead of silently
	// mis-scoring reports (0: not announced; daemons then check the
	// paper schema).
	SchemaHash uint64
}

// TCP is the multi-process Router backend: the shared router over client
// nodes, each speaking the newline-JSON wire protocol to a remote hoserve
// daemon over a dedicated ordered connection, with batch coalescing per
// destination, per-node backpressure and reconnect-with-error-surfacing
// (see serve.NodeClient for the delivery contract).
//
// Membership is elastic when the daemons serve the snapshot control
// plane (hoserve does): AddNode/RemoveNode move exactly the terminals
// whose ring arc changed in two overlapped phases (copy, then release
// before a cutover record), so decision sequences continue across the
// migration as if nothing moved — and submissions keep flowing while it
// runs: unmoved arcs route normally, moving arcs buffer until cutover.
// With a Journal configured the change is also crash-safe; see
// TCPConfig.Journal.
type TCP struct {
	*ringRouter
	cfg TCPConfig
}

// DialTCP connects to every node daemon and returns the router.  All
// dials are synchronous: a cluster with an unreachable member fails
// construction rather than shedding that member's terminals later.
//
// With cfg.Journal set, a checkpoint in the journal supersedes
// cfg.Addrs — runtime membership changes survive a router restart — and
// a pending intent (a change a previous router died inside) is replayed
// before the router serves: rolled back when it never cut over, rolled
// forward when it did.  Either way the journal ends checkpointed to the
// recovered membership.
func DialTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.MigrateTimeout == 0 {
		cfg.MigrateTimeout = DefaultMigrateTimeout
	}
	t := &TCP{ringRouter: newRingRouter(cfg.VirtualNodes, cfg.MigrateBufferCap, cfg.OrphanDir), cfg: cfg}
	t.onError = cfg.OnError

	members := make([]int, 0, len(cfg.Addrs))
	addrs := make(map[int]string, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		members = append(members, i)
		addrs[i] = a
	}
	t.nextID = len(cfg.Addrs)

	var pending JournalState
	if cfg.Journal != "" {
		j, st, err := OpenJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		t.journal = j
		pending = st
		if st.HasCheckpoint {
			members = st.Members
			addrs = st.Addrs
			if st.NextID > t.nextID {
				t.nextID = st.NextID
			}
		} else if st.Intent != nil {
			t.journal.Close()
			return nil, fmt.Errorf("cluster: journal %s carries an intent but no checkpoint; refusing to guess the base membership", cfg.Journal)
		}
	}
	fail := func(err error) (*TCP, error) {
		t.Close()
		return nil, err
	}
	if len(members) == 0 {
		return fail(fmt.Errorf("cluster: no node addresses"))
	}
	ring, err := NewRingMembers(members, cfg.VirtualNodes)
	if err != nil {
		return fail(err)
	}
	t.ring = ring
	for _, m := range members {
		if m >= t.nextID {
			t.nextID = m + 1
		}
		addr, ok := addrs[m]
		if !ok {
			return fail(fmt.Errorf("cluster: journal names member %d with no address", m))
		}
		n, err := t.dialNode(m, addr)
		if err != nil {
			if in := pending.Intent; in != nil && pending.Cutover && in.Op == "removenode" && in.Node == m {
				// The member was mid-removal and its change committed; its
				// daemon may legitimately be gone already.  Recovery below
				// finishes dropping it from the ring.
				continue
			}
			return fail(err)
		}
		t.nodes[m] = n
	}
	if pending.Intent != nil {
		if err := t.recoverIntent(pending, t.dialNode); err != nil {
			return fail(fmt.Errorf("cluster: journal replay: %w", err))
		}
	}
	if err := t.checkpoint(); err != nil {
		return fail(err)
	}
	return t, nil
}

// dialNode dials one member daemon (does not link it into the member
// map).
func (t *TCP) dialNode(id int, addr string) (node, error) {
	ccfg := serve.NodeClientConfig{
		QueueDepth:    t.cfg.QueueDepth,
		RedialWait:    t.cfg.RedialWait,
		RedialMaxWait: t.cfg.RedialMaxWait,
		MaxRedials:    t.cfg.MaxRedials,
		CloseGrace:    t.cfg.CloseGrace,
		SchemaHash:    t.cfg.SchemaHash,
		Dial:          t.cfg.Dial,
	}
	if t.cfg.OnDecision != nil {
		ccfg.OnOutcome = func(o serve.Outcome) { t.cfg.OnDecision(id, o) }
	}
	if t.cfg.OnError != nil {
		ccfg.OnError = func(err error) { t.cfg.OnError(id, err) }
	}
	c, err := serve.DialNode(addr, ccfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return &clientNode{client: c, addr: addr, timeout: t.cfg.MigrateTimeout}, nil
}

// AddNode dials addr as a fresh member and migrates to it exactly the
// terminals the grown ring assigns to it: every owner copies its moving
// arcs (keeping the originals), the copies land on the new node, then
// the owners release them.  While that runs, submissions keep flowing —
// unmoved arcs route normally and moving arcs buffer until the cutover
// flips the ring, so their stall is bounded by their own backlog, not
// the whole extract/restore window.  With a journal configured the
// change is crash-safe: a durable intent precedes the first copy and a
// cutover record commits the change, so a router killed mid-change
// replays the journal on restart (see DialTCP).  Returns the new
// member's ID.
func (t *TCP) AddNode(addr string) (int, error) {
	return t.addNode(addr, func(id int) (node, error) { return t.dialNode(id, addr) })
}

// Client returns member id's client (read-only use: counters, address),
// or nil after the member departed.
func (t *TCP) Client(id int) *serve.NodeClient {
	t.memMu.RLock()
	defer t.memMu.RUnlock()
	if n, ok := t.nodes[id].(*clientNode); ok {
		return n.client
	}
	return nil
}

// ClientCounters is one member's raw serve.NodeCounters snapshot paired
// with its cluster identity, for telemetry that wants the client-level
// ledger (redials, lost reports) rather than the NodeStats digest.
type ClientCounters struct {
	Node     int
	Addr     string
	Counters serve.NodeCounters
}

// ClientCounters snapshots every live member's client ledger in
// ascending node order.
func (t *TCP) ClientCounters() []ClientCounters {
	ids, cs := t.clients()
	out := make([]ClientCounters, len(ids))
	for i, c := range cs {
		out[i] = ClientCounters{Node: ids[i], Addr: c.addr, Counters: c.client.Counters()}
	}
	return out
}

// clients snapshots the live members' client nodes in ascending ID
// order.
//
//fuzzyho:nolockio
func (t *TCP) clients() ([]int, []*clientNode) {
	t.memMu.RLock()
	defer t.memMu.RUnlock()
	ids := sortedKeys(t.nodes)
	cs := make([]*clientNode, len(ids))
	for i, id := range ids {
		cs[i] = t.nodes[id].(*clientNode)
	}
	return ids, cs
}

// clientNode is a remote member: its NodeClient, dial address, and the
// bound on each migration control exchange.
type clientNode struct {
	client  *serve.NodeClient
	addr    string
	timeout time.Duration
}

// submit runs under memMu's read side: the client send parks on a
// select (queue slot or client death), never on the network — lockcheck
// audits the rest of the path.
//
//fuzzyho:nolockio
func (n *clientNode) submit(rs []serve.Report) error { return n.client.Send(rs) }

// trySubmit is all or nothing: the sub-batch is one wire line.
//
//fuzzyho:nolockio
func (n *clientNode) trySubmit(rs []serve.Report) (int, error) {
	if err := n.client.TrySend(rs); err != nil {
		return 0, err
	}
	return len(rs), nil
}

// flush waits until the client ledger balances (delivered + lost ≥
// submitted).
func (n *clientNode) flush(timeout time.Duration) error { return n.client.Flush(timeout) }

func (n *clientNode) extract(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error) {
	return n.client.Extract(members, vnodes, self, keep, n.timeout)
}

func (n *clientNode) restore(snaps []serve.TerminalSnapshot, skipLive bool) error {
	return n.client.Restore(snaps, skipLive, n.timeout)
}

func (n *clientNode) release(members []int, vnodes, self int) error {
	_, err := n.client.Release(members, vnodes, self, n.timeout)
	return err
}

// stats digests the client ledger.  Terminal counts are not carried on
// the wire and read 0.
//
//fuzzyho:nolockio
func (n *clientNode) stats() NodeStats {
	cnt := n.client.Counters()
	return NodeStats{
		Addr:       n.addr,
		Submitted:  cnt.Submitted,
		Decisions:  cnt.Delivered,
		Lost:       cnt.Lost,
		Handovers:  cnt.Handovers,
		PingPongs:  cnt.PingPongs,
		Errors:     cnt.RemoteErrors,
		Reconnects: cnt.Reconnects,
		QueueDepth: cnt.QueuedLines,
	}
}

// close drains the send queue to the daemon, reads the remaining
// decisions and closes the connection.
func (n *clientNode) close() error {
	if err := n.client.Close(); err != nil && !errors.Is(err, serve.ErrClientClosed) {
		return err
	}
	return nil
}
