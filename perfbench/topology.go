package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/handover"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Topology shape: every node is a 1-shard engine, as the probes that
// motivated the workloads ran them.
const (
	numNodes   = 2
	nodeShards = 1
)

// daemonNode is one in-process hoserve: a 1-shard engine with a metrics
// registry and the migration hooks, behind a serve.Daemon on a loopback
// listener — wired as cmd/hoserve wires it.
type daemonNode struct {
	addr   string
	engine *serve.Engine
	reg    *obs.Registry
	ln     *countedListener
	done   chan struct{}
	tap    *scorerTap
}

// engineConfig returns the node engine configuration for the workload's
// algorithm.  With a tracer, the algorithm is wrapped in a scorerTap and
// onTap receives it.
func engineConfig(w workload, tr *tracer, onTap func(*scorerTap)) (serve.Config, error) {
	cfg := serve.Config{
		Shards:           nodeShards,
		QueueDepth:       serve.DefaultQueueDepth,
		PingPongWindowKm: serve.DefaultPingPongWindowKm,
	}
	factory, err := handover.AlgorithmFactoryFor(w.algo, true)
	if err != nil {
		return cfg, err
	}
	if tr == nil {
		if factory != nil {
			cfg.AlgorithmFactory = factory
		} else {
			cfg.Compiled = true
		}
		return cfg, nil
	}
	if factory == nil {
		if _, err := handover.NewCompiledFuzzy(); err != nil {
			return cfg, err
		}
		factory = func() handover.Algorithm {
			f, _ := handover.NewCompiledFuzzy() // compile already succeeded above
			return f
		}
	}
	if _, ok := factory().(handover.BatchScorer); !ok {
		return cfg, fmt.Errorf("algorithm %q has no batch scorer to trace", w.algo)
	}
	cfg.AlgorithmFactory = func() handover.Algorithm {
		tap := tr.newScorerTap(factory().(handover.BatchScorer))
		onTap(tap)
		return tap
	}
	return cfg, nil
}

func startDaemon(w workload, tr *tracer) (*daemonNode, error) {
	dn := &daemonNode{reg: obs.NewRegistry(), done: make(chan struct{})}
	mux := serve.NewDecisionMux()
	cfg, err := engineConfig(w, tr, func(t *scorerTap) { dn.tap = t })
	if err != nil {
		return nil, err
	}
	cfg.OnDecision = mux.Route
	cfg.Metrics = dn.reg
	if tr != nil {
		cfg.OnDecision = func(o serve.Outcome) {
			start := mono()
			mux.Route(o)
			tr.route(dn.tap, o, start, mono())
		}
	}
	engine, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := engine.Start(); err != nil {
		return nil, err
	}
	dn.engine = engine
	d := &serve.Daemon{
		Name:       "hoserve",
		Mux:        mux,
		Submit:     engine.SubmitBatch,
		Drain:      func() error { engine.Flush(); return nil },
		SchemaHash: engine.SchemaHash(),
		Stats: func() serve.WireStats {
			return serve.WireStats{Shards: engine.Stats().Shards, Points: dn.reg.Export()}
		},
	}
	d.Extract, d.Restore, d.Release = cluster.MigrationHooks(engine)
	if tr != nil {
		d.Submit = func(rs []serve.Report) error { return tr.daemonSubmit(engine.SubmitBatch, rs) }
		restore := d.Restore
		d.Restore = func(snaps []serve.TerminalSnapshot, skipLive bool) error {
			tr.moved.Add(uint64(len(snaps)))
			return restore(snaps, skipLive)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		engine.Stop()
		return nil, err
	}
	dn.addr = ln.Addr().String()
	dn.ln = &countedListener{Listener: ln, tr: tr}
	go func() {
		defer close(dn.done)
		d.RunTCP(dn.ln)
	}()
	return dn, nil
}

// stop closes the listener, waits for the accept loop and every
// connection handler, and stops the engine.
func (dn *daemonNode) stop() error {
	dn.ln.Close()
	<-dn.done
	waited := make(chan struct{})
	go func() {
		dn.ln.conns.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon %s: connections still open 30s after the router closed", dn.addr)
	}
	return dn.engine.Stop()
}

// topology is the system under test of one workload: the router, the
// node engines behind it, and the delivery hooks.
type topology struct {
	w       workload
	router  cluster.Router
	local   *cluster.Local
	tcp     *cluster.TCP
	daemons []*daemonNode
	// members maps ring member IDs to daemon indexes (TCP).
	members   map[int]int
	localReg  *obs.Registry
	localTaps []*scorerTap
	tmpDir    string

	remoteErrs atomic.Uint64
}

// buildTopology brings the workload's system up with deliveries going to
// the ledger (and the tracer, when tracing).
func buildTopology(w workload, led *ledger, tr *tracer) (*topology, error) {
	tp := &topology{w: w, members: map[int]int{}}
	tapOf := func(node int) *scorerTap { return nil }
	if !w.tcp {
		tapOf = func(node int) *scorerTap { return tp.localTaps[node] }
	}
	deliver := func(node int, o serve.Outcome) { led.deliver(node, o, mono()) }
	if tr != nil {
		deliver = func(node int, o serve.Outcome) {
			start := mono()
			led.deliver(node, o, start)
			tr.deliver(tapOf(node), o, start, mono())
		}
	}
	if !w.tcp {
		ecfg, err := engineConfig(w, tr, func(t *scorerTap) { tp.localTaps = append(tp.localTaps, t) })
		if err != nil {
			return nil, err
		}
		tp.localReg = obs.NewRegistry()
		// Member engines are built in ID order, one factory call each, so
		// localTaps[i] is node i's scorer.
		l, err := cluster.NewLocal(cluster.LocalConfig{
			Nodes:      w.nodes,
			Engine:     ecfg,
			OnDecision: deliver,
			Metrics:    tp.localReg,
		})
		if err != nil {
			return nil, err
		}
		tp.local, tp.router = l, l
		return tp, nil
	}
	// TCP: numNodes daemons; the ring starts on the first w.nodes of
	// them and a churn workload moves the rest in and out.
	fail := func(err error) (*topology, error) {
		for _, d := range tp.daemons {
			d.stop()
		}
		if tp.tmpDir != "" {
			os.RemoveAll(tp.tmpDir)
		}
		return nil, err
	}
	var addrs []string
	for i := 0; i < numNodes; i++ {
		d, err := startDaemon(w, tr)
		if err != nil {
			return fail(err)
		}
		tp.daemons = append(tp.daemons, d)
		if i < w.nodes {
			addrs = append(addrs, d.addr)
			tp.members[i] = i
		}
	}
	tcfg := cluster.TCPConfig{
		Addrs:      addrs,
		SchemaHash: tp.daemons[0].engine.SchemaHash(),
		OnDecision: deliver,
		OnError: func(node int, err error) {
			if tp.remoteErrs.Add(1) <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: node %d: %v\n", node, err)
			}
		},
	}
	if w.churn > 0 {
		if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
			return fail(err)
		}
		dir, err := os.MkdirTemp(tmpRoot, "journal-")
		if err != nil {
			return fail(err)
		}
		tp.tmpDir = dir
		tcfg.Journal = filepath.Join(dir, "migration.journal")
		tcfg.OrphanDir = dir
	}
	t, err := cluster.DialTCP(tcfg)
	if err != nil {
		return fail(err)
	}
	tp.tcp, tp.router = t, t
	return tp, nil
}

// engines returns every node engine of the topology.
func (tp *topology) engines() []*serve.Engine {
	if tp.local != nil {
		var out []*serve.Engine
		for _, id := range tp.local.Members() {
			out = append(out, tp.local.Engine(id))
		}
		return out
	}
	out := make([]*serve.Engine, len(tp.daemons))
	for i, d := range tp.daemons {
		out[i] = d.engine
	}
	return out
}

// registries returns the registries holding the engines' stage
// histograms.
func (tp *topology) registries() []*obs.Registry {
	if tp.local != nil {
		return []*obs.Registry{tp.localReg}
	}
	out := make([]*obs.Registry, len(tp.daemons))
	for i, d := range tp.daemons {
		out[i] = d.reg
	}
	return out
}

// taps returns every scorer tap (traced topologies only).
func (tp *topology) taps() []*scorerTap {
	if tp.local != nil {
		return tp.localTaps
	}
	var out []*scorerTap
	for _, d := range tp.daemons {
		if d.tap != nil {
			out = append(out, d.tap)
		}
	}
	return out
}

// close tears the topology down: the router drains and closes its node
// connections, then every daemon stops.
func (tp *topology) close() error {
	errs := []error{tp.router.Close()}
	for _, d := range tp.daemons {
		errs = append(errs, d.stop())
	}
	if tp.tmpDir != "" {
		errs = append(errs, os.RemoveAll(tp.tmpDir))
	}
	return errors.Join(errs...)
}

// churnLoop alternates the ring between one and two daemons until stop:
// AddNode of the idle daemon, then RemoveNode of the lowest member, so no
// more than two node connections ever exist.  It returns each
// operation's wall time in ms.
//
// Operation k starts at a seeded random point in the middle half of the
// k-th interval.  A fixed period that is a multiple of the daemons' 50 ms
// sink flush ticker would start every operation at the same phase of
// that ticker; every migration would then wait the same number of ticks,
// and the migration time would jump by a whole tick when the host got
// slightly faster or slower.  One operation per interval keeps the number
// of operations in a run, and so the membership it ends with, fixed.
func (tp *topology) churnLoop(every time.Duration, seed int64, stop <-chan struct{}, tr *tracer) ([]float64, error) {
	var opsMs []float64
	rng := rand.New(rand.NewSource(seed))
	t0 := time.Now()
	for k := 1; ; k++ {
		at := t0.Add(time.Duration(k)*every - 3*every/4 + time.Duration(rng.Int63n(int64(every/2))))
		t := time.NewTimer(time.Until(at))
		select {
		case <-stop:
			t.Stop()
			return opsMs, nil
		case <-t.C:
		}
		members := tp.tcp.Members()
		var poll chan struct{}
		var polled sync.WaitGroup
		if tr != nil {
			poll = make(chan struct{})
			polled.Add(1)
			go func() {
				defer polled.Done()
				tr.pollMigration(tp.tcp, poll)
			}()
		}
		start := time.Now()
		var err error
		if len(members) < 2 {
			idle := -1
			for i := range tp.daemons {
				if !tp.isMember(i) {
					idle = i
				}
			}
			var id int
			id, err = tp.tcp.AddNode(tp.daemons[idle].addr)
			if err == nil {
				tp.members[id] = idle
			}
		} else {
			err = tp.tcp.RemoveNode(members[0])
			if err == nil {
				delete(tp.members, members[0])
			}
		}
		opsMs = append(opsMs, float64(time.Since(start).Nanoseconds())/1e6)
		if poll != nil {
			close(poll)
			polled.Wait()
		}
		if err != nil {
			return opsMs, fmt.Errorf("membership change: %w", err)
		}
	}
}

func (tp *topology) isMember(daemon int) bool {
	for _, d := range tp.members {
		if d == daemon {
			return true
		}
	}
	return false
}

// pollMigration samples the router's migration buffer until stop.
func (tr *tracer) pollMigration(t *cluster.TCP, stop <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if b := int64(t.Migration().Buffered); b > tr.bufferMax.Load() {
			tr.bufferMax.Store(b)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// sampleQueues samples every node client's send-queue depth until stop.
func (tr *tracer) sampleQueues(t *cluster.TCP, stop <-chan struct{}) {
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		tr.queuedMu.Lock()
		for _, c := range t.ClientCounters() {
			tr.queued = append(tr.queued, float64(c.Counters.QueuedLines))
		}
		tr.queuedMu.Unlock()
	}
}
