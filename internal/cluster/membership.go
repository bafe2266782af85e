package cluster

import (
	"errors"
	"fmt"

	"repro/internal/serve"
)

// plan is one membership change as the router executes, rolls back and
// recovers it: the intent, the rings either side, the members that give
// up terminals (sources) and the members that may receive them (dests).
type plan struct {
	in               IntentRecord
	oldRing, newRing *Ring
	sources, dests   []int
}

// planOf derives the plan from an intent — the same derivation for a
// live change and for one replayed from the journal.
func planOf(in IntentRecord) (plan, error) {
	p := plan{in: in}
	var err error
	if p.oldRing, err = NewRingMembers(in.Members, in.VNodes); err != nil {
		return p, fmt.Errorf("old ring: %w", err)
	}
	if p.newRing, err = NewRingMembers(in.NewMembers, in.VNodes); err != nil {
		return p, fmt.Errorf("new ring: %w", err)
	}
	switch in.Op {
	case "addnode":
		// Every incumbent gives up the arcs the new member takes.
		p.sources, p.dests = in.Members, []int{in.Node}
	case "removenode":
		// The departing member gives up everything; any survivor may
		// inherit some of it.
		p.sources, p.dests = []int{in.Node}, in.NewMembers
	default:
		return p, fmt.Errorf("unknown intent op %q", in.Op)
	}
	return p, nil
}

// crashed consults the test-only phase hook at a phase boundary.
func (r *ringRouter) crashed(phase string) bool {
	return r.phaseHook != nil && r.phaseHook(phase)
}

// addNode brings up a member under the next free ID through start and
// migrates to it exactly the terminals the grown ring assigns to it.
// Returns the new member's ID.
func (r *ringRouter) addNode(addr string, start func(id int) (node, error)) (int, error) {
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.memMu.RLock()
	members := r.ring.Members()
	id := r.nextID
	r.memMu.RUnlock()
	n, err := start(id)
	if err != nil {
		return 0, err
	}
	committed, err := r.change(IntentRecord{
		Op: "addnode", Node: id, Addr: addr,
		Members: members, NewMembers: append(append([]int(nil), members...), id), VNodes: r.vnodes,
	}, n)
	if !committed {
		return 0, err
	}
	return id, err
}

// RemoveNode migrates every terminal member id owns to the members the
// shrunk ring assigns them to (copy to the new owners, then release the
// originals), freezes the departing node's final counters into Stats
// (Departed), and closes it.  Submissions keep flowing throughout: only
// the departing member's arcs buffer, everything else routes normally.
// Crash-safe with a journal, like AddNode.
func (r *ringRouter) RemoveNode(id int) error {
	r.changeMu.Lock()
	defer r.changeMu.Unlock()
	r.memMu.RLock()
	n, ok := r.nodes[id]
	members := r.ring.Members()
	r.memMu.RUnlock()
	if !ok {
		return fmt.Errorf("cluster: node %d is not a member", id)
	}
	if len(members) == 1 {
		return fmt.Errorf("cluster: cannot remove the last member")
	}
	rest := make([]int, 0, len(members)-1)
	for _, m := range members {
		if m != id {
			rest = append(rest, m)
		}
	}
	_, err := r.change(IntentRecord{
		Op: "removenode", Node: id, Addr: n.stats().Addr,
		Members: members, NewMembers: rest, VNodes: r.vnodes,
	}, nil)
	return err
}

// change runs one membership change under changeMu: a durable intent
// precedes any state movement, the route-to-both window opens (unmoved
// arcs route normally, moving arcs buffer), the moving terminals are
// copied, restored and released (move), a cutover record commits the
// change, and the ring flips with the buffered reports released under
// the same write lock, so no post-cutover submission can outrun them.
// A failure before cutover rolls the change back.  joining is the new
// member of an addnode (nil for a removenode); committed reports whether
// the new ring is installed — a committed change can still return an
// error (releasing the buffer, closing the departed member).
func (r *ringRouter) change(in IntentRecord, joining node) (committed bool, err error) {
	closeJoining := func() {
		if joining != nil {
			joining.close()
		}
	}
	p, err := planOf(in)
	if err != nil {
		closeJoining()
		return false, fmt.Errorf("cluster: %s: %w", in.Op, err)
	}
	if err := r.journalIntent(in); err != nil {
		closeJoining()
		return false, err
	}
	peers := r.peers()
	if joining != nil {
		peers[in.Node] = joining
	}
	r.beginMigration(in.Op, in.Node, p.oldRing, p.newRing)
	migErr := func() error {
		if r.crashed("copy") {
			return errMigrationAbandoned
		}
		if err := r.move(p, peers, false); err != nil {
			return err
		}
		if r.crashed("pre-cutover") {
			return errMigrationAbandoned
		}
		r.migStat.phase("cutover")
		if err := r.journalCutover(); err != nil {
			return fmt.Errorf("cluster: journaling cutover: %w", err)
		}
		if r.crashed("cutover") {
			return errMigrationAbandoned
		}
		return nil
	}()
	if errors.Is(migErr, errMigrationAbandoned) {
		// Simulated router crash: leave the half-moved state and the
		// journaled intent exactly as a dead process would.  Only the
		// joining member is torn down — a real crash closes that socket
		// too.
		closeJoining()
		return false, migErr
	}
	if migErr != nil {
		rbErr := r.rollback(p, peers)
		closeJoining()
		abErr := r.abortMigration()
		ckErr := r.checkpoint()
		return false, errors.Join(migErr, rbErr, abErr, ckErr)
	}

	r.memMu.Lock()
	var departed node
	if joining != nil {
		r.nodes[in.Node] = joining
		r.nextID = in.Node + 1
	} else {
		departed = r.nodes[in.Node]
		r.retire(in.Node)
	}
	r.ring = p.newRing
	buf := r.mig.take()
	r.mig = nil
	ferr := r.submitLocked(buf)
	r.memMu.Unlock()
	r.migStat.end()
	var errs []error
	if ferr != nil {
		errs = append(errs, fmt.Errorf("cluster: migration committed, but releasing %d buffered reports failed: %w", len(buf), ferr))
	}
	if departed != nil {
		if err := departed.close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: closing node %d: %w", in.Node, err))
		}
	}
	if err := r.checkpoint(); err != nil {
		errs = append(errs, err)
	}
	return true, errors.Join(errs...)
}

// move copies each source's moving terminals to their owners under the
// new ring, then releases the originals.  Copy before release: at every
// instant some member holds a complete replica of each moving terminal,
// which is what makes a failure or crash anywhere recoverable.  With
// skipLive it is the idempotent sweep recovery replays: destinations
// keep what already landed, and sources that already released have
// nothing left to copy.
func (r *ringRouter) move(p plan, peers map[int]node, skipLive bool) error {
	in := p.in
	var copied []int
	for _, s := range p.sources {
		src, ok := peers[s]
		if !ok {
			// Only recovery gets here: a departing daemon already gone
			// after cutover, every copy of which landed before the crash.
			continue
		}
		r.migStat.phase(fmt.Sprintf("copy:%d", s))
		snaps, err := src.extract(in.NewMembers, in.VNodes, s, true)
		if err != nil {
			return fmt.Errorf("cluster: copying moving terminals from node %d: %w", s, err)
		}
		byDest := map[int][]serve.TerminalSnapshot{}
		for _, sn := range snaps {
			d := p.newRing.NodeOf(sn.Terminal)
			byDest[d] = append(byDest[d], sn)
		}
		for _, d := range sortedKeys(byDest) {
			dst, ok := peers[d]
			if !ok {
				return fmt.Errorf("cluster: new owner %d of node %d's terminals is not a member", d, s)
			}
			r.migStat.phase(fmt.Sprintf("restore:%d", d))
			if err := dst.restore(byDest[d], skipLive); err != nil {
				return fmt.Errorf("cluster: restoring into node %d: %w", d, err)
			}
		}
		if len(snaps) > 0 {
			copied = append(copied, s)
		}
		r.journalPhase(PhaseRecord{Phase: "moved", Source: s, Count: len(snaps)})
	}
	if r.crashed("restored") {
		return errMigrationAbandoned
	}
	r.migStat.phase("release")
	for _, s := range copied {
		if err := peers[s].release(in.NewMembers, in.VNodes, s); err != nil {
			return fmt.Errorf("cluster: releasing moved terminals on node %d: %w", s, err)
		}
	}
	return nil
}

// rollback undoes a change that never cut over: every destination gives
// back what the old ring does not assign to it (for a joining member,
// everything) and the state returns to its old owners skip-live, so a
// source that never released keeps its originals untouched and one that
// did gets them back.
func (r *ringRouter) rollback(p plan, peers map[int]node) error {
	var errs []error
	for _, d := range p.dests {
		dst, ok := peers[d]
		if !ok {
			errs = append(errs, fmt.Errorf("cluster: node %d is not a member", d))
			continue
		}
		back, err := dst.extract(p.in.Members, p.in.VNodes, d, false)
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: reclaiming from node %d: %w", d, err))
			continue
		}
		if err := r.returnToOwners(p.oldRing, back, peers); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// returnToOwners restores snapshots to the members ring assigns them to,
// skipping terminals an owner still holds.  Snapshots that can land
// nowhere are quarantined under orphanDir, never dropped.
func (r *ringRouter) returnToOwners(ring *Ring, snaps []serve.TerminalSnapshot, peers map[int]node) error {
	byDest := map[int][]serve.TerminalSnapshot{}
	for _, s := range snaps {
		d := ring.NodeOf(s.Terminal)
		byDest[d] = append(byDest[d], s)
	}
	var errs []error
	var orphans []serve.TerminalSnapshot
	for _, d := range sortedKeys(byDest) {
		owner, ok := peers[d]
		if !ok {
			errs = append(errs, fmt.Errorf("cluster: owner %d of %d reclaimed terminals is not a live member", d, len(byDest[d])))
			orphans = append(orphans, byDest[d]...)
			continue
		}
		if err := owner.restore(byDest[d], true); err != nil {
			errs = append(errs, fmt.Errorf("cluster: returning %d terminals to node %d: %w", len(byDest[d]), d, err))
			orphans = append(orphans, byDest[d]...)
		}
	}
	if len(orphans) > 0 {
		errs = append(errs, orphanError(r.orphanDir, orphans))
	}
	return errors.Join(errs...)
}

// recoverIntent completes or rolls back the half-done membership change
// a previous router process left in the journal.  Before the cutover
// record the change never committed: the copies are pulled back off the
// destinations and the old membership stands.  At or past cutover the
// change is completed — the skip-live copy/restore/release sweep is
// idempotent, so replaying a partially executed phase is safe.  start
// brings up the member an addnode intent names.  Runs at construction,
// before the router serves anything.
func (r *ringRouter) recoverIntent(st JournalState, start func(id int, addr string) (node, error)) error {
	p, err := planOf(*st.Intent)
	if err != nil {
		return err
	}
	in := p.in
	peers := r.peers()
	var joining node
	if in.Op == "addnode" {
		if joining, err = start(in.Node, in.Addr); err != nil {
			return fmt.Errorf("dialing half-joined node %d at %s: %w", in.Node, in.Addr, err)
		}
		peers[in.Node] = joining
	}
	r.migStat.begin(in.Op, in.Node)
	defer r.migStat.end()
	if !st.Cutover {
		err := r.rollback(p, peers)
		if joining != nil {
			joining.close()
		}
		return err
	}
	if err := r.move(p, peers, true); err != nil {
		if joining != nil {
			joining.close()
		}
		return err
	}
	if joining != nil {
		r.nodes[in.Node] = joining
		r.nextID = max(r.nextID, in.Node+1)
	} else if departed, ok := r.nodes[in.Node]; ok {
		r.retire(in.Node)
		departed.close()
	}
	r.ring = p.newRing
	return nil
}

// peers snapshots the member map for a membership change to address
// nodes by ID outside memMu.
func (r *ringRouter) peers() map[int]node {
	r.memMu.RLock()
	defer r.memMu.RUnlock()
	out := make(map[int]node, len(r.nodes)+1)
	for id, n := range r.nodes {
		out[id] = n
	}
	return out
}

// retire freezes a departing member's final counters into Stats and
// drops it from the member map (memMu held, or not yet serving).
func (r *ringRouter) retire(id int) {
	st := r.nodes[id].stats()
	st.Node, st.Departed = id, true
	r.retired = append(r.retired, st)
	delete(r.nodes, id)
}

// beginMigration installs the route-to-both window: from here until
// cutover (or abort), submissions for moving terminals buffer instead of
// routing, and everything else routes under the old ring.
func (r *ringRouter) beginMigration(op string, node int, oldRing, newRing *Ring) {
	m := &migration{oldRing: oldRing, newRing: newRing, cap: r.bufCap}
	r.memMu.Lock()
	r.mig = m
	r.memMu.Unlock()
	r.migStat.begin(op, node)
}

// abortMigration dismantles the window after a rolled-back change: the
// buffered moving-terminal reports are released under the UNCHANGED old
// ring (their owners kept — or got back — their state).
func (r *ringRouter) abortMigration() error {
	r.memMu.Lock()
	buf := r.mig.take()
	r.mig = nil
	err := r.submitLocked(buf)
	r.memMu.Unlock()
	r.migStat.end()
	if err != nil {
		return fmt.Errorf("cluster: resubmitting %d reports buffered during the aborted migration: %w", len(buf), err)
	}
	return nil
}

// checkpoint rewrites the journal (if any) to the current membership,
// truncating any completed intent.
func (r *ringRouter) checkpoint() error {
	if r.journal == nil {
		return nil
	}
	r.memMu.RLock()
	members := r.ring.Members()
	addrs := make(map[int]string, len(r.nodes))
	for id, n := range r.nodes {
		addrs[id] = n.stats().Addr
	}
	next := r.nextID
	r.memMu.RUnlock()
	return r.journal.Checkpoint(members, addrs, next)
}

// journalIntent durably records a change before any state moves; with no
// journal it is a no-op (the change then simply is not crash-safe).
func (r *ringRouter) journalIntent(rec IntentRecord) error {
	if r.journal == nil {
		return nil
	}
	if err := r.journal.Intent(rec); err != nil {
		return fmt.Errorf("cluster: journaling %s intent: %w", rec.Op, err)
	}
	return nil
}

// journalPhase records best-effort progress — recovery does not depend
// on phase records (replay is idempotent), so a failed append must not
// fail the migration.
func (r *ringRouter) journalPhase(rec PhaseRecord) {
	if r.journal != nil {
		r.journal.Phase(rec)
	}
}

// journalCutover durably commits the in-flight change.  Unlike phase
// records its failure fails the migration: without the record, a crash
// would roll back a change whose release already ran.
func (r *ringRouter) journalCutover() error {
	if r.journal == nil {
		return nil
	}
	return r.journal.Cutover()
}
