package cluster

import (
	"fmt"

	"repro/internal/serve"
)

// migrationPred builds the "no longer mine" predicate a daemon applies
// during a membership change: every terminal the ring over members does
// NOT give to self.  One rule covers both directions:
//
//   - grow: an existing member (self ∈ members) gives up the arcs the
//     new member took — ~1/(N+1) of its terminals;
//   - shrink: the departing member (self ∉ members) owns nothing under
//     the new ring and gives up everything it holds.
func migrationPred(members []int, vnodes, self int) (func(serve.TerminalID) bool, error) {
	ring, err := NewRingMembers(members, vnodes)
	if err != nil {
		return nil, fmt.Errorf("cluster: migration ring: %w", err)
	}
	if !contains(ring.Members(), self) {
		// Departing member: nothing is ours under the new ring.
		return func(serve.TerminalID) bool { return true }, nil
	}
	return func(t serve.TerminalID) bool { return ring.NodeOf(t) != self }, nil
}

// MigrationHooks returns serve.Daemon Extract/Restore/Release
// implementations backed by engine e, closing the loop between the wire
// control plane and the ring: a router driving a membership change tells
// each daemon the NEW member set, and the daemon itself computes which
// of its terminals the new ring no longer assigns to it.
//
// The hooks implement the two-phase move: extract with keep copies the
// moving terminals without removing them (the engine is drained first by
// the daemon, so every snapshot carries the terminal's complete decision
// history); once the copies have landed on the destination, release
// drops the originals.  A plain extract (keep=false) is the one-shot
// move; restore with skipLive is the idempotent replay form crash
// recovery uses.
func MigrationHooks(e *serve.Engine) (
	extract func(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error),
	restore func(snaps []serve.TerminalSnapshot, skipLive bool) error,
	release func(members []int, vnodes, self int) (int, error),
) {
	extract = func(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error) {
		pred, err := migrationPred(members, vnodes, self)
		if err != nil {
			return nil, err
		}
		if keep {
			return e.SnapshotWhere(pred)
		}
		return e.ExtractSnapshots(pred)
	}
	restore = func(snaps []serve.TerminalSnapshot, skipLive bool) error {
		if skipLive {
			_, err := e.RestoreSnapshotsSkipLive(snaps)
			return err
		}
		return e.RestoreSnapshots(snaps)
	}
	release = func(members []int, vnodes, self int) (int, error) {
		pred, err := migrationPred(members, vnodes, self)
		if err != nil {
			return 0, err
		}
		return e.DiscardTerminals(pred)
	}
	return extract, restore, release
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
