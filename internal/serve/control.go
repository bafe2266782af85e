package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/obs"
)

// The wire control plane rides the same newline-JSON streams as reports
// and outcomes, on both directions of a node connection.  A control line
// always leads with the "ctl" key — AppendControlJSON guarantees it —
// so both ends dispatch with one prefix comparison and the data hot
// path never JSON-parses a line twice.
//
// Ops, client → node:
//
//	{"ctl":"hello","client":ID,"schema":H}
//	                                  announce connection identity; lets
//	                                  a reconnection take over its own
//	                                  terminal claims (see DecisionMux).
//	                                  H is the client's feature-schema
//	                                  hash; the node rejects a mismatch
//	                                  with its own engine's schema so a
//	                                  mixed-schema cluster fails fast
//	                                  instead of mis-gathering columns
//	{"ctl":"extract","members":[...],"vnodes":V,"self":S}
//	                                  extract every terminal the ring
//	                                  over members no longer assigns to
//	                                  member S; with "keep":true the node
//	                                  copies instead of removing (the
//	                                  first phase of a two-phase move)
//	{"ctl":"release","members":[...],"vnodes":V,"self":S}
//	                                  drop every terminal the ring no
//	                                  longer assigns to member S without
//	                                  shipping it — commits a keep-copy
//	                                  after the copies landed elsewhere
//	{"ctl":"restore","snapshots":[...]}  install one snapshot chunk; with
//	                                  "skip_live":true already-live
//	                                  terminals are skipped, not errors
//	                                  (idempotent crash-recovery replay)
//	{"ctl":"restore-done"}            finish the restore op
//	{"ctl":"stats"}                   request the node's stats/metrics
//	{"ctl":"addnode","addr":A}        grow the membership (front door of
//	                                  a cluster router; engine nodes
//	                                  reject it)
//	{"ctl":"removenode","node":N}     shrink the membership
//
// Ops, node → client:
//
//	{"ctl":"snapshots","snapshots":[...]}  one extracted chunk
//	{"ctl":"extracted","count":N}     extract finished (Error on failure)
//	{"ctl":"restored","count":N}      restore finished (Error on failure)
//	{"ctl":"released","count":N}      release finished (Error on failure)
//	{"ctl":"node-added","node":N}     addnode finished: the new member ID
//	                                  (Error on failure)
//	{"ctl":"node-removed","node":N}   removenode finished (Error on
//	                                  failure)
//	{"ctl":"stats","stats":{...}}     the node's shard counters and
//	                                  exported metric points (Error when
//	                                  the node serves no stats)
type WireControl struct {
	// Op names the control operation.
	Op string
	// Client is the connection identity ("hello").
	Client string
	// Schema is the announcing side's feature-schema hash ("hello").
	// Zero means the peer predates feature schemas (or declared none)
	// and is checked against the paper schema.
	Schema uint64
	// Members/VNodes/Self describe the post-change ring membership
	// ("extract"/"release"): the node keeps only terminals the ring
	// still assigns to member Self.
	Members []int
	VNodes  int
	Self    int
	// Keep makes "extract" copy instead of remove: the source stays
	// authoritative until a later "release" commits the move.
	Keep bool
	// SkipLive makes "restore" skip terminals the node already serves
	// instead of failing them — the idempotent replay form.
	SkipLive bool
	// Addr is the new member's dial address ("addnode").
	Addr string
	// Node is a member ID ("removenode" and the membership acks).
	Node int
	// Count is the total snapshot count of a finished op.
	Count int
	// Snapshots carries one chunk of terminal state.
	Snapshots []TerminalSnapshot
	// Stats carries a node's telemetry in a "stats" reply.
	Stats *WireStats
	// Error reports an op failure in an ack.
	Error string
}

// WireStats is the payload of a {"ctl":"stats"} reply: the node's shard
// counter snapshot plus its registry's exported metric points.  Not a
// hot-path message, so it is encoded with encoding/json.
type WireStats struct {
	Shards []ShardStats `json:"shards,omitempty"`
	Points []obs.Point  `json:"points,omitempty"`
}

// snapshotChunk bounds the snapshots packed into one control line, so a
// big migration streams as bounded lines instead of one giant one.
const snapshotChunk = 512

// controlPrefix is the mandatory lead of a control line.
var controlPrefix = []byte(`{"ctl"`)

// isControlLine reports whether the line is a control message.  The
// encoder emits the ctl key first, making this a single memcmp.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func isControlLine(line []byte) bool {
	return bytes.HasPrefix(trimSpace(line), controlPrefix)
}

// AppendControlJSON appends the control message as one JSON line (with
// trailing newline) to dst and returns the extended slice.  The ctl key
// is emitted first — isControlLine depends on it.  Control messages are
// rare (migration, admin) so the encoder is not hotpath-audited, but it
// is deterministic: migration journal replay compares control lines as
// bytes.
//
//fuzzyho:deterministic
func AppendControlJSON(dst []byte, c WireControl) []byte {
	dst = append(dst, `{"ctl":`...)
	dst = appendJSONString(dst, c.Op)
	if c.Client != "" {
		dst = append(dst, `,"client":`...)
		dst = appendJSONString(dst, c.Client)
	}
	if c.Schema != 0 {
		dst = append(dst, `,"schema":`...)
		dst = strconv.AppendUint(dst, c.Schema, 10)
	}
	if c.Addr != "" {
		dst = append(dst, `,"addr":`...)
		dst = appendJSONString(dst, c.Addr)
	}
	if c.Node != 0 {
		dst = append(dst, `,"node":`...)
		dst = strconv.AppendInt(dst, int64(c.Node), 10)
	}
	if c.Members != nil {
		dst = append(dst, `,"members":[`...)
		for i, m := range c.Members {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(m), 10)
		}
		dst = append(dst, `],"vnodes":`...)
		dst = strconv.AppendInt(dst, int64(c.VNodes), 10)
		dst = append(dst, `,"self":`...)
		dst = strconv.AppendInt(dst, int64(c.Self), 10)
	}
	if c.Keep {
		dst = append(dst, `,"keep":true`...)
	}
	if c.SkipLive {
		dst = append(dst, `,"skip_live":true`...)
	}
	if c.Snapshots != nil {
		dst = append(dst, `,"snapshots":[`...)
		for i, s := range c.Snapshots {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendSnapshotObj(dst, s)
		}
		dst = append(dst, ']')
	}
	if c.Count != 0 {
		dst = append(dst, `,"count":`...)
		dst = strconv.AppendInt(dst, int64(c.Count), 10)
	}
	if c.Stats != nil {
		dst = append(dst, `,"stats":`...)
		// Stats replies are rare (one per scrape) and never on the data
		// hot path; the stdlib encoder is fine here.
		b, err := json.Marshal(c.Stats)
		if err != nil {
			// A WireStats is plain data and cannot fail to marshal; keep
			// the line well-formed regardless.
			b = []byte(`{}`)
		}
		dst = append(dst, b...)
	}
	if c.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, c.Error)
	}
	return append(dst, '}', '\n')
}

// controlKeys are the control fields in AppendControlJSON order.
var controlKeys = newWireFields("ctl", "client", "schema", "addr", "node", "members", "vnodes", "self", "keep", "skip_live", "snapshots", "count", "stats", "error")

// ParseControlLine decodes one control line, validating any embedded
// snapshots (bad state is rejected at the wire, before it can reach an
// engine).  Unknown keys are tolerated and syntax-checked.  The "stats"
// object is the one value still decoded by encoding/json, because its
// encoder is json.Marshal.
//
//fuzzyho:deterministic
func ParseControlLine(line []byte) (WireControl, error) {
	s := wireScanner{b: line}
	var c WireControl
	var seen uint32
	var statsErr, snapErr error
	ok := s.eatObject()
	for first := true; ok; first = false {
		var idx int
		var end bool
		if idx, end, ok = s.next(controlKeys, first, &seen); !ok || end {
			break
		}
		switch idx {
		case 0:
			c.Op, ok = s.stringValue()
		case 1:
			c.Client, ok = s.stringValue()
		case 2:
			c.Schema, ok = s.uintValue()
		case 3:
			c.Addr, ok = s.stringValue()
		case 4:
			c.Node, ok = s.intValue()
		case 5:
			c.Members, ok = s.ints()
		case 6:
			c.VNodes, ok = s.intValue()
		case 7:
			c.Self, ok = s.intValue()
		case 8:
			c.Keep, ok = s.boolValue()
		case 9:
			c.SkipLive, ok = s.boolValue()
		case 10:
			c.Snapshots, snapErr, ok = s.snapshots()
		case 11:
			c.Count, ok = s.intValue()
		case 12:
			c.Stats, statsErr, ok = s.stats()
		case 13:
			c.Error, ok = s.stringValue()
		default:
			ok = s.skipValue(1)
		}
	}
	if !ok || !s.end() {
		return WireControl{}, s.malformed("control")
	}
	if statsErr != nil {
		return WireControl{}, fmt.Errorf("serve: malformed control line: %w", statsErr)
	}
	if c.Op == "" {
		return WireControl{}, fmt.Errorf("serve: control line carries no op: %.200s", line)
	}
	if snapErr != nil {
		return WireControl{}, snapErr
	}
	return c, nil
}

// ints decodes an int array as encoding/json fills a []int: null is a
// nil slice, [] an empty non-nil one.
func (s *wireScanner) ints() ([]int, bool) {
	if present, ok := s.open('[', 1); !present {
		return nil, ok
	}
	out := []int{}
	for first := true; ; first = false {
		end, ok := s.elem(first)
		if !ok {
			return nil, false
		}
		if end {
			return out, true
		}
		v, ok := s.intValue()
		if !ok {
			return nil, false
		}
		out = append(out, v)
	}
}

// snapshots decodes a "snapshots" chunk.  Each element is checked as it
// is decoded; the first invalid one is reported after the whole line
// has scanned (a malformed line outranks an invalid snapshot).  An
// empty or null array decodes as nil.
func (s *wireScanner) snapshots() (snaps []TerminalSnapshot, invalid error, ok bool) {
	if present, ok := s.open('[', 1); !present {
		return nil, nil, ok
	}
	s.evChunk = 256
	var w snapshotScan
	for n := 0; ; n++ {
		end, ok := s.elem(n == 0)
		if !ok {
			return nil, nil, false
		}
		if end {
			return snaps, invalid, true
		}
		if !s.snapshot(&w, 2) {
			return nil, nil, false
		}
		if invalid != nil {
			continue
		}
		if err := w.check(); err != nil {
			invalid = fmt.Errorf("serve: control snapshot %d: %w", n, err)
			continue
		}
		if snaps == nil {
			// Size for a full chunk of encoder-shaped (≥128-byte) objects.
			snaps = make([]TerminalSnapshot, 0, min(len(s.b)/128+1, snapshotChunk))
		}
		snaps = append(snaps, w.snap)
	}
}

// stats decodes the "stats" object through encoding/json (its encoder
// is json.Marshal).  The value is syntax-checked by the scan first; a
// decode failure is returned as invalid so it reports as a malformed
// line once the scan completes.
func (s *wireScanner) stats() (st *WireStats, invalid error, ok bool) {
	if s.peek() == 'n' {
		return nil, nil, s.literal("null")
	}
	lo := s.i
	if !s.skipValue(1) {
		return nil, nil, false
	}
	st = new(WireStats)
	if err := json.Unmarshal(s.b[lo:s.i], st); err != nil {
		return nil, err, true
	}
	return st, nil, true
}
