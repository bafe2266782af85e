package serve

// The reflection (encoding/json) wire decoders the single-pass scanners
// replaced, kept verbatim apart from their names as the differential
// oracle of the fuzz targets in wire_diff_test.go.  Their accept set is
// the reference: a scanner may accept a line only if the oracle accepts
// it with an equal value, and may reject beyond the oracle only for the
// narrowings pinned by TestWireDecoderNarrowing.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// oracleWireReport is WireReport decoding "x" through oracleWireExt.
type oracleWireReport struct {
	Terminal   uint64        `json:"terminal"`
	Serving    [2]int        `json:"serving"`
	Neighbor   [2]int        `json:"neighbor"`
	ServingDB  float64       `json:"serving_db"`
	NeighborDB float64       `json:"ssn_db"`
	CSSPdB     float64       `json:"cssp_db"`
	DMBNorm    float64       `json:"dmb"`
	WalkedKm   float64       `json:"walked_km"`
	SpeedKmh   float64       `json:"speed_kmh"`
	X          oracleWireExt `json:"x,omitempty"`
}

func (w oracleWireReport) wire() WireReport {
	return WireReport{
		Terminal: w.Terminal, Serving: w.Serving, Neighbor: w.Neighbor,
		ServingDB: w.ServingDB, NeighborDB: w.NeighborDB, CSSPdB: w.CSSPdB,
		DMBNorm: w.DMBNorm, WalkedKm: w.WalkedKm, SpeedKmh: w.SpeedKmh,
		X: WireExt(w.X),
	}
}

// oracleWireExt is WireExt with its former token-stream decoder.
type oracleWireExt WireExt

// UnmarshalJSON decodes the extension object through the token stream,
// which is the only stdlib path that sees object keys in wire order.
func (x *oracleWireExt) UnmarshalJSON(b []byte) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return fmt.Errorf("serve: report field x must be an object")
	}
	var vals []handover.ExtValue
	for dec.More() {
		ktok, err := dec.Token()
		if err != nil {
			return err
		}
		k, _ := ktok.(string)
		for _, v := range vals {
			if v.Name == k {
				return fmt.Errorf("serve: duplicate x extension feature %q", k)
			}
		}
		vtok, err := dec.Token()
		if err != nil {
			return err
		}
		num, ok := vtok.(json.Number)
		if !ok {
			return fmt.Errorf("serve: x extension feature %q is not a number", k)
		}
		f, err := num.Float64()
		if err != nil {
			return fmt.Errorf("serve: x extension feature %q: %w", k, err)
		}
		vals = append(vals, handover.ExtValue{Name: k, Value: f})
	}
	if _, err := dec.Token(); err != nil { // consume the closing brace
		return err
	}
	*x = vals
	return nil
}

// oracleParseBatchLine decodes one ingest line: either a single JSON report
// object or a JSON array of them (one batch).  A malformed line (broken
// JSON) yields a descriptive error and no reports.  Reports decode
// strictly: an unknown top-level field or a malformed "x" extension
// object rejects that report — this codec's pinned contract, since a
// silently dropped field would desynchronize a mixed-version cluster's
// decisions without any error surfacing.  A line whose report i fails to
// decode or validate yields the validated prefix — every report before
// the offending one, in order — alongside an error naming the failing
// index, so callers can serve the prefix (or drop it) without
// re-parsing; reports after the first invalid one are never returned.
func oracleParseBatchLine(line []byte) ([]Report, error) {
	trimmed := trimSpace(line)
	if len(trimmed) == 0 {
		return nil, nil
	}
	var raws []json.RawMessage
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &raws); err != nil {
			return nil, fmt.Errorf("serve: malformed batch line: %w", err)
		}
	} else {
		var w oracleWireReport
		if err := oracleUnmarshalReportStrict(trimmed, &w); err != nil {
			return nil, fmt.Errorf("serve: malformed report line: %w", err)
		}
		if err := w.wire().Validate(); err != nil {
			return nil, fmt.Errorf("report 0: %w (0 of 1 validated)", err)
		}
		return []Report{w.wire().Report()}, nil
	}
	out := make([]Report, 0, len(raws))
	for i, raw := range raws {
		var w oracleWireReport
		if err := oracleUnmarshalReportStrict(raw, &w); err != nil {
			return out, fmt.Errorf("report %d: %w (%d of %d validated)", i, err, len(out), len(raws))
		}
		if err := w.wire().Validate(); err != nil {
			return out, fmt.Errorf("report %d: %w (%d of %d validated)", i, err, len(out), len(raws))
		}
		out = append(out, w.wire().Report())
	}
	return out, nil
}

// oracleUnmarshalReportStrict decodes one report object rejecting unknown
// top-level fields and trailing data.
func oracleUnmarshalReportStrict(data []byte, w *oracleWireReport) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after report object")
	}
	return nil
}

// oracleParseOutcomeLine decodes one decision line a daemon emitted.  Lines
// carrying a terminal decode into a WireOutcome; line-level error messages
// (no "terminal" key) decode into a *WireError so clients can tell "a
// report was decided, possibly with an algorithm error" from "an ingest
// line was rejected and its reports will never be decided".  One JSON
// parse per line — this sits on the cluster read hot path.
func oracleParseOutcomeLine(line []byte) (WireOutcome, error) {
	var aux struct {
		Terminal *uint64 `json:"terminal"` // pointer: presence distinguishes reject lines
		Seq      uint64  `json:"seq"`
		Handover bool    `json:"handover"`
		Score    float64 `json:"score"`
		Scored   bool    `json:"scored"`
		Reason   string  `json:"reason"`
		Executed bool    `json:"executed"`
		PingPong bool    `json:"pingpong"`
		Error    string  `json:"error"`
	}
	if err := json.Unmarshal(line, &aux); err != nil {
		return WireOutcome{}, fmt.Errorf("serve: malformed outcome line: %w", err)
	}
	if aux.Terminal == nil {
		if aux.Error != "" {
			return WireOutcome{}, &WireError{Msg: aux.Error}
		}
		return WireOutcome{}, fmt.Errorf("serve: outcome line carries no terminal: %.200s", line)
	}
	return WireOutcome{
		Terminal: *aux.Terminal,
		Seq:      aux.Seq,
		Handover: aux.Handover,
		Score:    aux.Score,
		Scored:   aux.Scored,
		Reason:   aux.Reason,
		Executed: aux.Executed,
		PingPong: aux.PingPong,
		Error:    aux.Error,
	}, nil
}

// oracleWireSnapshotEvent/oracleWireSnapshot are the decode shapes of the snapshot
// line.
type oracleWireSnapshotEvent struct {
	From     [2]int  `json:"from"`
	To       [2]int  `json:"to"`
	WalkedKm float64 `json:"walked_km"`
}

type oracleWireSnapshot struct {
	V           int                       `json:"v"`
	Terminal    uint64                    `json:"terminal"`
	Seq         uint64                    `json:"seq"`
	PrevDB      float64                   `json:"prev_db"`
	HavePrev    bool                      `json:"have_prev"`
	Serving     [2]int                    `json:"serving"`
	HaveServing bool                      `json:"have_serving"`
	Handovers   uint64                    `json:"handovers"`
	PingPongs   uint64                    `json:"pingpongs"`
	TotalEvents uint64                    `json:"total_events"`
	Events      []oracleWireSnapshotEvent `json:"events"`
	Trend       *oracleWireTrend          `json:"trend"`
}

// oracleWireTrend is the decode shape of the v2 trend-derivation object.
type oracleWireTrend struct {
	PrevSSN float64 `json:"prev_ssn"`
	Slope   float64 `json:"slope"`
	Have    bool    `json:"have"`
}

// snapshot converts the decode shape, enforcing version and validity.
// A v1 line carrying a trend object is rejected — trend state exists
// only under SnapshotVersionTrend, and silently dropping it would skew
// the restored terminal's decision stream.
func (w oracleWireSnapshot) snapshot() (TerminalSnapshot, error) {
	if w.V != SnapshotVersion && w.V != SnapshotVersionTrend {
		return TerminalSnapshot{}, fmt.Errorf("serve: snapshot version %d not supported (this build speaks %d..%d)", w.V, SnapshotVersion, SnapshotVersionTrend)
	}
	if w.V == SnapshotVersion && w.Trend != nil {
		return TerminalSnapshot{}, fmt.Errorf("serve: snapshot version %d does not carry trend state", SnapshotVersion)
	}
	s := TerminalSnapshot{
		Terminal:    TerminalID(w.Terminal),
		Seq:         w.Seq,
		PrevDB:      w.PrevDB,
		HavePrev:    w.HavePrev,
		Serving:     hexgrid.Cell{I: w.Serving[0], J: w.Serving[1]},
		HaveServing: w.HaveServing,
		Handovers:   w.Handovers,
		PingPongs:   w.PingPongs,
		TotalEvents: w.TotalEvents,
	}
	if w.Trend != nil {
		s.Trend = handover.TrendState{PrevSSN: w.Trend.PrevSSN, Slope: w.Trend.Slope, Have: w.Trend.Have}
	}
	for _, e := range w.Events {
		s.Events = append(s.Events, SnapshotEvent{
			From:     hexgrid.Cell{I: e.From[0], J: e.From[1]},
			To:       hexgrid.Cell{I: e.To[0], J: e.To[1]},
			WalkedKm: e.WalkedKm,
		})
	}
	if err := s.Validate(); err != nil {
		return TerminalSnapshot{}, err
	}
	return s, nil
}

// oracleParseSnapshotLine decodes and validates one snapshot line.  Unknown
// versions and structurally inconsistent snapshots (event count not
// matching the tally, non-finite floats) are rejected: restoring them
// would corrupt a terminal's decision stream silently.
func oracleParseSnapshotLine(line []byte) (TerminalSnapshot, error) {
	var w oracleWireSnapshot
	if err := json.Unmarshal(trimSpace(line), &w); err != nil {
		return TerminalSnapshot{}, fmt.Errorf("serve: malformed snapshot line: %w", err)
	}
	return w.snapshot()
}

// oracleParseControlLine decodes one control line, validating any embedded
// snapshots (bad state is rejected at the wire, before it can reach an
// engine).
func oracleParseControlLine(line []byte) (WireControl, error) {
	var aux struct {
		Op        string               `json:"ctl"`
		Client    string               `json:"client"`
		Schema    uint64               `json:"schema"`
		Addr      string               `json:"addr"`
		Node      int                  `json:"node"`
		Members   []int                `json:"members"`
		VNodes    int                  `json:"vnodes"`
		Self      int                  `json:"self"`
		Keep      bool                 `json:"keep"`
		SkipLive  bool                 `json:"skip_live"`
		Count     int                  `json:"count"`
		Snapshots []oracleWireSnapshot `json:"snapshots"`
		Stats     *WireStats           `json:"stats"`
		Error     string               `json:"error"`
	}
	if err := json.Unmarshal(trimSpace(line), &aux); err != nil {
		return WireControl{}, fmt.Errorf("serve: malformed control line: %w", err)
	}
	if aux.Op == "" {
		return WireControl{}, fmt.Errorf("serve: control line carries no op: %.200s", line)
	}
	c := WireControl{
		Op:       aux.Op,
		Client:   aux.Client,
		Schema:   aux.Schema,
		Addr:     aux.Addr,
		Node:     aux.Node,
		Members:  aux.Members,
		VNodes:   aux.VNodes,
		Self:     aux.Self,
		Keep:     aux.Keep,
		SkipLive: aux.SkipLive,
		Count:    aux.Count,
		Stats:    aux.Stats,
		Error:    aux.Error,
	}
	for i, w := range aux.Snapshots {
		s, err := w.snapshot()
		if err != nil {
			return WireControl{}, fmt.Errorf("serve: control snapshot %d: %w", i, err)
		}
		c.Snapshots = append(c.Snapshots, s)
	}
	return c, nil
}
