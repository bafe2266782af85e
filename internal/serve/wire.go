package serve

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// WireReport is the newline-JSON ingest format of one measurement report —
// the over-the-wire shape of Report consumed by cmd/hoserve.  Cells are
// [i, j] axial labels; power fields are dB.  The json tags name the wire
// keys; the codec is hand-rolled (AppendReportJSON, ParseBatchLine), and
// the type does not round-trip through encoding/json, which would encode
// X as an array rather than the wire's "x" object.
type WireReport struct {
	Terminal   uint64  `json:"terminal"`
	Serving    [2]int  `json:"serving"`
	Neighbor   [2]int  `json:"neighbor"`
	ServingDB  float64 `json:"serving_db"`
	NeighborDB float64 `json:"ssn_db"`
	CSSPdB     float64 `json:"cssp_db"`
	DMBNorm    float64 `json:"dmb"`
	WalkedKm   float64 `json:"walked_km"`
	SpeedKmh   float64 `json:"speed_kmh"`
	X          WireExt `json:"x,omitempty"`
}

// WireExt is the optional "x" extension-feature object of a wire report:
// named scalar inputs for schema features beyond the paper's measurement
// set.  Order is load-bearing — encode emits entries in stored order and
// decode preserves arrival order — so encode→decode→encode is
// byte-identical like every other codec here.  Decode rejects duplicate
// names and non-number values; an empty object decodes to nil.
type WireExt []handover.ExtValue

// WireOutcome is the newline-JSON decision format cmd/hoserve emits.
// Score is meaningful only when Scored is set: the pair distinguishes a
// legitimate score of exactly 0 from "the algorithm produced no score",
// which a bare omitempty float cannot.
type WireOutcome struct {
	Terminal uint64  `json:"terminal"`
	Seq      uint64  `json:"seq"`
	Handover bool    `json:"handover"`
	Score    float64 `json:"score,omitempty"`
	Scored   bool    `json:"scored,omitempty"`
	Reason   string  `json:"reason"`
	Executed bool    `json:"executed"`
	PingPong bool    `json:"pingpong,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Wire converts a report to its wire shape — the inverse of
// WireReport.Report, used by clients to validate before encoding (a
// non-finite float would render as a bare NaN/Inf token, which is not
// JSON, and an invalid report would poison its whole coalesced batch
// line at the remote daemon).
func (r Report) Wire() WireReport {
	return WireReport{
		Terminal:   uint64(r.Terminal),
		Serving:    [2]int{r.Meas.Serving.I, r.Meas.Serving.J},
		Neighbor:   [2]int{r.Meas.Neighbor.I, r.Meas.Neighbor.J},
		ServingDB:  r.Meas.ServingDB,
		NeighborDB: r.Meas.NeighborDB,
		CSSPdB:     r.Meas.CSSPdB,
		DMBNorm:    r.Meas.DMBNorm,
		WalkedKm:   r.Meas.WalkedKm,
		SpeedKmh:   r.Meas.SpeedKmh,
		X:          WireExt(r.Ext),
	}
}

// Report converts the wire shape to the engine's ingest type.
func (w WireReport) Report() Report {
	return Report{
		Terminal: TerminalID(w.Terminal),
		Meas: cell.Measurement{
			Serving:    hexgrid.Cell{I: w.Serving[0], J: w.Serving[1]},
			Neighbor:   hexgrid.Cell{I: w.Neighbor[0], J: w.Neighbor[1]},
			ServingDB:  w.ServingDB,
			NeighborDB: w.NeighborDB,
			CSSPdB:     w.CSSPdB,
			DMBNorm:    w.DMBNorm,
			WalkedKm:   w.WalkedKm,
			SpeedKmh:   w.SpeedKmh,
		},
		Ext: []handover.ExtValue(w.X),
	}
}

// Validate rejects reports no decision algorithm can sanely consume.
func (w WireReport) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"serving_db", w.ServingDB}, {"ssn_db", w.NeighborDB},
		{"cssp_db", w.CSSPdB}, {"dmb", w.DMBNorm},
		{"walked_km", w.WalkedKm}, {"speed_kmh", w.SpeedKmh},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: report field %s is not finite", f.name)
		}
	}
	if w.DMBNorm < 0 {
		return fmt.Errorf("serve: negative dmb %g", w.DMBNorm)
	}
	if w.WalkedKm < 0 {
		return fmt.Errorf("serve: negative walked_km %g", w.WalkedKm)
	}
	if w.SpeedKmh < 0 {
		return fmt.Errorf("serve: negative speed_kmh %g", w.SpeedKmh)
	}
	if w.Serving == w.Neighbor {
		return fmt.Errorf("serve: serving and neighbor are both BS(%d,%d)", w.Serving[0], w.Serving[1])
	}
	for i, e := range w.X {
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			return fmt.Errorf("serve: x extension feature %q is not finite", e.Name)
		}
		for j := 0; j < i; j++ {
			if w.X[j].Name == e.Name {
				return fmt.Errorf("serve: duplicate x extension feature %q", e.Name)
			}
		}
	}
	return nil
}

// ParseBatchLine decodes one ingest line: either a single JSON report
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
//
//fuzzyho:deterministic
func ParseBatchLine(line []byte) ([]Report, error) {
	// One allocation per line, sized for the encoder's ~190-byte reports.
	rs, err := AppendBatchLine(make([]Report, 0, min(len(line)/128+1, ingestBufMax)), line)
	if len(rs) == 0 {
		rs = nil // no reports is nil, whether the line was blank, empty or rejected
	}
	return rs, err
}

// AppendBatchLine is ParseBatchLine into a caller-owned buffer: it
// appends the line's reports (or, on error, its validated prefix) to dst
// and returns the extended slice.  Reusing dst across lines makes the
// decode allocation-free for reports without an "x" object.  A decoded
// report shares no memory with line or with dst's previous contents:
// "x" extension values get fresh backing arrays, because submitters
// copy reports shallowly and may retain them past the next decode.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func AppendBatchLine(dst []Report, line []byte) ([]Report, error) {
	s := wireScanner{b: line}
	base := len(dst)
	if s.ws(); s.i == len(line) {
		return dst, nil
	}
	if line[s.i] != '[' {
		dst = append(dst, Report{})
		r := &dst[base]
		if (s.peek() == 'n' && s.literal("null") || s.report(r, 0)) && s.end() && reportValid(r) {
			return dst, nil
		}
		//fuzzyho:allow cold reject path: renders the error once per rejected line
		return dst[:base], s.singleReject(r)
	}
	s.i++
	for n := 0; ; n++ {
		end, ok := s.elem(n == 0)
		if !ok {
			break
		}
		if end {
			if s.end() {
				return dst, nil
			}
			break
		}
		start := s.i
		dst = append(dst, Report{})
		r := &dst[len(dst)-1]
		if !s.report(r, 1) || !reportValid(r) {
			//fuzzyho:allow cold reject path: renders the error and syntax-checks the rest of the line once per rejected line
			return s.batchReject(dst[:len(dst)-1], base, n, start, r)
		}
	}
	//fuzzyho:allow cold reject path: renders the error once per malformed line
	return dst[:base], s.malformed("batch")
}

// singleReject renders the failure of a bare-report line: a decode
// failure rejects the line as malformed, a validation failure names
// report 0.
func (s *wireScanner) singleReject(r *Report) error {
	if s.fail != scanOK {
		return s.malformed("report")
	}
	return fmt.Errorf("report 0: %w (0 of 1 validated)", r.Wire().Validate())
}

// batchReject finishes a batch line whose report n failed — r is its
// slot, start its offset.  The rest of the line is still syntax-checked
// (a malformed line yields no reports at all) and counted for the error
// text; dst holds the validated prefix.
func (s *wireScanner) batchReject(dst []Report, base, n, start int, r *Report) ([]Report, error) {
	if s.syntaxFailed() {
		return dst[:base], s.malformed("batch")
	}
	var cause error
	if s.fail != scanOK {
		cause = s.scanError()
		s.fail, s.i = scanOK, start
		if !s.skipValue(1) {
			return dst[:base], s.malformed("batch")
		}
	} else {
		cause = r.Wire().Validate()
	}
	total := n + 1
	for {
		end, ok := s.elem(false)
		if !ok {
			return dst[:base], s.malformed("batch")
		}
		if end {
			break
		}
		if !s.skipValue(1) {
			return dst[:base], s.malformed("batch")
		}
		total++
	}
	if !s.end() {
		return dst[:base], s.malformed("batch")
	}
	return dst, fmt.Errorf("report %d: %w (%d of %d validated)", n, cause, len(dst)-base, total)
}

// malformed renders a scan failure as a whole-line reject.
func (s *wireScanner) malformed(what string) error {
	return fmt.Errorf("serve: malformed %s line: %w", what, s.scanError())
}

// reportKeys are the report fields in AppendReportJSON order.
var reportKeys = newWireFields("terminal", "serving", "neighbor", "serving_db", "ssn_db", "cssp_db", "dmb", "walked_km", "speed_kmh", "x")

// report decodes one report object into r (which it zeroes first),
// mirroring AppendReportJSON field for field.  Unknown keys reject the
// report; depth is the nesting depth of the container holding it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) report(r *Report, depth int) bool {
	*r = Report{}
	if s.peek() != '{' {
		return s.typeFail()
	}
	s.i++
	m := &r.Meas
	var seen uint32
	for first := true; ; first = false {
		idx, end, ok := s.next(reportKeys, first, &seen)
		if !ok || end {
			return ok
		}
		var t uint64
		switch idx {
		case 0:
			t, ok = s.uintValue()
			r.Terminal = TerminalID(t)
		case 1:
			ok = s.cellValue(&m.Serving.I, &m.Serving.J, depth+1)
		case 2:
			ok = s.cellValue(&m.Neighbor.I, &m.Neighbor.J, depth+1)
		case 3:
			m.ServingDB, ok = s.floatValue()
		case 4:
			m.NeighborDB, ok = s.floatValue()
		case 5:
			m.CSSPdB, ok = s.floatValue()
		case 6:
			m.DMBNorm, ok = s.floatValue()
		case 7:
			m.WalkedKm, ok = s.floatValue()
		case 8:
			m.SpeedKmh, ok = s.floatValue()
		case 9:
			//fuzzyho:allow "x" objects allocate their own backing array and names: decoded reports must not share storage with a reused buffer
			r.Ext, ok = s.extObject(depth + 1)
		default:
			ok = s.failAt(scanUnknown, s.klo, s.khi)
		}
		if !ok {
			return false
		}
	}
}

// extObject decodes the "x" extension object in arrival order into a
// freshly allocated slice (nil when empty).  Names must be unique and
// values numbers, as appendExtObj writes them.
func (s *wireScanner) extObject(depth int) ([]handover.ExtValue, bool) {
	if s.peek() != '{' {
		return nil, s.failAt(scanXShape, s.i, s.i)
	}
	if depth+1 > maxScanDepth {
		return nil, s.failAt(scanSyntax, s.i, s.i+1)
	}
	s.i++
	var ext []handover.ExtValue
	var seen uint32
	for first := true; ; first = false {
		_, end, ok := s.next(anyFields, first, &seen)
		if !ok || end {
			return ext, ok
		}
		name := string(s.keyBytes())
		for _, e := range ext {
			if e.Name == name {
				return nil, s.failAt(scanXDup, s.klo, s.khi)
			}
		}
		if c := s.peek(); c != '-' && (c < '0' || c > '9') {
			return nil, s.failAt(scanXValue, s.klo, s.khi)
		}
		v, ok := s.floatValue()
		if !ok {
			return nil, false
		}
		ext = append(ext, handover.ExtValue{Name: name, Value: v})
	}
}

// reportValid is WireReport.Validate without the error, for decoded
// reports: the decode hot path checks with it and renders Validate's
// error only on rejection.  The scanner already guarantees Validate's
// other rules — its floats are finite (out-of-range numbers fail to
// decode) and its "x" names unique.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func reportValid(r *Report) bool {
	m := &r.Meas
	return m.DMBNorm >= 0 && m.WalkedKm >= 0 && m.SpeedKmh >= 0 && m.Serving != m.Neighbor
}

// trimSpace strips ASCII whitespace without allocating.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func trimSpace(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\r' || b[lo] == '\n') {
		lo++
	}
	for hi > lo && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\r' || b[hi-1] == '\n') {
		hi--
	}
	return b[lo:hi]
}

// AppendReportJSON appends one report in the WireReport shape (no trailing
// newline — reports usually travel inside batch arrays) to dst and returns
// the extended slice.  Hand-rolled like AppendOutcomeJSON so a cluster
// router forwarding millions of reports does not allocate per report.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:wirepair parse=ParseBatchLine fuzz=FuzzParseBatchLine
func AppendReportJSON(dst []byte, r Report) []byte {
	dst = append(dst, `{"terminal":`...)
	dst = strconv.AppendUint(dst, uint64(r.Terminal), 10)
	dst = append(dst, `,"serving":[`...)
	dst = strconv.AppendInt(dst, int64(r.Meas.Serving.I), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Meas.Serving.J), 10)
	dst = append(dst, `],"neighbor":[`...)
	dst = strconv.AppendInt(dst, int64(r.Meas.Neighbor.I), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Meas.Neighbor.J), 10)
	dst = append(dst, `],"serving_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.ServingDB, 'g', -1, 64)
	dst = append(dst, `,"ssn_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.NeighborDB, 'g', -1, 64)
	dst = append(dst, `,"cssp_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.CSSPdB, 'g', -1, 64)
	dst = append(dst, `,"dmb":`...)
	dst = strconv.AppendFloat(dst, r.Meas.DMBNorm, 'g', -1, 64)
	dst = append(dst, `,"walked_km":`...)
	dst = strconv.AppendFloat(dst, r.Meas.WalkedKm, 'g', -1, 64)
	dst = append(dst, `,"speed_kmh":`...)
	dst = strconv.AppendFloat(dst, r.Meas.SpeedKmh, 'g', -1, 64)
	if len(r.Ext) > 0 {
		dst = append(dst, `,"x":`...)
		dst = appendExtObj(dst, r.Ext)
	}
	return append(dst, '}')
}

// appendExtObj appends the "x" extension object in stored entry order.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func appendExtObj(dst []byte, ext []handover.ExtValue) []byte {
	dst = append(dst, '{')
	for i, e := range ext {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, e.Name)
		dst = append(dst, ':')
		dst = strconv.AppendFloat(dst, e.Value, 'g', -1, 64)
	}
	return append(dst, '}')
}

// AppendBatchJSON appends a batch of reports as one JSON-array ingest line
// (with trailing newline) to dst and returns the extended slice.  The
// output round-trips through ParseBatchLine report for report.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func AppendBatchJSON(dst []byte, rs []Report) []byte {
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendReportJSON(dst, rs[i])
	}
	return append(dst, ']', '\n')
}

// AppendOutcomeJSON appends the outcome as one JSON line (with trailing
// newline) to dst and returns the extended slice.  It is hand-rolled so a
// busy decision stream does not allocate per outcome.  The score is
// emitted together with an explicit "scored" flag whenever the decision
// carries one, so a score of exactly 0 survives the round trip.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:wirepair parse=ParseOutcomeLine fuzz=FuzzOutcomeRoundTrip
func AppendOutcomeJSON(dst []byte, o Outcome) []byte {
	dst = append(dst, `{"terminal":`...)
	dst = strconv.AppendUint(dst, uint64(o.Terminal), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, o.Seq, 10)
	dst = append(dst, `,"handover":`...)
	dst = strconv.AppendBool(dst, o.Decision.Handover)
	if o.Decision.Scored {
		dst = append(dst, `,"score":`...)
		dst = strconv.AppendFloat(dst, o.Decision.Score, 'g', -1, 64)
		dst = append(dst, `,"scored":true`...)
	}
	dst = append(dst, `,"reason":`...)
	dst = appendJSONString(dst, o.Decision.Reason)
	dst = append(dst, `,"executed":`...)
	dst = strconv.AppendBool(dst, o.Executed)
	if o.PingPong {
		dst = append(dst, `,"pingpong":true`...)
	}
	if o.Err != nil {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, o.Err.Error())
	}
	dst = append(dst, '}', '\n')
	return dst
}

// WireError is the decode of a line-level `{"error":...}` message: the
// shape a daemon emits when it rejects a whole ingest line (malformed
// JSON, ownership conflict) rather than deciding a report.  It is also
// the Err type of decoded outcomes, carrying the remote error text
// verbatim — re-encoding a decoded outcome reproduces the original line
// byte for byte.
type WireError struct{ Msg string }

func (e *WireError) Error() string { return e.Msg }

// ParseOutcomeLine decodes one decision line a daemon emitted.  Lines
// carrying a terminal decode into a WireOutcome; line-level error messages
// (no "terminal" key) decode into a *WireError so clients can tell "a
// report was decided, possibly with an algorithm error" from "an ingest
// line was rejected and its reports will never be decided".  One pass
// per line — this sits on the cluster read hot path.
//
//fuzzyho:deterministic
func ParseOutcomeLine(line []byte) (WireOutcome, error) {
	return decodeOutcomeLine(line, nil)
}

// outcomeKeys are the outcome fields in AppendOutcomeJSON order.
var outcomeKeys = newWireFields("terminal", "seq", "handover", "score", "scored", "reason", "executed", "pingpong", "error")

// decodeOutcomeLine is ParseOutcomeLine with an optional intern table
// for reason strings: a NodeClient reader passes its own, so decoding
// its steady stream of outcomes does not allocate.  Unknown keys are
// tolerated (and syntax-checked).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func decodeOutcomeLine(line []byte, reasons *stringIntern) (WireOutcome, error) {
	s := wireScanner{b: line}
	var w WireOutcome
	var seen uint32
	ok := s.eatObject()
	for first := true; ok; first = false {
		var idx int
		var end bool
		if idx, end, ok = s.next(outcomeKeys, first, &seen); !ok || end {
			break
		}
		var str []byte
		switch idx {
		case 0:
			w.Terminal, ok = s.uintValue()
		case 1:
			w.Seq, ok = s.uintValue()
		case 2:
			w.Handover, ok = s.boolValue()
		case 3:
			w.Score, ok = s.floatValue()
		case 4:
			w.Scored, ok = s.boolValue()
		case 5:
			if str, ok = s.strValue(); ok {
				w.Reason = reasons.intern(str)
			}
		case 6:
			w.Executed, ok = s.boolValue()
		case 7:
			w.PingPong, ok = s.boolValue()
		case 8:
			if str, ok = s.strValue(); ok && len(str) > 0 {
				//fuzzyho:allow algorithm errors are rare and carry free text
				w.Error = string(str)
			}
		default:
			ok = s.skipValue(1)
		}
	}
	if !ok || !s.end() {
		//fuzzyho:allow cold reject path: renders the error once per malformed line
		return WireOutcome{}, s.malformed("outcome")
	}
	if seen&1 == 0 {
		//fuzzyho:allow line-level rejects are the cold path of the outcome stream
		return WireOutcome{}, outcomeReject(w.Error, line)
	}
	return w, nil
}

// outcomeReject renders a terminal-free outcome line: a daemon's
// line-level reject decodes as *WireError, anything else is malformed.
func outcomeReject(msg string, line []byte) error {
	if msg != "" {
		return &WireError{Msg: msg}
	}
	return fmt.Errorf("serve: outcome line carries no terminal: %.200s", line)
}

// Outcome converts the wire shape back to the engine's outcome type.  The
// Shard field is not carried on the wire (a remote consumer has no use for
// another process's shard index) and decodes as -1.
func (w WireOutcome) Outcome() Outcome {
	o := Outcome{
		Terminal: TerminalID(w.Terminal),
		Seq:      w.Seq,
		Executed: w.Executed,
		PingPong: w.PingPong,
		Shard:    -1,
	}
	o.Decision.Handover = w.Handover
	o.Decision.Score = w.Score
	o.Decision.Scored = w.Scored
	o.Decision.Reason = w.Reason
	if w.Error != "" {
		o.Err = &WireError{Msg: w.Error}
	}
	return o
}

// appendJSONString appends s as a JSON string.  Reasons and error texts
// are ASCII; anything outside the safe set is escaped numerically.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			// Control bytes escape as \u00XX, hand-rolled: a fmt.Sprintf
			// here would put an allocation on the outcome encode path for
			// every reason string containing one.
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
