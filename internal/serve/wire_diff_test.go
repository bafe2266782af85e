package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// The differential targets pin the single-pass decoders to the
// reflection decoders they replaced (wire_oracle_test.go):
//
//   - every line a scanner accepts, the oracle accepts with a deep-equal
//     value (for batch lines: a validated prefix is a prefix of what the
//     oracle decodes, and the oracle fails no earlier);
//   - on canonical input — well-formed UTF-8 JSON with unique, exact-case
//     keys and no null — both agree on accept/reject, and batch lines
//     on the failing index and validated prefix;
//   - nothing decoded aliases the input line.

// diffSeedSingle is the paper-shaped report line the seeds build on.
const diffSeedSingle = `{"terminal":7,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`

// narrowingLines are lines the oracle accepts and the scanners reject:
// one per documented narrowing (case-folded key, null for a scalar,
// duplicate key, invalid UTF-8) for each decoder.  TestWireDecoderNarrowing
// pins them; the fuzz targets are seeded with them.
var narrowingLines = map[string]map[string]string{
	"batch": {
		"folded-key":   strings.Replace(diffSeedSingle, `"dmb"`, `"DMB"`, 1),
		"kelvin-fold":  strings.Replace(diffSeedSingle, `"walked_km"`, "\"walked_\u212am\"", 1),
		"null-scalar":  strings.Replace(diffSeedSingle, `"dmb":1.1`, `"dmb":null`, 1),
		"null-in-cell": strings.Replace(diffSeedSingle, `"serving":[0,0]`, `"serving":[0,null]`, 1),
		"dup-key":      strings.Replace(diffSeedSingle, `"dmb":1.1`, `"dmb":1.1,"dmb":1.2`, 1),
		"invalid-utf8": strings.Replace(diffSeedSingle, `"speed_kmh":30`, "\"speed_kmh\":30,\"x\":{\"\xff\":1}", 1),
	},
	"outcome": {
		"folded-key":   `{"terminal":1,"seq":2,"handover":false,"Reason":"r","executed":false}`,
		"null-scalar":  `{"terminal":1,"seq":null,"handover":false,"reason":"r","executed":false}`,
		"dup-key":      `{"terminal":1,"seq":2,"seq":3,"handover":false,"reason":"r","executed":false}`,
		"invalid-utf8": "{\"terminal\":1,\"seq\":2,\"handover\":false,\"reason\":\"r\xff\",\"executed\":false}",
	},
	"snapshot": {
		"folded-key":   `{"v":1,"Terminal":7,"seq":3}`,
		"null-scalar":  `{"v":1,"terminal":7,"seq":null}`,
		"dup-key":      `{"v":1,"terminal":7,"terminal":8}`,
		"invalid-utf8": "{\"v\":1,\"terminal\":7,\"note\":\"\xc3\x28\"}",
	},
	"control": {
		"folded-key":   `{"ctl":"hello","Client":"a"}`,
		"null-scalar":  `{"ctl":"stats","count":null}`,
		"dup-key":      `{"ctl":"stats","ctl":"stats"}`,
		"invalid-utf8": "{\"ctl\":\"hello\",\"client\":\"\xff\"}",
	},
}

// TestWireDecoderNarrowing pins the complete set of lines the scanners
// reject beyond the reflection oracle: each is accepted by the oracle
// and rejected by the scanner.
func TestWireDecoderNarrowing(t *testing.T) {
	for dec, cases := range narrowingLines {
		for name, line := range cases {
			var oerr, serr error
			switch dec {
			case "batch":
				_, oerr = oracleParseBatchLine([]byte(line))
				_, serr = ParseBatchLine([]byte(line))
			case "outcome":
				_, oerr = oracleParseOutcomeLine([]byte(line))
				_, serr = ParseOutcomeLine([]byte(line))
			case "snapshot":
				_, oerr = oracleParseSnapshotLine([]byte(line))
				_, serr = ParseSnapshotLine([]byte(line))
			case "control":
				_, oerr = oracleParseControlLine([]byte(line))
				_, serr = ParseControlLine([]byte(line))
			}
			if oerr != nil {
				t.Errorf("%s/%s: oracle rejects %q (%v); not a narrowing", dec, name, line, oerr)
			}
			if serr == nil {
				t.Errorf("%s/%s: scanner accepts %q", dec, name, line)
			}
		}
	}
}

// canonicalJSON reports whether line is inside the agreement domain:
// valid UTF-8 JSON, no null, every object's keys unique, and no key that
// equals one of known only case-insensitively.
func canonicalJSON(line []byte, known []string) bool {
	if !utf8.Valid(line) || !json.Valid(line) {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	type frame struct {
		obj, wantKey bool
		keys         map[string]bool
	}
	var stack []*frame
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return true
		}
		if err != nil {
			return false
		}
		var top *frame
		if len(stack) > 0 {
			top = stack[len(stack)-1]
		}
		if top != nil && top.obj && top.wantKey {
			if d, ok := tok.(json.Delim); ok && d == '}' {
				stack = stack[:len(stack)-1]
				continue
			}
			k := tok.(string)
			if top.keys[k] {
				return false
			}
			top.keys[k] = true
			for _, n := range known {
				if k != n && strings.EqualFold(k, n) {
					return false
				}
			}
			top.wantKey = false
			continue
		}
		if top != nil && top.obj {
			top.wantKey = true // after this value, the next key
		}
		switch v := tok.(type) {
		case nil:
			return false
		case json.Delim:
			switch v {
			case '{':
				stack = append(stack, &frame{obj: true, wantKey: true, keys: map[string]bool{}})
			case '[':
				stack = append(stack, &frame{})
			case ']':
				stack = stack[:len(stack)-1]
			}
		}
	}
}

// allWireKeys is every field name the decoders know, for canonicalJSON.
func allWireKeys() []string {
	var keys []string
	for _, set := range []*wireFields{reportKeys, outcomeKeys, snapshotKeys, eventKeys, trendKeys, controlKeys} {
		keys = append(keys, set.names...)
	}
	return append(keys, "shards", "points")
}

// scribbled decodes a private copy of line with parse, overwrites the
// copy, and returns the result: comparing it with a decode of the
// untouched line detects any decoded value aliasing its input.
func scribbled[T any](line []byte, parse func([]byte) (T, error)) (T, error) {
	buf := append([]byte(nil), line...)
	v, err := parse(buf)
	for i := range buf {
		buf[i] = '#'
	}
	return v, err
}

var batchErrIndex = regexp.MustCompile(`^report (\d+): .*\((\d+) of (\d+) validated\)$`)

// batchReject extracts the failing index, validated count and total of
// an index-bearing batch error (ok=false for whole-line rejects).
func batchReject(err error) (idx, validated, total int, ok bool) {
	if err == nil {
		return 0, 0, 0, false
	}
	m := batchErrIndex.FindStringSubmatch(err.Error())
	if m == nil {
		return 0, 0, 0, false
	}
	idx, _ = strconv.Atoi(m[1])
	validated, _ = strconv.Atoi(m[2])
	total, _ = strconv.Atoi(m[3])
	return idx, validated, total, true
}

func sameReports(a, b []Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

func batchSeeds(f *testing.F) {
	s := diffSeedSingle
	for _, seed := range []string{
		s,
		"[" + s + "," + strings.Replace(s, `"terminal":7`, `"terminal":8`, 1) + "]",
		"  \t ",
		"[]",
		` [ ] `,
		"null",
		"[null," + s + "]",
		`{"terminal":1,"serving":[0,0],"neighbor":[0,0]}`,
		`[{"terminal":1,"serving":[0,0],"neighbor":[1,0],"dmb":-2},` + s + `]`,
		`[` + s + `,{"terminal":1,"serving":[0,0],"neighbor":[1,0],"rsrp":1},` + s + `]`,
		`[` + s + `,{"terminal":1,"serving":[0,0],"neighbor":[1,0],"rsrp":1},` + s + `,]`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"serving_db":1e999}`,
		`"just a string"`,
		`[1,` + s + `]`,
		strings.Replace(s, `"speed_kmh":30`, `"speed_kmh":30,"x":{"ssn_trend":-1.25}`, 1),
		strings.Replace(s, `"speed_kmh":30`, `"speed_kmh":30,"x":{"b":2,"a":0}`, 1),
		strings.Replace(s, `"speed_kmh":30`, `"speed_kmh":30,"x":{}`, 1),
		strings.Replace(s, `"speed_kmh":30`, `"speed_kmh":30,"x":{"é😀":1,"\ud800":2}`, 1),
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":[1]}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":{"t":"fast"}}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":{"t":1,"t":2}}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"rsrp":-90}`,
		`{"terminal":1,"serving":[0],"neighbor":[1,0,"extra",{}]}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0]}`,
		`{"terminal":-1,"serving":[0,0],"neighbor":[1,0]}`,
		`{"terminal":1.0,"serving":[0,0],"neighbor":[1,0]}`,
		`{"terminal":18446744073709551616,"serving":[0,0],"neighbor":[1,0]}`,
		`{"terminal":1,"serving":[-9223372036854775808,0],"neighbor":[1,0]}`,
		s + " trailing",
		s + s,
	} {
		f.Add([]byte(seed))
	}
	f.Add(AppendBatchJSON(nil, []Report{
		{Terminal: 1 << 40, Meas: wireMeas(0, 0, -1, 3, 0, 0, 0, 0, 0, 0)},
		{Terminal: 42, Meas: wireMeas(5, -7, 2, 2, -120.12345678901234, -60.5, 12.75, 0.333333333333, 123.456, 250),
			Ext: []handover.ExtValue{{Name: "b", Value: 2}, {Name: "a\"é", Value: -1e-300}}},
	}))
	for _, line := range narrowingLines["batch"] {
		f.Add([]byte(line))
		f.Add([]byte("[" + diffSeedSingle + "," + line + "]"))
	}
}

// FuzzWireDiffBatch is the differential target of the report decoder.
func FuzzWireDiffBatch(f *testing.F) {
	batchSeeds(f)
	known := allWireKeys()
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gerr := scribbled(line, ParseBatchLine)
		want, werr := oracleParseBatchLine(line)
		if again, err := ParseBatchLine(line); !sameReports(got, again) || (err == nil) != (gerr == nil) {
			t.Fatalf("decode aliases its input: %+v after scribbling, %+v fresh", got, again)
		}
		gi, _, gn, gpartial := batchReject(gerr)
		wi, _, wn, wpartial := batchReject(werr)
		switch {
		case gerr == nil:
			if werr != nil || !sameReports(got, want) {
				t.Fatalf("scanner accepts %q as %+v; oracle: %+v, %v", line, got, want, werr)
			}
		case gpartial:
			if werr != nil && !wpartial {
				t.Fatalf("scanner serves a prefix of %q the oracle rejects whole: %v / %v", line, gerr, werr)
			}
			if len(got) > len(want) || !sameReports(got, want[:len(got)]) || (wpartial && wi < gi) {
				t.Fatalf("prefix of %q: scanner %v %+v; oracle %v %+v", line, gerr, got, werr, want)
			}
		}
		if canonicalJSON(line, known) {
			if (gerr == nil) != (werr == nil) || gpartial != wpartial || gi != wi || gn != wn || !sameReports(got, want) {
				t.Fatalf("canonical %q: scanner %+v, %v; oracle %+v, %v", line, got, gerr, want, werr)
			}
		}
		// The caller-owned variant appends into a dirty reused buffer
		// without touching what it holds or sharing "x" storage.
		old := Report{Terminal: 99, Ext: []handover.ExtValue{{Name: "old", Value: 1}}}
		dirty := append(make([]Report, 0, 8), old, old, old)
		out, err := AppendBatchLine(dirty[:1], line)
		if (err == nil) != (gerr == nil) || !reflect.DeepEqual(out[0], old) || !sameReports(out[1:], got) {
			t.Fatalf("AppendBatchLine into a reused buffer: %+v, %v; want %+v, %v", out, err, got, gerr)
		}
		for _, r := range out[1:] {
			if len(r.Ext) > 0 && &r.Ext[0] == &old.Ext[0] {
				t.Fatal("decoded x shares storage with the reused buffer")
			}
		}
	})
}

func outcomeSeeds(f *testing.F) {
	for _, o := range []Outcome{
		{Terminal: 42, Seq: 9, Decision: handover.Decision{Handover: true, Score: 0.7321, Scored: true, Reason: "execute-handover"}, Executed: true, PingPong: true},
		{Terminal: 3, Seq: 7, Decision: handover.Decision{Scored: true, Reason: "below threshold"}},
		{Terminal: 1, Decision: handover.Decision{Reason: "POTLC-gate"}},
		{Terminal: 6, Seq: 2, Err: &WireError{Msg: "algorithm: inference failed"}},
		{Terminal: 5, Decision: handover.Decision{Reason: "esc \"quoted\" \\ \x01 tab\t é"}},
	} {
		f.Add(AppendOutcomeJSON(nil, o))
	}
	for _, seed := range []string{
		`{"error":"line 3: malformed report line"}`,
		`{"seq":1}`,
		`{"seq":`,
		`{"terminal":3,"seq":0,"handover":false,"reason":"","executed":false,"error":"boom"}`,
		`{"terminal":3,"reason":"😀\udc00","future":{"a":[1,{"b":null}]}}`,
		`{"terminal":3,"score":1e400}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	for _, line := range narrowingLines["outcome"] {
		f.Add([]byte(line))
	}
}

// outcomeResult folds ParseOutcomeLine's two value-bearing results — a
// decision or a line-level *WireError — into one comparable value.
func outcomeResult(w WireOutcome, err error) (any, bool) {
	var we *WireError
	switch {
	case err == nil:
		return w, true
	case errors.As(err, &we):
		return *we, true
	}
	return nil, false
}

// FuzzWireDiffOutcome is the differential target of the outcome decoder.
func FuzzWireDiffOutcome(f *testing.F) {
	outcomeSeeds(f)
	known := allWireKeys()
	f.Fuzz(func(t *testing.T, line []byte) {
		gw, gerr := scribbled(line, ParseOutcomeLine)
		got, gok := outcomeResult(gw, gerr)
		want, wok := outcomeResult(oracleParseOutcomeLine(line))
		if gok && (!wok || !reflect.DeepEqual(got, want)) {
			t.Fatalf("scanner decodes %q as %+v (%v); oracle %+v", line, got, gerr, want)
		}
		if canonicalJSON(line, known) && gok != wok {
			t.Fatalf("canonical %q: scanner %+v, %v; oracle %+v", line, got, gerr, want)
		}
		var tab stringIntern
		if tw, terr := decodeOutcomeLine(line, &tab); (terr == nil) != (gerr == nil) || (terr == nil && tw != gw) {
			t.Fatalf("interned decode differs: %+v, %v vs %+v, %v", tw, terr, gw, gerr)
		}
	})
}

func snapshotSeeds(f *testing.F) {
	trend := sampleSnapshot()
	trend.Trend = handover.TrendState{PrevSSN: -91.25, Slope: -0.5, Have: true}
	for _, s := range []TerminalSnapshot{sampleSnapshot(), trend, {Terminal: 9, Seq: 1}} {
		f.Add(AppendSnapshotJSON(nil, s))
	}
	for _, seed := range []string{
		`{"v":3,"terminal":1}`,
		`{"terminal":1}`,
		`{"v":1,"terminal":1,"trend":{"prev_ssn":-90,"slope":1,"have":true}}`,
		`{"v":1,"terminal":1,"trend":null}`,
		`{"v":2,"terminal":1,"trend":{"prev_ssn":"x"}}`,
		`{"v":1,`,
		`{"v":1,"terminal":1,"total_events":2,"events":[]}`,
		`{"v":1,"terminal":1,"total_events":1,"events":[null]}`,
		`{"v":1,"terminal":1,"total_events":1,"events":[{"from":[1],"to":[2,3,4],"walked_km":1,"extra":[]}]}`,
		`{"v":1,"terminal":1,"total_events":99999999999}`,
		`{"v":1,"terminal":1,"events":null,"serving":null}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	for _, line := range narrowingLines["snapshot"] {
		f.Add([]byte(line))
	}
}

// FuzzWireDiffSnapshot is the differential target of the snapshot
// decoder.
func FuzzWireDiffSnapshot(f *testing.F) {
	snapshotSeeds(f)
	known := allWireKeys()
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gerr := scribbled(line, ParseSnapshotLine)
		want, werr := oracleParseSnapshotLine(line)
		if gerr == nil && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("scanner decodes %q as %+v; oracle %+v, %v", line, got, want, werr)
		}
		if canonicalJSON(line, known) && (gerr == nil) != (werr == nil) {
			t.Fatalf("canonical %q: scanner %v; oracle %v", line, gerr, werr)
		}
	})
}

func controlSeeds(f *testing.F) {
	snap := string(bytes.TrimSuffix(AppendSnapshotJSON(nil, sampleSnapshot()), []byte("\n")))
	for _, seed := range []string{
		`{"ctl":"hello","client":"loadgen-1","schema":12345}`,
		`{"ctl":"extract","members":[0,1,2],"vnodes":128,"self":0,"keep":true}`,
		`{"ctl":"extracted","count":37}`,
		`{"ctl":"restore","snapshots":[` + snap + `],"skip_live":true}`,
		`{"ctl":"snapshots","snapshots":[` + snap + `,` + snap + `]}`,
		`{"ctl":"snapshots","snapshots":[]}`,
		`{"ctl":"snapshots","snapshots":[null]}`,
		`{"ctl":"snapshots","snapshots":[{"v":1,"terminal":1,"total_events":3}]}`,
		`{"ctl":"release","members":[],"vnodes":128,"self":1}`,
		`{"ctl":"addnode","addr":"127.0.0.1:7293"}`,
		`{"ctl":"node-removed","node":0,"error":"cluster: node 0 is not a member"}`,
		`{"ctl":"stats"}`,
		`{"ctl":"stats","stats":{"shards":[{"Decisions":3}],"points":[{"name":"x","value":1}]}}`,
		`{"ctl":"stats","stats":{"shards":"bad"}}`,
		`{"ctl":"stats","stats":null,"members":null}`,
		`{"ctl":"","count":1}`,
		`{"ctl":"drain","future":[1,2,{"deep":true}]}`,
		`{"ctl":"hello"} x`,
	} {
		f.Add([]byte(seed))
	}
	st := WireStats{Shards: []ShardStats{{Shard: 1, Terminals: 3, Decisions: 3}}}
	f.Add(AppendControlJSON(nil, WireControl{Op: "stats", Stats: &st}))
	f.Add(AppendControlJSON(nil, WireControl{Op: "snapshots", Members: []int{},
		Snapshots: []TerminalSnapshot{sampleSnapshot(), {Terminal: 9, Seq: 1, Serving: hexgrid.Cell{I: -3, J: 4}}}}))
	for _, line := range narrowingLines["control"] {
		f.Add([]byte(line))
	}
}

// FuzzWireDiffControl is the differential target of the control-line
// decoder.
func FuzzWireDiffControl(f *testing.F) {
	controlSeeds(f)
	known := allWireKeys()
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gerr := scribbled(line, ParseControlLine)
		want, werr := oracleParseControlLine(line)
		if gerr == nil && (werr != nil || !reflect.DeepEqual(got, want)) {
			t.Fatalf("scanner decodes %q as %+v; oracle %+v, %v", line, got, want, werr)
		}
		if canonicalJSON(line, known) && (gerr == nil) != (werr == nil) {
			t.Fatalf("canonical %q: scanner %v; oracle %v", line, gerr, werr)
		}
	})
}
