package serve

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"
	"unsafe"
)

// wireScanner is the byte cursor every wire decoder shares.  A decoder
// walks its line once, left to right, in the field order of the matching
// hand-rolled encoder, and writes straight into the destination value —
// no token stream, no intermediate RawMessage, no reflection.
//
// The accepted language is JSON as encoding/json reads it into the
// codec's Go shapes, narrowed in exactly four documented ways (see the
// README's wire-protocol contracts, pinned by TestWireDecoderNarrowing):
// a key that matches a field only case-insensitively, null for a scalar
// field, a duplicate key, and invalid UTF-8 inside a string are rejected
// rather than resolved the way encoding/json resolves them.
//
// Failures record a code and a byte span instead of building an error,
// so the scan never allocates; scanError renders the message afterwards,
// on the cold path.
type wireScanner struct {
	b []byte
	i int

	fail   scanFail
	lo, hi int // span of the offending token
	// klo/khi span the key whose value is being decoded (error context).
	klo, khi int
	// kesc marks the current key as containing escapes; keyBytes then
	// unescapes it into tmp.
	kesc bool
	// tmp holds unescaped string bytes.  Decoded strings that must outlive
	// the scan are copied out of it (or out of b): nothing a decoder
	// returns aliases either buffer.
	tmp []byte
	// evArena, when evChunk > 0, backs the decoded snapshots' event
	// slices in chunks of evChunk events (one allocation per chunk
	// instead of one per snapshot); each snapshot gets a capacity-capped
	// window of it.
	evArena []SnapshotEvent
	evChunk int
}

// scanFail classifies the first failure of a scan.  scanSyntax and
// scanUTF8 mean the line is not (acceptable) JSON at all; every other
// code is a well-formed value the destination shape rejects.
type scanFail uint8

const (
	scanOK      scanFail = iota
	scanSyntax           // not JSON (or nested deeper than maxScanDepth)
	scanUTF8             // invalid UTF-8 inside a string
	scanType             // JSON value of the wrong kind for the field
	scanRange            // number out of range for the field
	scanNull             // null for a scalar field
	scanUnknown          // unknown key in a strict (report) object
	scanFolded           // key matches a field only case-insensitively
	scanDup              // duplicate key
	scanXShape           // report "x" is not an object
	scanXValue           // report "x" entry is not a number
	scanXDup             // duplicate report "x" name
)

// maxScanDepth mirrors encoding/json's nesting limit, so a skipped
// unknown value is never accepted deeper than the stdlib accepts it.
const maxScanDepth = 10000

// syntaxFailed reports whether the scan failed on JSON well-formedness
// rather than on the destination shape.
func (s *wireScanner) syntaxFailed() bool { return s.fail == scanSyntax || s.fail == scanUTF8 }

// failAt records the first failure and returns false, so decoders can
// `return s.failAt(...)`.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) failAt(f scanFail, lo, hi int) bool {
	if s.fail == scanOK {
		s.fail, s.lo, s.hi = f, lo, hi
	}
	return false
}

// ws skips JSON whitespace.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) ws() {
	for s.i < len(s.b) {
		if c := s.b[s.i]; c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return
		}
		s.i++
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) peek() byte {
	if s.i < len(s.b) && s.b[s.i] > ' ' {
		return s.b[s.i] // encoders emit no whitespace
	}
	s.ws()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// eat consumes c (after whitespace) or fails with a syntax error.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) eat(c byte) bool {
	if s.peek() != c {
		return s.failAt(scanSyntax, s.i, s.i+1)
	}
	s.i++
	return true
}

// end accepts only trailing whitespace.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) end() bool {
	s.ws()
	if s.i != len(s.b) {
		return s.failAt(scanSyntax, s.i, s.i+1)
	}
	return true
}

// literal consumes the keyword lit ("true", "false", "null").
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) literal(lit string) bool {
	if len(s.b)-s.i < len(lit) {
		return s.failAt(scanSyntax, len(s.b), len(s.b))
	}
	for k := 0; k < len(lit); k++ {
		if s.b[s.i+k] != lit[k] {
			return s.failAt(scanSyntax, s.i+k, s.i+k+1)
		}
	}
	s.i += len(lit)
	return true
}

// elem advances to the next element of an array whose '[' is consumed,
// reporting end=true after the closing bracket.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) elem(first bool) (end, ok bool) {
	c := s.peek()
	switch {
	case c == ']':
		s.i++
		return true, true
	case first:
		return false, true
	case c == ',':
		s.i++
		return false, true
	}
	return false, s.failAt(scanSyntax, s.i, s.i+1)
}

// keyBytes returns the current key, unescaped.  The slice is valid only
// until the next string is scanned.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) keyBytes() []byte {
	if !s.kesc {
		return s.b[s.klo:s.khi]
	}
	s.tmp = appendUnescaped(s.tmp[:0], s.b[s.klo:s.khi])
	return s.tmp
}

// wireFields is a decoder's field table: the names in encoder order and
// their `"name":` literals, which the in-order fast path of next matches
// outright.
type wireFields struct {
	names []string
	lits  []string
}

// anyFields is the empty field table: next over it yields every key as
// unknown (-1), for objects whose keys are data (skipped values, "x").
var anyFields = newWireFields()

func newWireFields(names ...string) *wireFields {
	f := &wireFields{names: names}
	for _, n := range names {
		f.lits = append(f.lits, `"`+n+`":`)
	}
	return f
}

// next advances to the next member of an object whose '{' is consumed.
// It reports end=true after the closing brace; otherwise it consumes the
// key and its ':' and returns the field index, or -1 for an unknown key
// whose value the caller must skip (strict decoders reject it).  Keys
// that match a field only case-insensitively — encoding/json would have
// bound them — and duplicate keys fail the scan.  seen tracks the
// fields bound so far.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) next(f *wireFields, first bool, seen *uint32) (idx int, end, ok bool) {
	c := s.peek()
	switch {
	case c == '}':
		s.i++
		return 0, true, true
	case first:
	case c == ',':
		s.i++
		c = s.peek()
	default:
		return 0, false, s.failAt(scanSyntax, s.i, s.i+1)
	}
	if c != '"' {
		return 0, false, s.failAt(scanSyntax, s.i, s.i+1)
	}
	// Fast path: encoders emit fields in table order, unescaped, with no
	// space before the colon — so the next key usually is the literal of
	// a field after every field seen so far.
	rest := s.b[s.i:]
	for j := bits.Len32(*seen); j < len(f.lits); j++ {
		if lit := f.lits[j]; len(rest) >= len(lit) && bytesIsString(rest[:len(lit)], lit) {
			s.klo, s.khi, s.kesc = s.i+1, s.i+len(lit)-2, false
			s.i += len(lit)
			*seen |= 1 << j
			return j, false, true
		}
	}
	lo, hi, esc, ok := s.str()
	if !ok || !s.eat(':') {
		return 0, false, false
	}
	s.klo, s.khi, s.kesc = lo, hi, esc
	k := s.keyBytes()
	for j, n := range f.names {
		if !bytesIsString(k, n) {
			continue
		}
		if *seen&(1<<j) != 0 {
			return 0, false, s.failAt(scanDup, lo, hi)
		}
		*seen |= 1 << j
		return j, false, true
	}
	//fuzzyho:allow cold: only keys outside the codec's field set reach the case-fold comparison
	if foldsToAny(k, f.names) {
		return 0, false, s.failAt(scanFolded, lo, hi)
	}
	return -1, false, true
}

// bytesIsString reports whether b holds exactly s.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func bytesIsString(b []byte, s string) bool {
	//fuzzyho:allow comparison-only conversion: the compiler compares the bytes in place (runtime memequal), nothing is copied
	return string(b) == s
}

// foldsToAny reports whether k equals one of names under Unicode case
// folding — the rule encoding/json uses to match keys to fields.
func foldsToAny(k []byte, names []string) bool {
	for _, n := range names {
		if strings.EqualFold(string(k), n) {
			return true
		}
	}
	return false
}

// str scans a string token at s.i (which must be '"'), returning the
// span of its contents and whether it holds escapes.  Control bytes,
// malformed escapes and invalid UTF-8 fail the scan.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) str() (lo, hi int, esc, ok bool) {
	s.i++ // opening quote
	lo = s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			hi = s.i
			s.i++
			return lo, hi, esc, true
		case c == '\\':
			esc = true
			if s.i+1 >= len(s.b) {
				return 0, 0, false, s.failAt(scanSyntax, len(s.b), len(s.b))
			}
			switch s.b[s.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				s.i += 2
			case 'u':
				if s.i+6 > len(s.b) || hex4(s.b[s.i+2:s.i+6]) < 0 {
					return 0, 0, false, s.failAt(scanSyntax, s.i, s.i+2)
				}
				s.i += 6
			default:
				return 0, 0, false, s.failAt(scanSyntax, s.i, s.i+2)
			}
		case c < 0x20:
			return 0, 0, false, s.failAt(scanSyntax, s.i, s.i+1)
		case c < utf8.RuneSelf:
			s.i++
		default:
			r, size := utf8.DecodeRune(s.b[s.i:])
			if r == utf8.RuneError && size == 1 {
				return 0, 0, false, s.failAt(scanUTF8, s.i, s.i+1)
			}
			s.i += size
		}
	}
	return 0, 0, false, s.failAt(scanSyntax, len(s.b), len(s.b))
}

// strValue scans a string field value and returns its decoded bytes,
// valid only until the next string is scanned.  null fails (scalar).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) strValue() ([]byte, bool) {
	switch s.peek() {
	case '"':
	case 'n':
		return nil, s.nullFail()
	default:
		return nil, s.typeFail()
	}
	lo, hi, esc, ok := s.str()
	if !ok {
		return nil, false
	}
	if !esc {
		return s.b[lo:hi], true
	}
	s.tmp = appendUnescaped(s.tmp[:0], s.b[lo:hi])
	return s.tmp, true
}

// stringValue is strValue copied out into a string.
func (s *wireScanner) stringValue() (string, bool) {
	b, ok := s.strValue()
	return string(b), ok
}

// hex4 decodes four hex digits, or returns -1.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// appendUnescaped appends the decoded form of a scanned (well-formed)
// string body.  \u escapes decode exactly as encoding/json decodes them:
// a valid surrogate pair joins into one rune, any other surrogate
// becomes U+FFFD.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func appendUnescaped(dst, body []byte) []byte {
	for i := 0; i < len(body); {
		c := body[i]
		if c != '\\' {
			dst = append(dst, c)
			i++
			continue
		}
		switch body[i+1] {
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := hex4(body[i+2:])
			i += 6
			if 0xD800 <= r && r < 0xE000 {
				low := rune(-1)
				if i+6 <= len(body) && body[i] == '\\' && body[i+1] == 'u' {
					low = hex4(body[i+2:])
				}
				if r < 0xDC00 && 0xDC00 <= low && low < 0xE000 {
					r = (r-0xD800)<<10 | (low - 0xDC00) + 0x10000
					i += 6
				} else {
					r = utf8.RuneError
				}
			}
			dst = utf8.AppendRune(dst, r)
			continue
		default: // '"', '\\', '/'
			dst = append(dst, body[i+1])
		}
		i += 2
	}
	return dst
}

// numberToken consumes one number per the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?; it only validates, the
// caller converts the consumed span.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) numberToken() bool {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for i++; i < len(b) && b[i]-'0' < 10; i++ {
		}
	default:
		return s.failAt(scanSyntax, i, i+1)
	}
	if i < len(b) && b[i] == '.' {
		i++
		d := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
		}
		if i == d {
			return s.failAt(scanSyntax, i, i+1)
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		d := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
		}
		if i == d {
			return s.failAt(scanSyntax, i, i+1)
		}
	}
	s.i = i
	return true
}

// numberStart checks that a number value starts at s.i; null fails as a
// null error, any other value as a type error.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) numberStart() bool {
	switch c := s.peek(); {
	case c == '-' || ('0' <= c && c <= '9'):
		return true
	case c == 'n':
		return s.nullFail()
	}
	return s.typeFail()
}

// integer decodes an integer-valued number field: like strconv's
// ParseInt/ParseUint (and so encoding/json), only an optionally negative
// plain run of digits is accepted, and magnitudes past uint64 fail.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) integer() (mag uint64, neg, ok bool) {
	if !s.numberStart() {
		return 0, false, false
	}
	b, lo := s.b, s.i
	i := lo
	if b[i] == '-' {
		neg = true
		i++
	}
	overflow := false
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		const cutoff = math.MaxUint64 / 10 // mag*10+d overflows past it
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			d := uint64(b[i] - '0')
			if mag >= cutoff && (mag > cutoff || d > math.MaxUint64%10) {
				overflow = true
			}
			mag = mag*10 + d
		}
	}
	if i == lo+1 && neg || i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		// Not a plain integer: settle well-formedness on the full grammar.
		if !s.numberToken() {
			return 0, false, false
		}
		return 0, false, s.failAt(scanType, lo, s.i)
	}
	s.i = i
	if overflow {
		return 0, false, s.failAt(scanRange, lo, i)
	}
	return mag, neg, true
}

// uintValue decodes an unsigned integer field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) uintValue() (uint64, bool) {
	lo := s.i
	v, neg, ok := s.integer()
	if ok && neg {
		return 0, s.failAt(scanType, lo, s.i)
	}
	return v, ok
}

// intValue decodes a signed integer field (the platform int).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) intValue() (int, bool) {
	lo := s.i
	v, neg, ok := s.integer()
	if !ok {
		return 0, false
	}
	if neg {
		if v > uint64(math.MaxInt)+1 {
			return 0, s.failAt(scanRange, lo, s.i)
		}
		return int(-v), true
	}
	if v > math.MaxInt {
		return 0, s.failAt(scanRange, lo, s.i)
	}
	return int(v), true
}

// floatValue decodes a float64 field with exactly strconv.ParseFloat's
// result, as encoding/json does; out-of-range magnitudes fail.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) floatValue() (float64, bool) {
	if !s.numberStart() {
		return 0, false
	}
	lo := s.i
	if !s.numberToken() {
		return 0, false
	}
	// A zero-copy view of the token: ParseFloat does not retain its
	// argument (its *NumError clones the text).
	//fuzzyho:allow strconv.ParseFloat allocates only its *NumError, on the reject path; accepted numbers parse without allocating
	f, err := strconv.ParseFloat(unsafe.String(&s.b[lo], s.i-lo), 64)
	if err != nil {
		return 0, s.failAt(scanRange, lo, s.i)
	}
	return f, true
}

// boolValue decodes a bool field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) boolValue() (bool, bool) {
	switch s.peek() {
	case 't':
		return true, s.literal("true")
	case 'f':
		return false, s.literal("false")
	case 'n':
		return false, s.nullFail()
	}
	return false, s.typeFail()
}

// cellValue decodes an [i, j] cell label the way encoding/json fills a
// Go [2]int: missing elements stay zero, extra elements are skipped, and
// null leaves the whole array untouched.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) cellValue(i, j *int, depth int) bool {
	if present, ok := s.open('[', depth); !present {
		return ok
	}
	for k := 0; ; k++ {
		end, ok := s.elem(k == 0)
		if !ok {
			return false
		}
		if end {
			return true
		}
		var v int
		switch k {
		case 0:
			v, ok = s.intValue()
			*i = v
		case 1:
			v, ok = s.intValue()
			*j = v
		default:
			ok = s.skipValue(depth + 1)
		}
		if !ok {
			return false
		}
	}
}

// nullFail consumes a null literal and fails with scanNull — null for a
// scalar field is one of the documented narrowings.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) nullFail() bool {
	lo := s.i
	if !s.literal("null") {
		return false
	}
	return s.failAt(scanNull, lo, s.i)
}

// typeFail fails with scanType on the value starting at s.i.  Whether
// that value is itself well-formed is settled by whoever resynchronizes
// past it (a batch line re-skips the whole failed report).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) typeFail() bool {
	return s.failAt(scanType, s.i, min(s.i+32, len(s.b)))
}

// skipValue syntax-checks and skips one value of any kind; depth is the
// nesting depth of the container holding it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) skipValue(depth int) bool {
	switch c := s.peek(); {
	case c == '"':
		_, _, _, ok := s.str()
		return ok
	case c == '-' || ('0' <= c && c <= '9'):
		return s.numberToken()
	case c == 't':
		return s.literal("true")
	case c == 'f':
		return s.literal("false")
	case c == 'n':
		return s.literal("null")
	case c == '{':
		if depth+1 > maxScanDepth {
			return s.failAt(scanSyntax, s.i, s.i+1)
		}
		s.i++
		var seen uint32
		for first := true; ; first = false {
			_, end, ok := s.next(anyFields, first, &seen)
			if !ok || end {
				return ok
			}
			if !s.skipValue(depth + 1) {
				return false
			}
		}
	case c == '[':
		if depth+1 > maxScanDepth {
			return s.failAt(scanSyntax, s.i, s.i+1)
		}
		s.i++
		for first := true; ; first = false {
			end, ok := s.elem(first)
			if !ok {
				return false
			}
			if end {
				return true
			}
			if !s.skipValue(depth + 1) {
				return false
			}
		}
	}
	return s.failAt(scanSyntax, s.i, s.i+1)
}

// scanError renders the recorded failure.  The field named is the last
// key the scan read.
func (s *wireScanner) scanError() error {
	lo, hi := min(s.lo, len(s.b)), min(s.hi, len(s.b))
	key := string(appendUnescaped(nil, s.b[s.klo:s.khi]))
	switch s.fail {
	case scanSyntax:
		if lo == len(s.b) {
			return errors.New("unexpected end of input")
		}
		return fmt.Errorf("invalid character %q at offset %d", s.b[lo], lo)
	case scanUTF8:
		return fmt.Errorf("invalid UTF-8 in string at offset %d", lo)
	case scanType:
		return fmt.Errorf("field %q: wrong JSON type for value %.32s", key, s.b[lo:hi])
	case scanRange:
		return fmt.Errorf("field %q: number %.32s out of range", key, s.b[lo:hi])
	case scanNull:
		return fmt.Errorf("field %q: null is not a value", key)
	case scanUnknown:
		return fmt.Errorf("unknown field %q", key)
	case scanFolded:
		return fmt.Errorf("field %q matches a known field only case-insensitively", key)
	case scanDup:
		return fmt.Errorf("duplicate field %q", key)
	case scanXShape:
		return errors.New("serve: report field x must be an object")
	case scanXValue:
		return fmt.Errorf("serve: x extension feature %q is not a number", key)
	case scanXDup:
		return fmt.Errorf("serve: duplicate x extension feature %q", key)
	}
	return errors.New("scan failed")
}

// stringIntern is a bounded intern table for the small, repeating
// vocabulary of decoded strings — decision reasons on a NodeClient's
// reader.  A hit returns the stored string without allocating; the first
// sighting of a string stores a private copy; once the table is full,
// new strings are copied per call, so a peer streaming unique strings
// cannot grow it.  Not safe for concurrent use: one per reader.
type stringIntern struct {
	tab [64]string
	n   int
}

// internMax bounds the occupancy so linear probes stay short.
const internMax = 48

// intern returns b as a string that does not alias b; a nil table
// copies every string.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (t *stringIntern) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil {
		//fuzzyho:allow untabled decode (ParseOutcomeLine) copies the string; NodeClient readers pass a table
		return string(b)
	}
	h := uint32(2166136261)
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	for p := uint32(0); p < uint32(len(t.tab)); p++ {
		slot := &t.tab[(h+p)%uint32(len(t.tab))]
		if *slot == "" {
			if t.n >= internMax {
				break
			}
			t.n++
			//fuzzyho:allow first sighting of a string: the bounded table copies it once, later hits are free
			*slot = string(b)
			return *slot
		}
		if bytesIsString(b, *slot) {
			return *slot
		}
	}
	//fuzzyho:allow table full: a bounded table copies strings it cannot hold
	return string(b)
}

// open consumes the bracket c opening a container value nested at
// depth+1.  null reports present=false — encoding/json leaves the
// destination zero (or nil) — and any other value fails as a type error.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) open(c byte, depth int) (present, ok bool) {
	switch s.peek() {
	case c:
		if depth+1 > maxScanDepth {
			return false, s.failAt(scanSyntax, s.i, s.i+1)
		}
		s.i++
		return true, true
	case 'n':
		return false, s.literal("null")
	}
	return false, s.typeFail()
}

// eatObject consumes the '{' opening a top-level object; any other
// value fails as a type error (null included: the codec's top-level
// shapes are objects).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScanner) eatObject() bool {
	if s.peek() != '{' {
		return s.typeFail()
	}
	s.i++
	return true
}
