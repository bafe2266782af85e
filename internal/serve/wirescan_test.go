package serve

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// TestFloatValueMatchesParseFloat pins the scanner's float path — the
// token validation and the span it hands to strconv.ParseFloat — to
// strconv.ParseFloat on the whole text, bit for bit, over shortest-form
// encodings of random float64s and over random decimal strings of up to
// 25 digits.
func TestFloatValueMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(text string) {
		t.Helper()
		s := wireScanner{b: []byte(text)}
		got, ok := s.floatValue()
		want, err := strconv.ParseFloat(text, 64)
		if ok != (err == nil) || ok && math.Float64bits(got) != math.Float64bits(want) || ok && s.i != len(text) {
			t.Fatalf("%q: scanner %v (%v, at %d), ParseFloat %v (%v)", text, got, ok, s.i, want, err)
		}
	}
	for _, text := range []string{"0", "-0", "0.0", "-0e5", "1e22", "1e23", "9007199254740993", "-1.7976931348623157e308",
		"1e309", "4.9e-324", "2.2250738585072011e-308", "0.1", "123456789012345678901234567890", "1e-400"} {
		check(text)
	}
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(-100*rng.Float64(), 'g', -1, 64))
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteByte('-')
		}
		b.WriteString(strconv.FormatUint(rng.Uint64()%1e9+1, 10))
		if rng.Intn(2) == 0 {
			b.WriteString("." + strconv.FormatUint(rng.Uint64(), 10))
		}
		if rng.Intn(2) == 0 {
			b.WriteString("e" + strconv.Itoa(rng.Intn(160)-80))
		}
		check(b.String())
	}
}
