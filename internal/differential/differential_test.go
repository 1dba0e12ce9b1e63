package differential

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzOperatorVsReference decodes its input into one case and runs the
// harness on it. The committed corpus (testdata/fuzz) holds the shapes
// earlier bugs had, by name; replay one, or a failing input the fuzzer
// wrote there, with
//
//	go test ./internal/differential -run 'FuzzOperatorVsReference/<entry>'
func FuzzOperatorVsReference(f *testing.F) {
	for seed, n := int64(0), 0; n < 8; seed++ {
		if Decode(seed, Shape(seed)).Gap() == "" {
			f.Add(seed, Shape(seed))
			n++
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, shape []byte) {
		c := Decode(seed, shape)
		if why := c.Gap(); why != "" {
			t.Skip(why)
		}
		Run(t, c)
	})
}

// TestOperatorVsReference runs the harness on drawn cases of every
// technique; a failure prints the case, and its seed replays it.
func TestOperatorVsReference(t *testing.T) {
	trials := int64(200)
	if testing.Short() {
		trials = 40
	}
	for seed := int64(0); seed < trials; seed++ {
		c := Draw(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { Run(t, c) })
	}
}

// TestCorpusShapes pins what the named corpus entries decode to, so a change
// to the draw order cannot silently turn a regression seed into another
// case.
func TestCorpusShapes(t *testing.T) {
	for name, want := range map[string][]string{
		// A late tuple of a key with no row for its window yet, in the
		// slice-major keyed operator.
		"keyed-late-update-row":     {"keyed/sum ordered=false", "keys=65 ", "lag=16 ", "disorder={Fraction:0.199"},
		"keyed-silent-key-late-row": {"keyed/sum ordered=false", "keys=901 ", "lag=16 "},
		// A watermark triggering a window past the newest tuple (pairs
		// folded the open slice into it).
		"pairs-window-past-newest-tuple": {"pairs/sum ordered=true specs=[{0 321 0}]"},
		// A sampling window (slide above length) postponed while empty and
		// ended by the next tuple (cutty took that tuple in).
		"cutty-window-ended-by-next-tuple": {"cutty/median ordered=true specs=[{1 4 6}]", "lag=1 "},
		// A session gap shorter than the disorder beside a sliding window
		// (the splitTime panic).
		"sliding-plus-session-gap-under-disorder": {"lazy-slicing/sum ordered=false specs=[{1 4084 1021} {2 702 0}]", "MaxDelay:3509", "lag=2011 "},
		// A session alone, extended by a late tuple while its end edge
		// stayed put (the partialByTime panic).
		"session-extended-out-of-order": {"lazy-slicing/sum ordered=false specs=[{2 372 0}]", "MaxDelay:4980", "lag=391 "},
		// A snapshot between a late tuple and its watermark: the restored
		// operator must carry the marked windows and emit their updates.
		"snapshot-with-updates-pending-core":  {"lazy-slicing/sum ordered=false specs=[{1 169 126}]", "change=3@288 "},
		"snapshot-with-updates-pending-fleet": {"fleet-slicing/sum ordered=false specs=[{1 409 741} {7 2454 818} {1 2045 3195}]", "change=3@15 "},
		"snapshot-with-updates-pending-keyed": {"keyed/max ordered=false specs=[{1 6375 6773} {7 6800 3400} {1 6375 3984} {1 425 425}]", "change=3@161 "},
		// A tuple that un-parks factored windows between watermarks, and a
		// late tuple in a pane the factor trigger had postponed (the fleet
		// emitted the window empty and never corrected it).
		"fleet-window-unparked-by-a-tuple": {"fleet-slicing/max ordered=false specs=[{1 6375 6773} {7 6800 3400} {1 6375 3984} {1 425 425}]", "lag=160 "},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzOperatorVsReference", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		seed, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(lines[1], "int64("), ")"), 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shape, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := Decode(seed, []byte(shape)).String()
		for _, w := range want {
			if !strings.Contains(got, w) {
				t.Errorf("%s decodes to %s, which lacks %q", name, got, w)
			}
		}
	}
}
