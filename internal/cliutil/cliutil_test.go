package cliutil

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestParseNodeCounts pins the strict -nodes contract: lenient inputs
// that used to be silently normalized (whitespace) or half-rejected with
// an opaque message (trailing comma) now fail with errors naming the
// offending element, and duplicates are rejected outright.
func TestParseNodeCounts(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    []int
		wantErr string // substring of the error, "" for success
	}{
		{in: "8", want: []int{8}},
		{in: "2,4,8,16", want: []int{2, 4, 8, 16}},
		{in: "16,4", want: []int{16, 4}}, // order preserved, not sorted
		{in: "2, 4", wantErr: `element " 4" contains whitespace`},
		{in: " 2,4", wantErr: `element " 2" contains whitespace`},
		{in: "2\t,4", wantErr: "contains whitespace"},
		{in: "8,8,", wantErr: "duplicate node count 8"}, // dup hit before the trailing comma
		{in: "8,4,", wantErr: "empty element at position 3"},
		{in: ",8", wantErr: "empty element at position 1"},
		{in: "", wantErr: "empty element at position 1"},
		{in: "8,8", wantErr: "duplicate node count 8"},
		{in: "2,4,2", wantErr: "duplicate node count 2"},
		{in: "0", wantErr: `bad node count "0"`},
		{in: "-4", wantErr: `bad node count "-4"`},
		{in: "4x", wantErr: `bad node count "4x"`},
	} {
		got, err := ParseNodeCounts(tc.in)
		if tc.wantErr != "" {
			if err == nil {
				t.Errorf("ParseNodeCounts(%q) = %v, want error containing %q", tc.in, got, tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ParseNodeCounts(%q) error = %q, want it to contain %q", tc.in, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseNodeCounts(%q): %v", tc.in, err)
		} else if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseNodeCounts(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestParsePositiveIntsStaysLenient pins the split contract: -cores style
// lists keep tolerating whitespace and duplicates (repeated per-node core
// counts are meaningful there).
func TestParsePositiveIntsStaysLenient(t *testing.T) {
	got, err := ParsePositiveInts("4, 4 ,8")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{4, 4, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ParsePositiveInts = %v, want %v", got, want)
	}
	if _, err := ParsePositiveInts("4,0"); err == nil {
		t.Fatal("ParsePositiveInts accepted a zero")
	}
}

// FuzzParseNodeCounts holds the -nodes contract on arbitrary input: an
// accepted list is positive and duplicate-free, and its canonical form
// (the values re-joined with commas) parses back to the same slice. The
// input itself need not round-trip: Atoi accepts "08" and "+8".
func FuzzParseNodeCounts(f *testing.F) {
	for _, seed := range []string{"8", "2,4,8,16", "16,4", "2, 4", "8,8", ",8", "", "0", "-4", "08", "+8"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseNodeCounts(s)
		if err != nil {
			return
		}
		seen := make(map[int]bool, len(got))
		canon := make([]string, len(got))
		for i, v := range got {
			if v <= 0 || seen[v] {
				t.Fatalf("ParseNodeCounts(%q) = %v: non-positive or duplicate %d", s, got, v)
			}
			seen[v] = true
			canon[i] = strconv.Itoa(v)
		}
		again, err := ParseNodeCounts(strings.Join(canon, ","))
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Fatalf("canonical form of %q = %v reparses to %v, %v", s, got, again, err)
		}
	})
}
