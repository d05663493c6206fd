package jsonl

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	Kind string `json:"kind"`
	N    int    `json:"n"`
}

func openT(t *testing.T, path string) (*Log[rec], []rec) {
	t.Helper()
	l, entries, err := Open[rec](path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, entries
}

// TestRoundTrip: records written by one generation are replayed intact
// by the next.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, entries := openT(t, path)
	if len(entries) != 0 {
		t.Fatalf("fresh log has %d entries", len(entries))
	}
	for i := 0; i < 5; i++ {
		if err := l.Record(rec{Kind: "x", N: i}); err != nil {
			t.Fatalf("Record %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, entries := openT(t, path)
	defer l2.Close()
	if len(entries) != 5 {
		t.Fatalf("recovered %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.N != i || e.Kind != "x" {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

// TestNilLog: a nil log discards records and closes without error, so
// journal-less callers need no branches.
func TestNilLog(t *testing.T) {
	var l *Log[rec]
	if err := l.Record(rec{}); err != nil {
		t.Fatalf("nil Record: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestTornTailTruncated: a crash mid-write leaves a partial last line;
// reopen drops it, keeps the intact prefix, and appends cleanly.
func TestTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openT(t, path)
	if err := l.Record(rec{Kind: "keep", N: 1}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"torn","n":`) //nolint:errcheck
	f.Close()

	l2, entries := openT(t, path)
	if len(entries) != 1 || entries[0].Kind != "keep" {
		t.Fatalf("recovered %+v, want the one intact record", entries)
	}
	if err := l2.Record(rec{Kind: "after", N: 2}); err != nil {
		t.Fatalf("Record after tear: %v", err)
	}
	l2.Close()
	_, entries = openT(t, path)
	if len(entries) != 2 || entries[1].Kind != "after" {
		t.Fatalf("after repair got %+v, want 2 records ending in 'after'", entries)
	}
}

// TestMultiRecordTornTail: damage can span several trailing lines (a
// lost buffered burst, a corrupted block). Recovery keeps only the
// records before the first damaged line — including when intact-looking
// JSON follows the damage, which must NOT be resurrected: the journal
// is a prefix log, and a record after a hole has no trustworthy
// ordering.
func TestMultiRecordTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	body := `{"kind":"a","n":1}` + "\n" +
		`{"kind":"b","n":2}` + "\n" +
		`{"kind":"c","n` + "\n" + // damaged
		`{"kind":"d","n":4}` + "\n" + // intact but after the hole
		`{"kind":"e"` // torn
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	l, entries := openT(t, path)
	defer l.Close()
	if len(entries) != 2 || entries[0].Kind != "a" || entries[1].Kind != "b" {
		t.Fatalf("recovered %+v, want exactly the pre-damage prefix [a b]", entries)
	}
	// The file itself must be truncated to the intact prefix so the
	// next append lands right after record b.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"a","n":1}` + "\n" + `{"kind":"b","n":2}` + "\n"
	if string(raw) != want {
		t.Fatalf("file after recovery = %q, want %q", raw, want)
	}
}

// TestParseEmptyAndGarbage: degenerate inputs recover to an empty log.
func TestParseEmptyAndGarbage(t *testing.T) {
	for _, raw := range []string{"", "\n", "not json\n", "{", "null\n\x00\x00"} {
		entries, valid := Parse[rec]([]byte(raw))
		if raw == "null\n\x00\x00" {
			// "null" is a valid JSON encoding of the zero record.
			if len(entries) != 1 || valid != 5 {
				t.Fatalf("Parse(%q) = %d entries, %d valid", raw, len(entries), valid)
			}
			continue
		}
		if len(entries) != 0 || valid != 0 {
			t.Fatalf("Parse(%q) = %d entries, %d valid; want none", raw, len(entries), valid)
		}
	}
}

// lineOf returns a valid JSON encoding of a rec that is exactly n
// bytes long, without the newline.
func lineOf(t *testing.T, n int) string {
	t.Helper()
	const frame = len(`{"kind":"","n":1}`)
	s := `{"kind":"` + strings.Repeat("x", n-frame) + `","n":1}`
	if len(s) != n || !json.Valid([]byte(s)) {
		t.Fatalf("lineOf(%d) built %d bytes", n, len(s))
	}
	return s
}

// TestParseStopsAtOverlongLine: a line longer than MaxLine is damage
// even when it is valid JSON — Record never writes one — so replay
// keeps only the records before it. A line of exactly MaxLine bytes is
// still data.
func TestParseStopsAtOverlongLine(t *testing.T) {
	first := `{"kind":"a","n":0}` + "\n"
	last := `{"kind":"b","n":2}` + "\n"
	entries, valid := Parse[rec]([]byte(first + lineOf(t, MaxLine+1) + "\n" + last))
	if len(entries) != 1 || valid != int64(len(first)) {
		t.Fatalf("overlong line: %d entries, %d valid bytes; want 1 entry, %d bytes", len(entries), valid, len(first))
	}
	raw := first + lineOf(t, MaxLine) + "\n" + last
	entries, valid = Parse[rec]([]byte(raw))
	if len(entries) != 3 || valid != int64(len(raw)) {
		t.Fatalf("MaxLine-byte line: %d entries, %d valid bytes; want 3 entries, %d bytes", len(entries), valid, len(raw))
	}
}

// TestRecordRejectsOversizedEntry: an entry whose encoding exceeds
// MaxLine is refused and leaves the journal as it was.
func TestRecordRejectsOversizedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, _ := openT(t, path)
	if err := l.Record(rec{Kind: "a"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	if err := l.Record(rec{Kind: strings.Repeat("x", MaxLine)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Record of an entry longer than MaxLine: %v, want ErrTooLarge", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, entries := openT(t, path)
	defer l2.Close()
	if len(entries) != 1 || entries[0].Kind != "a" {
		t.Fatalf("after a refused record the journal replays %+v", entries)
	}
}

// FuzzParse: the parser must never panic, must report a valid length
// that is a prefix of the input ending on a newline, and re-parsing
// the valid prefix must reproduce exactly the same entries (recovery
// is idempotent).
func FuzzParse(f *testing.F) {
	f.Add([]byte(`{"kind":"a","n":1}` + "\n"))
	f.Add([]byte(`{"kind":"a","n":1}` + "\n" + `{"kind":"b"`))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0xff, 0xfe, '\n'})
	f.Add([]byte(`[1,2,3]` + "\n" + `{"kind":"x","n":9}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		entries, valid := Parse[rec](raw)
		if valid < 0 || valid > int64(len(raw)) {
			t.Fatalf("valid %d out of range [0,%d]", valid, len(raw))
		}
		if valid > 0 && raw[valid-1] != '\n' {
			t.Fatalf("valid prefix does not end on a newline: %q", raw[:valid])
		}
		again, validAgain := Parse[rec](raw[:valid])
		if validAgain != valid || len(again) != len(entries) {
			t.Fatalf("re-parse of the valid prefix differs: %d/%d entries, %d/%d bytes",
				len(again), len(entries), validAgain, valid)
		}
		for i := range again {
			a, _ := json.Marshal(again[i])
			b, _ := json.Marshal(entries[i])
			if string(a) != string(b) {
				t.Fatalf("entry %d changed on re-parse: %s vs %s", i, a, b)
			}
		}
	})
}
