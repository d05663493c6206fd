package scenario

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestJournalRoundTrip: a daemon generation writes its lifecycle, and
// the next generation recovers terminal runs verbatim.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	r := NewRunner(Config{Workers: 1, Journal: j}, nil)
	r.Start()
	s, err := r.CreateSuite("persisted")
	if err != nil {
		t.Fatalf("CreateSuite: %v", err)
	}
	run, err := r.Submit(s.ID, CaseSpec{Name: "keep", Tree: quickTree(3)})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	got := waitTerminal(t, r, run.ID, 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("state = %s (err %+v)", got.State, got.Error)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Second generation.
	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	r2 := NewRunner(Config{Workers: 1, Journal: j2}, entries)
	rec, ok := r2.GetRun(run.ID)
	if !ok {
		t.Fatalf("run %s not recovered", run.ID)
	}
	if rec.State != StatePassed {
		t.Fatalf("recovered state = %s, want passed", rec.State)
	}
	if rec.Result == nil || rec.Result.Fingerprint != got.Result.Fingerprint {
		t.Fatalf("recovered fingerprint %+v != original %s", rec.Result, got.Result.Fingerprint)
	}
	// New IDs must not collide with recovered ones.
	r2.Start()
	defer r2.Drain(context.Background()) //nolint:errcheck
	s2, err := r2.CreateSuite("second")
	if err != nil {
		t.Fatalf("CreateSuite gen2: %v", err)
	}
	if s2.ID == s.ID {
		t.Fatalf("suite ID %s reused after recovery", s2.ID)
	}
	run2, err := r2.Submit(s2.ID, CaseSpec{Name: "fresh", Tree: quickTree(4)})
	if err != nil {
		t.Fatalf("Submit gen2: %v", err)
	}
	if run2.ID == run.ID {
		t.Fatalf("run ID %s reused after recovery", run2.ID)
	}
}

// TestJournalRequeuesOrphan: a run journaled as dispatched but never
// completed — the daemon died holding it — comes back queued with its
// attempt count, and the restarted runner runs it again with no client
// action, to its solo fingerprint.
func TestJournalRequeuesOrphan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	now := time.Now()
	spec := CaseSpec{Name: "orphan", Tree: quickTree(5)}
	for _, e := range []Entry{
		{Type: EntrySuite, Time: now, Suite: "s-1", SuiteName: "crashed"},
		{Type: EntrySubmitted, Time: now, Suite: "s-1", Run: "r-1", Spec: &spec},
		{Type: EntryDispatched, Time: now, Suite: "s-1", Run: "r-1", Worker: "w-1", Dispatch: 1, SeedAttempt: 1},
	} {
		if err := j.Record(e); err != nil {
			t.Fatalf("Record: %v", err)
		}
	}
	j.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	r := NewRunner(Config{Workers: 1, Journal: j2}, entries)
	rec, ok := r.GetRun("r-1")
	if !ok || rec.State != StateQueued {
		t.Fatalf("recovered run = %+v, want queued", rec)
	}
	if rec.Attempts != 1 || rec.Dispatches != 1 {
		t.Fatalf("recovered attempts = %d, dispatches = %d, want 1 and 1", rec.Attempts, rec.Dispatches)
	}
	r.Start()
	defer r.Drain(context.Background()) //nolint:errcheck
	got := waitTerminal(t, r, "r-1", 60*time.Second)
	if got.State != StatePassed {
		t.Fatalf("requeued run state = %s (err %+v)", got.State, got.Error)
	}
	solo, err := RunCaseSolo(&spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.Fingerprint != solo.Fingerprint || got.SeedAttempt != 1 {
		t.Fatalf("requeued run: fingerprint %s at seed attempt %d, want solo %s at 1", got.Result.Fingerprint, got.SeedAttempt, solo.Fingerprint)
	}
}

// TestReplaysRunnerJournal: a journal the daemon wrote before both
// daemons shared one schema — started and finished records, no
// dispatches — replays without re-executing its history. The finished
// run comes back terminal with its fingerprint and attempts and is
// never leased; the run started but never finished is leased once and
// passes with its solo fingerprint, with no client action; and new IDs
// continue past the recovered ones.
func TestReplaysRunnerJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "runs.jsonl")
	const fp = "6f1d2c3b4a5968778695a4b3c2d1e0f00112233445566778899aabbccddeeff0"
	at := `"time":"2026-01-02T03:04:05.123456789Z"`
	legacy := strings.Join([]string{
		`{"type":"suite",` + at + `,"suite":"s-1","suite_name":"first"}`,
		`{"type":"suite",` + at + `,"suite":"s-2","suite_name":"second"}`,
		`{"type":"submitted",` + at + `,"suite":"s-1","run":"r-1","spec":{"name":"done","tree":{"leaves":40,"duration":20,"seed":4},"infra_crash_prob":0.5}}`,
		`{"type":"started",` + at + `,"suite":"s-1","run":"r-1","attempt":1}`,
		`{"type":"started",` + at + `,"suite":"s-1","run":"r-1","attempt":2}`,
		`{"type":"finished",` + at + `,"suite":"s-1","run":"r-1","state":"passed","fingerprint":"` + fp + `"}`,
		`{"type":"submitted",` + at + `,"suite":"s-2","run":"r-2","spec":{"name":"orphan","tree":{"leaves":40,"duration":20,"seed":6}}}`,
		`{"type":"started",` + at + `,"suite":"s-2","run":"r-2","attempt":1}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := NewRunner(Config{Workers: 1, Journal: j}, entries)
	if got, ok := r.GetRun("r-1"); !ok || got.State != StatePassed || got.Result == nil || got.Result.Fingerprint != fp || got.Attempts != 2 {
		t.Fatalf("finished run after replay: ok=%v %+v, want passed with its fingerprint after 2 attempts", ok, got)
	}
	if got, _ := r.GetRun("r-2"); got.State != StateQueued || got.Attempts != 1 {
		t.Fatalf("unfinished run after replay: %+v, want queued after 1 attempt", got)
	}
	r.Start()
	got := waitTerminal(t, r, "r-2", 60*time.Second)
	spec := got.Spec
	solo, err := RunCaseSolo(&spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StatePassed || got.Result.Fingerprint != solo.Fingerprint {
		t.Fatalf("requeued run: %s (%+v), fingerprint %v, want passed with solo %s", got.State, got.Error, got.Result, solo.Fingerprint)
	}
	s, err := r.CreateSuite("third")
	if err != nil {
		t.Fatal(err)
	}
	run, err := r.Submit(s.ID, CaseSpec{Name: "fresh", Tree: quickTree(7)})
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "s-3" || run.ID != "r-3" {
		t.Fatalf("new IDs %s and %s, want s-3 and r-3", s.ID, run.ID)
	}
	if err := r.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, all, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	leases := map[string]int{}
	for _, e := range all[len(entries):] {
		if e.Type == EntryDispatched {
			leases[e.Run]++
		}
	}
	if leases["r-1"] != 0 || leases["r-2"] != 1 {
		t.Fatalf("leases after replay: %v, want none of r-1 and one of r-2\n%s", leases, raw)
	}
}

// TestJournalMultiRecordTornTail: damage spanning several trailing
// lines — a damaged record followed by an intact-looking one and a
// torn one — recovers only the records before the first damaged line;
// nothing after a hole is resurrected.
func TestJournalMultiRecordTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	body := `{"type":"suite","suite":"s-1","suite_name":"ok"}` + "\n" +
		`{"type":"submitted","suite":"s-1","run":"r-1","spec":{"name":"a"}}` + "\n" +
		`{"type":"started","suite":"s-1","run":` + "\n" + // damaged
		`{"type":"finished","suite":"s-1","run":"r-1","state":"passed"}` + "\n" + // after the hole
		`{"type":"fin` // torn
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	j, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("open multi-torn journal: %v", err)
	}
	defer j.Close()
	if len(entries) != 2 || entries[1].Type != EntrySubmitted {
		t.Fatalf("recovered %+v, want the 2-record pre-damage prefix", entries)
	}
	// The finished record after the hole was dropped, so the run
	// recovers queued, not passed.
	_, runs, _ := NewRunner(Config{}, entries).GetSuite("s-1")
	if len(runs) != 1 || runs[0].State != StateQueued {
		t.Fatalf("recovered runs = %+v, want one queued run", runs)
	}
}

// TestJournalDuplicateCompletion: a crash between journaling a finished
// record and acknowledging it can replay the record on the next
// generation. Recovery must keep the first terminal state and ignore
// the duplicate — a run is never double-counted or rewritten.
func TestJournalDuplicateCompletion(t *testing.T) {
	spec := CaseSpec{Name: "dup", Tree: quickTree(5)}
	entries := []Entry{
		{Type: EntrySuite, Suite: "s-1", SuiteName: "dup-suite"},
		{Type: EntrySubmitted, Suite: "s-1", Run: "r-1", Spec: &spec},
		{Type: EntryStarted, Suite: "s-1", Run: "r-1", Attempt: 1},
		{Type: EntryFinished, Suite: "s-1", Run: "r-1", State: StatePassed, Fingerprint: "aaaa"},
		{Type: EntryFinished, Suite: "s-1", Run: "r-1", State: StateFailed,
			Error: &RunError{Kind: ErrRun, Message: "replayed stale record"}},
	}
	_, runs, _ := NewRunner(Config{}, entries).GetSuite("s-1")
	if len(runs) != 1 {
		t.Fatalf("recovered %d runs, want 1", len(runs))
	}
	r := runs[0]
	if r.State != StatePassed || r.Error != nil {
		t.Fatalf("duplicate completion rewrote the run: state %s err %+v, want passed/nil", r.State, r.Error)
	}
	if r.Result == nil || r.Result.Fingerprint != "aaaa" {
		t.Fatalf("first completion's fingerprint lost: %+v", r.Result)
	}
}

// TestJournalTornTail: a crash mid-write leaves a torn last line; the
// reopen drops it and appends cleanly after the intact prefix.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, _, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: "s-1", SuiteName: "ok"}); err != nil {
		t.Fatalf("Record: %v", err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("open for tearing: %v", err)
	}
	f.WriteString(`{"type":"submitted","suite":"s-1","ru`) //nolint:errcheck
	f.Close()

	j2, entries, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen torn journal: %v", err)
	}
	if len(entries) != 1 || entries[0].SuiteName != "ok" {
		t.Fatalf("recovered entries = %+v, want the one intact record", entries)
	}
	// The journal must be appendable after truncating the torn tail.
	if err := j2.Record(Entry{Type: EntrySuite, Time: time.Now(), Suite: "s-2", SuiteName: "after"}); err != nil {
		t.Fatalf("Record after tear: %v", err)
	}
	j2.Close()
	_, entries, err = OpenJournal(path)
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	if len(entries) != 2 {
		t.Fatalf("after repair got %d entries, want 2", len(entries))
	}
}
