// Package jsonl is the crash-safe append-only JSONL ledger shared by
// the scenario service's run journal and the fleet coordinator's
// dispatch journal. One record per line, written by Append and made
// durable by a later Sync: after a crash the file holds the records in
// append order minus an unacknowledged suffix, never a torn prefix of
// an acknowledged one. Opening a journal replays the intact prefix and
// truncates everything from the first damaged line onward, so a
// journal survives its writer dying mid-append on any record.
package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// MaxLine bounds one journal record; a line longer than this is
// treated as damage, not data. The daemons refuse request bodies
// longer than it before reading them in full.
const MaxLine = 16 * 1024 * 1024

// ErrTooLarge is Append's refusal of an entry whose encoding exceeds
// MaxLine. Retrying cannot help: the same entry is refused again.
var ErrTooLarge = errors.New("jsonl: journal entry exceeds the record bound")

// Parse scans raw journal bytes and returns every intact leading
// record plus the byte offset where the intact prefix ends. Parsing
// stops at the first line that is not a complete, valid JSON encoding
// of E within MaxLine bytes — a torn tail from a crash mid-write, or
// trailing garbage — and valid reports how many bytes precede it. It
// is the pure core of Open, split out so the fuzz target can drive it
// with arbitrary inputs.
func Parse[E any](raw []byte) (entries []E, valid int64) {
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			// No terminating newline: the writer died inside this
			// record.
			return entries, valid
		}
		if nl > MaxLine {
			// Longer than Append ever writes: damage, not data.
			return entries, valid
		}
		line := raw[:nl]
		var e E
		if err := json.Unmarshal(line, &e); err != nil {
			// Damaged record; everything from here on is suspect.
			return entries, valid
		}
		entries = append(entries, e)
		valid += int64(nl) + 1
		raw = raw[nl+1:]
	}
	return entries, valid
}

// BumpCounter advances an ID counter past a replayed "x-<n>" ID, so
// IDs minted after a restart never collide with journaled ones.
func BumpCounter(ctr *int, id string) {
	if i := strings.LastIndexByte(id, '-'); i >= 0 {
		if n, err := strconv.Atoi(id[i+1:]); err == nil && n > *ctr {
			*ctr = n
		}
	}
}

// Log is an append-only JSONL file of E records. The first write or
// fsync that fails poisons it: every later Append and Sync returns
// that failure. Linux reports a failed writeback to one fsync only, so
// a retried fsync could succeed over pages the kernel dropped.
type Log[E any] struct {
	mu     sync.Mutex // guards writes to f and err; never held across an fsync
	err    error      // the failure that poisoned the log
	syncMu sync.Mutex // orders fsyncs, so one after a failed fsync sees it
	f      *os.File
}

// Open opens (creating if needed) the journal at path, first reading
// back every intact record for recovery. Damaged or torn trailing
// records — the write a previous process died inside — are truncated
// away, not an error.
func Open[E any](path string) (*Log[E], []E, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jsonl: open journal: %w", err)
	}
	raw, err := readAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jsonl: read journal: %w", err)
	}
	entries, valid := Parse[E](raw)
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jsonl: truncate torn journal tail: %w", err)
	}
	if _, err := f.Seek(valid, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("jsonl: seek journal: %w", err)
	}
	return &Log[E]{f: f}, entries, nil
}

// readAll reads the whole file from the start into one buffer sized
// by its current length.
func readAll(f *os.File) ([]byte, error) {
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, info.Size())
	n, err := f.ReadAt(buf, 0)
	if err != nil && n != len(buf) {
		return nil, err
	}
	return buf[:n], nil
}

// Append writes one entry to the file, not yet durably, in one write
// under a mutex no fsync holds. A refused entry (ErrTooLarge, a marshal
// error) leaves the file and the log as they were. A nil log discards
// the entry — callers run journal-less in tests.
func (l *Log[E]) Append(e E) error {
	if l == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jsonl: marshal journal entry: %w", err)
	}
	if len(b) > MaxLine {
		return fmt.Errorf("%w: %d bytes, bound %d", ErrTooLarge, len(b), MaxLine)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		if _, err := l.f.Write(append(b, '\n')); err != nil {
			l.err = fmt.Errorf("jsonl: write journal: %w", err)
		}
	}
	return l.err
}

// Sync makes every entry appended so far durable.
func (l *Log[E]) Sync() error {
	if l == nil {
		return nil
	}
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err := l.failure(nil); err != nil {
		return err
	}
	//hbplint:ignore locksafety syncMu orders fsyncs so that one after a failed fsync sees the poison instead of acknowledging what the kernel dropped; Append never takes syncMu, so no append waits behind an fsync. Sync keeps its blockingFact, so callers holding their own locks across it are flagged.
	if err := l.f.Sync(); err != nil {
		return l.failure(fmt.Errorf("jsonl: fsync journal: %w", err))
	}
	return nil
}

// failure poisons the log with err unless it already failed, and
// returns the poison (nil while healthy).
func (l *Log[E]) failure(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Record appends one entry durably: Append, then Sync.
func (l *Log[E]) Record(e E) error {
	if err := l.Append(e); err != nil {
		return err
	}
	return l.Sync()
}

// Close closes the underlying file.
func (l *Log[E]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
