// Package jsonl is the crash-safe append-only JSONL ledger shared by
// the scenario service's run journal and the fleet coordinator's
// dispatch journal. One record per line, every write flushed and
// fsynced before Record returns: after a crash the file may miss at
// most the record in flight, never hold a torn prefix of one. Opening
// a journal replays the intact prefix and truncates everything from
// the first damaged line onward, so a journal survives its writer
// dying mid-append on any record, not just the last.
package jsonl

import (
	"bufio"
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

// ErrTooLarge is Record's refusal of an entry whose encoding exceeds
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
			// Longer than Record ever writes: damage, not data.
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

// Log is an append-only JSONL file of E records.
type Log[E any] struct {
	mu sync.Mutex
	f  *os.File
	w  *bufio.Writer
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
	return &Log[E]{f: f, w: bufio.NewWriter(f)}, entries, nil
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

// Record appends one entry durably: marshal, write, flush, fsync.
// A nil log discards the entry — callers run journal-less in tests.
func (l *Log[E]) Record(e E) error {
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
	if _, err := l.w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("jsonl: write journal: %w", err)
	}
	if err := l.w.Flush(); err != nil {
		return fmt.Errorf("jsonl: flush journal: %w", err)
	}
	//hbplint:ignore locksafety write-then-fsync under the lock IS the durability contract: releasing before the fsync would let a second Record interleave and ack an entry the disk never confirmed. Record still carries its blockingFact, so callers holding their own locks across it are flagged.
	return l.f.Sync()
}

// Close flushes and closes the underlying file.
func (l *Log[E]) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.w.Flush(); err != nil {
		l.f.Close()
		return err
	}
	return l.f.Close()
}
