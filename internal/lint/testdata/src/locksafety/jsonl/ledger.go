// Package jsonl is the locksafety corpus: blocking operations inside
// and outside critical sections. The package path ends in "jsonl" so
// serviceLockPkg applies diagnostics here.
package jsonl

import (
	"os"
	"sync"
	"time"

	"locksafety/clock"
)

// Ledger carries the locks and channels the cases below exercise.
type Ledger struct {
	mu sync.Mutex
	rw sync.RWMutex
	f  *os.File
	ch chan int
	n  int
}

func (l *Ledger) BadFsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Sync() // want `l\.mu held across fsyncs via \(\*os\.File\)\.Sync`
}

func (l *Ledger) GoodFsync() error {
	l.mu.Lock()
	l.n++
	l.mu.Unlock()
	return l.f.Sync() // exempt: the lock is gone before the fsync
}

func (l *Ledger) BadSleep() {
	l.mu.Lock()
	time.Sleep(time.Millisecond) // want `l\.mu held across sleeps via time\.Sleep`
	l.mu.Unlock()
}

func (l *Ledger) BadSend() {
	l.mu.Lock()
	l.ch <- 1 // want `l\.mu held across a channel send`
	l.mu.Unlock()
}

func (l *Ledger) BadRecv() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return <-l.ch // want `l\.mu held across a channel receive`
}

func (l *Ledger) GoodPoll() {
	l.mu.Lock()
	select {
	case l.ch <- 1: // exempt: the default clause makes this a poll
	default:
	}
	l.mu.Unlock()
}

func (l *Ledger) BadSelect() {
	l.mu.Lock()
	defer l.mu.Unlock()
	select {
	case <-l.ch: // want `l\.mu held across a channel receive`
	case l.ch <- 1: // want `l\.mu held across a channel send`
	}
}

func (l *Ledger) BadRange() {
	l.mu.Lock()
	for range l.ch { // want `l\.mu held across ranging over a channel`
		l.n++
	}
	l.mu.Unlock()
}

func (l *Ledger) BadImported() {
	l.mu.Lock()
	clock.Settle() // want `l\.mu held across a call to locksafety/clock\.Settle, which blocks: sleeps via time\.Sleep`
	l.mu.Unlock()
}

func (l *Ledger) BadImportedTransitive() {
	l.mu.Lock()
	clock.Drain() // want `l\.mu held across a call to locksafety/clock\.Drain, which blocks: calls settleOnce, which blocks: sleeps via time\.Sleep`
	l.mu.Unlock()
}

func (l *Ledger) GoodImported() {
	l.mu.Lock()
	_ = clock.Stamp() // exempt: Stamp carries no blockingFact
	l.mu.Unlock()
}

// flush exists so BadLocal flags through same-package propagation.
func (l *Ledger) flush() error {
	return l.f.Sync()
}

func (l *Ledger) BadLocal() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flush() // want `l\.mu held across a call to flush, which blocks: fsyncs via \(\*os\.File\)\.Sync`
}

func (l *Ledger) MaybeHeld(b bool) {
	if b {
		l.mu.Lock()
	}
	time.Sleep(time.Millisecond) // want `l\.mu held across sleeps via time\.Sleep`
	if b {
		l.mu.Unlock()
	}
}

func (l *Ledger) GoodLoop() {
	for i := 0; i < 3; i++ {
		l.mu.Lock()
		l.n++
		l.mu.Unlock()
		time.Sleep(time.Millisecond) // exempt: unlocked before each sleep
	}
}

func (l *Ledger) BadRLock() int {
	l.rw.RLock()
	defer l.rw.RUnlock()
	return <-l.ch // want `l\.rw held across a channel receive`
}

func (l *Ledger) GoodSpawn() {
	l.mu.Lock()
	go clock.Settle() // exempt: spawning never blocks the spawner
	l.mu.Unlock()
}

func (l *Ledger) GoodDeferred() {
	l.mu.Lock()
	defer clock.Settle() // exempt: runs at return, after the explicit unlock
	l.n++
	l.mu.Unlock()
}

func (l *Ledger) SanctionedFsync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	//hbplint:ignore locksafety corpus fixture: pretend write-then-fsync durability contract, mirroring the real jsonl.Sync
	return l.f.Sync()
}
