// Package lockorder_bad holds lattice inversions lockorder must
// report.  The lattice keys match by type and field name, so the
// stand-in types here rank exactly like the engine's.
package lockorder_bad

import "sync"

type Store struct{ mu sync.Mutex }

type catEntry struct{ latch sync.RWMutex }

type shard struct{ mu sync.Mutex }

type Log struct {
	forceMu sync.Mutex
	mu      sync.Mutex
}

type Pool struct{ flushMu sync.Mutex }

type Volume struct {
	mu    sync.Mutex
	accMu sync.Mutex
}

// invertedPair takes the pool shard before the store manager.
func invertedPair(s *Store, sh *shard) {
	sh.mu.Lock()
	s.mu.Lock() // want "lock order inversion: acquiring Store.mu \\(rank 10, manager\\) while holding shard.mu"
	s.mu.Unlock()
	sh.mu.Unlock()
}

// invertedUnderDefer holds the WAL latch to function exit via defer and
// then reaches down for an object latch.
func invertedUnderDefer(l *Log, e *catEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.latch.RLock() // want "lock order inversion: acquiring catEntry.latch"
	e.latch.RUnlock()
}

// invertedGroupCommit takes the log buffer mutex before the leader
// force mutex — the follower that did this while a leader flushed
// would deadlock the commit path.
func invertedGroupCommit(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.forceMu.Lock() // want "lock order inversion: acquiring Log.forceMu"
	l.forceMu.Unlock()
}

// invertedFlush takes a shard mutex before the whole-pool flush mutex.
func invertedFlush(p *Pool, sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	p.flushMu.Lock() // want "lock order inversion: acquiring Pool.flushMu"
	p.flushMu.Unlock()
}

// invertedWithinVolume takes the access-time accounting lock before the
// volume image lock.
func invertedWithinVolume(v *Volume) {
	v.accMu.Lock()
	defer v.accMu.Unlock()
	v.mu.Lock() // want "lock order inversion: acquiring Volume.mu"
	v.mu.Unlock()
}

// invertedInGoroutine inverts the lattice inside a goroutine body: the
// literal is checked as a function of its own, with nothing held on
// entry.
func invertedInGoroutine(s *Store, sh *shard) {
	go func() {
		sh.mu.Lock()
		s.mu.Lock() // want "lock order inversion: acquiring Store.mu \\(rank 10, manager\\) while holding shard.mu"
		s.mu.Unlock()
		sh.mu.Unlock()
	}()
}
