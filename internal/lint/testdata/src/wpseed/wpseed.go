// Package wpseed is the clean baseline for the seeded-bug test of
// lockheld: every long-lived mutex is released before the next one is
// taken, and before any call into wpseed/store, which declares a mutex.
// The test plants one nested acquisition and one call into the store
// under a lock, and asserts each is reported at the planted line.
package wpseed

import (
	"sync"

	"wpseed/store"
)

type R struct {
	mu sync.Mutex
	n  int
}

type S struct {
	mu sync.Mutex
	n  int
}

// drain moves R's count into S, one lock at a time.
func drain(r *R, s *S) {
	r.mu.Lock()
	n := r.n
	r.n = 0
	r.mu.Unlock()
	s.mu.Lock()
	s.n += n
	s.mu.Unlock()
}

// record reads the store before it takes R.mu.
func record(r *R, st *store.Store) {
	n := st.Len()
	r.mu.Lock()
	r.n = n
	r.mu.Unlock()
}
