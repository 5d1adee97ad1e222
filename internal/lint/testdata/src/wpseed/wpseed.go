// Package wpseed is the clean baseline for the whole-program seeded-bug
// test of lockorder: one consistent lock order. The test inverts one
// acquisition pair and asserts the cycle is reported at the planted line.
//
//ftbfs:lockorder
package wpseed

import "sync"

type R struct{ mu sync.Mutex }

type S struct{ mu sync.Mutex }

// The package's lock order: S.mu before R.mu, everywhere.
func drain(r *R, s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
}

func sweep(r *R, s *S) {
	s.mu.Lock()
	r.mu.Lock()
	r.mu.Unlock()
	s.mu.Unlock()
}
