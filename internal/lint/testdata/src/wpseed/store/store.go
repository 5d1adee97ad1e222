// Package store declares a long-lived mutex, so wpseed must not call into
// it while holding one of its own.
package store

import "sync"

type Store struct {
	mu    sync.Mutex
	items []int
}

// Len reports the number of items.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}
