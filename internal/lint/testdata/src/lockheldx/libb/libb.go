// Package libb calls into liba while holding one of liba's mutexes. What
// liba.Lock1 acquires is not visible from here; that liba declares a
// mutex is, and that is what the cross-package rule reports.
package libb

import "lockheldx/liba"

// BadOrder calls liba.Lock1 (which takes M1.mu) under M2.Mu.
func BadOrder() {
	liba.Two.Mu.Lock()
	defer liba.Two.Mu.Unlock()
	liba.Lock1() // want `call to liba\.Lock1 while holding lockheldx/liba\.M2\.Mu \(liba\.Two\.Mu\.Lock\(\) at libb\.go:10\): package lockheldx/liba declares a mutex`
}

// GoodOrder holds nothing when it calls into liba: silent.
func GoodOrder() {
	liba.Both()
}
