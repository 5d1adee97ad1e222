// Package liba is the callee half of the cross-package lockheld fixture:
// it declares long-lived mutexes, so libb may not call into it while
// holding one.
package liba

import "sync"

type M1 struct{ mu sync.Mutex }

type M2 struct{ Mu sync.Mutex }

var (
	One M1
	Two M2
)

// Both nests M2.Mu inside M1.mu: reported, whatever order other
// functions use.
func Both() {
	One.mu.Lock()
	defer One.mu.Unlock()
	Two.Mu.Lock() // want `acquires lock lockheldx/liba\.M2\.Mu while holding lockheldx/liba\.M1\.mu`
	defer Two.Mu.Unlock()
}

// Lock1 acquires M1.mu.
func Lock1() {
	One.mu.Lock()
	One.mu.Unlock()
}
