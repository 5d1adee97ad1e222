// Package lockheldtest pins the lockheld analyzer: a second acquisition
// while a long-lived mutex is held — direct, under //ftbfs:holds, through
// a call summary, or of the held lock itself — and the shapes that must
// stay silent (release-before-acquire, TryLock, branches, function
// literals, function-local mutexes).
package lockheldtest

import "sync"

type A struct{ mu sync.Mutex }

type B struct{ mu sync.Mutex }

// lockAB and lockBA inverted: the classic two-lock deadlock. Each nested
// acquisition is reported on its own.
func lockAB(a *A, b *B) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock() // want `b\.mu\.Lock\(\) acquires lock lockheldtest\.B\.mu while holding lockheldtest\.A\.mu \(a\.mu\.Lock\(\) at lockheldtest\.go:17\)`
	defer b.mu.Unlock()
}

func lockBA(a *A, b *B) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a.mu.Lock() // want `acquires lock lockheldtest\.A\.mu while holding lockheldtest\.B\.mu`
	defer a.mu.Unlock()
}

// Self-acquisition: C.mu taken on a path that already holds it (the
// annotation is the documented contract for C.reenter's callers).
type C struct{ mu sync.Mutex }

//ftbfs:holds mu
func (c *C) reenter() {
	c.mu.Lock() // want `acquires lock lockheldtest\.C\.mu while already held \(//ftbfs:holds\)`
	c.mu.Unlock()
}

// Holds-seeded pair: fLocked starts with F.mu held; gThenF nests the
// other way round.
type F struct{ mu sync.Mutex }

type G struct{ mu sync.Mutex }

//ftbfs:holds mu
func (f *F) fLocked(g *G) {
	g.mu.Lock() // want `acquires lock lockheldtest\.G\.mu while holding lockheldtest\.F\.mu \(//ftbfs:holds\)`
	defer g.mu.Unlock()
}

func gThenF(f *F, g *G) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.mu.Lock() // want `acquires lock lockheldtest\.F\.mu while holding lockheldtest\.G\.mu`
	f.mu.Unlock()
}

// Acquisition through a call summary: dThenCallE holds D.mu and calls
// lockE, which acquires E.mu; the finding anchors on the call site.
type D struct{ mu sync.Mutex }

type E struct{ mu sync.Mutex }

func lockE(e *E) {
	e.mu.Lock()
	e.mu.Unlock()
}

func dThenCallE(d *D, e *E) {
	d.mu.Lock()
	defer d.mu.Unlock()
	lockE(e) // want `call to lockE acquires lock lockheldtest\.E\.mu while holding lockheldtest\.D\.mu`
}

func eThenD(d *D, e *E) {
	e.mu.Lock()
	defer e.mu.Unlock()
	d.mu.Lock() // want `acquires lock lockheldtest\.D\.mu while holding lockheldtest\.E\.mu`
	d.mu.Unlock()
}

type P struct{ mu sync.Mutex }

type Q struct{ mu sync.Mutex }

// Consistent nesting is nested all the same: one long-lived mutex at a
// time, so both are reported.
func pThenQ(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	q.mu.Lock() // want `acquires lock lockheldtest\.Q\.mu while holding lockheldtest\.P\.mu`
	defer q.mu.Unlock()
}

func pThenQAgain(p *P, q *Q) {
	p.mu.Lock()
	q.mu.Lock() // want `acquires lock lockheldtest\.Q\.mu while holding lockheldtest\.P\.mu`
	q.mu.Unlock()
	p.mu.Unlock()
}

// ---- shapes that must stay silent ----

// Release before the second acquire: never held together.
func qAfterP(p *P, q *Q) {
	q.mu.Lock()
	q.mu.Unlock()
	p.mu.Lock()
	p.mu.Unlock()
}

// TryLock cannot block: no finding even while P.mu is held.
func tryUnderP(p *P, q *Q) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if q.mu.TryLock() {
		q.mu.Unlock()
	}
}

// A lock taken inside one branch is not held after the join.
func branchScoped(p *P, q *Q) {
	cond := len("x") == 1
	if cond {
		q.mu.Lock()
		q.mu.Unlock()
	}
	p.mu.Lock()
	p.mu.Unlock()
}

// Function literals run on their own schedule: the held set does not
// leak into them.
func literalIsolated(p *P, q *Q) {
	q.mu.Lock()
	defer q.mu.Unlock()
	fn := func() {
		p.mu.Lock()
		p.mu.Unlock()
	}
	_ = fn
}

// Function-local mutexes have no cross-function identity: ignored.
func localMutex(p *P) {
	var mu sync.Mutex
	mu.Lock()
	p.mu.Lock()
	p.mu.Unlock()
	mu.Unlock()
}
