// Package fields exercises the atomic-discipline analyzer: mixed
// atomic/bare access, declared guards (//covirt:guards), inferred
// guards, entry-held propagation through the call graph, and the
// constructor / local-value exemptions.
package fields

import (
	"sync"
	"sync/atomic"
)

// Mixed reads n atomically in one place and bare in another.
type Mixed struct {
	n uint64
}

func (m *Mixed) Bump() {
	atomic.AddUint64(&m.n, 1)
}

func (m *Mixed) Peek() uint64 {
	return m.n // bare read of an atomically-written field
}

// Guarded declares mu as state's guard. set writes it correctly;
// Sneak writes it bare; helper relies on the caller's lock, which the
// entry-held fixpoint proves.
type Guarded struct {
	mu    sync.Mutex //covirt:guards state
	state int
}

func (g *Guarded) Set(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.state = v
}

func (g *Guarded) Sneak(v int) {
	g.state = v // write outside declared guard
}

func (g *Guarded) Locked(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.helper(v)
}

func (g *Guarded) helper(v int) {
	g.state = v // fine: every caller holds mu on entry
}

// Inferred has no annotation: two locked writes establish mu as the
// inferred guard, so the bare write is a finding.
type Inferred struct {
	mu sync.Mutex
	v  int
}

func (i *Inferred) SetA(v int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.v = v
}

func (i *Inferred) SetB(v int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.v = v + 1
}

func (i *Inferred) Racy(v int) {
	i.v = v // bare write to a field mu guards twice
}

// RacyVetted is the same shape with a blanket suppression.
func (i *Inferred) RacyVetted(v int) {
	//covirt:allow all single-threaded setup phase
	i.v = v
}

// NewInferred writes fields of a value it just allocated: exempt.
func NewInferred(v int) *Inferred {
	i := &Inferred{}
	i.v = v
	return i
}

// Value writes go to a local copy: exempt everywhere.
type Msg struct {
	Kind int
}

func MakeMsg(k int) Msg {
	var m Msg
	m.Kind = k
	return m
}

// Bad declares a guard over a field that does not exist.
type Bad struct {
	mu sync.Mutex //covirt:guards missing
	ok int
}

func (b *Bad) Set(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ok = v
}

// Table declares mu as the guard of its map: Put edits the map under mu;
// Drop and Poke edit it bare; Get only reads it.
type Table struct {
	mu sync.Mutex //covirt:guards m
	m  map[int]int
}

func (t *Table) Put(k, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m[k] = v
	delete(t.m, -k)
}

func (t *Table) Drop(k int) {
	delete(t.m, k) // map delete outside declared guard
}

func (t *Table) Poke(k int) {
	t.m[k]++ // map element write outside declared guard
}

func (t *Table) Get(k int) int {
	return t.m[k]
}
