package engine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Tuple is a row of interned constant ids.
type Tuple []int32

// ---------------------------------------------------------------------------
// Tuple fingerprints
//
// Set membership and index probes key on 64-bit fingerprints instead of the
// seed's string-encoded byte copies: hashing a tuple is a handful of integer
// multiplies with zero allocations, and equal-fingerprint collisions are
// resolved by comparing the candidate row in the arena (the fingerprint
// selects, the arena verifies), so distinct tuples that happen to collide
// are still kept exactly apart.

// fpSeed is the fold's initial state (the FNV-64 offset basis, an arbitrary
// non-zero constant).
const fpSeed uint64 = 0xcbf29ce484222325

// fpMask narrows every fingerprint before use. It is ^0 in production; the
// adversarial collision tests shrink it (down to 0: every tuple collides)
// to prove that membership, indexes, and DRed retraction survive arbitrary
// fingerprint collisions. Only tests may write it, and only while no
// evaluation is running — relations hash consistently for their lifetime.
var fpMask uint64 = ^uint64(0)

// fpMix folds one column value into the running fingerprint. The odd
// multiplier and shift diffuse every input bit across the word; position
// sensitivity comes from the fold itself (the state is multiplied between
// columns, so swapped values hash differently).
func fpMix(h uint64, v int32) uint64 {
	h ^= uint64(uint32(v))
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// fingerprint hashes a whole tuple (or a probe's projected values, which
// must fold in the same column order as projFingerprint).
func fingerprint(t Tuple) uint64 {
	h := fpSeed
	for _, v := range t {
		h = fpMix(h, v)
	}
	return h & fpMask
}

// projFingerprint hashes the projection of t onto cols (in cols order).
func projFingerprint(t Tuple, cols []int) uint64 {
	h := fpSeed
	for _, c := range cols {
		h = fpMix(h, t[c])
	}
	return h & fpMask
}

// ---------------------------------------------------------------------------
// Relation

// refCheckEnabled (tests only) makes every subsequently created Relation
// mirror its operations into a refRelation — the seed's map-of-strings
// storage, kept as a differential oracle (see refcheck.go) — and assert
// agreement on every insert, membership test, and index probe. Written only
// between evaluations on the test goroutine.
var refCheckEnabled bool

// Relation is a set of tuples of fixed arity with hash indexes built on
// demand per bound-column signature. Insertion order is preserved, which
// keeps evaluation deterministic.
//
// Storage is columnar: all rows live in one flat arity-strided []int32
// arena (row i is data[i*arity:(i+1)*arity]), membership is an
// open-addressing table of (fingerprint, row id) slots probed linearly and
// verified against the arena, and indexes bucket row ids per distinct
// projection, keyed by projection fingerprint. Insert, Contains, and an
// indexed Match therefore allocate nothing per tuple — the arena and the
// tables grow amortized.
//
// Clone is copy-on-write: both sides share the arena and the membership
// table until one of them inserts, which first snapshots private copies
// (two memcpys, no rehashing). The shared flag is atomic only because
// concurrent readers may Clone the same frozen relation; mutation remains
// single-goroutine, at evaluation merge barriers.
//
// Concurrent queries share the relations of one pinned store version and
// may probe them at the same time, building lazy indexes as they go, so mu
// guards the index map. A published index is immutable until the next
// Insert, and a shared version is never inserted into.
type Relation struct {
	arity int
	data  []int32 // arity-strided arena; row i = data[i*arity:(i+1)*arity]
	n     int     // rows (tracked apart from len(data) for arity 0)
	table []slot  // open-addressing membership set; nil until first insert
	// shared marks the arena and table as referenced by a Clone sibling:
	// the next insert copies before writing.
	shared  atomic.Bool
	mu      sync.RWMutex // guards indexes
	indexes map[uint64]*index
	ref     *refRelation // differential oracle; nil unless refCheckEnabled
}

// slot is one membership-table entry: the tuple's fingerprint and its row
// id in the arena. row < 0 marks an empty slot.
type slot struct {
	fp  uint64
	row int32
}

// index maps projection fingerprints to buckets of row ids. Each bucket
// holds every row with one distinct projection value; distinct projections
// whose fingerprints collide occupy separate buckets (linear probing walks
// past the mismatch, verified against the arena via the bucket's first
// row).
type index struct {
	cols    []int // ascending
	slots   []idxSlot
	buckets [][]int32
	fps     []uint64 // per-bucket fingerprint, for rehashing on growth
}

// idxSlot points a projection fingerprint at its bucket. b < 0 is empty.
type idxSlot struct {
	fp uint64
	b  int32
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	r := &Relation{arity: arity}
	if refCheckEnabled {
		r.ref = newRefRelation(arity)
	}
	return r
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Tuple returns the i-th tuple as a view into the arena. The caller must
// not mutate it.
func (r *Relation) Tuple(i int) Tuple {
	off := i * r.arity
	return r.data[off : off+r.arity : off+r.arity]
}

// Tuples returns the stored tuples in insertion order, as views into the
// arena. The caller must not mutate them. Hot paths iterate with
// Len/Tuple instead: this materializes a fresh slice of headers.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// rowEq reports whether arena row row equals t.
func (r *Relation) rowEq(row int32, t Tuple) bool {
	off := int(row) * r.arity
	for i, v := range t {
		if r.data[off+i] != v {
			return false
		}
	}
	return true
}

// findRow returns the row id of t (with fingerprint fp) or -1. Collisions
// — equal fingerprints for distinct tuples — fail the rowEq verification
// and the probe walks on.
func (r *Relation) findRow(fp uint64, t Tuple) int32 {
	if r.table == nil {
		return -1
	}
	mask := uint64(len(r.table) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := r.table[i]
		if s.row < 0 {
			return -1
		}
		if s.fp == fp && r.rowEq(s.row, t) {
			return s.row
		}
	}
}

// place writes (fp, row) into the first free slot of the probe chain.
func place(table []slot, fp uint64, row int32) {
	mask := uint64(len(table) - 1)
	i := fp & mask
	for table[i].row >= 0 {
		i = (i + 1) & mask
	}
	table[i] = slot{fp: fp, row: row}
}

func newSlotTable(size int) []slot {
	t := make([]slot, size)
	for i := range t {
		t[i].row = -1
	}
	return t
}

// grow rebuilds the membership table at the given power-of-two size from
// the stored fingerprints (no tuple is rehashed).
func (r *Relation) grow(size int) {
	nt := newSlotTable(size)
	for _, s := range r.table {
		if s.row >= 0 {
			place(nt, s.fp, s.row)
		}
	}
	r.table = nt
}

// materialize snapshots private copies of the shared arena and membership
// table — the copy half of copy-on-write, run by whichever Clone sibling
// inserts first. Two memcpys; nothing is rehashed because row ids and
// fingerprints are position-independent.
func (r *Relation) materialize() {
	nd := make([]int32, len(r.data), len(r.data)+max(64, len(r.data)/2))
	copy(nd, r.data)
	r.data = nd
	if r.table != nil {
		nt := make([]slot, len(r.table))
		copy(nt, r.table)
		r.table = nt
	}
	r.shared.Store(false)
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool {
	ok := r.contains(t)
	if r.ref != nil {
		r.ref.verifyContains(t, ok)
	}
	return ok
}

func (r *Relation) contains(t Tuple) bool {
	if r.arity == 0 {
		return r.n == 1
	}
	return r.findRow(fingerprint(t), t) >= 0
}

// Insert adds t (copied into the arena) and reports whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	isNew := r.insert(t)
	if r.ref != nil {
		r.ref.verifyInsert(r, t, isNew)
	}
	return isNew
}

func (r *Relation) insert(t Tuple) bool {
	if r.arity == 0 {
		if r.n == 1 {
			return false
		}
		if r.shared.Load() {
			r.materialize()
		}
		r.n = 1
		return true
	}
	fp := fingerprint(t)
	if r.findRow(fp, t) >= 0 {
		return false
	}
	if r.shared.Load() {
		r.materialize()
	}
	// Grow at ~3/4 load, before placing, so probe chains stay short.
	switch {
	case r.table == nil:
		r.table = newSlotTable(16)
	case (r.n+1)*4 > len(r.table)*3:
		r.grow(len(r.table) * 2)
	}
	row := int32(r.n)
	r.data = append(r.data, t...)
	r.n++
	place(r.table, fp, row)
	r.mu.Lock()
	for _, ix := range r.indexes {
		ix.add(r, row)
	}
	r.mu.Unlock()
	return true
}

// colMask returns the bitmask signature of a bound-column set.
func colMask(cols []int) uint64 {
	var m uint64
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// add routes one arena row into its projection bucket, creating the bucket
// (and growing the slot table) as needed.
func (ix *index) add(r *Relation, row int32) {
	t := r.Tuple(int(row))
	fp := projFingerprint(t, ix.cols)
	if (len(ix.buckets)+1)*4 > len(ix.slots)*3 {
		ix.growSlots(r)
	}
	mask := uint64(len(ix.slots) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.b < 0 {
			b := int32(len(ix.buckets))
			ix.buckets = append(ix.buckets, []int32{row})
			ix.fps = append(ix.fps, fp)
			ix.slots[i] = idxSlot{fp: fp, b: b}
			return
		}
		if s.fp == fp && projEq(r, ix.buckets[s.b][0], t, ix.cols) {
			ix.buckets[s.b] = append(ix.buckets[s.b], row)
			return
		}
	}
}

// projEq reports whether arena row rep's projection onto cols equals the
// projection of t (a full-width tuple).
func projEq(r *Relation, rep int32, t Tuple, cols []int) bool {
	off := int(rep) * r.arity
	for _, c := range cols {
		if r.data[off+c] != t[c] {
			return false
		}
	}
	return true
}

// growSlots rebuilds the slot table at double size from the per-bucket
// fingerprints.
func (ix *index) growSlots(r *Relation) {
	size := 16
	if len(ix.slots) > 0 {
		size = len(ix.slots) * 2
	}
	ns := make([]idxSlot, size)
	for i := range ns {
		ns[i].b = -1
	}
	mask := uint64(size - 1)
	for b, fp := range ix.fps {
		i := fp & mask
		for ns[i].b >= 0 {
			i = (i + 1) & mask
		}
		ns[i] = idxSlot{fp: fp, b: int32(b)}
	}
	ix.slots = ns
}

// probe returns the bucket of row ids whose projection equals svals
// (parallel to ix.cols), or nil. The returned slice is shared — callers
// must not mutate it.
func (ix *index) probe(r *Relation, svals Tuple) []int32 {
	if len(ix.slots) == 0 {
		return nil
	}
	fp := fingerprint(svals)
	mask := uint64(len(ix.slots) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.b < 0 {
			return nil
		}
		if s.fp == fp {
			rep := ix.buckets[s.b][0]
			off := int(rep) * r.arity
			eq := true
			for j, c := range ix.cols {
				if r.data[off+c] != svals[j] {
					eq = false
					break
				}
			}
			if eq {
				return ix.buckets[s.b]
			}
		}
	}
}

// Match returns the row ids of tuples whose projection onto cols equals
// vals (parallel slices; cols need not be sorted). With empty cols it
// returns all row ids. The returned slice is a shared index bucket —
// callers must not mutate or retain it across an Insert.
func (r *Relation) Match(cols []int, vals []int32) []int32 {
	got := r.match(cols, vals)
	if r.ref != nil {
		r.ref.verifyMatch(cols, vals, got)
	}
	return got
}

func (r *Relation) match(cols []int, vals []int32) []int32 {
	if len(cols) == 0 {
		out := make([]int32, r.n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	// Fast path: the engine's join always probes with ascending columns.
	ascending := true
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			ascending = false
			break
		}
	}
	scols, svals := cols, Tuple(vals)
	if !ascending {
		type cv struct {
			c int
			v int32
		}
		cvs := make([]cv, len(cols))
		for i := range cols {
			cvs[i] = cv{cols[i], vals[i]}
		}
		sort.Slice(cvs, func(i, j int) bool { return cvs[i].c < cvs[j].c })
		sc := make([]int, len(cvs))
		sv := make(Tuple, len(cvs))
		for i, x := range cvs {
			sc[i] = x.c
			sv[i] = x.v
		}
		scols, svals = sc, sv
	}
	return r.indexFor(scols).probe(r, svals)
}

// indexFor returns (building if absent) the index for the given ascending
// bound-column set.
func (r *Relation) indexFor(scols []int) *index {
	mask := colMask(scols)
	r.mu.RLock()
	ix, ok := r.indexes[mask]
	r.mu.RUnlock()
	if !ok {
		// Double-checked: a concurrent reader may have built this index
		// while we waited for the write lock. Building under the lock reads
		// the arena, which readers never mutate.
		r.mu.Lock()
		if ix, ok = r.indexes[mask]; !ok {
			ix = &index{cols: append([]int(nil), scols...)}
			for i := 0; i < r.n; i++ {
				ix.add(r, int32(i))
			}
			if r.indexes == nil {
				r.indexes = make(map[uint64]*index)
			}
			r.indexes[mask] = ix
		}
		r.mu.Unlock()
	}
	return ix
}

// Clone returns a copy-on-write snapshot: O(1), sharing the arena and
// membership table with the receiver until either side inserts (indexes
// are not shared; they rebuild on demand). Cloning a frozen relation is
// safe concurrently with readers; mutation stays single-goroutine.
func (r *Relation) Clone() *Relation {
	r.shared.Store(true)
	c := &Relation{arity: r.arity, data: r.data, n: r.n, table: r.table}
	c.shared.Store(true)
	if r.ref != nil {
		c.ref = r.ref.clone()
	}
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
