package store

import (
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
)

// This file is the store's dictionary-ID scan surface: everything the SPARQL
// engine needs to run joins entirely in uint32 ID space — permutation
// selection, sorted range materialization with lock-free gaps between pages,
// batch ID→term decoding — so terms are only materialized once per emitted
// solution instead of once per probe.

// IDTriple is one triple in dictionary-ID space.
type IDTriple struct{ S, P, O ID }

// Position names one position of a triple pattern. PosAny means "no
// preference": permutation selection then only has to cover the bound
// positions, not produce any particular result order.
type Position int8

const (
	PosAny Position = iota
	PosS
	PosP
	PosO
)

func (p Position) String() string {
	switch p {
	case PosS:
		return "S"
	case PosP:
		return "P"
	case PosO:
		return "O"
	default:
		return "any"
	}
}

// ScanOrder identifies which permutation index a scan walks; results arrive
// sorted in that permutation's (first, second, third) key order.
type ScanOrder int8

const (
	OrderSPO ScanOrder = iota
	OrderPOS
	OrderOSP
	OrderPSO
)

func (o ScanOrder) String() string {
	switch o {
	case OrderSPO:
		return "SPO"
	case OrderPOS:
		return "POS"
	case OrderOSP:
		return "OSP"
	case OrderPSO:
		return "PSO"
	default:
		return "?"
	}
}

// PermutationFor picks the permutation that answers a pattern with the given
// bound positions as one contiguous index range. With lead == PosAny it
// always succeeds and returns the cheapest default. A lead of PosS/PosP/PosO
// additionally requires the scan to yield results grouped and sorted by that
// (necessarily unbound) position — the property merge joins need; ok=false
// means no permutation delivers it (the two gaps are lead P with only O
// bound and lead O with only S bound, which would need OPS/SOP).
func PermutationFor(sBound, pBound, oBound bool, lead Position) (ScanOrder, bool) {
	switch lead {
	case PosS:
		if sBound {
			return 0, false
		}
		switch {
		case pBound && oBound:
			return OrderPOS, true // residual key after (p,o) prefix is s
		case pBound:
			return OrderPSO, true
		case oBound:
			return OrderOSP, true
		default:
			return OrderSPO, true
		}
	case PosP:
		if pBound {
			return 0, false
		}
		switch {
		case sBound && oBound:
			return OrderOSP, true // residual key after (o,s) prefix is p
		case sBound:
			return OrderSPO, true
		case oBound:
			return 0, false // would need OPS
		default:
			return OrderPSO, true
		}
	case PosO:
		if oBound {
			return 0, false
		}
		switch {
		case sBound && pBound:
			return OrderSPO, true
		case pBound:
			return OrderPOS, true
		case sBound:
			return 0, false // would need SOP
		default:
			return OrderOSP, true
		}
	default: // PosAny: any permutation covering the bound prefix
		switch {
		case sBound && oBound && !pBound:
			return OrderOSP, true
		case sBound:
			return OrderSPO, true
		case pBound:
			return OrderPOS, true
		case oBound:
			return OrderOSP, true
		default:
			return OrderSPO, true
		}
	}
}

// indexFor returns the base index for a scan order. Caller holds mu.
func (st *Store) indexFor(ord ScanOrder) []enc {
	switch ord {
	case OrderPOS:
		return st.pos
	case OrderOSP:
		return st.osp
	case OrderPSO:
		return st.pso
	default:
		return st.spo
	}
}

// rangeIn binary-searches idx (sorted in ord) for the contiguous range
// covering the bound positions (0 = wildcard). The mask must be one
// PermutationFor can map to ord — i.e. prefix-closed in ord's key order.
func rangeIn(ord ScanOrder, idx []enc, s, p, o ID) (int, int) {
	switch ord {
	case OrderPOS:
		if p == 0 {
			return 0, len(idx)
		}
		return rangePOS(idx, p, o)
	case OrderOSP:
		if o == 0 {
			return 0, len(idx)
		}
		return rangeOSP(idx, o, s)
	case OrderPSO:
		if p == 0 {
			return 0, len(idx)
		}
		return rangePSO(idx, p, s)
	default:
		if s == 0 {
			return 0, len(idx)
		}
		return rangeSPO(idx, s, p, o)
	}
}

// LookupTermID returns the dictionary ID for a term; ok=false means the term
// does not occur in the store, so no pattern mentioning it can match.
func (st *Store) LookupTermID(t rdf.Term) (ID, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.lookup(t)
}

// Terms batch-decodes IDs under one lock acquisition. Unknown IDs (including
// 0) decode to nil.
func (st *Store) Terms(ids []ID) []rdf.Term {
	out := make([]rdf.Term, len(ids))
	st.mu.RLock()
	defer st.mu.RUnlock()
	for i, id := range ids {
		if id != 0 && int(id) < len(st.terms) {
			out[i] = st.terms[id]
		}
	}
	return out
}

// ForEachID streams matches in ID space under one consistent read view:
// base-index matches in the default permutation's sort order first, then
// not-yet-compacted delta matches in insertion order (the same sequence
// ForEach decodes). 0 = wildcard. fn must not touch the store (the read
// lock is held throughout, see ForEach).
func (st *Store) ForEachID(s, p, o ID, fn func(IDTriple) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.forEachIDLocked(s, p, o, func(e enc) bool {
		return fn(IDTriple{e.s, e.p, e.o})
	})
}

// EstimateCountIDs is EstimateCount for an already-encoded pattern: the base
// range size plus matching delta entries, minus matching tombstones. The
// engine uses it to choose between merge-joining a range and probing per
// binding.
func (st *Store) EstimateCountIDs(s, p, o ID) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.estimateCountLocked(s, p, o)
}

// estimateCountLocked is the body EstimateCount and EstimateCountIDs share:
// the base range of the permutation the scans would use (a bound-object
// mask counts its exact OSP range, never the whole store), plus matching
// delta entries, minus matching tombstones. Caller holds mu.
func (st *Store) estimateCountLocked(s, p, o ID) int {
	_, lo, hi := st.scanRangeLocked(s, p, o)
	n := hi - lo
	for _, e := range st.delta {
		if (s == 0 || e.s == s) && (p == 0 || e.p == p) && (o == 0 || e.o == o) {
			n++
		}
	}
	n -= st.countTombstonedLocked(s, p, o)
	if n < 0 {
		n = 0
	}
	return n
}

// countTombstonedLocked counts tombstones matching the bound positions
// (0 = wildcard). Every tombstone shadows exactly one entry counted by the
// base range or the delta pass (Delete only tombstones live triples, and a
// triple is never in both base and delta), so subtracting the matching
// tombstones makes the estimate exact up to in-flight mutations — without
// it, a delete-churned predicate looks as big as it was before the churn
// until the next compaction, and the planner picks probe joins and join
// orders sized for data that is no longer there. O(|deleted|), symmetric to
// the existing delta pass; both sets are compaction-bounded.
func (st *Store) countTombstonedLocked(s, p, o ID) int {
	dead := 0
	for e := range st.deleted {
		if (s == 0 || e.s == s) && (p == 0 || e.p == p) && (o == 0 || e.o == o) {
			dead++
		}
	}
	return dead
}

// IDRun is one materialized ID-space scan: the base-index matches sorted in
// Order, then the not-yet-compacted delta matches in insertion order.
// Concatenating Sorted and Tail reproduces exactly the sequence ForEachID
// emits for the same pattern (modulo mutations between pages; see ScanIDs).
type IDRun struct {
	Sorted []IDTriple
	Tail   []IDTriple
	Order  ScanOrder
}

// scanIDsPageSize is how many base-index entries one ScanIDs page copies per
// lock acquisition; a variable so tests can force multi-page scans on small
// stores.
var scanIDsPageSize = 1 << 16

// scanIDsBetweenPages, when non-nil, runs between ScanIDs pages with no lock
// held — a test hook for forcing compactions mid-scan.
var scanIDsBetweenPages func()

// scanIDsRestartAttempts bounds how many times a paged scan restarts after a
// layout-epoch change before falling back to one scan under a full lock.
const scanIDsRestartAttempts = 3

// ScanIDs materializes the matches for a bound mask (0 = wildcard) through
// the permutation PermutationFor selects for lead; ok=false means no
// permutation yields the requested lead order and the caller must probe
// instead. The copy is paged: the read lock is released between pages so a
// long scan never holds up writers, and a layout-epoch change (compaction
// reshuffles positions) restarts the scan; after scanIDsRestartAttempts
// restarts it degrades to a single-lock scan, which cannot be invalidated.
func (st *Store) ScanIDs(s, p, o ID, lead Position) (IDRun, bool) {
	ord, ok := PermutationFor(s != 0, p != 0, o != 0, lead)
	if !ok {
		return IDRun{}, false
	}
	for attempt := 0; attempt < scanIDsRestartAttempts; attempt++ {
		if run, ok := st.scanIDsPaged(s, p, o, ord); ok {
			return run, true
		}
	}
	// Writers keep compacting underneath the paged scan; take one read lock
	// for the whole range instead of restarting forever.
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.scanIDsLocked(s, p, o, ord), true
}

// scanIDsPaged copies the matching range page by page, dropping the lock
// between pages. ok=false reports a layout-epoch change invalidating the
// positional cursor.
func (st *Store) scanIDsPaged(s, p, o ID, ord ScanOrder) (IDRun, bool) {
	run := IDRun{Order: ord}
	pos := 0
	var epoch uint64
	first := true
	for {
		st.mu.RLock()
		if first {
			epoch = st.layout
			first = false
		} else if st.layout != epoch {
			st.mu.RUnlock()
			return IDRun{}, false
		}
		idx := st.indexFor(ord)
		lo, hi := rangeIn(ord, idx, s, p, o)
		n := hi - lo
		end := pos + scanIDsPageSize
		if end > n {
			end = n
		}
		if run.Sorted == nil && n > 0 {
			run.Sorted = make([]IDTriple, 0, n)
		}
		for i := lo + pos; i < lo+end; i++ {
			e := idx[i]
			if _, dead := st.deleted[e]; dead {
				continue
			}
			run.Sorted = append(run.Sorted, IDTriple{e.s, e.p, e.o})
		}
		pos = end
		if pos >= n {
			// The delta is captured under the same view as the final page,
			// exactly where ForEachID switches from base to delta.
			for _, e := range st.delta {
				if (s == 0 || e.s == s) && (p == 0 || e.p == p) && (o == 0 || e.o == o) {
					if _, dead := st.deleted[e]; dead {
						continue
					}
					run.Tail = append(run.Tail, IDTriple{e.s, e.p, e.o})
				}
			}
			st.mu.RUnlock()
			return run, true
		}
		st.mu.RUnlock()
		if hook := scanIDsBetweenPages; hook != nil {
			hook()
		}
	}
}

// ForEachIDPage streams up to max matching triples in ID space to fn,
// starting at scan position pos (0 starts a new scan), and returns the
// position the next page should resume from plus whether the scan is
// exhausted — the ID-space twin of ForEachPage. The read lock is held only
// for one page, so callers may do arbitrary work between pages. The cursor
// is positional over the PosAny permutation for the bound mask: positions in
// the base index are stable until a compaction, so callers must watch
// LayoutEpoch between pages and restart when it moves (delta appends don't
// shift the base, and the delta itself is append-only between compactions).
// fn returning false ends the scan (done=true). max < 1 returns immediately
// with done=false.
func (st *Store) ForEachIDPage(s, p, o ID, pos, max int, fn func(IDTriple) bool) (next int, done bool) {
	if max < 1 {
		return pos, false
	}
	st.scanPages.Add(1)
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.forEachPageLocked(s, p, o, pos, max, func(e enc) bool {
		return fn(IDTriple{e.s, e.p, e.o})
	})
}

// forEachPageLocked is the page body ForEachPage and ForEachIDPage share:
// up to max live matches of the PosAny permutation range, then of the
// delta, from position pos (base positions first, then n + delta index).
// Caller holds mu.
func (st *Store) forEachPageLocked(s, p, o ID, pos, max int, fn func(enc) bool) (next int, done bool) {
	base, lo, hi := st.scanRangeLocked(s, p, o)
	n := hi - lo
	emitted := 0
	for i := lo + pos; i < hi; i++ {
		e := base[i]
		if _, dead := st.deleted[e]; dead {
			continue
		}
		if !fn(e) {
			return i - lo + 1, true
		}
		emitted++
		if emitted >= max {
			return i - lo + 1, false
		}
	}
	dpos := pos - n
	if dpos < 0 {
		dpos = 0
	}
	for j := dpos; j < len(st.delta); j++ {
		e := st.delta[j]
		if (s != 0 && e.s != s) || (p != 0 && e.p != p) || (o != 0 && e.o != o) {
			continue
		}
		if _, dead := st.deleted[e]; dead {
			continue
		}
		if !fn(e) {
			return n + j + 1, true
		}
		emitted++
		if emitted >= max {
			return n + j + 1, false
		}
	}
	return n + len(st.delta), true
}

// Less reports whether a sorts before b in the order's (first, second,
// third) key sequence.
func (o ScanOrder) Less(a, b IDTriple) bool {
	ka0, ka1, ka2 := o.key(a)
	kb0, kb1, kb2 := o.key(b)
	if ka0 != kb0 {
		return ka0 < kb0
	}
	if ka1 != kb1 {
		return ka1 < kb1
	}
	return ka2 < kb2
}

func (o ScanOrder) key(t IDTriple) (ID, ID, ID) {
	switch o {
	case OrderPOS:
		return t.P, t.O, t.S
	case OrderOSP:
		return t.O, t.S, t.P
	case OrderPSO:
		return t.P, t.S, t.O
	default:
		return t.S, t.P, t.O
	}
}

// ForEachSorted streams the run in full Order-sorted sequence: the delta
// tail (captured in insertion order) is sorted and merged into the sorted
// base matches on the fly, so span-counting consumers see one globally
// grouped sequence even before the next compaction folds the delta in.
// Iteration stops early when fn returns false; the return value reports
// whether the full run was visited.
func (r IDRun) ForEachSorted(fn func(IDTriple) bool) bool {
	tail := r.Tail
	if len(tail) > 1 {
		tail = append([]IDTriple(nil), tail...)
		sort.Slice(tail, func(i, j int) bool { return r.Order.Less(tail[i], tail[j]) })
	}
	i, j := 0, 0
	for i < len(r.Sorted) && j < len(tail) {
		var t IDTriple
		if r.Order.Less(tail[j], r.Sorted[i]) {
			t = tail[j]
			j++
		} else {
			t = r.Sorted[i]
			i++
		}
		if !fn(t) {
			return false
		}
	}
	for ; i < len(r.Sorted); i++ {
		if !fn(r.Sorted[i]) {
			return false
		}
	}
	for ; j < len(tail); j++ {
		if !fn(tail[j]) {
			return false
		}
	}
	return true
}

// scanIDsLocked is the single-lock fallback. Caller holds mu.
func (st *Store) scanIDsLocked(s, p, o ID, ord ScanOrder) IDRun {
	run := IDRun{Order: ord}
	idx := st.indexFor(ord)
	lo, hi := rangeIn(ord, idx, s, p, o)
	if hi > lo {
		run.Sorted = make([]IDTriple, 0, hi-lo)
	}
	for i := lo; i < hi; i++ {
		e := idx[i]
		if _, dead := st.deleted[e]; dead {
			continue
		}
		run.Sorted = append(run.Sorted, IDTriple{e.s, e.p, e.o})
	}
	for _, e := range st.delta {
		if (s == 0 || e.s == s) && (p == 0 || e.p == p) && (o == 0 || e.o == o) {
			if _, dead := st.deleted[e]; dead {
				continue
			}
			run.Tail = append(run.Tail, IDTriple{e.s, e.p, e.o})
		}
	}
	return run
}
