package store

import (
	"maps"
	"slices"
	"sort"

	"github.com/lodviz/lodviz/internal/rdf"
)

// PredicateStat summarizes one predicate's usage; the exploration layer uses
// these for facet ordering and join-selectivity estimates.
type PredicateStat struct {
	Predicate rdf.IRI
	// Triples is the number of statements with this predicate.
	Triples int
	// DistinctSubjects and DistinctObjects are the cardinalities of each
	// side.
	DistinctSubjects int
	DistinctObjects  int
	// LiteralObjects counts object positions holding literals.
	LiteralObjects int
}

// Stats summarizes the dataset for the exploration layer.
type Stats struct {
	Triples    int
	Terms      int
	Predicates []PredicateStat
	// Classes maps rdf:type objects to instance counts.
	Classes map[rdf.Term]int
}

// ComputeStats scans the store once and produces summary statistics,
// the kind of source summary LODeX-style tools generate (Section 3.4).
// The aggregation runs entirely in dictionary-ID space — per-predicate
// counters keyed by uint32 IDs instead of interface-valued terms — and
// decodes each distinct predicate and object exactly once at the end, so
// the scan never hashes a term it has already seen.
func (st *Store) ComputeStats() Stats {
	type agg struct {
		triples int
		subj    map[ID]struct{}
		// obj maps each distinct object to its occurrence count, so the
		// literal-object tally can be recovered with one kind check per
		// distinct object rather than one per triple.
		obj map[ID]int
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	perPred := map[ID]*agg{}
	classIDs := map[ID]int{}
	typeID, _ := st.lookup(rdf.RDFType)
	visit := func(e enc) {
		if _, dead := st.deleted[e]; dead {
			return
		}
		a := perPred[e.p]
		if a == nil {
			a = &agg{subj: map[ID]struct{}{}, obj: map[ID]int{}}
			perPred[e.p] = a
		}
		a.triples++
		a.subj[e.s] = struct{}{}
		a.obj[e.o]++
		if typeID != 0 && e.p == typeID {
			classIDs[e.o]++
		}
	}
	for _, e := range st.pos {
		visit(e)
	}
	for _, e := range st.delta {
		visit(e)
	}
	classes := make(map[rdf.Term]int, len(classIDs))
	for oid, n := range classIDs {
		classes[st.terms[oid]] = n
	}
	s := Stats{Triples: st.size, Terms: len(st.terms) - 1, Classes: classes}
	for pid, a := range perPred {
		lits := 0
		for oid, n := range a.obj {
			if st.terms[oid].Kind() == rdf.KindLiteral {
				lits += n
			}
		}
		s.Predicates = append(s.Predicates, PredicateStat{
			Predicate:        st.terms[pid].(rdf.IRI),
			Triples:          a.triples,
			DistinctSubjects: len(a.subj),
			DistinctObjects:  len(a.obj),
			LiteralObjects:   lits,
		})
	}
	sort.Slice(s.Predicates, func(i, j int) bool {
		if s.Predicates[i].Triples != s.Predicates[j].Triples {
			return s.Predicates[i].Triples > s.Predicates[j].Triples
		}
		return s.Predicates[i].Predicate < s.Predicates[j].Predicate
	})
	return s
}

// PredCardinality holds the per-predicate cardinalities the SPARQL planner
// uses for join-selectivity estimation: how many live statements use the
// predicate, and how many distinct terms appear on each side. The expected
// fan-out of probing `?s <p> ?o` with ?s already bound is
// Triples/DistinctSubjects; with ?o bound it is Triples/DistinctObjects.
// The store keeps the table exact under every write (see Cardinalities).
type PredCardinality struct {
	Triples          int
	DistinctSubjects int
	DistinctObjects  int
}

// Cardinalities returns the per-predicate cardinality table of the live
// triple set. The table is maintained by the store rather than recomputed:
// index rebuilds (bulk load, compaction, snapshot restore) count it in one
// pass over the PSO and POS indexes, and every write batch updates it for
// its effective triples in O(batch·log n + |delta|) under the write lock it
// already holds. A call is therefore one read-locked pointer load. The map
// is copy-on-write — later writes publish a new one — so callers may keep
// it, but must treat it as read-only.
func (st *Store) Cardinalities() map[rdf.IRI]PredCardinality {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.cards
}

// PredicateCardinality returns the cardinality record for one predicate.
func (st *Store) PredicateCardinality(p rdf.IRI) (PredCardinality, bool) {
	c, ok := st.Cardinalities()[p]
	return c, ok
}

// countCardinalitiesLocked counts the table from the PSO and POS indexes in
// one pass, with no maps. Both are sorted by predicate first and hold the
// same triples, so each predicate's run spans the same positions in both;
// inside a run PSO groups the subjects and POS the objects, and every group
// start is one distinct value. Caller holds mu, and the delta and
// tombstones must be empty (the indexes are the whole live set).
func (st *Store) countCardinalitiesLocked() map[rdf.IRI]PredCardinality {
	out := make(map[rdf.IRI]PredCardinality)
	pso, pos := st.pso, st.pos
	for i := 0; i < len(pso); {
		p := pso[i].p
		c := PredCardinality{DistinctSubjects: 1, DistinctObjects: 1}
		j := i + 1
		for ; j < len(pso) && pso[j].p == p; j++ {
			if pso[j].s != pso[j-1].s {
				c.DistinctSubjects++
			}
			if pos[j].o != pos[j-1].o {
				c.DistinctObjects++
			}
		}
		c.Triples = j - i
		if iri, ok := st.terms[p].(rdf.IRI); ok {
			out[iri] = c
		}
		i = j
	}
	return out
}

// updateCardsLocked folds one write batch into the cardinality table,
// copy-on-write. es are the batch's effective triples, distinct, and sign
// is +1 for inserts and undeletes or -1 for deletes. It must run while the
// store holds none of es live: before an insert batch is applied, after a
// delete batch is. A predicate's distinct-subject count then changes by
// sign exactly for the (p,s) pairs of es that no live triple holds — the
// pairs going 0↔1 live triples — and likewise for (p,o) pairs and objects.
// IDs at or above fresh were interned by this batch, so no stored triple
// can hold a pair containing one; pass ID(len(st.terms)) when none are.
// Caller holds mu.
func (st *Store) updateCardsLocked(es []enc, sign int, fresh ID) {
	// Pairs travel as PackPair keys. Inside the store the packing is known
	// (p in the high half), so packed pairs sort by (p, v) and k>>32 is p.
	change := make(map[ID]PredCardinality, 4)
	subj := make([]uint64, len(es))
	obj := make([]uint64, len(es))
	for i, e := range es {
		c := change[e.p]
		c.Triples += sign
		change[e.p] = c
		subj[i], obj[i] = PackPair(e.p, e.s), PackPair(e.p, e.o)
	}
	subjDead, subjCheck := st.splitPairsLocked(subj, fresh, st.pso, rangePSO)
	objDead, objCheck := st.splitPairsLocked(obj, fresh, st.pos, rangePOS)
	// One pass over the delta settles the pairs the base does not hold.
	// Pairs sort by predicate first, so [pLo, pHi] bounds the predicates
	// worth a search.
	subjHeld := make([]bool, len(subjCheck))
	objHeld := make([]bool, len(objCheck))
	pending := len(subjCheck) + len(objCheck)
	pLo, pHi := ^ID(0), ID(0)
	for _, check := range [][]uint64{subjCheck, objCheck} {
		if len(check) > 0 {
			pLo, pHi = min(pLo, ID(check[0]>>32)), max(pHi, ID(check[len(check)-1]>>32))
		}
	}
	for i := 0; pending > 0 && i < len(st.delta); i++ {
		d := st.delta[i]
		if d.p < pLo || d.p > pHi {
			continue
		}
		si, inS := slices.BinarySearch(subjCheck, PackPair(d.p, d.s))
		oi, inO := slices.BinarySearch(objCheck, PackPair(d.p, d.o))
		inS = inS && !subjHeld[si]
		inO = inO && !objHeld[oi]
		if !inS && !inO {
			continue
		}
		if _, dead := st.deleted[d]; dead {
			continue
		}
		if inS {
			subjHeld[si] = true
			pending--
		}
		if inO {
			objHeld[oi] = true
			pending--
		}
	}
	for i, k := range subjCheck {
		if !subjHeld[i] {
			subjDead = append(subjDead, k)
		}
	}
	for i, k := range objCheck {
		if !objHeld[i] {
			objDead = append(objDead, k)
		}
	}
	for _, k := range subjDead {
		c := change[ID(k>>32)]
		c.DistinctSubjects += sign
		change[ID(k>>32)] = c
	}
	for _, k := range objDead {
		c := change[ID(k>>32)]
		c.DistinctObjects += sign
		change[ID(k>>32)] = c
	}

	cards := maps.Clone(st.cards)
	for pid, d := range change {
		iri, ok := st.terms[pid].(rdf.IRI)
		if !ok {
			continue
		}
		c := cards[iri]
		c.Triples += d.Triples
		c.DistinctSubjects += d.DistinctSubjects
		c.DistinctObjects += d.DistinctObjects
		if c.Triples == 0 {
			delete(cards, iri)
		} else {
			cards[iri] = c
		}
	}
	st.cards = cards
}

// splitPairsLocked sorts and deduplicates packed (p, v) pairs (PackPair)
// and drops the ones a live triple of the sorted index idx holds (rng is
// its range search). Of the rest, dead holds the pairs with an ID at or
// above fresh, which no stored triple can hold; check holds the others,
// sorted, which only the delta may still hold. dead reuses pairs' array.
// Caller holds mu.
func (st *Store) splitPairsLocked(pairs []uint64, fresh ID, idx []enc, rng func([]enc, ID, ID) (int, int)) (dead, check []uint64) {
	slices.Sort(pairs)
	dead = pairs[:0]
	for _, k := range slices.Compact(pairs) {
		p, v := ID(k>>32), ID(k)
		if p >= fresh || v >= fresh {
			dead = append(dead, k)
			continue
		}
		if lo, hi := rng(idx, p, v); !st.anyLiveLocked(idx[lo:hi]) {
			check = append(check, k)
		}
	}
	return dead, check
}

// anyLiveLocked reports whether any entry of an index range is not
// tombstoned. It stops at the first live entry, so a range is walked in
// full only when tombstones shadow its head. Caller holds mu.
func (st *Store) anyLiveLocked(r []enc) bool {
	if len(st.deleted) == 0 {
		return len(r) > 0
	}
	for _, e := range r {
		if _, dead := st.deleted[e]; !dead {
			return true
		}
	}
	return false
}

// DegreeHistogram returns, for each out-degree d present, how many subjects
// have exactly d outgoing statements — the degree profile graph visualizers
// need for layout and abstraction decisions.
func (st *Store) DegreeHistogram() map[int]int {
	deg := map[rdf.Term]int{}
	st.ForEach(Pattern{}, func(t rdf.Triple) bool {
		deg[t.S]++
		return true
	})
	hist := map[int]int{}
	for _, d := range deg {
		hist[d]++
	}
	return hist
}
