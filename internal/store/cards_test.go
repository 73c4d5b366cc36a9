package store

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

// computeCardinalitiesLocked is the from-scratch oracle for the maintained
// cardinality table: one pass over base and delta in ID space with hash
// sets per predicate, skipping tombstones. Caller holds mu.
func (st *Store) computeCardinalitiesLocked() map[rdf.IRI]PredCardinality {
	type acc struct {
		triples int
		subj    map[ID]struct{}
		obj     map[ID]struct{}
	}
	per := map[ID]*acc{}
	visit := func(e enc) {
		if _, dead := st.deleted[e]; dead {
			return
		}
		a := per[e.p]
		if a == nil {
			a = &acc{subj: map[ID]struct{}{}, obj: map[ID]struct{}{}}
			per[e.p] = a
		}
		a.triples++
		a.subj[e.s] = struct{}{}
		a.obj[e.o] = struct{}{}
	}
	for _, e := range st.pos {
		visit(e)
	}
	for _, e := range st.delta {
		visit(e)
	}
	out := make(map[rdf.IRI]PredCardinality, len(per))
	for pid, a := range per {
		p, ok := st.terms[pid].(rdf.IRI)
		if !ok {
			continue
		}
		out[p] = PredCardinality{
			Triples:          a.triples,
			DistinctSubjects: len(a.subj),
			DistinctObjects:  len(a.obj),
		}
	}
	return out
}

// cardTriple maps three bytes onto a small vocabulary (8 subjects, 3
// predicates, 8 objects), so random batches keep hitting the same (p,s) and
// (p,o) pairs: duplicates, undeletes and 0↔1 pair transitions are common.
func cardTriple(s, p, o byte) rdf.Triple {
	return tr(fmt.Sprintf("s%d", s%8), fmt.Sprintf("p%d", p%3), fmt.Sprintf("o%d", o%8))
}

// cardOp applies one maintenance-test operation, chosen by kind, with its
// triples drawn from args (three bytes each). It returns the store to keep
// using: a snapshot round trip replaces it with the restored copy.
func cardOp(t testing.TB, st *Store, kind byte, args []byte) *Store {
	t.Helper()
	batch := make([]rdf.Triple, 0, len(args)/3)
	for i := 0; i+2 < len(args); i += 3 {
		batch = append(batch, cardTriple(args[i], args[i+1], args[i+2]))
	}
	switch kind % 6 {
	case 0: // insert (new triples, undeletes, in-batch and stored duplicates)
		if _, err := st.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	case 1: // delete (present and absent triples, in-batch duplicates)
		if _, err := st.DeleteBatch(batch); err != nil {
			t.Fatal(err)
		}
	case 2: // re-insert what the store already holds: no effective triple
		if _, err := st.AddBatch(st.Triples()); err != nil {
			t.Fatal(err)
		}
	case 3: // empty batches
		if _, err := st.AddBatch(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := st.DeleteBatch(nil); err != nil {
			t.Fatal(err)
		}
	case 4:
		st.Compact()
	case 5:
		var buf bytes.Buffer
		if err := st.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}
	return st
}

// checkCardsMatchOracle compares the maintained table with a from-scratch
// recount of the same state.
func checkCardsMatchOracle(t testing.TB, st *Store, step string) {
	t.Helper()
	st.mu.RLock()
	got, want := st.cards, st.computeCardinalitiesLocked()
	st.mu.RUnlock()
	if !maps.Equal(got, want) {
		t.Fatalf("%s: maintained table %v, recount %v", step, got, want)
	}
}

// TestCardinalitiesMaintained drives random insert, delete, undelete,
// duplicate and empty batches, compactions and snapshot round trips, and
// requires the maintained table to equal the oracle after every step. It
// also pins copy-on-write: a table handed to a reader never changes.
func TestCardinalitiesMaintained(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Start from a bulk-loaded base so pairs span base and delta.
		var initial []rdf.Triple
		for i := 0; i < 40; i++ {
			initial = append(initial, cardTriple(byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
		}
		st, err := Load(initial)
		if err != nil {
			t.Fatal(err)
		}
		checkCardsMatchOracle(t, st, fmt.Sprintf("seed %d load", seed))
		for step := 0; step < 200; step++ {
			// Inserts and deletes dominate; the structural operations
			// (duplicates, empty batches, compaction, snapshot) are rarer so
			// delta and tombstones grow between them.
			kind := byte(rng.Intn(2))
			if rng.Intn(8) == 0 {
				kind = byte(2 + rng.Intn(4))
			}
			args := make([]byte, 3*rng.Intn(12))
			rng.Read(args)
			before := st.Cardinalities()
			frozen := maps.Clone(before)
			st = cardOp(t, st, kind, args)
			if !maps.Equal(before, frozen) {
				t.Fatalf("seed %d step %d: a published table was mutated", seed, step)
			}
			checkCardsMatchOracle(t, st, fmt.Sprintf("seed %d step %d (op %d)", seed, step, kind))
		}
	}
}

// FuzzCardinalityMaintenance is TestCardinalitiesMaintained over
// fuzzer-chosen operation sequences: each record is an operation byte, a
// length byte, and that many triple bytes.
func FuzzCardinalityMaintenance(f *testing.F) {
	f.Add([]byte{0, 9, 1, 1, 1, 2, 1, 2, 1, 1, 3, 1, 3, 1, 1, 1, 1})
	f.Add([]byte{0, 6, 1, 1, 1, 1, 2, 1, 4, 0, 1, 3, 1, 1, 1, 0, 3, 1, 1, 1, 5, 0})
	f.Add([]byte{0, 12, 0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 9, 0, 0, 0, 0, 0, 1, 0, 0, 3, 2, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		st := New()
		for step := 0; len(ops) >= 2 && step < 64; step++ {
			kind, n := ops[0], int(ops[1])%31
			ops = ops[2:]
			n = min(n, len(ops))
			st = cardOp(t, st, kind, ops[:n])
			ops = ops[n:]
			checkCardsMatchOracle(t, st, fmt.Sprintf("step %d (op %d)", step, kind%6))
		}
	})
}
