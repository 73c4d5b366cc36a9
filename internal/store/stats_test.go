package store

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
)

func TestCardinalities(t *testing.T) {
	st := New()
	// p1: 3 triples, 2 distinct subjects, 3 distinct objects.
	for _, tp := range []rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s1", "p1", "o2"),
		tr("s2", "p1", "o3"),
		// p2: 2 triples, 2 distinct subjects, 1 distinct object.
		tr("s1", "p2", "x"),
		tr("s2", "p2", "x"),
	} {
		if err := st.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	cards := st.Cardinalities()
	if len(cards) != 2 {
		t.Fatalf("Cardinalities has %d predicates, want 2", len(cards))
	}
	want := map[rdf.IRI]PredCardinality{
		iri("p1"): {Triples: 3, DistinctSubjects: 2, DistinctObjects: 3},
		iri("p2"): {Triples: 2, DistinctSubjects: 2, DistinctObjects: 1},
	}
	for p, w := range want {
		if got := cards[p]; got != w {
			t.Errorf("Cardinalities[%s] = %+v, want %+v", p, got, w)
		}
	}
	if c, ok := st.PredicateCardinality(iri("p1")); !ok || c != want[iri("p1")] {
		t.Errorf("PredicateCardinality(p1) = %+v, %v", c, ok)
	}
	if _, ok := st.PredicateCardinality(iri("nosuch")); ok {
		t.Error("PredicateCardinality(nosuch) reported ok")
	}
}

func TestCardinalitiesInvalidatedByWrites(t *testing.T) {
	st := New()
	if err := st.Add(tr("s1", "p1", "o1")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")].Triples; got != 1 {
		t.Fatalf("initial Triples = %d, want 1", got)
	}
	// An insert must show in the table.
	if err := st.Add(tr("s2", "p1", "o2")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{2, 2, 2}) {
		t.Errorf("after Add = %+v, want {2 2 2}", got)
	}
	// So must a delete.
	if !st.Delete(tr("s1", "p1", "o1")) {
		t.Fatal("Delete failed")
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{1, 1, 1}) {
		t.Errorf("after Delete = %+v, want {1 1 1}", got)
	}
	// Compaction must not change the live counts.
	st.Compact()
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{1, 1, 1}) {
		t.Errorf("after Compact = %+v, want {1 1 1}", got)
	}
}

func TestCardinalitiesSpanBaseAndDelta(t *testing.T) {
	// Load merges into base; later Adds sit in the delta buffer. The table
	// must count both.
	st, err := Load([]rdf.Triple{
		tr("s1", "p1", "o1"),
		tr("s2", "p1", "o2"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(tr("s3", "p1", "o3")); err != nil {
		t.Fatal(err)
	}
	if got := st.Cardinalities()[iri("p1")]; got != (PredCardinality{3, 3, 3}) {
		t.Errorf("Cardinalities = %+v, want {3 3 3}", got)
	}
}

func TestCardinalitiesConcurrentReaders(t *testing.T) {
	var triples []rdf.Triple
	for i := 0; i < 500; i++ {
		triples = append(triples, tr(fmt.Sprintf("s%d", i), fmt.Sprintf("p%d", i%7), fmt.Sprintf("o%d", i%31)))
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the table from many goroutines; -race verifies safety.
	done := make(chan map[rdf.IRI]PredCardinality, 8)
	for g := 0; g < 8; g++ {
		go func() { done <- st.Cardinalities() }()
	}
	first := <-done
	for g := 1; g < 8; g++ {
		got := <-done
		if len(got) != len(first) {
			t.Errorf("reader saw %d predicates, want %d", len(got), len(first))
		}
	}
	if len(first) != 7 {
		t.Errorf("predicates = %d, want 7", len(first))
	}
}

func TestCardinalitiesWarmStartAfterDeleteSnapshotRestore(t *testing.T) {
	// A delete burst, then snapshot, then restore: the restored store's
	// cardinality table must match a fresh recount over the surviving
	// triples — tombstoned triples must not leak into it.
	var triples []rdf.Triple
	for i := 0; i < 200; i++ {
		triples = append(triples,
			tr(fmt.Sprintf("s%d", i), "keep", fmt.Sprintf("o%d", i%13)),
			tr(fmt.Sprintf("s%d", i), "churn", fmt.Sprintf("v%d", i)),
		)
	}
	st, err := Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	var victims []rdf.Triple
	for i := 0; i < 150; i++ {
		victims = append(victims, tr(fmt.Sprintf("s%d", i), "churn", fmt.Sprintf("v%d", i)))
	}
	if n, err := st.DeleteBatch(victims); err != nil || n != 150 {
		t.Fatalf("DeleteBatch = %d, %v; want 150", n, err)
	}

	var buf bytes.Buffer
	if err := st.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Load(restored.Triples())
	if err != nil {
		t.Fatal(err)
	}
	warm, recount := restored.Cardinalities(), fresh.Cardinalities()
	if len(warm) != len(recount) {
		t.Fatalf("warm table has %d predicates, recount %d", len(warm), len(recount))
	}
	for p, w := range warm {
		if r := recount[p]; w != r {
			t.Errorf("warm Cardinalities[%s] = %+v, recount %+v", p, w, r)
		}
	}
	if got := warm[iri("churn")]; got != (PredCardinality{Triples: 50, DistinctSubjects: 50, DistinctObjects: 50}) {
		t.Errorf("churn after restore = %+v, want {50 50 50}", got)
	}
}
