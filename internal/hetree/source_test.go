package hetree

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func numericStore(t *testing.T) *store.Store {
	t.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 80, Classes: 2, NumericProps: 1, TemporalProps: 1, CategoryProps: 1, Seed: 17,
	})
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	// Delta adds so the POS grouping crosses the base/delta boundary.
	for i := 0; i < 4; i++ {
		if err := st.Add(rdf.Triple{
			S: gen.Res("late", i),
			P: gen.Prop("num0"),
			O: rdf.NewDouble(float64(1000 + i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestFromSourceMatchesTermSpaceValues checks the ID-space collection against
// the term-space oracle: the tree must hold exactly the property's numeric
// values, sorted, with every item's Ref resolving to a subject that carries
// that value in the store.
func TestFromSourceMatchesTermSpaceValues(t *testing.T) {
	st := numericStore(t)
	prop := gen.Prop("num0")
	tree, err := FromSource(context.Background(), st, prop, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Mode() != ContentBased && tree.Mode() != RangeBased {
		t.Fatalf("unexpected mode %v", tree.Mode())
	}

	// Term-space oracle: every (subject, value) pair of the property.
	var want []float64
	st.ForEach(store.Pattern{P: prop}, func(tr rdf.Triple) bool {
		l, ok := tr.O.(rdf.Literal)
		if !ok {
			t.Fatalf("non-literal object %v", tr.O)
		}
		f, ok := l.Float()
		if !ok {
			t.Fatalf("non-numeric literal %v", tr.O)
		}
		want = append(want, f)
		return true
	})
	sort.Float64s(want)
	items := tree.Items(tree.Root())
	if len(items) != len(want) {
		t.Fatalf("tree holds %d items, property has %d values", len(items), len(want))
	}
	for i, it := range items {
		if it.Value != want[i] {
			t.Fatalf("item %d: value %v, want %v", i, it.Value, want[i])
		}
		ref, ok := it.Ref.(rdf.Term)
		if !ok {
			t.Fatalf("item %d: Ref %T is not a term", i, it.Ref)
		}
		if !st.Contains(rdf.Triple{S: ref, P: prop, O: rdf.NewDouble(it.Value)}) {
			// The literal may have been written with a different lexical
			// form; fall back to scanning the subject.
			found := false
			st.ForEach(store.Pattern{S: ref, P: prop}, func(tr rdf.Triple) bool {
				if l, ok := tr.O.(rdf.Literal); ok {
					if f, ok := l.Float(); ok && f == it.Value {
						found = true
						return false
					}
				}
				return true
			})
			if !found {
				t.Fatalf("item %d: subject %v does not carry value %v", i, ref, it.Value)
			}
		}
	}
}

func TestFromSourceDeterministic(t *testing.T) {
	st := numericStore(t)
	build := func() []Item {
		tree, err := FromSource(context.Background(), st, gen.Prop("num0"), Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tree.Items(tree.Root())
	}
	first := build()
	for i := 0; i < 3; i++ {
		if got := build(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d: item sequence changed across identical builds", i)
		}
	}
}

func TestFromSourceTemporalProperty(t *testing.T) {
	st := numericStore(t)
	tree, err := FromSource(context.Background(), st, gen.Prop("date0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 80 {
		t.Fatalf("temporal tree holds %d items, want 80", tree.Len())
	}
}

func TestFromSourceNoValues(t *testing.T) {
	st := numericStore(t)
	cases := []rdf.IRI{
		"http://nowhere/prop", // unknown predicate
		gen.Prop("cat0"),      // string literals only
		rdf.RDFType,           // IRI objects only
	}
	for _, p := range cases {
		if _, err := FromSource(context.Background(), st, p, Options{}); err != ErrNoValues {
			t.Fatalf("prop %s: err = %v, want ErrNoValues", p, err)
		}
	}
}

func TestFromSourceCancelled(t *testing.T) {
	st := numericStore(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The grouping loop checks ctx every 8192 visits; with only a few
	// hundred statements the scan may complete before noticing, so accept
	// either a clean tree or the context error — but never a different one.
	if _, err := FromSource(ctx, st, gen.Prop("num0"), Options{}); err != nil && err != context.Canceled {
		t.Fatalf("err = %v, want nil or context.Canceled", err)
	}
}

// referenceStore is a property whose POS run has every shape the flat build
// must reproduce: a compacted base plus an unsorted delta tail interleaving
// with it, values shared by many subjects, one subject holding both
// "1"^^xsd:integer and "1.0"^^xsd:decimal, tombstoned statements, and
// string and IRI objects that must be skipped.
func referenceStore(t *testing.T) *store.Store {
	t.Helper()
	st := numericStore(t)
	prop := gen.Prop("num0")
	extra := []rdf.Triple{
		{S: gen.Res("both", 0), P: prop, O: rdf.NewInteger(1)},
		{S: gen.Res("both", 0), P: prop, O: rdf.NewDecimal(1.0)},
		{S: gen.Res("both", 1), P: prop, O: rdf.NewInteger(1)},
		{S: gen.Res("text", 0), P: prop, O: rdf.NewLiteral("not a number")},
		{S: gen.Res("link", 0), P: prop, O: gen.Res("late", 0)},
		{S: gen.Res("bad", 0), P: prop, O: rdf.NewTypedLiteral("x1", rdf.XSDInteger)},
	}
	for i := 0; i < 30; i++ {
		// Inserted in descending subject order so the delta tail is not
		// already sorted; three values shared by ten subjects each.
		extra = append(extra, rdf.Triple{S: gen.Res("dup", 29-i), P: prop, O: rdf.NewDouble(float64(i % 3))})
	}
	if _, err := st.AddBatch(extra); err != nil {
		t.Fatal(err)
	}
	// Tombstones in base and delta.
	var gone []rdf.Triple
	st.ForEach(store.Pattern{P: prop}, func(tr rdf.Triple) bool {
		if len(gone) < 5 {
			gone = append(gone, tr)
		}
		return true
	})
	gone = append(gone, rdf.Triple{S: gen.Res("dup", 7), P: prop, O: rdf.NewDouble(float64(22 % 3))})
	if n, err := st.DeleteBatch(gone); err != nil || n != len(gone) {
		t.Fatalf("DeleteBatch = %d, %v; want %d", n, err, len(gone))
	}
	return st
}

// TestFromSourceMatchesReference requires the flat build to produce exactly
// the tree the grouped reference build does — item order, Refs and every
// node aggregate — on a store with a delta tail and on its compaction, for
// numeric and temporal properties and both partitioning modes.
func TestFromSourceMatchesReference(t *testing.T) {
	st := referenceStore(t)
	for _, compacted := range []bool{false, true} {
		if compacted {
			st.Compact()
		}
		for _, prop := range []rdf.IRI{gen.Prop("num0"), gen.Prop("date0")} {
			for _, opts := range []Options{
				{},
				{Mode: RangeBased, Degree: 3, LeafCapacity: 5},
				{Mode: ContentBased, Degree: 2, LeafCapacity: 1},
			} {
				got, err := FromSource(context.Background(), st, prop, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fromSourceReference(context.Background(), st, prop, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("compacted=%v prop %s opts %+v: flat build differs from the reference", compacted, prop, opts)
				}
			}
		}
	}
	// The shapes above are really present: the integer/decimal pair gives
	// one subject two items of value 1, and the skipped objects add none.
	tree, err := FromSource(context.Background(), st, gen.Prop("num0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, it := range tree.Items(tree.Root()) {
		if it.Value == 1 && it.Ref == rdf.Term(gen.Res("both", 0)) {
			ones++
		}
		if ref := it.Ref.(rdf.Term); ref == rdf.Term(gen.Res("text", 0)) || ref == rdf.Term(gen.Res("link", 0)) || ref == rdf.Term(gen.Res("bad", 0)) {
			t.Fatalf("non-numeric object of %v became an item", ref)
		}
	}
	if ones != 2 {
		t.Fatalf("subject with 1 and 1.0 holds %d items of value 1, want 2", ones)
	}
}

// TestFromSourceNaNFirst pins that a NaN value sorts before every number,
// as New orders it.
func TestFromSourceNaNFirst(t *testing.T) {
	st := numericStore(t)
	if err := st.Add(rdf.Triple{S: gen.Res("nan", 0), P: gen.Prop("num0"), O: rdf.NewDouble(math.NaN())}); err != nil {
		t.Fatal(err)
	}
	tree, err := FromSource(context.Background(), st, gen.Prop("num0"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	items := tree.Items(tree.Root())
	if !math.IsNaN(items[0].Value) || items[0].Ref != rdf.Term(gen.Res("nan", 0)) {
		t.Fatalf("first item = %+v, want the NaN", items[0])
	}
	for _, it := range items[1:] {
		if math.IsNaN(it.Value) {
			t.Fatal("NaN item after the first")
		}
	}
}
