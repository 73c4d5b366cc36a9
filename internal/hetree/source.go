package hetree

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ErrNoValues reports that the property has no numeric or temporal values to
// build a tree over.
var ErrNoValues = errors.New("hetree: property has no numeric or temporal values")

// FromSource collects a property's items directly from the ID-space source
// and builds the tree in one flat pass over the predicate-bound POS run:
//
//   - the run arrives grouped by object, so the pass records each distinct
//     object ID, where its subjects start, and the subject IDs — three flat
//     slices, no per-group allocation (ctx is honored along the way);
//   - the distinct objects are decoded in one batch and each is parsed
//     (Float, else Time as Unix seconds) once, however many subjects share
//     it; non-numeric, non-temporal objects are skipped;
//   - the kept (value, subject ID) pairs are sorted by value, ties by
//     subject ID, which pins the item order whatever the delta state;
//   - the subjects are decoded in that order in one batch and become the
//     items' Refs, and the tree is built over the already-sorted items.
func FromSource(ctx context.Context, src explore.Source, prop rdf.IRI, opts Options) (*Tree, error) {
	pid, ok := src.LookupTermID(prop)
	if !ok {
		return nil, ErrNoValues
	}
	run, ok := src.ScanIDs(0, pid, 0, store.PosAny)
	if !ok {
		return nil, ErrNoValues
	}
	subs := make([]store.ID, 0, len(run.Sorted)+len(run.Tail))
	var oids []store.ID
	var starts []int // starts[i] is where oids[i]'s subjects begin in subs
	var cerr error
	run.ForEachSorted(func(t store.IDTriple) bool {
		if len(subs)%8192 == 8191 {
			if cerr = ctx.Err(); cerr != nil {
				return false
			}
		}
		if len(oids) == 0 || oids[len(oids)-1] != t.O {
			oids = append(oids, t.O)
			starts = append(starts, len(subs))
		}
		subs = append(subs, t.S)
		return true
	})
	if cerr != nil {
		return nil, cerr
	}
	starts = append(starts, len(subs))

	type key struct {
		value float64
		sid   store.ID
	}
	keys := make([]key, 0, len(subs))
	for i, term := range src.Terms(oids) {
		v, ok := itemValue(term)
		if !ok {
			continue
		}
		for _, sid := range subs[starts[i]:starts[i+1]] {
			keys = append(keys, key{v, sid})
		}
	}
	if len(keys) == 0 {
		return nil, ErrNoValues
	}
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.value, b.value); c != 0 {
			return c
		}
		return cmp.Compare(a.sid, b.sid)
	})

	sids := subs[:len(keys)] // subs is spent; reuse it for the decode order
	for i, k := range keys {
		sids[i] = k.sid
	}
	items := make([]Item, len(keys))
	for i, ref := range src.Terms(sids) {
		items[i] = Item{Value: keys[i].value, Ref: ref}
	}
	return newSorted(items, opts), nil
}

// itemValue is a literal's ordering value: its number, or its timestamp in
// Unix seconds; ok=false for every other term.
func itemValue(t rdf.Term) (float64, bool) {
	l, ok := t.(rdf.Literal)
	if !ok {
		return 0, false
	}
	if f, ok := l.Float(); ok {
		return f, true
	}
	if tm, ok := l.Time(); ok {
		return float64(tm.Unix()), true
	}
	return 0, false
}
