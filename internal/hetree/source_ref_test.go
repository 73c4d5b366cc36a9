package hetree

import (
	"context"
	"sort"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// fromSourceReference is the grouped FromSource the flat build replaced,
// kept as the differential oracle: it groups the POS run into per-object
// subject slices, decodes and parses each distinct object once, maps the
// subjects back through a term-keyed index, and stable-sorts the items by
// (value, subject ID) before handing them to New.
func fromSourceReference(ctx context.Context, src explore.Source, prop rdf.IRI, opts Options) (*Tree, error) {
	pid, ok := src.LookupTermID(prop)
	if !ok {
		return nil, ErrNoValues
	}
	run, ok := src.ScanIDs(0, pid, 0, store.PosAny)
	if !ok {
		return nil, ErrNoValues
	}
	type group struct {
		oid  store.ID
		subs []store.ID
	}
	var groups []group
	visited := 0
	var cerr error
	run.ForEachSorted(func(t store.IDTriple) bool {
		visited++
		if visited%8192 == 0 {
			if cerr = ctx.Err(); cerr != nil {
				return false
			}
		}
		if len(groups) == 0 || groups[len(groups)-1].oid != t.O {
			groups = append(groups, group{oid: t.O})
		}
		g := &groups[len(groups)-1]
		g.subs = append(g.subs, t.S)
		return true
	})
	if cerr != nil {
		return nil, cerr
	}

	oids := make([]store.ID, len(groups))
	for i, g := range groups {
		oids[i] = g.oid
	}
	objTerms := src.Terms(oids)

	// Parse each distinct object once; keep only numeric/temporal groups.
	type parsed struct {
		value float64
		subs  []store.ID
	}
	var kept []parsed
	var subIDs []store.ID
	for i, g := range groups {
		l, ok := objTerms[i].(rdf.Literal)
		if !ok {
			continue
		}
		var v float64
		if f, ok := l.Float(); ok {
			v = f
		} else if tm, ok := l.Time(); ok {
			v = float64(tm.Unix())
		} else {
			continue
		}
		kept = append(kept, parsed{value: v, subs: g.subs})
		subIDs = append(subIDs, g.subs...)
	}
	if len(kept) == 0 {
		return nil, ErrNoValues
	}
	subTerms := src.Terms(subIDs)
	subFor := make(map[store.ID]rdf.Term, len(subIDs))
	for i, id := range subIDs {
		subFor[id] = subTerms[i]
	}
	items := make([]Item, 0, len(subIDs))
	for _, p := range kept {
		for _, sid := range p.subs {
			items = append(items, Item{Value: p.value, Ref: subFor[sid]})
		}
	}
	// Deterministic input order regardless of delta state: by value, then by
	// subject dictionary ID (New sorts by value anyway; this pins tie order).
	idx := make(map[rdf.Term]store.ID, len(subIDs))
	for i, id := range subIDs {
		idx[subTerms[i]] = id
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].Value != items[j].Value {
			return items[i].Value < items[j].Value
		}
		ti, _ := items[i].Ref.(rdf.Term)
		tj, _ := items[j].Ref.(rdf.Term)
		return idx[ti] < idx[tj]
	})
	return New(items, opts)
}
