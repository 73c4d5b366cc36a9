package sparql

import (
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Source is the dictionary-ID surface the engine evaluates against: a
// source whose terms are densely ID-encoded and whose permutation indexes
// serve sorted ID-space runs. Basic graph patterns run entirely over uint32
// IDs — equal-prefix joins become merge joins over ScanIDs runs, everything
// else probes ForEachID, the streaming driver pages ForEachIDPage — and
// terms are decoded in batches through Terms. *store.Store satisfies it;
// tests and instrumentation wrap one to observe or throttle scans (the
// streaming endpoint's first-row-before-completion test runs against a
// deliberately slow wrapper). Implementations must be safe for concurrent
// calls — the parallel executor probes disjoint row chunks from multiple
// goroutines.
type Source interface {
	// LayoutEpoch reports the source's index-layout epoch; a change
	// between two pages of one scan means positional cursors were
	// invalidated (see store.LayoutEpoch) and the scan must restart or
	// abort.
	LayoutEpoch() uint64
	// NumTerms returns the dictionary size (join planning fallback).
	NumTerms() int
	// Cardinalities returns the per-predicate distinct-value table (join
	// planning).
	Cardinalities() map[rdf.IRI]store.PredCardinality
	// LookupTermID resolves a term to its dictionary ID; ok=false means the
	// term cannot occur in any triple.
	LookupTermID(t rdf.Term) (store.ID, bool)
	// Terms batch-decodes IDs under one lock acquisition; unknown IDs
	// (including 0) decode to nil.
	Terms(ids []store.ID) []rdf.Term
	// ForEachID streams the matches of a mask (0 = wildcard) in scan order
	// under one consistent read view; fn must not scan the source again
	// (see store.ForEach's locking contract).
	ForEachID(s, p, o store.ID, fn func(store.IDTriple) bool)
	// ForEachIDPage streams up to max matches starting at scan position
	// pos, in ForEachID's order, returning the resume position and whether
	// the scan is exhausted. The read view is held per page only, so the
	// streaming driver can evaluate joins and write to clients between
	// pages without blocking the store's writers (see store.ForEachIDPage).
	ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (next int, done bool)
	// ScanIDs materializes the matches through the permutation sorted on
	// lead (see store.ScanIDs); ok=false means no permutation serves that
	// lead order.
	ScanIDs(s, p, o store.ID, lead store.Position) (store.IDRun, bool)
	// EstimateCountIDs returns the index-range cardinality estimate for a
	// mask: join planning orders patterns by it, and the executor compares
	// it against the row count to choose merge vs. probe.
	EstimateCountIDs(s, p, o store.ID) int
}

// IDSource is an alias of Source, kept because the end-to-end benchmark's
// instrumented store still asserts it by that name.
type IDSource = Source

// compile-time check: the concrete store is a Source.
var _ Source = (*store.Store)(nil)
