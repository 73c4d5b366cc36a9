package sparql

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// errScanShifted reports that the store compacted its indexes between two
// pages of a streamed scan, invalidating the positional cursor. evaluate
// restarts the query while no row has reached the consumer (and ultimately
// falls back to the snapshot-consistent materializing pipeline); an
// incremental stream that has already delivered rows surfaces it.
var errScanShifted = errors.New("sparql: store layout changed during streamed scan")

// Streaming query evaluation. The materializing pipeline computes every
// solution, sorts and deduplicates the full set, and only then slices
// LIMIT/OFFSET — so an exploration query asking for the first screenful
// would pay the full scan. The paths in this file make top-k the fast path
// instead:
//
//   - streamDirect: plain SELECT ... LIMIT k (+OFFSET) without ORDER BY,
//     DISTINCT, or grouping stops scanning after offset+k solutions, and
//     ASK stops at the first. Work scales with k, not with dataset size.
//   - streamTopK: ORDER BY ... LIMIT k keeps a bounded heap of the
//     offset+k best solutions while scanning, replacing the full
//     sort-then-slice: O(k) memory and O(n log k) comparisons.
//
// Both produce the rows of the materializing pipeline in its order; the
// differential tests check them against the reference evaluator and the
// query's LIMIT-less evaluation. Queries whose modifiers need the whole
// solution set — DISTINCT, GROUP BY, aggregates — and shapes whose
// evaluation is not row-local (UNION, SERVICE) materialize.

// streamMode selects the evaluation strategy for a parsed query.
type streamMode int

const (
	// streamNone: the query must materialize every solution first.
	streamNone streamMode = iota
	// streamDirect: complete solutions can be delivered — and evaluation
	// stopped — as they are found.
	streamDirect
	// streamTopK: ORDER BY needs every solution, but LIMIT bounds how many
	// survive; a bounded heap replaces the full sort.
	streamTopK
)

// planStream picks the evaluation path for a query and its consumer
// (incremental: rows go to a callback as they are found). streamDirect and
// streamTopK are only returned when the streamed rows are provably
// identical, in order, to the materializing pipeline's output, AND the
// driver can actually suspend a scan — a top-level triple pattern (after
// unwrapping redundant nesting). Without one, streaming would be a full
// evaluation wearing a streaming hat, so such queries honestly report the
// materializing path.
func planStream(q *Query, incremental bool) streamMode {
	if q.Where == nil {
		return streamNone
	}
	g := unwrapGroup(q.Where)
	if !streamableElems(g.Elems) || !streamablePrefix(g.Elems) {
		return streamNone
	}
	if q.Form == FormAsk {
		return streamDirect
	}
	if q.Distinct || len(q.GroupBy) > 0 || len(q.Having) > 0 || projectionHasAggregates(q) {
		return streamNone
	}
	switch {
	case len(q.OrderBy) == 0 && (q.Limit >= 0 || incremental):
		return streamDirect
	case len(q.OrderBy) > 0 && q.Limit >= 0 && addBudget(q.Offset, q.Limit) >= 0:
		return streamTopK
	}
	// A LIMIT-less SELECT collected whole materializes: the batch pipeline
	// computes a whole solution set faster than pages. An overflowing
	// ORDER BY window has no meaningful heap bound.
	return streamNone
}

// unwrapGroup peels redundant nesting: a group consisting solely of one
// subgroup evaluates identically to that subgroup with both levels'
// filters applied (filters are row-local and both apply after the
// patterns), so the streaming driver sees through the wrapper to the
// scannable pattern inside — `{ { ?s ?p ?o } } LIMIT k` short-circuits
// like its un-nested form.
func unwrapGroup(g *Group) *Group {
	for len(g.Elems) == 1 {
		sub, ok := g.Elems[0].(SubGroup)
		if !ok {
			break
		}
		inner := sub.Inner
		if len(g.Filters) > 0 {
			merged := append(append([]Expr{}, inner.Filters...), g.Filters...)
			inner = &Group{Elems: inner.Elems, Filters: merged}
		}
		g = inner
	}
	return g
}

// streamablePrefix checks that the driver has a scan to suspend and that
// everything scheduled before it is a genuinely tiny seed (BIND/VALUES): a
// SubGroup or OPTIONAL ahead of the first pattern would be fully evaluated
// — an unbounded scan of its own — before the first row could flow, which
// would betray the work-scales-with-k promise while still reporting
// incremental delivery. (Reordering never moves patterns across non-pattern
// elements, so the pre-reorder prefix seen here is the one the driver gets.)
func streamablePrefix(elems []GroupElem) bool {
	for _, el := range elems {
		switch el.(type) {
		case TriplePattern:
			return true
		case Bind, Values:
		default:
			return false
		}
	}
	return false
}

// addBudget returns offset+limit as an early-termination row budget, or -1
// (no budget: rely on emit-side enforcement) when the sum overflows.
func addBudget(offset, limit int) int {
	if limit > math.MaxInt-offset {
		return -1
	}
	return offset + limit
}

// streamableElems reports whether an element sequence is row-local: the
// output attributable to one input binding is contiguous, in input order,
// and independent of which other bindings share its evaluation batch. Only
// then does batched tail evaluation preserve the materializing row order.
// UNION is not row-local (it emits all left-branch rows before any
// right-branch row); SERVICE is remote and batch-shaped. Both are fine
// inside OPTIONAL's inner group, which is evaluated per binding anyway —
// except SERVICE, which is excluded everywhere so a budgeted scan never
// controls how often a remote endpoint is called.
func streamableElems(elems []GroupElem) bool {
	for _, el := range elems {
		switch el := el.(type) {
		case TriplePattern, Bind, Values:
		case Optional:
			if HasService(el.Inner) {
				return false
			}
		case SubGroup:
			if !streamableElems(el.Inner.Elems) {
				return false
			}
		default: // Union, Service, future elements
			return false
		}
	}
	return true
}

// Batch sizing for the streaming driver: the first page is tiny so the
// first rows reach the consumer after a handful of scan matches
// (time-to-first-row is the whole point), later pages double so long scans
// amortize per-page lock round-trips and grow past parallelThreshold,
// handing the tail pipeline to the worker pool.
const (
	streamBatchInit = 4
	streamBatchMax  = 8192
)

// streamSolutions evaluates g, delivering every complete solution (after
// the group's filters) to emit in exactly the order the materializing
// pipeline produces, until emit returns false. budget >= 0 is the caller's
// expected row need: when every scan match is a final solution it clamps
// the scan's pages to the rows still owed, but emit alone decides when
// delivery stops. budget < 0 streams the full solution set.
//
// The driver is a pager over the ID executor. It encodes the group's first
// pattern run with the run encoder evalPatternRun uses and pages only the
// run's first pattern through ForEachIDPage; each call does nothing under
// the store's read lock but unify-and-collect ID rows. With the lock
// released, the page goes through the rest of the run and the run's pushed
// filters on the shared join loop, the survivors are decoded once, and only
// the elements after the run (with the filters not yet applied) see them as
// Bindings before emit. A nested scan inside the page would deadlock behind
// a queued writer, and a slow network consumer must not stall the store's
// writers. The flip side is isolation: a write landing between two pages is
// visible to the remainder of the scan (the materializing path keeps its
// one-snapshot-per-scan semantics).
func (e *engine) streamSolutions(g *Group, budget int, emit func(Binding) bool) error {
	g = unwrapGroup(g)
	elems := e.planElems(g)
	// planStream guarantees a top-level pattern, preceded only by BIND and
	// VALUES seeds: the prefix is tiny, the run's first scan is the loop
	// we suspend.
	first := slices.IndexFunc(elems, func(el GroupElem) bool { _, ok := el.(TriplePattern); return ok })
	input, err := e.evalElems(elems[:first], nil, []Binding{{}})
	if err != nil {
		return err
	}
	var pats []TriplePattern
	end := first
	for ; end < len(elems); end++ {
		tp, ok := elems[end].(TriplePattern)
		if !ok {
			break
		}
		pats = append(pats, tp)
	}
	progs := e.compileFilters(g.Filters)
	at := make([]int, len(progs))
	for k := range at {
		at[k] = -1
	}
	placeFilters(elems, progs, at)
	rest, later := elems[end:], g.Filters
	if slices.Contains(at, first) {
		// The filters pushed into the run are applied on ID rows; the rest
		// go with the elements after it (placed there exactly as the
		// materializing pipeline places them).
		later = nil
		for k, f := range g.Filters {
			if at[k] != first {
				later = append(later, f)
			}
		}
	}
	// With one pattern, no tail and no filters every scan match is a final
	// solution.
	direct := len(pats) == 1 && len(rest) == 0 && len(g.Filters) == 0

	if e.met != nil {
		e.met.RunsIDJoin.Inc()
	}
	run := e.newPatternRun(pats, runFilters{progs, at, first})
	r := &run
	// Driver accounting: pages pulled and scan matches produced, flushed
	// once on the way out (every return path) to metrics and — as the
	// run's first, "paged-scan" pattern stage — to the trace.
	var pages, scanned int
	var scanDur time.Duration
	defer func() {
		if e.met != nil {
			e.met.PagesScanned.Add(uint64(pages))
			e.met.RowsOut.Add(uint64(scanned))
		}
		if r.stages != nil {
			r.stages[0] = stage{ran: true, in: len(input), out: scanned, pages: pages, strats: []string{"paged-scan"}, dur: scanDur}
			e.flushRun(r)
		}
	}()
	ps, ok := r.positions(pats[0])
	if !ok {
		return nil
	}

	src := e.st
	rows := r.encode(input)
	emitted := 0
	epoch := src.LayoutEpoch()
	batchCap := streamBatchInit
	page := idRows{stride: rows.stride}
	for i := 0; i < rows.n(); i++ {
		row, parent := rows.row(i), rows.parents[i]
		ms, mp, mo := maskFor(ps, row)
		pos := 0
		for {
			if err := e.cancelled(); err != nil {
				return err
			}
			// Page size: the geometrically growing batch, clamped in
			// direct mode to the rows still owed (each match there is a
			// final solution, so scanning further is pure waste).
			max := batchCap
			if direct && budget >= 0 {
				if budget <= emitted {
					return nil
				}
				max = min(max, budget-emitted)
			}
			var start time.Time
			if r.stages != nil {
				start = time.Now()
			}
			page.ids, page.parents = page.ids[:0], page.parents[:0]
			next, done := src.ForEachIDPage(ms, mp, mo, pos, max, func(m store.IDTriple) bool {
				n := len(page.ids)
				page.ids = append(page.ids, row...)
				if idUnify(ps, page.ids[n:], m) {
					page.parents = append(page.parents, parent)
				} else {
					page.ids = page.ids[:n]
				}
				return true
			})
			if r.stages != nil {
				scanDur += time.Since(start)
			}
			pos = next
			pages++
			scanned += page.n()
			// A compaction between pages reshuffles positions: the page
			// just read may duplicate or skip triples, so discard it and
			// let the caller restart or abort.
			if src.LayoutEpoch() != epoch {
				return errScanShifted
			}
			// Lock released: finish the run on this page, then decode its
			// survivors and evaluate what follows the run.
			out, err := e.joinRun(r, 1, page, input)
			if err != nil {
				return err
			}
			batch := decodeIDRows(src, out, r.slotVars, input)
			if len(batch) > 0 && (len(rest) > 0 || len(later) > 0) {
				if batch, err = e.evalElems(rest, later, batch); err != nil {
					return err
				}
			}
			for _, b := range batch {
				emitted++
				if !emit(b) {
					return nil
				}
			}
			if done {
				break
			}
			if batchCap < streamBatchMax {
				batchCap *= 2
			}
		}
	}
	return nil
}

// topkEntry is one candidate in the bounded ORDER BY heap: the solution,
// its precomputed sort-key terms, and its arrival sequence (the stable-sort
// tiebreaker).
type topkEntry struct {
	sol  Binding
	keys []rdf.Term
	seq  int
}

// orderCmp orders entries exactly as the materializing path's stable sort
// does: key by key (unbound before bound per rdf.Compare, DESC negated),
// arrival order breaking ties. It never returns 0 — seq is unique.
func orderCmp(a, b topkEntry, keys []OrderKey) int {
	for k := range keys {
		c := rdf.Compare(a.keys[k], b.keys[k])
		if keys[k].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return a.seq - b.seq
}

// topkHeap is a max-heap under orderCmp: the root is the worst survivor,
// the one a better-sorting newcomer evicts.
type topkHeap struct {
	entries []topkEntry
	keys    []OrderKey
}

func (h *topkHeap) Len() int           { return len(h.entries) }
func (h *topkHeap) Less(i, j int) bool { return orderCmp(h.entries[i], h.entries[j], h.keys) > 0 }
func (h *topkHeap) Swap(i, j int)      { h.entries[i], h.entries[j] = h.entries[j], h.entries[i] }
func (h *topkHeap) Push(x any)         { h.entries = append(h.entries, x.(topkEntry)) }
func (h *topkHeap) Pop() any           { panic("topkHeap: never popped") }

// streamTopK streams the full solution set through a k-bounded heap and
// returns, in arrival order, exactly the k solutions the materializing
// path's stable sort would rank first. The shared modifier tail then
// re-sorts this reduced set, so the final rows are identical — but memory
// is O(k) and sorting costs O(n log k) instead of O(n log n).
func (e *engine) streamTopK(q *Query, k int) ([]Binding, error) {
	if k == 0 {
		return nil, nil
	}
	h := &topkHeap{keys: q.OrderBy, entries: make([]topkEntry, 0, min(k, 1024))}
	order := compileOrderKeys(q.OrderBy)
	var en env
	seq := 0
	err := e.streamSolutions(q.Where, -1, func(s Binding) bool {
		keys := make([]rdf.Term, len(q.OrderBy))
		en.b = s
		for i, fn := range order {
			if v, ok := fn(&en); ok {
				keys[i] = v.term()
			}
		}
		ent := topkEntry{sol: s, keys: keys, seq: seq}
		seq++
		if h.Len() < k {
			heap.Push(h, ent)
		} else if orderCmp(ent, h.entries[0], q.OrderBy) < 0 {
			h.entries[0] = ent
			heap.Fix(h, 0)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(h.entries, func(i, j int) bool { return h.entries[i].seq < h.entries[j].seq })
	sols := make([]Binding, len(h.entries))
	for i, ent := range h.entries {
		sols[i] = ent.sol
	}
	return sols, nil
}

// runDirect streams the OFFSET/LIMIT-windowed projected rows of a
// streamDirect-planned SELECT to emit, in materializing order, stopping
// the scan as soon as the window is filled (or emit declines). The window
// is enforced on the emit side; the scan budget only clamps the driver's
// pages.
func (e *engine) runDirect(q *Query, vars []string, emit func(Binding) bool) error {
	if q.Limit == 0 {
		return nil
	}
	budget := -1
	if q.Limit > 0 {
		budget = addBudget(q.Offset, q.Limit)
		if budget >= 0 && e.met != nil {
			e.met.PushdownHits.Inc()
		}
	}
	skipped, emitted := 0, 0
	p := newProjector(q, vars, false)
	return e.streamSolutions(q.Where, budget, func(sol Binding) bool {
		if skipped < q.Offset {
			skipped++
			return true
		}
		emitted++
		if !emit(p.project(sol)) {
			return false
		}
		return q.Limit < 0 || emitted < q.Limit
	})
}

// scanRestartAttempts bounds how often a streamed path restarts a scan the
// store compacted under before any row reached the consumer; past it, the
// snapshot-consistent materializing pipeline takes over (correct at any
// write rate, just not early-terminating).
const scanRestartAttempts = 3

// streamVars resolves the projected column names without evaluating: the
// explicit projection list in order, or for SELECT * every variable the
// pattern can bind, sorted. Both evaluation paths use this, so the header
// never depends on which rows a LIMIT kept. _-prefixed names are excluded
// to hide the parser's _anonN bnode variables — which also hides, as a
// documented side effect, user variables starting with '_' under SELECT *
// (explicit projection always works).
func streamVars(q *Query) []string {
	if !q.Star {
		vars := make([]string, 0, len(q.Projection))
		for _, item := range q.Projection {
			vars = append(vars, item.Var)
		}
		return vars
	}
	set := map[string]bool{}
	collectBindableVars(q.Where, set)
	out := make([]string, 0, len(set))
	for v := range set {
		if len(v) > 0 && v[0] != '_' {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// Stream is a prepared streaming query evaluation: parsing and planning
// happen at construction, so the column header is known before the first
// row, and Run delivers rows through a callback as they are found. The
// HTTP /sparql/stream endpoint and Dataset.QueryStream are built on it.
type Stream struct {
	e    *engine
	q    *Query
	vars []string
}

// PrepareStream parses and plans query for streaming delivery against src.
// Parse failures match ErrParse.
func PrepareStream(ctx context.Context, src Source, query string, opt Options) (*Stream, error) {
	q, err := Parse(query)
	if err != nil {
		return nil, err
	}
	return PrepareStreamQuery(ctx, src, q, opt), nil
}

// PrepareStreamQuery is PrepareStream over an already-parsed query.
func PrepareStreamQuery(ctx context.Context, src Source, q *Query, opt Options) *Stream {
	s := &Stream{e: newEngine(ctx, src, opt), q: q}
	if q.Form == FormSelect {
		s.vars = streamVars(q)
	}
	return s
}

// Vars returns the projected column names (nil for ASK).
func (s *Stream) Vars() []string { return s.vars }

// Form returns the query form (FormSelect streams rows via Run, FormAsk
// answers via Ask).
func (s *Stream) Form() QueryForm { return s.q.Form }

// Incremental reports whether Run delivers rows while evaluation is still
// in progress — and, when the query carries a LIMIT, stops scanning as soon
// as enough rows are out. False means the query's shape forces full
// evaluation first (ORDER BY, DISTINCT, grouping, UNION or SERVICE
// patterns); rows still arrive through the same callback, just only after
// the result set is complete.
func (s *Stream) Incremental() bool {
	return s.q.Form == FormSelect && planStream(s.q, true) == streamDirect
}

// Run evaluates a SELECT stream, calling emit for every result row in
// order — the same rows the materializing pipeline returns — until emit
// returns false. Errors match ErrEval.
func (s *Stream) Run(emit func(Binding) bool) error {
	if s.q.Form != FormSelect {
		return wrapEval(fmt.Errorf("sparql: Run on an ASK query; use Ask"))
	}
	_, err := s.e.evaluate(s.q, emit)
	return wrapEval(err)
}

// Ask answers an ASK stream, stopping at the first matching solution when
// the pattern qualifies for streaming. Errors match ErrEval.
func (s *Stream) Ask() (bool, error) {
	if s.q.Form != FormAsk {
		return false, wrapEval(fmt.Errorf("sparql: Ask on a SELECT query; use Run"))
	}
	res, err := s.e.evaluate(s.q, nil)
	if err != nil {
		return false, wrapEval(err)
	}
	return res.Ask, nil
}
