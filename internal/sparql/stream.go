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
// pages of a streamed scan, invalidating the positional cursor. The
// materialized fast paths react by restarting (and ultimately falling back
// to the snapshot-consistent materializing pipeline); an incremental
// stream that has already delivered rows surfaces it to the consumer.
var errScanShifted = errors.New("sparql: store layout changed during streamed scan")

// Streaming query evaluation. The materializing pipeline in query.go
// computes every solution, sorts and deduplicates the full set, and only
// then slices LIMIT/OFFSET — so an exploration query asking for the first
// screenful pays the full scan. The paths in this file make top-k the fast
// path instead:
//
//   - streamDirect: plain SELECT ... LIMIT k (+OFFSET) without ORDER BY,
//     DISTINCT, or grouping stops scanning after offset+k solutions, and
//     ASK stops at the first. Work scales with k, not with dataset size.
//   - streamTopK: ORDER BY ... LIMIT k keeps a bounded heap of the
//     offset+k best solutions while scanning, replacing the full
//     sort-then-slice: O(k) memory and O(n log k) comparisons.
//
// Both paths produce byte-identical rows in identical order to the
// materializing pipeline (Options.NoStream forces the latter; differential
// tests compare the two). Queries whose modifiers need the whole solution
// set — DISTINCT, GROUP BY, aggregates — and shapes whose evaluation is not
// row-local (UNION, SERVICE) stay on the materializing path.

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

// planStream classifies a query. streamDirect/streamTopK are only returned
// when the streamed rows are provably identical, in order, to the
// materializing pipeline's output, AND the driver can actually suspend a
// scan — a top-level triple pattern (after unwrapping redundant nesting).
// Without one, streaming would be a full evaluation wearing a streaming
// hat, so such queries honestly report the materializing path.
func planStream(q *Query) streamMode {
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
	if len(q.OrderBy) == 0 {
		return streamDirect
	}
	if q.Limit >= 0 {
		return streamTopK
	}
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
// expected row need: with no tail to join it clamps the scan's pages to the
// rows still owed, but emit alone decides when delivery stops. budget < 0
// streams the full solution set.
//
// The driver pages the suspended scan in ID space: each ForEachIDPage call
// does nothing under the store's read lock but unify-and-collect ID rows,
// and the page is then decoded with one Terms call, joined through the tail
// pipeline and handed to emit with the lock released — a nested scan inside
// the outer one would deadlock behind a queued writer, and a slow network
// consumer must not stall the store's writers. The flip side is isolation:
// a write landing between two pages is visible to the remainder of the scan
// (the materializing path keeps its one-snapshot-per-scan semantics).
func (e *engine) streamSolutions(g *Group, budget int, emit func(Binding) bool) error {
	g = unwrapGroup(g)
	elems := g.Elems
	if !e.noReorder {
		elems = e.reorderTriplePatterns(elems, nil)
		e.tracePlan(elems)
	}
	first := -1
	for i, el := range elems {
		if _, ok := el.(TriplePattern); ok {
			first = i
			break
		}
	}
	if first == -1 {
		// Defensive fallback — planStream requires a top-level pattern, so
		// driven paths never land here: evaluate outright and replay.
		sols, err := e.evalElems(elems, g.Filters, []Binding{{}})
		if err != nil {
			return err
		}
		for _, s := range sols {
			if !emit(s) {
				return nil
			}
		}
		return nil
	}

	// The prefix before the first pattern (BIND/VALUES seeds only, per
	// streamablePrefix) is tiny; the scan of the first pattern over its
	// output is the loop we suspend.
	input, err := e.evalElems(elems[:first], nil, []Binding{{}})
	if err != nil {
		return err
	}
	tp := elems[first].(TriplePattern)
	rest := elems[first+1:]
	// With no tail and no filters every scan match is a final solution.
	direct := len(rest) == 0 && len(g.Filters) == 0

	// Driver accounting: pages pulled and scan matches produced, flushed
	// once on the way out (every return path) to metrics and — as one
	// "paged-scan" pattern span — to the trace.
	var pages, driverRows int
	var driverStart time.Time
	if e.trace != nil {
		driverStart = time.Now()
	}
	defer func() {
		if e.met != nil {
			e.met.PagesScanned.Add(uint64(pages))
			e.met.RowsOut.Add(uint64(driverRows))
		}
		if e.trace != nil {
			sp := e.trace.Add(e.exec, "pattern")
			sp.Set(patternString(tp), "paged-scan", len(input), driverRows, driverStart)
			sp.SetPages(pages)
		}
	}()

	// Encode the pattern once: constants become IDs, variables slots of a
	// per-pattern row. A constant absent from the dictionary matches
	// nothing.
	src := e.st
	var ps [3]idPos
	var slotVars []string
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if !n.IsVar() {
			id, ok := src.LookupTermID(n.Term)
			if !ok {
				return nil
			}
			ps[i] = idPos{slot: -1, id: id}
			continue
		}
		slot := slices.Index(slotVars, n.Var)
		if slot < 0 {
			slot = len(slotVars)
			slotVars = append(slotVars, n.Var)
		}
		ps[i] = idPos{slot: slot}
	}

	emitted := 0
	deliver := func(rows []Binding) bool {
		for _, r := range rows {
			emitted++
			if !emit(r) {
				return false
			}
		}
		return true
	}

	epoch := src.LayoutEpoch()
	batchCap := streamBatchInit
	page := idRows{stride: len(slotVars)}
	row := make([]store.ID, len(slotVars))
	for bi, b := range input {
		// Encode the input binding once; a slot bound to a term absent
		// from the dictionary can match nothing.
		clear(row)
		dead := false
		for slot, v := range slotVars {
			if t, ok := b[v]; ok {
				id, inDict := src.LookupTermID(t)
				if !inDict {
					dead = true
					break
				}
				row[slot] = id
			}
		}
		if dead {
			continue
		}
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
				rem := remainingBudget(budget, emitted)
				if rem == 0 {
					return nil
				}
				if rem < max {
					max = rem
				}
			}
			page.ids, page.parents = page.ids[:0], page.parents[:0]
			next, done := src.ForEachIDPage(ms, mp, mo, pos, max, func(m store.IDTriple) bool {
				n := len(page.ids)
				page.ids = append(page.ids, row...)
				if idUnify(ps, page.ids[n:], m) {
					page.parents = append(page.parents, int32(bi))
				} else {
					page.ids = page.ids[:n]
				}
				return true
			})
			pos = next
			pages++
			driverRows += page.n()
			// A compaction between pages reshuffles positions: the page
			// just read may duplicate or skip triples, so discard it and
			// let the caller restart or abort.
			if src.LayoutEpoch() != epoch {
				return errScanShifted
			}
			// Lock released: decode, join and deliver this page's matches.
			batch := decodeIDRows(src, page, slotVars, input)
			if !direct && len(batch) > 0 {
				batch, err = e.evalElems(rest, g.Filters, batch)
				if err != nil {
					return err
				}
			}
			if !deliver(batch) {
				return nil
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

func remainingBudget(budget, emitted int) int {
	if budget < 0 {
		return -1
	}
	if r := budget - emitted; r > 0 {
		return r
	}
	return 0
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
// pages. Both evaluation entry points — the
// materialized fast path and the incremental Stream.Run — are this one
// loop, so modifier semantics cannot diverge between them.
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

// scanRestartAttempts bounds how often a materialized fast path restarts a
// scan the store compacted under; past it, the snapshot-consistent
// materializing pipeline takes over (correct at any write rate, just not
// early-terminating).
const scanRestartAttempts = 3

// evalStreamFast is the engine's early-termination entry: it handles the
// query shapes whose solution modifiers let evaluation stop before the full
// scan (ok=true), and declines (ok=false) when the query must materialize —
// including when concurrent compaction keeps shifting the paged scan out
// from under it. Results are always exactly what the materializing
// pipeline would return.
func (e *engine) evalStreamFast(q *Query) (res *Results, ok bool, err error) {
	switch planStream(q) {
	case streamDirect:
		if q.Form == FormAsk {
			for attempt := 0; attempt < scanRestartAttempts; attempt++ {
				found := false
				err := e.streamSolutions(q.Where, 1, func(Binding) bool {
					found = true
					return false
				})
				if errors.Is(err, errScanShifted) {
					continue
				}
				if err != nil {
					return nil, true, err
				}
				return &Results{Form: FormAsk, Ask: found}, true, nil
			}
			return nil, false, nil
		}
		if q.Limit < 0 {
			// Without a LIMIT the whole set is needed anyway; the
			// materializing pipeline is no slower and shares more code.
			return nil, false, nil
		}
		vars := streamVars(q)
		for attempt := 0; attempt < scanRestartAttempts; attempt++ {
			var rows []Binding
			err := e.runDirect(q, vars, func(r Binding) bool {
				rows = append(rows, r)
				return true
			})
			if errors.Is(err, errScanShifted) {
				continue
			}
			if err != nil {
				return nil, true, err
			}
			return &Results{Form: FormSelect, Vars: vars, Rows: rows}, true, nil
		}
		return nil, false, nil

	case streamTopK:
		k := addBudget(q.Offset, q.Limit)
		if k < 0 {
			// offset+limit overflows: no meaningful heap bound exists, and
			// a window that large is a full materialization anyway.
			return nil, false, nil
		}
		vars := streamVars(q)
		for attempt := 0; attempt < scanRestartAttempts; attempt++ {
			var sols []Binding
			if k > 0 {
				var err error
				sols, err = e.streamTopK(q, k)
				if errors.Is(err, errScanShifted) {
					continue
				}
				if err != nil {
					return nil, true, err
				}
			}
			hidden := hiddenOrdNames(len(q.OrderBy))
			rows := make([]Binding, 0, len(sols))
			p := newProjector(q, vars, true)
			for _, s := range sols {
				rows = append(rows, p.project(s))
			}
			sortRows(rows, q.OrderBy, hidden)
			stripHidden(rows, hidden)
			return &Results{Form: FormSelect, Vars: vars, Rows: sliceOffsetLimit(rows, q.Offset, q.Limit)}, true, nil
		}
		return nil, false, nil
	}
	return nil, false, nil
}

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
	opt  Options
	mode streamMode
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
	mode := planStream(q)
	if opt.NoStream {
		mode = streamNone
	}
	s := &Stream{e: newEngine(ctx, src, opt), q: q, opt: opt, mode: mode}
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
func (s *Stream) Incremental() bool { return s.mode == streamDirect && s.q.Form == FormSelect }

// Run evaluates a SELECT stream, calling emit for every result row in
// order — the same rows the materializing pipeline returns — until emit
// returns false. Errors match ErrEval.
func (s *Stream) Run(emit func(Binding) bool) error {
	if s.q.Form != FormSelect {
		return wrapEval(fmt.Errorf("sparql: Run on an ASK query; use Ask"))
	}
	switch s.mode {
	case streamDirect:
		if s.e.met != nil {
			s.e.met.QueriesStreamed.Inc()
		}
		for attempt := 0; attempt < scanRestartAttempts; attempt++ {
			delivered := false
			err := s.e.runDirect(s.q, s.vars, func(r Binding) bool {
				delivered = true
				return emit(r)
			})
			if errors.Is(err, errScanShifted) {
				if delivered {
					// Rows already reached the consumer; a restart would
					// duplicate them. Surface the conflict instead.
					return wrapEval(fmt.Errorf("%w; re-run the query", err))
				}
				continue // nothing delivered yet: restart transparently
			}
			return wrapEval(err)
		}
		// Compaction churn with nothing delivered: fall through to the
		// materialized replay below, which is snapshot-consistent.
		fallthrough
	default:
		// Materializing modes (top-k included) share the Results pipeline
		// and replay the finished rows.
		res, err := evalWithEngine(s.e, s.q, s.opt)
		if err != nil {
			return wrapEval(err)
		}
		for _, row := range res.Rows {
			if !emit(row) {
				return nil
			}
		}
		return nil
	}
}

// Ask answers an ASK stream, stopping at the first matching solution when
// the pattern qualifies for streaming. Errors match ErrEval.
func (s *Stream) Ask() (bool, error) {
	if s.q.Form != FormAsk {
		return false, wrapEval(fmt.Errorf("sparql: Ask on a SELECT query; use Run"))
	}
	res, err := evalWithEngine(s.e, s.q, s.opt)
	if err != nil {
		return false, wrapEval(err)
	}
	return res.Ask, nil
}
