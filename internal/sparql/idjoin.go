package sparql

import (
	"slices"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// ID-space evaluation of basic graph patterns, the engine's one pattern
// executor: a run of triple patterns is executed entirely over dictionary
// IDs. Input bindings are encoded once into a flat uint32 arena, each
// pattern either merge-joins a sorted permutation run (equal-prefix joins),
// probes the indexes per row, or cross-joins one shared scan, and terms are
// decoded in one batch only when the run's survivors become Bindings. Every
// strategy below emits, for each input row in input order, that row's
// matches in exactly the permutation order a per-row ForEachID scan would
// produce, so the choice of strategy never changes rows or row order. The
// differential tests check the results against a term-space reference
// evaluator (reference_test.go).

const (
	// mergeScanFactor bounds when a merge join pays: scanning an index range
	// of est entries beats per-row binary-search probes only while
	// est <= rows * mergeScanFactor (a probe costs ~log n comparisons plus
	// cache misses; a merge pass costs ~1 sequential read per entry).
	mergeScanFactor = 64
	// idTailMax bounds the uncompacted-delta suffix a merge join rescans per
	// input row; a delta burst past it falls back to per-row probes rather
	// than turning the merge into rows × delta linear work.
	idTailMax = 256
)

// idRows is a column-compressed intermediate solution set: row r occupies
// ids[r*stride : (r+1)*stride] in slot order (0 = slot unbound in that row),
// and parents[r] indexes the input Binding the row descends from.
type idRows struct {
	stride  int
	ids     []store.ID
	parents []int32
}

func (r *idRows) n() int { return len(r.parents) }

func (r *idRows) row(i int) []store.ID { return r.ids[i*r.stride : (i+1)*r.stride] }

// idPos classifies one pattern position: a constant's dictionary ID, or the
// slot index of its variable.
type idPos struct {
	slot int // -1 for a constant
	id   store.ID
}

// idTail is a pattern run's output in ID space: rows over the run's slots
// (slotVars names them), each descending from an input Binding.
type idTail struct {
	src      Source
	rows     idRows
	slotVars []string
	input    []Binding
}

// decode materializes the rows as Bindings (decodeIDRows).
func (t *idTail) decode() []Binding {
	return decodeIDRows(t.src, t.rows, t.slotVars, t.input)
}

// patternRun is one run of consecutive triple patterns prepared for ID-space
// evaluation: the slot table, the term→ID memo shared by every encode and
// join over the run, and the filters pushed into it. evalPatternRun encodes
// its input and joins it in one call; the streaming driver encodes once and
// joins page after page.
type patternRun struct {
	src     Source
	pats    []TriplePattern
	filters runFilters
	// slotVars names the row slots: every variable any pattern in the run
	// mentions, in first-mention order.
	slotVars []string
	// memo caches term→ID lookups (constants repeat across patterns, input
	// columns across rows); 0 records a known-absent term.
	memo map[rdf.Term]store.ID
	// stages, when tracing, accumulates one entry per pattern and then one
	// per filter prog across join calls; flushRun records them as spans.
	stages []stage
}

// stage is one pattern's or pushed filter's trace accounting, summed over
// every join call of its run.
type stage struct {
	ran     bool
	in, out int
	pages   int
	strats  []string // distinct strategies, in first-use order
	dur     time.Duration
}

func (s *stage) add(strat string, in, out int, start time.Time) {
	s.ran = true
	s.in += in
	s.out += out
	s.dur += time.Since(start)
	if !slices.Contains(s.strats, strat) {
		s.strats = append(s.strats, strat)
	}
}

func (e *engine) newPatternRun(pats []TriplePattern, filters runFilters) patternRun {
	r := patternRun{src: e.st, pats: pats, filters: filters, memo: map[rdf.Term]store.ID{}}
	for _, tp := range pats {
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() && !slices.Contains(r.slotVars, n.Var) {
				r.slotVars = append(r.slotVars, n.Var)
			}
		}
	}
	if e.trace != nil {
		r.stages = make([]stage, len(pats)+len(filters.progs))
	}
	return r
}

func (r *patternRun) lookup(t rdf.Term) (store.ID, bool) {
	if id, ok := r.memo[t]; ok {
		return id, id != 0
	}
	id, ok := r.src.LookupTermID(t)
	if !ok {
		id = 0
	}
	r.memo[t] = id
	return id, ok
}

// positions encodes a pattern of the run: constants become IDs, variables
// their slots. ok=false means a constant is absent from the dictionary, so
// no triple matches.
func (r *patternRun) positions(tp TriplePattern) (ps [3]idPos, ok bool) {
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			ps[i] = idPos{slot: slices.Index(r.slotVars, n.Var)}
			continue
		}
		id, ok := r.lookup(n.Term)
		if !ok {
			return ps, false
		}
		ps[i] = idPos{slot: -1, id: id}
	}
	return ps, true
}

// encode turns input bindings into rows over the run's slots. A binding
// whose slot term is absent from the dictionary can never survive the
// pattern mentioning that slot (every slot is mentioned by some pattern in
// the run), so its row is dropped — a probe with that term could match
// nothing.
func (r *patternRun) encode(input []Binding) idRows {
	stride := len(r.slotVars)
	rows := idRows{stride: stride, parents: make([]int32, 0, len(input))}
	if stride > 0 {
		rows.ids = make([]store.ID, 0, stride*len(input))
	}
	scratch := make([]store.ID, stride)
	for i, b := range input {
		clear(scratch)
		dead := false
		for s, v := range r.slotVars {
			t, bound := b[v]
			if !bound {
				continue
			}
			id, inDict := r.lookup(t)
			if !inDict {
				dead = true
				break
			}
			scratch[s] = id
		}
		if dead {
			continue
		}
		rows.ids = append(rows.ids, scratch...)
		rows.parents = append(rows.parents, int32(i))
	}
	return rows
}

// evalPatternRun evaluates a run of triple patterns over input, applies the
// filters pushed into the run, and returns the surviving rows undecoded.
func (e *engine) evalPatternRun(run []TriplePattern, filters runFilters, input []Binding) (idTail, error) {
	if e.met != nil {
		e.met.RunsIDJoin.Inc()
	}
	r := e.newPatternRun(run, filters)
	rows, err := e.joinRun(&r, 0, r.encode(input), input)
	e.flushRun(&r)
	if err != nil {
		return idTail{}, err
	}
	return idTail{src: r.src, rows: rows, slotVars: r.slotVars, input: input}, nil
}

// joinRun is the run's join loop: it extends rows (whose parents index
// input) through the patterns from r.pats[from] on, then applies the
// filters pushed into the run.
func (e *engine) joinRun(r *patternRun, from int, rows idRows, input []Binding) (idRows, error) {
	var boundAll, boundAny []bool
	for i := from; i < len(r.pats) && rows.n() > 0; i++ {
		if err := e.cancelled(); err != nil {
			return idRows{}, err
		}
		if boundAll == nil {
			boundAll, boundAny = slotState(rows)
		}
		tp := r.pats[i]
		var start time.Time
		if r.stages != nil {
			start = time.Now()
		}
		before := rows.n()
		var strat string
		var err error
		rows, strat, err = e.evalOnePatternIDs(r, tp, rows, boundAll, boundAny)
		if err != nil {
			return idRows{}, err
		}
		if r.stages != nil {
			r.stages[i].add(strat, before, rows.n(), start)
		}
		if e.met != nil {
			e.met.RowsOut.Add(uint64(rows.n()))
		}
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() && rows.n() > 0 {
				s := slices.Index(r.slotVars, n.Var)
				boundAll[s], boundAny[s] = true, true
			}
		}
	}
	return rows, e.filterIDRows(r, &rows, input)
}

// slotState classifies each slot across rows: boundAll slots join (their
// value keys a merge), fresh (!boundAny) slots are pure outputs, mixed slots
// force the generic probe.
func slotState(rows idRows) (boundAll, boundAny []bool) {
	boundAll = make([]bool, rows.stride)
	boundAny = make([]bool, rows.stride)
	for s := range boundAll {
		boundAll[s] = true
	}
	for i := 0; i < rows.n(); i++ {
		for s, id := range rows.row(i) {
			if id == 0 {
				boundAll[s] = false
			} else {
				boundAny[s] = true
			}
		}
	}
	return boundAll, boundAny
}

// filterIDRows applies the filters pushed into a pattern run to its ID rows
// in place, before anything is decoded: only the values the filters read
// are resolved, once per distinct ID through the query's memo.
func (e *engine) filterIDRows(r *patternRun, rows *idRows, input []Binding) error {
	filters := r.filters
	if !slices.Contains(filters.at, filters.first) || rows.n() == 0 {
		return nil
	}
	memo, shared := e.acquireMemo()
	defer e.releaseMemo(shared)
	stride := rows.stride
	var en env
	for k, f := range filters.progs {
		if filters.at[k] != filters.first {
			continue
		}
		var start time.Time
		if r.stages != nil {
			start = time.Now()
		}
		rb := newRowBinder(f.fr, f.layoutFor(r.slotVars), memo)
		rb.resolve(r.src, *rows)
		before, kept := rows.n(), 0
		for i := 0; i < before; i++ {
			if i%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return err
				}
			}
			// Rows before i may already be overwritten by survivors; row i
			// and the resolved cells (indexed by original row) are intact.
			rb.bind(&en, *rows, i, input[rows.parents[i]])
			if ebvTrue(f.fn, &en) {
				copy(rows.ids[kept*stride:], rows.row(i))
				rows.parents[kept] = rows.parents[i]
				kept++
			}
		}
		rows.ids = rows.ids[:kept*stride]
		rows.parents = rows.parents[:kept]
		if r.stages != nil {
			r.stages[len(r.pats)+k].add("id-filter", before, kept, start)
		}
		if kept == 0 {
			break
		}
	}
	return nil
}

// flushRun records a run's accumulated stages in the trace: one "pattern"
// span per pattern that ran, and each pushed filter as a "filter" span
// under the last of them.
func (e *engine) flushRun(r *patternRun) {
	var last *explain.Span
	for i, st := range r.stages {
		if !st.ran {
			continue
		}
		var sp *explain.Span
		var detail string
		if i < len(r.pats) {
			sp, detail = e.trace.Add(e.exec, "pattern"), patternString(r.pats[i])
			last = sp
		} else if last != nil {
			sp, detail = e.trace.Add(last, "filter"), exprString(r.filters.progs[i-len(r.pats)].expr)
		}
		sp.Set(detail, strings.Join(st.strats, "+"), st.in, st.out, time.Now().Add(-st.dur))
		sp.SetPages(st.pages)
	}
}

// evalOnePatternIDs extends rows by one pattern, picking the cheapest
// order-preserving strategy; the strategy chosen is returned for traces
// ("id-merge", "id-cross", "id-probe", or "id-empty" when a constant is
// absent from the dictionary).
func (e *engine) evalOnePatternIDs(r *patternRun, tp TriplePattern, rows idRows, boundAll, boundAny []bool) (idRows, string, error) {
	src := r.src
	ps, ok := r.positions(tp)
	if !ok {
		return idRows{stride: rows.stride}, "id-empty", nil
	}

	// Classify the pattern's variable slots against the current rows.
	repeated := repeatedSlot(ps)
	allFresh, mixed := true, false
	nBound, freshPositions, boundSlot := 0, 0, -1
	lead := store.PosAny
	positionOf := [3]store.Position{store.PosS, store.PosP, store.PosO}
	for i, p := range ps {
		if p.slot < 0 {
			continue
		}
		switch {
		case boundAll[p.slot]:
			allFresh = false
			nBound++
			boundSlot = p.slot
			lead = positionOf[i]
		case boundAny[p.slot]:
			allFresh = false
			mixed = true
		default:
			freshPositions++
		}
	}

	var cs, cp, co store.ID
	if ps[0].slot < 0 {
		cs = ps[0].id
	}
	if ps[1].slot < 0 {
		cp = ps[1].id
	}
	if ps[2].slot < 0 {
		co = ps[2].id
	}

	if allFresh {
		// No position constrains the rows: one shared scan crossed with
		// every row (repeated fresh variables filter inside idUnify).
		out, err := e.idScanCross(src, ps, cs, cp, co, rows)
		return out, "id-cross", err
	}
	if !mixed && !repeated && nBound >= 1 && freshPositions == 0 {
		// Existence merge: every variable slot is bound, so the pattern is
		// fully ground per row and matches at most one triple — emission
		// order is trivially the input row order, for any choice of lead.
		// One sorted scan over the constant mask replaces a per-row index
		// probe (and its lock acquisition); idUnify enforces the non-lead
		// bound slots.
		if est := src.EstimateCountIDs(cs, cp, co); est <= rows.n()*mergeScanFactor {
			for i, p := range ps {
				if p.slot < 0 || !boundAll[p.slot] {
					continue
				}
				out, ok, err := e.idMergeJoin(src, ps, cs, cp, co, p.slot, positionOf[i], rows)
				if err != nil || ok {
					return out, "id-merge", err
				}
			}
		}
	}
	if nBound == 1 && !mixed && !repeated && freshPositions > 0 &&
		// Ordering caveat: a bound predicate variable over an otherwise
		// unconstrained pattern would merge through PSO (sorted s,o) while
		// the per-row scan uses POS (sorted o,s) — the one lead/mask
		// combination whose per-key order differs. Probe keeps parity.
		!(lead == store.PosP && cs == 0 && co == 0) {
		if est := src.EstimateCountIDs(cs, cp, co); est <= rows.n()*mergeScanFactor {
			out, ok, err := e.idMergeJoin(src, ps, cs, cp, co, boundSlot, lead, rows)
			if err != nil || ok {
				return out, "id-merge", err
			}
		}
	}
	out, err := e.idProbe(src, ps, rows)
	return out, "id-probe", err
}

// idMergeJoin answers a single-join-variable pattern with one sorted range
// scan: ScanIDs materializes the matches ordered by the join position, the
// distinct row keys merge against that run in one pass, and each row then
// emits its key's span (plus delta-tail matches) — the same matches, in the
// same order, the per-row probe would produce. ok=false (no permutation for
// the lead, or an outsized delta tail) sends the caller to the probe path.
func (e *engine) idMergeJoin(src Source, ps [3]idPos, cs, cp, co store.ID, boundSlot int, lead store.Position, rows idRows) (idRows, bool, error) {
	scan, ok := src.ScanIDs(cs, cp, co, lead)
	if !ok {
		return idRows{}, false, nil
	}
	if len(scan.Tail) > idTailMax {
		return idRows{}, false, nil
	}
	keyOf := func(t store.IDTriple) store.ID {
		switch lead {
		case store.PosS:
			return t.S
		case store.PosP:
			return t.P
		default:
			return t.O
		}
	}

	keys := make([]store.ID, rows.n())
	sorted := true
	for r := range keys {
		keys[r] = rows.row(r)[boundSlot]
		if r > 0 && keys[r-1] > keys[r] {
			sorted = false
		}
	}
	uniq := slices.Clone(keys)
	if !sorted {
		// Rows that came out of an earlier merge or an index scan already
		// ascend by this slot; only genuinely shuffled inputs pay the sort.
		slices.Sort(uniq)
	}
	uniq = slices.Compact(uniq)

	// One linear merge: ascending distinct keys against the ascending run.
	// spans[j] is uniq[j]'s [lo,hi) window in Sorted; rows find theirs by
	// binary-searching uniq (cheaper than a hash map at these sizes).
	type span struct{ lo, hi int32 }
	spans := make([]span, len(uniq))
	i := 0
	for u, k := range uniq {
		for i < len(scan.Sorted) && keyOf(scan.Sorted[i]) < k {
			i++
		}
		lo := i
		for i < len(scan.Sorted) && keyOf(scan.Sorted[i]) == k {
			i++
		}
		spans[u] = span{int32(lo), int32(i)}
	}

	out := idRows{stride: rows.stride}
	scratch := make([]store.ID, rows.stride)
	steps := 0
	for r := 0; r < rows.n(); r++ {
		k := keys[r]
		u, _ := slices.BinarySearch(uniq, k)
		for _, m := range scan.Sorted[spans[u].lo:spans[u].hi] {
			steps++
			if steps%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return idRows{}, true, err
				}
			}
			copy(scratch, rows.row(r))
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[r])
			}
		}
		for _, m := range scan.Tail {
			if keyOf(m) != k {
				continue
			}
			copy(scratch, rows.row(r))
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[r])
			}
		}
	}
	if e.met != nil {
		e.met.MatchesScanned.Add(uint64(steps))
	}
	return out, true, nil
}

// idScanCross answers a pattern none of whose variables are bound yet: scan
// the constant mask once, then cross the matches with every row. Identical to
// probing each row — every row's probe would walk the same range in the same
// order — at 1/rows the scan cost.
func (e *engine) idScanCross(src Source, ps [3]idPos, cs, cp, co store.ID, rows idRows) (idRows, error) {
	matches := make([]store.IDTriple, 0, src.EstimateCountIDs(cs, cp, co))
	scanned := 0
	var stop error
	src.ForEachID(cs, cp, co, func(t store.IDTriple) bool {
		scanned++
		if scanned%cancelCheckInterval == 0 {
			if err := e.cancelled(); err != nil {
				stop = err
				return false
			}
		}
		matches = append(matches, t)
		return true
	})
	if stop != nil {
		return idRows{}, stop
	}
	if e.met != nil {
		e.met.MatchesScanned.Add(uint64(scanned))
	}
	out := idRows{stride: rows.stride}
	if !repeatedSlot(ps) {
		// No variable is bound yet, so without a repeated variable every
		// row meets every match: the output size is exact.
		n := rows.n() * len(matches)
		out.ids = make([]store.ID, 0, n*rows.stride)
		out.parents = make([]int32, 0, n)
	}
	scratch := make([]store.ID, rows.stride)
	steps := 0
	for r := 0; r < rows.n(); r++ {
		row := rows.row(r)
		for _, m := range matches {
			steps++
			if steps%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return idRows{}, err
				}
			}
			copy(scratch, row)
			if idUnify(ps, scratch, m) {
				out.ids = append(out.ids, scratch...)
				out.parents = append(out.parents, rows.parents[r])
			}
		}
	}
	return out, nil
}

// repeatedSlot reports whether a variable occurs twice in the pattern.
func repeatedSlot(ps [3]idPos) bool {
	for i, p := range ps {
		for j := 0; j < i; j++ {
			if p.slot >= 0 && ps[j].slot == p.slot {
				return true
			}
		}
	}
	return false
}

// idProbe is the general per-row strategy: build the mask from the row's
// slots (maskFor) and scan the matching range. Large row sets fan out to
// the engine's worker pool with an index-sequenced merge preserving order.
func (e *engine) idProbe(src Source, ps [3]idPos, rows idRows) (idRows, error) {
	return e.parProbe(rows.n(), rows.stride, func(lo, hi int) (idRows, error) {
		out := idRows{stride: rows.stride}
		scratch := make([]store.ID, rows.stride)
		scanned := 0
		for r := lo; r < hi; r++ {
			if (r-lo)%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return idRows{}, err
				}
			}
			row := rows.row(r)
			s, p, o := maskFor(ps, row)
			var stop error
			src.ForEachID(s, p, o, func(m store.IDTriple) bool {
				scanned++
				if scanned%cancelCheckInterval == 0 {
					if err := e.cancelled(); err != nil {
						stop = err
						return false
					}
				}
				copy(scratch, row)
				if idUnify(ps, scratch, m) {
					out.ids = append(out.ids, scratch...)
					out.parents = append(out.parents, rows.parents[r])
				}
				return true
			})
			if stop != nil {
				return idRows{}, stop
			}
		}
		if e.met != nil {
			e.met.MatchesScanned.Add(uint64(scanned))
		}
		return out, nil
	})
}

// maskFor builds the scan mask for one row: constants keep their IDs,
// bound slots contribute the row's value, unbound slots scan as wildcards.
func maskFor(ps [3]idPos, row []store.ID) (s, p, o store.ID) {
	get := func(p idPos) store.ID {
		if p.slot < 0 {
			return p.id
		}
		return row[p.slot]
	}
	return get(ps[0]), get(ps[1]), get(ps[2])
}

// idUnify folds a match into a row copy: bound slots must agree with the
// match (repeated variables included — the second occurrence sees the
// first's assignment), unbound slots take the match's value.
func idUnify(ps [3]idPos, row []store.ID, m store.IDTriple) bool {
	vals := [3]store.ID{m.S, m.P, m.O}
	for i, p := range ps {
		if p.slot < 0 {
			continue // constants are enforced by the scan mask
		}
		if cur := row[p.slot]; cur != 0 {
			if cur != vals[i] {
				return false
			}
		} else {
			row[p.slot] = vals[i]
		}
	}
	return true
}

// decodeIDRows materializes the run's survivors: one batch ID→term decode,
// then one parent clone plus the run's new columns per row.
func decodeIDRows(src Source, rows idRows, slotVars []string, input []Binding) []Binding {
	if rows.n() == 0 {
		return nil
	}
	terms := src.Terms(rows.ids)
	out := make([]Binding, 0, rows.n())
	for r := 0; r < rows.n(); r++ {
		nb := input[rows.parents[r]].clone()
		base := r * rows.stride
		for s, v := range slotVars {
			if rows.ids[base+s] == 0 {
				continue
			}
			if _, bound := nb[v]; bound {
				continue
			}
			nb[v] = terms[base+s]
		}
		out = append(out, nb)
	}
	return out
}

// parProbe runs fn over contiguous [lo,hi) chunks of n rows on the engine's
// worker pool (parChunks) and concatenates the chunk outputs in index order.
func (e *engine) parProbe(n, stride int, fn func(lo, hi int) (idRows, error)) (idRows, error) {
	parts, err := parChunks(e, n, fn)
	if err != nil {
		return idRows{}, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	out := idRows{stride: stride}
	for _, p := range parts {
		out.ids = append(out.ids, p.ids...)
		out.parents = append(out.parents, p.parents...)
	}
	return out, nil
}
