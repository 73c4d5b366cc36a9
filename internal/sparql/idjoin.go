package sparql

import (
	"slices"
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

// evalPatternRun evaluates a run of triple patterns over input, applies the
// filters pushed into the run, and returns the surviving rows undecoded.
func (e *engine) evalPatternRun(run []TriplePattern, filters runFilters, input []Binding) (idTail, error) {
	if e.met != nil {
		e.met.RunsIDJoin.Inc()
	}
	src := e.st
	// Slot table: every variable any pattern in the run mentions.
	slotOf := map[string]int{}
	var slotVars []string
	for _, tp := range run {
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() {
				if _, ok := slotOf[n.Var]; !ok {
					slotOf[n.Var] = len(slotVars)
					slotVars = append(slotVars, n.Var)
				}
			}
		}
	}
	stride := len(slotVars)

	// Term→ID memo shared by the run (constants repeat across patterns,
	// input columns repeat across rows). 0 records a known-absent term.
	memo := map[rdf.Term]store.ID{}
	lookup := func(t rdf.Term) (store.ID, bool) {
		if id, ok := memo[t]; ok {
			return id, id != 0
		}
		id, ok := src.LookupTermID(t)
		if !ok {
			id = 0
		}
		memo[t] = id
		return id, ok
	}

	// Encode the input. A binding whose slot term is absent from the
	// dictionary can never survive the pattern mentioning that slot (every
	// slot is mentioned by some pattern in the run), so the row is dropped —
	// a probe with that term could match nothing.
	rows := idRows{stride: stride, parents: make([]int32, 0, len(input))}
	if stride > 0 {
		rows.ids = make([]store.ID, 0, stride*len(input))
	}
	scratch := make([]store.ID, stride)
	for i, b := range input {
		clear(scratch)
		dead := false
		for s, v := range slotVars {
			t, bound := b[v]
			if !bound {
				continue
			}
			id, inDict := lookup(t)
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

	// Per-slot binding state across the surviving rows: boundAll slots join
	// (their value keys a merge), fresh (!boundAny) slots are pure outputs,
	// mixed slots force the generic probe.
	boundAll := make([]bool, stride)
	boundAny := make([]bool, stride)
	for s := range boundAll {
		boundAll[s] = rows.n() > 0
	}
	for r := 0; r < rows.n(); r++ {
		for s, id := range rows.row(r) {
			if id == 0 {
				boundAll[s] = false
			} else {
				boundAny[s] = true
			}
		}
	}

	var lastSpan *explain.Span
	for _, tp := range run {
		if err := e.cancelled(); err != nil {
			return idTail{}, err
		}
		if rows.n() == 0 {
			break
		}
		var start time.Time
		if e.trace != nil {
			start = time.Now()
		}
		before := rows.n()
		var strat string
		var err error
		rows, strat, err = e.evalOnePatternIDs(src, tp, rows, slotOf, boundAll, boundAny, lookup)
		if err != nil {
			return idTail{}, err
		}
		if e.trace != nil {
			lastSpan = e.trace.Add(e.exec, "pattern")
			lastSpan.Set(patternString(tp), strat, before, rows.n(), start)
		}
		if e.met != nil {
			e.met.RowsOut.Add(uint64(rows.n()))
		}
		for _, n := range [3]Node{tp.S, tp.P, tp.O} {
			if n.IsVar() && rows.n() > 0 {
				s := slotOf[n.Var]
				boundAll[s], boundAny[s] = true, true
			}
		}
	}
	t := idTail{src: src, rows: rows, slotVars: slotVars, input: input}
	if err := e.filterIDRows(&t, filters, lastSpan); err != nil {
		return idTail{}, err
	}
	return t, nil
}

// filterIDRows applies the filters pushed into a pattern run to its ID rows
// in place, before anything is decoded: only the values the filters read
// are resolved, once per distinct ID through the query's memo. Each filter
// is traced as a "filter" span under the run's last pattern span.
func (e *engine) filterIDRows(t *idTail, filters runFilters, runSpan *explain.Span) error {
	if !slices.Contains(filters.at, filters.first) || t.rows.n() == 0 {
		return nil
	}
	memo, shared := e.acquireMemo()
	defer e.releaseMemo(shared)
	stride := t.rows.stride
	var en env
	for k, f := range filters.progs {
		if filters.at[k] != filters.first {
			continue
		}
		var start time.Time
		if e.trace != nil {
			start = time.Now()
		}
		rb := newRowBinder(f.fr, f.layoutFor(t.slotVars), memo)
		rb.resolve(t.src, t.rows)
		before, kept := t.rows.n(), 0
		for r := 0; r < before; r++ {
			if r%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					return err
				}
			}
			// Rows before r may already be overwritten by survivors; row r
			// and the resolved cells (indexed by original row) are intact.
			rb.bind(&en, t.rows, r, t.input[t.rows.parents[r]])
			if ebvTrue(f.fn, &en) {
				copy(t.rows.ids[kept*stride:], t.rows.row(r))
				t.rows.parents[kept] = t.rows.parents[r]
				kept++
			}
		}
		t.rows.ids = t.rows.ids[:kept*stride]
		t.rows.parents = t.rows.parents[:kept]
		if runSpan != nil {
			e.trace.Add(runSpan, "filter").Set(exprString(f.expr), "id-filter", before, kept, start)
		}
		if kept == 0 {
			break
		}
	}
	return nil
}

// evalOnePatternIDs extends rows by one pattern, picking the cheapest
// order-preserving strategy; the strategy chosen is returned for traces
// ("id-merge", "id-cross", "id-probe", or "id-empty" when a constant is
// absent from the dictionary).
func (e *engine) evalOnePatternIDs(src Source, tp TriplePattern, rows idRows, slotOf map[string]int, boundAll, boundAny []bool, lookup func(rdf.Term) (store.ID, bool)) (idRows, string, error) {
	var ps [3]idPos
	for i, n := range [3]Node{tp.S, tp.P, tp.O} {
		if n.IsVar() {
			ps[i] = idPos{slot: slotOf[n.Var]}
		} else {
			id, ok := lookup(n.Term)
			if !ok {
				return idRows{stride: rows.stride}, "id-empty", nil // constant not in dictionary: no triple matches
			}
			ps[i] = idPos{slot: -1, id: id}
		}
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
