package sparql

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// cancelCheckInterval is how many bindings a probe loop processes between
// context checks: coarse enough that the check is free on the hot path, fine
// enough that a cancelled query stops within microseconds.
const cancelCheckInterval = 256

// engine evaluates parsed queries against a store.
type engine struct {
	// ctx bounds the evaluation; the probe loops poll it so a cancelled or
	// timed-out query stops mid-scan instead of running to completion.
	ctx context.Context
	st  Source
	// par is the BGP worker count; <=1 evaluates sequentially.
	par int
	// sem is the engine-wide budget of extra worker slots (par-1 tokens),
	// shared by nested parMap calls so total fan-out stays bounded.
	sem chan struct{}
	// noReorder disables cost-based join reordering (tests compare the
	// naive textual order against the planned order).
	noReorder bool
	// noIDJoin forces the term-space hash path for triple-pattern runs even
	// when the source is an IDSource (differential tests compare it against
	// the dictionary-ID path).
	noIDJoin bool
	// svc evaluates SERVICE clauses; nil means federation is not wired.
	svc ServiceEvaluator
	// met receives aggregate counters; nil (the common case) costs one
	// pointer check per flush site.
	met *Metrics
	// trace receives the execution span tree; nil disables tracing. exec is
	// the "execute" span pattern stages attach under (nil = trace root).
	trace *explain.Trace
	exec  *explain.Span
	// cards lazily caches the store's per-predicate cardinality table for
	// the duration of one query; cardsOnce makes the fetch safe from
	// concurrent worker goroutines.
	cards     map[rdf.IRI]store.PredCardinality
	cardsOnce sync.Once
	// memo is the query's ID→term cache for ID-space expression
	// evaluation, lent to one step at a time (acquireMemo).
	memoMu sync.Mutex
	memo   *idMemo
	// progs caches each group's compiled filters (compileFilters).
	progMu sync.Mutex
	progs  map[*Expr][]*filterProg
}

// evalGroup evaluates a group graph pattern, extending each input binding.
func (e *engine) evalGroup(g *Group, input []Binding) ([]Binding, error) {
	return e.evalElems(e.planElems(g), g.Filters, input)
}

// planElems returns the group's elements in evaluation order.
func (e *engine) planElems(g *Group) []GroupElem {
	return e.planElemsBound(g, nil)
}

// planElemsBound is planElems for a group whose input rows already bind the
// variables in bound (an OPTIONAL's inner group: its outer rows).
func (e *engine) planElemsBound(g *Group, bound map[string]bool) []GroupElem {
	if e.noReorder {
		return g.Elems
	}
	elems := e.reorderTriplePatterns(g.Elems, bound)
	e.tracePlan(elems)
	return elems
}

// tracePlan records the planned pattern order as a "plan" span. Only groups
// containing at least two patterns are recorded — a single pattern has no
// join order worth explaining, and OPTIONAL's per-binding inner groups
// would otherwise flood the trace.
func (e *engine) tracePlan(elems []GroupElem) {
	if e.trace == nil {
		return
	}
	var pats []string
	for _, el := range elems {
		if tp, ok := el.(TriplePattern); ok {
			pats = append(pats, patternString(tp))
		}
	}
	if len(pats) < 2 {
		return
	}
	sp := e.trace.Add(e.exec, "plan")
	sp.Set(strings.Join(pats, " . "), "", 0, 0, time.Time{})
}

// nodeString renders a pattern position: "?v" for variables, the term's
// lexical form for constants.
func nodeString(n Node) string {
	if n.IsVar() {
		return "?" + n.Var
	}
	return n.Term.String()
}

// patternString renders a triple pattern for trace details.
func patternString(tp TriplePattern) string {
	return nodeString(tp.S) + " " + nodeString(tp.P) + " " + nodeString(tp.O)
}

// evalElems evaluates an already-planned element sequence plus the group's
// filters. The streaming driver calls it directly with the tail of a
// reordered group so batched evaluation follows the exact plan the
// materializing path would use (re-planning the tail in isolation could
// pick a different join order and therefore a different row order).
func (e *engine) evalElems(elems []GroupElem, filters []Expr, input []Binding) ([]Binding, error) {
	sols, _, err := e.evalElemsTail(elems, filters, input, false)
	return sols, err
}

// evalElemsTail is evalElems with filter pushdown and an optional undecoded
// tail. On the ID executor, each filter whose variables a pattern run binds
// is applied to that run's ID rows (see placeFilters); the rest apply, as
// the spec orders, to the group's solutions at the end. With wantTail set,
// a sequence ending in a pattern run with no filter left for the end
// returns that run's rows undecoded (sols nil) for grouping.
func (e *engine) evalElemsTail(elems []GroupElem, filters []Expr, input []Binding, wantTail bool) ([]Binding, *idTail, error) {
	progs := e.compileFilters(filters)
	// at[k] is where filter k applies: the first element of the pattern
	// run it is pushed into, or -1 for the group's end.
	var atBuf [8]int
	at := atBuf[:0]
	for range progs {
		at = append(at, -1)
	}
	if _, ok := e.idSource(); ok {
		placeFilters(elems, progs, at)
	}
	cur := input
	for i := 0; i < len(elems); i++ {
		if err := e.cancelled(); err != nil {
			return nil, nil, err
		}
		var err error
		switch el := elems[i].(type) {
		case TriplePattern:
			// Gather the maximal run of consecutive triple patterns: the run
			// evaluates as one unit so the ID-space executor (idjoin.go) can
			// keep intermediate rows dictionary-encoded across the joins and
			// its pushed filters, and decode terms once at the end.
			first := i
			run := []TriplePattern{el}
			for i+1 < len(elems) {
				next, ok := elems[i+1].(TriplePattern)
				if !ok {
					break
				}
				run = append(run, next)
				i++
			}
			var t idTail
			cur, t, err = e.runPatterns(run, runFilters{progs, at, first}, cur)
			if t.src != nil {
				if wantTail && i == len(elems)-1 && !slices.ContainsFunc(at, func(a int) bool { return a < 0 }) {
					tail := t // a copy, so t need not escape on every run
					return nil, &tail, nil
				}
				cur = t.decode()
			}
		case SubGroup:
			cur, err = e.evalGroup(el.Inner, cur)
		case Optional:
			cur, err = e.evalOptional(el, cur)
		case Union:
			cur, err = e.evalUnion(el, cur)
		case Bind:
			cur, err = e.evalBind(el, cur)
		case Values:
			cur = evalValues(el, cur)
		case Service:
			cur, err = e.evalService(el, cur)
		default:
			err = fmt.Errorf("sparql: unknown group element %T", el)
		}
		if err != nil {
			return nil, nil, err
		}
		if len(cur) == 0 {
			break
		}
	}
	// The remaining filters apply to the whole group's solutions.
	for k, p := range progs {
		if at[k] >= 0 {
			continue
		}
		var en env
		filtered := cur[:0:0]
		for _, b := range cur {
			en.b = b
			if ebvTrue(p.fn, &en) {
				filtered = append(filtered, b)
			}
		}
		cur = filtered
	}
	return cur, nil, nil
}

// filterProg is a compiled group filter.
type filterProg struct {
	expr Expr
	fn   evalFn
	fr   *frame // the variables the filter reads
	// layout is the last run layout the filter was bound to: an OPTIONAL
	// inner group re-evaluates the same run once per outer row.
	layout atomic.Pointer[frameLayout]
}

// layoutFor returns the filter's frame layout over a run's slots.
func (p *filterProg) layoutFor(slotVars []string) *frameLayout {
	if l := p.layout.Load(); l != nil && slices.Equal(l.slotVars, slotVars) {
		return l
	}
	l := newFrameLayout(p.fr, slotVars)
	p.layout.Store(l)
	return l
}

// compileFilters compiles a group's filters once per query: OPTIONAL
// inner groups and streamed tails evaluate the same group many times.
// Groups are identified by their filter slice, which the AST owns.
func (e *engine) compileFilters(filters []Expr) []*filterProg {
	if len(filters) == 0 {
		return nil
	}
	key := &filters[0]
	e.progMu.Lock()
	defer e.progMu.Unlock()
	if progs, ok := e.progs[key]; ok && len(progs) == len(filters) {
		return progs
	}
	progs := make([]*filterProg, len(filters))
	for i, f := range filters {
		fn, fr := compileExpr(f)
		progs[i] = &filterProg{expr: f, fn: fn, fr: fr}
	}
	if e.progs == nil {
		e.progs = map[*Expr][]*filterProg{}
	}
	e.progs[key] = progs
	return progs
}

// placeFilters decides filter pushdown for a planned element sequence,
// setting at[i] to the index of the first element of the pattern run
// filter i moves into; it stays -1 when the filter stays at the group's end. A filter moves into the
// first run whose patterns mention every variable it reads. Every such
// variable is bound in every row the run emits, and later elements only
// extend rows, so the filter sees the same values there as at the group's
// end and rejects the same rows — earlier, before they are decoded or
// joined further. A run is skipped when a later element BINDs one of its
// variables: that BIND fails the query on any surviving row, and an early
// filter must not hide the error by emptying the run.
func placeFilters(elems []GroupElem, progs []*filterProg, at []int) {
	if len(progs) == 0 {
		return
	}
	var vars []string
	for i := 0; i < len(elems); {
		if _, ok := elems[i].(TriplePattern); !ok {
			i++
			continue
		}
		first := i
		vars = vars[:0]
		for ; i < len(elems); i++ {
			tp, ok := elems[i].(TriplePattern)
			if !ok {
				break
			}
			for _, n := range [3]Node{tp.S, tp.P, tp.O} {
				if n.IsVar() {
					vars = append(vars, n.Var)
				}
			}
		}
		if bindsAny(elems[i:], vars) {
			continue
		}
		for k, p := range progs {
			if at[k] < 0 && coveredBy(p.fr.vars, vars) {
				at[k] = first
			}
		}
	}
}

// runFilters selects the filters pushed into the pattern run starting at
// element first.
type runFilters struct {
	progs []*filterProg
	at    []int
	first int
}

func coveredBy(vars, bound []string) bool {
	for _, v := range vars {
		if !slices.Contains(bound, v) {
			return false
		}
	}
	return true
}

// bindsAny reports whether any element, at any nesting depth, BINDs one of
// vars.
func bindsAny(elems []GroupElem, vars []string) bool {
	for _, el := range elems {
		switch el := el.(type) {
		case Bind:
			if slices.Contains(vars, el.Var) {
				return true
			}
		case SubGroup:
			if bindsAny(el.Inner.Elems, vars) {
				return true
			}
		case Optional:
			if bindsAny(el.Inner.Elems, vars) {
				return true
			}
		case Union:
			if bindsAny(el.Left.Elems, vars) || bindsAny(el.Right.Elems, vars) {
				return true
			}
		}
	}
	return false
}

// reorderTriplePatterns greedily orders runs of triple patterns by estimated
// cost: at each step it picks the pattern with the smallest expected fan-out
// given the variables already bound, so `?s :special "yes"` beats
// `?s rdf:type :Item`, and a pattern joining on an already-bound variable
// beats an unconstrained scan, regardless of author order. Estimates combine
// the store's exact index-range counts over the constant positions with the
// per-predicate cardinality table (store.Cardinalities) for join positions.
// Non-pattern elements keep their positions. seed names the variables the
// group's input rows bind before its first element (nil for none); it is
// not modified.
func (e *engine) reorderTriplePatterns(elems []GroupElem, seed map[string]bool) []GroupElem {
	out := make([]GroupElem, 0, len(elems))
	bound := maps.Clone(seed)
	if bound == nil {
		bound = map[string]bool{}
	}
	i := 0
	for i < len(elems) {
		tp, ok := elems[i].(TriplePattern)
		if !ok {
			collectVars(elems[i], bound)
			out = append(out, elems[i])
			i++
			continue
		}
		// Collect the contiguous run of triple patterns.
		run := []TriplePattern{tp}
		j := i + 1
		for j < len(elems) {
			next, ok := elems[j].(TriplePattern)
			if !ok {
				break
			}
			run = append(run, next)
			j++
		}
		// Base estimates over the constant positions are independent of
		// the bound set; compute them once per run, not once per greedy
		// step.
		bases := make([]float64, len(run))
		for k, cand := range run {
			bases[k] = float64(e.estimate(cand))
		}
		// Greedy selection: repeatedly pick the cheapest pattern given
		// the variables bound so far. Ties go to the more-bound pattern,
		// then to textual order (stable across runs).
		for len(run) > 0 {
			best := 0
			bestCost := e.fanoutWithBase(run[0], bases[0], bound)
			bestScore := patternScore(run[0], bound)
			for k := 1; k < len(run); k++ {
				c := e.fanoutWithBase(run[k], bases[k], bound)
				s := patternScore(run[k], bound)
				if c < bestCost || (c == bestCost && s > bestScore) {
					best, bestCost, bestScore = k, c, s
				}
			}
			chosen := run[best]
			run = append(run[:best], run[best+1:]...)
			bases = append(bases[:best], bases[best+1:]...)
			out = append(out, chosen)
			for _, n := range []Node{chosen.S, chosen.P, chosen.O} {
				if n.IsVar() {
					bound[n.Var] = true
				}
			}
		}
		i = j
	}
	return out
}

// estimate returns the store's cardinality estimate for the pattern's
// constant positions.
func (e *engine) estimate(tp TriplePattern) int {
	var pat store.Pattern
	if !tp.S.IsVar() {
		pat.S = tp.S.Term
	}
	if !tp.P.IsVar() {
		pat.P = tp.P.Term
	}
	if !tp.O.IsVar() {
		pat.O = tp.O.Term
	}
	return e.st.EstimateCount(pat)
}

// estimateFanout estimates how many solutions evaluating tp produces per
// input binding, given the variables bound by earlier elements. The base is
// the exact index-range count over the constant positions; each variable
// position that is already bound by a join divides the base by that
// position's distinct-value count (per-predicate when the predicate is
// constant, the dictionary size as an optimistic fallback otherwise), since a
// concrete join value selects ~1/distinct of the range.
func (e *engine) estimateFanout(tp TriplePattern, bound map[string]bool) float64 {
	return e.fanoutWithBase(tp, float64(e.estimate(tp)), bound)
}

// fanoutWithBase is estimateFanout with the constant-position base estimate
// supplied by the caller (the reorder loop caches it per run).
func (e *engine) fanoutWithBase(tp TriplePattern, base float64, bound map[string]bool) float64 {
	if base == 0 {
		return 0
	}
	var card store.PredCardinality
	haveCard := false
	if !tp.P.IsVar() {
		if p, ok := tp.P.Term.(rdf.IRI); ok {
			card, haveCard = e.allCards()[p]
		}
	}
	div := func(perPred int) float64 {
		if haveCard && perPred > 0 {
			return float64(perPred)
		}
		if n := e.st.NumTerms(); n > 0 {
			return float64(n)
		}
		return 1
	}
	est := base
	if tp.S.IsVar() && bound[tp.S.Var] {
		est /= div(card.DistinctSubjects)
	}
	if tp.O.IsVar() && bound[tp.O.Var] {
		est /= div(card.DistinctObjects)
	}
	if tp.P.IsVar() && bound[tp.P.Var] {
		// No per-position stat for predicates; assume they are few.
		est /= float64(len(e.allCards()) + 1)
	}
	return est
}

// allCards returns the per-predicate cardinality table, fetching it once per
// query.
func (e *engine) allCards() map[rdf.IRI]store.PredCardinality {
	e.cardsOnce.Do(func() { e.cards = e.st.Cardinalities() })
	return e.cards
}

func collectVars(el GroupElem, bound map[string]bool) {
	switch el := el.(type) {
	case Bind:
		bound[el.Var] = true
	case Values:
		for _, v := range el.Vars {
			bound[v] = true
		}
	case Service:
		collectBindableVars(el.Inner, bound)
	}
}

// patternScore is the reorder tie-breaker: how many positions are bound,
// weighted S > O > P to favor the store's cheapest index scans.
func patternScore(tp TriplePattern, bound map[string]bool) int {
	score := 0
	isBound := func(n Node) bool { return !n.IsVar() || bound[n.Var] }
	if isBound(tp.S) {
		score += 4
	}
	if isBound(tp.O) {
		score += 2
	}
	if isBound(tp.P) {
		score++
	}
	return score
}

// cancelled returns the context's error once the context is done, nil
// otherwise (and always nil for the background context).
func (e *engine) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	return e.ctx.Err()
}

// evalTriplePattern extends each binding with matches from the store. Large
// binding sets are partitioned into chunks and probed concurrently by the
// engine's worker pool; the index-sequenced merge keeps the output order
// identical to the sequential loop.
func (e *engine) evalTriplePattern(tp TriplePattern, input []Binding) ([]Binding, error) {
	return e.evalTriplePatternCap(tp, input, -1)
}

// evalTriplePatternCap is evalTriplePattern with a row budget: when the
// pattern is the query's final join stage, only the first cap rows of its
// output can reach the client, so chunks stop probing once they hold cap
// rows and the parallel merge skips chunks the committed prefix has already
// made unreachable. cap < 0 means unlimited.
func (e *engine) evalTriplePatternCap(tp TriplePattern, input []Binding, cap int) ([]Binding, error) {
	return e.parMapCap(input, cap, func(chunk []Binding, chunkCap int) ([]Binding, error) {
		return e.evalTriplePatternChunk(tp, chunk, chunkCap)
	})
}

// evalTriplePatternChunk is the sequential probe loop over one chunk,
// producing at most cap rows (cap < 0 = unlimited). It polls the engine
// context every cancelCheckInterval bindings, and inside a single large
// index scan every cancelCheckInterval matches, so even a one-pattern full
// scan honors cancellation.
func (e *engine) evalTriplePatternChunk(tp TriplePattern, input []Binding, cap int) ([]Binding, error) {
	var out []Binding
	var scanned int
	var stop error
	for i, b := range input {
		if cap >= 0 && len(out) >= cap {
			break
		}
		if i%cancelCheckInterval == 0 {
			if err := e.cancelled(); err != nil {
				return nil, err
			}
		}
		pat, vars := concretize(tp, b)
		e.st.ForEach(pat, func(t rdf.Triple) bool {
			scanned++
			if scanned%cancelCheckInterval == 0 {
				if err := e.cancelled(); err != nil {
					stop = err
					return false
				}
			}
			nb, ok := unify(b, vars, t)
			if ok {
				out = append(out, nb)
				if cap >= 0 && len(out) >= cap {
					return false
				}
			}
			return true
		})
		if stop != nil {
			return nil, stop
		}
	}
	e.met.addScan(scanned, len(out))
	return out, nil
}

// concretize substitutes bound variables into the pattern, returning the
// store pattern and the residual variable names per position (empty = bound).
func concretize(tp TriplePattern, b Binding) (store.Pattern, [3]string) {
	var pat store.Pattern
	var vars [3]string
	resolve := func(n Node) (rdf.Term, string) {
		if !n.IsVar() {
			return n.Term, ""
		}
		if t, ok := b[n.Var]; ok {
			return t, ""
		}
		return nil, n.Var
	}
	pat.S, vars[0] = resolve(tp.S)
	pat.P, vars[1] = resolve(tp.P)
	pat.O, vars[2] = resolve(tp.O)
	return pat, vars
}

// unify binds residual variables to the matched triple, handling repeated
// variables (?x ?p ?x) by requiring equal terms.
func unify(b Binding, vars [3]string, t rdf.Triple) (Binding, bool) {
	nb := b.clone()
	assign := func(name string, val rdf.Term) bool {
		if name == "" {
			return true
		}
		if prev, ok := nb[name]; ok {
			return prev == val
		}
		nb[name] = val
		return true
	}
	if !assign(vars[0], t.S) {
		return nil, false
	}
	if !assign(vars[1], rdf.Term(t.P)) {
		return nil, false
	}
	if !assign(vars[2], t.O) {
		return nil, false
	}
	return nb, true
}

// evalOptional implements left join: bindings that match the inner group are
// extended; the rest pass through unchanged. The inner group is planned
// once, knowing which variables the outer rows bind — so a join on them
// leads instead of a scan over the inner group's constants — and each
// input binding's inner evaluation is independent, so large inputs fan out
// to the worker pool.
func (e *engine) evalOptional(opt Optional, input []Binding) ([]Binding, error) {
	if len(input) == 0 {
		return nil, nil
	}
	bound := map[string]bool{}
	for _, b := range input {
		for v := range b {
			bound[v] = true
		}
	}
	elems := e.planElemsBound(opt.Inner, bound)
	return e.parMap(input, func(chunk []Binding) ([]Binding, error) {
		var out []Binding
		for _, b := range chunk {
			matched, err := e.evalElems(elems, opt.Inner.Filters, []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(matched) > 0 {
				out = append(out, matched...)
			} else {
				out = append(out, b)
			}
		}
		return out, nil
	})
}

func (e *engine) evalUnion(u Union, input []Binding) ([]Binding, error) {
	left, err := e.evalGroup(u.Left, input)
	if err != nil {
		return nil, err
	}
	right, err := e.evalGroup(u.Right, input)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

func (e *engine) evalBind(bi Bind, input []Binding) ([]Binding, error) {
	fn, _ := compileExpr(bi.Expr)
	out := make([]Binding, 0, len(input))
	var en env
	for _, b := range input {
		if _, already := b[bi.Var]; already {
			return nil, fmt.Errorf("sparql: BIND target ?%s already bound", bi.Var)
		}
		nb := b.clone()
		en.b = b
		if v, ok := fn(&en); ok {
			// An erroring BIND expression leaves the variable unbound.
			nb[bi.Var] = v.term()
		}
		out = append(out, nb)
	}
	return out, nil
}

// evalValues joins the inline data block with the current solutions.
func evalValues(v Values, input []Binding) []Binding {
	var out []Binding
	for _, b := range input {
		for _, row := range v.Rows {
			nb := b.clone()
			compatible := true
			for i, name := range v.Vars {
				if row[i] == nil {
					continue // UNDEF constrains nothing
				}
				if prev, ok := nb[name]; ok {
					if prev != row[i] {
						compatible = false
						break
					}
				} else {
					nb[name] = row[i]
				}
			}
			if compatible {
				out = append(out, nb)
			}
		}
	}
	return out
}
