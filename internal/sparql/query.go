package sparql

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Results holds the outcome of a query.
type Results struct {
	// Form is the query form that produced the results.
	Form QueryForm
	// Vars are the projected column names, in order.
	Vars []string
	// Rows are the solution bindings (empty for ASK).
	Rows []Binding
	// Ask is the answer of an ASK query.
	Ask bool
}

// Exec parses and evaluates a SPARQL query against the store with default
// options (parallel BGP evaluation across runtime.NumCPU() workers).
func Exec(st Source, query string) (*Results, error) {
	return ExecOpts(st, query, Options{})
}

// ExecOpts parses and evaluates a SPARQL query with explicit options.
func ExecOpts(st Source, query string, opt Options) (*Results, error) {
	//lint:allow ctxflow compat wrapper: ExecCtx is the cancellable form
	return ExecCtx(context.Background(), st, query, opt)
}

// ExecCtx parses and evaluates a SPARQL query under a context: evaluation
// stops promptly (returning an error matching both ErrEval and ctx.Err())
// when the context is cancelled or its deadline expires. Parse failures match
// ErrParse; every other failure matches ErrEval.
func ExecCtx(ctx context.Context, st Source, query string, opt Options) (*Results, error) {
	var start time.Time
	if opt.Trace != nil {
		start = time.Now()
	}
	q, err := Parse(query)
	if opt.Trace != nil {
		opt.Trace.Add(nil, "parse").Set("", "", 0, 0, start)
	}
	if err != nil {
		return nil, err
	}
	return EvalCtx(ctx, st, q, opt)
}

// Eval evaluates a parsed query against the store with default options.
func Eval(st Source, q *Query) (*Results, error) {
	return EvalOpts(st, q, Options{})
}

// EvalOpts evaluates a parsed query against the store. Evaluation order and
// results are identical at every parallelism setting; see Options.
func EvalOpts(st Source, q *Query, opt Options) (*Results, error) {
	//lint:allow ctxflow compat wrapper: EvalCtx is the cancellable form
	return EvalCtx(context.Background(), st, q, opt)
}

// EvalCtx evaluates a parsed query under a context; see ExecCtx for the
// cancellation and error-classification contract.
func EvalCtx(ctx context.Context, st Source, q *Query, opt Options) (*Results, error) {
	res, err := newEngine(ctx, st, opt).evaluate(q, nil)
	if err != nil {
		return nil, wrapEval(err)
	}
	return res, nil
}

// evaluate is the one query entry behind EvalCtx and Stream.Run/Ask. With
// emit nil it returns the complete Results; with emit set (Stream.Run) it
// hands every result row to emit as soon as the row is final and returns
// Results without rows. The path follows from the query and its consumer
// (planStream); every path produces the same rows in the same order.
func (e *engine) evaluate(q *Query, emit func(Binding) bool) (res *Results, err error) {
	strategy, emitted := "materialized", 0
	if e.trace != nil {
		execStart := time.Now()
		e.exec = e.trace.Add(nil, "execute")
		if inner := emit; inner != nil {
			emit = func(row Binding) bool {
				emitted++
				return inner(row)
			}
		}
		defer func() {
			rows := emitted
			if res != nil {
				rows += len(res.Rows)
				if res.Ask {
					rows = 1
				}
			}
			e.exec.Set("", strategy, 0, rows, execStart)
		}()
	}
	res = &Results{Form: q.Form}
	if q.Form == FormSelect {
		res.Vars = streamVars(q)
	}

	if mode := planStream(q, emit != nil); mode != streamNone {
		for attempt := 0; attempt < scanRestartAttempts; attempt++ {
			delivered, err := e.stream(q, mode, res, emit)
			if !errors.Is(err, errScanShifted) {
				if err != nil {
					return nil, err
				}
				if e.met != nil {
					e.met.QueriesStreamed.Inc()
				}
				strategy = "streamed"
				return res, nil
			}
			if delivered {
				// Rows already reached the consumer; a restart would
				// duplicate them. Surface the conflict instead.
				return nil, fmt.Errorf("%w; re-run the query", err)
			}
		}
		// Compaction churn with nothing delivered: fall through to the
		// materializing pipeline, which is snapshot-consistent.
	}

	if e.met != nil {
		e.met.QueriesMaterialized.Inc()
	}
	var rows []Binding
	if q.Form == FormSelect && (len(q.GroupBy) > 0 || projectionHasAggregates(q)) {
		if rows, res.Vars, err = e.evalGrouped(q); err != nil {
			return nil, err
		}
	} else {
		sols, err := e.evalGroup(q.Where, []Binding{{}})
		if err != nil {
			return nil, err
		}
		if q.Form == FormAsk {
			res.Ask = len(sols) > 0
			return res, nil
		}
		rows = project(q, res.Vars, sols)
	}
	rows = modifiers(q, res.Vars, rows)
	if emit == nil {
		res.Rows = rows
		return res, nil
	}
	for _, row := range rows {
		if !emit(row) {
			break
		}
	}
	return res, nil
}

// stream runs one attempt of a streamed path, collecting the rows into res
// or, when emit is set, handing them to emit; delivered reports whether a
// row reached emit (and so cannot be taken back by a restart).
func (e *engine) stream(q *Query, mode streamMode, res *Results, emit func(Binding) bool) (delivered bool, err error) {
	res.Rows, res.Ask = nil, false
	deliver := func(row Binding) bool {
		if emit == nil {
			res.Rows = append(res.Rows, row)
			return true
		}
		delivered = true
		return emit(row)
	}
	switch {
	case q.Form == FormAsk:
		err = e.streamSolutions(q.Where, 1, func(Binding) bool {
			res.Ask = true
			return false
		})
	case mode == streamTopK:
		var sols []Binding
		if sols, err = e.streamTopK(q, addBudget(q.Offset, q.Limit)); err == nil {
			for _, row := range modifiers(q, res.Vars, project(q, res.Vars, sols)) {
				if !deliver(row) {
					break
				}
			}
		}
	default:
		err = e.runDirect(q, res.Vars, deliver)
	}
	return delivered, err
}

// project builds the projected rows of solutions, each carrying its ORDER
// BY key values in the hidden columns for modifiers.
func project(q *Query, vars []string, sols []Binding) []Binding {
	rows := make([]Binding, 0, len(sols))
	p := newProjector(q, vars, true)
	for _, s := range sols {
		rows = append(rows, p.project(s))
	}
	return rows
}

// modifiers applies the solution modifiers to projected rows: ORDER BY on
// the hidden key columns (dropped after sorting), DISTINCT, then the
// OFFSET/LIMIT window.
func modifiers(q *Query, vars []string, rows []Binding) []Binding {
	hidden := hiddenOrdNames(len(q.OrderBy))
	sortRows(rows, q.OrderBy, hidden)
	stripHidden(rows, hidden)
	if q.Distinct {
		rows = distinctRows(rows, vars)
	}
	return sliceOffsetLimit(rows, q.Offset, q.Limit)
}

// sliceOffsetLimit applies the OFFSET/LIMIT window (limit < 0 = no limit).
func sliceOffsetLimit(rows []Binding, offset, limit int) []Binding {
	if offset > 0 {
		if offset >= len(rows) {
			rows = nil
		} else {
			rows = rows[offset:]
		}
	}
	if limit >= 0 && limit < len(rows) {
		rows = rows[:limit]
	}
	return rows
}

func projectionHasAggregates(q *Query) bool {
	for _, item := range q.Projection {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch ex := e.(type) {
	case ExAggregate:
		return true
	case ExBinary:
		return exprHasAggregate(ex.Left) || exprHasAggregate(ex.Right)
	case ExUnary:
		return exprHasAggregate(ex.Expr)
	case ExCall:
		for _, a := range ex.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	}
	return false
}

// projector builds projected result rows from solutions with compiled
// projection expressions. SELECT * columns are resolved statically (every
// variable the pattern can bind, sorted — see streamVars), so the header
// does not depend on which evaluation path ran or which rows a LIMIT
// happened to keep.
type projector struct {
	q     *Query
	vars  []string
	items []evalFn // nil for a bare variable
	// order evaluates the ORDER BY keys, stashed under hidden for sortRows.
	order  []evalFn
	hidden []string
	en     env
}

func newProjector(q *Query, vars []string, withOrder bool) *projector {
	p := &projector{q: q, vars: vars}
	if !q.Star {
		for _, item := range q.Projection {
			var fn evalFn
			if item.Expr != nil {
				fn, _ = compileExpr(item.Expr)
			}
			p.items = append(p.items, fn)
		}
	}
	if withOrder {
		p.order = compileOrderKeys(q.OrderBy)
		p.hidden = hiddenOrdNames(len(q.OrderBy))
	}
	return p
}

func compileOrderKeys(keys []OrderKey) []evalFn {
	var fns []evalFn
	for _, key := range keys {
		fn, _ := compileExpr(key.Expr)
		fns = append(fns, fn)
	}
	return fns
}

// project builds one projected result row from a solution, plus the ORDER
// BY key values evaluated on the original solution when the projector was
// built with them.
func (p *projector) project(s Binding) Binding {
	row := Binding{}
	p.en.b = s
	if p.q.Star {
		for _, v := range p.vars {
			if t, ok := s[v]; ok {
				row[v] = t
			}
		}
	} else {
		for i, item := range p.q.Projection {
			if p.items[i] == nil {
				if t, ok := s[item.Var]; ok {
					row[item.Var] = t
				}
			} else if v, ok := p.items[i](&p.en); ok {
				row[item.Var] = v.term()
			}
		}
	}
	for i, fn := range p.order {
		if v, ok := fn(&p.en); ok {
			row[p.hidden[i]] = v.term()
		}
	}
	return row
}

// evalGrouped implements GROUP BY + aggregates + HAVING. A WHERE clause
// ending in a pattern run hands its final rows over undecoded.
func (e *engine) evalGrouped(q *Query) ([]Binding, []string, error) {
	gq := compileGrouped(q)
	g := unwrapGroup(q.Where)
	sols, tail, err := e.evalElemsTail(e.planElems(g), g.Filters, []Binding{{}}, true)
	if err != nil {
		return nil, nil, err
	}
	if tail != nil {
		memo, shared := e.acquireMemo()
		gq.foldIDs(tail, memo)
		e.releaseMemo(shared)
	} else {
		gq.foldBindings(sols)
	}
	rows, vars := gq.rows()
	return rows, vars, nil
}

// hiddenOrdNames returns the engine-generated column names that carry ORDER
// BY key values through sorting, one per sort key. The NUL prefix cannot
// appear in a parsed variable name (the lexer accepts only [A-Za-z0-9_]),
// so a legal user variable like ?_ord0 can never collide with — nor be
// clobbered or deleted alongside — a hidden column.
func hiddenOrdNames(n int) []string {
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "\x00ord" + strconv.Itoa(i)
	}
	return out
}

// sortRows stable-sorts rows by the hidden key columns (hidden[i] holds the
// value of keys[i]). Per SPARQL's ordering, an unbound key sorts before any
// bound term (rdf.Compare treats nil as least); DESC reverses, putting
// unbound rows last.
func sortRows(rows []Binding, keys []OrderKey, hidden []string) {
	if len(keys) == 0 {
		return
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range keys {
			ti := rows[i][hidden[k]]
			tj := rows[j][hidden[k]]
			c := rdf.Compare(ti, tj)
			if key.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
}

// stripHidden deletes exactly the engine-generated hidden sort columns from
// every row; user bindings — including names like ?_ord0 that a prefix
// match would catch — are untouched.
func stripHidden(rows []Binding, hidden []string) {
	if len(hidden) == 0 {
		return
	}
	for _, r := range rows {
		for _, h := range hidden {
			delete(r, h)
		}
	}
}

// distinctRows removes duplicate rows, keeping first occurrences. Dedup
// signatures are length-prefixed per column ("<len>:<term>", "~" for an
// unbound column), so a term whose lexical form contains a would-be
// separator can no longer alias a column boundary (with a bare "|" joiner,
// ("a|b","c") and ("a","b|c") collided and a distinct row was dropped).
func distinctRows(rows []Binding, vars []string) []Binding {
	seen := map[string]struct{}{}
	out := rows[:0:0]
	var sig strings.Builder
	for _, r := range rows {
		sig.Reset()
		for _, v := range vars {
			if t, ok := r[v]; ok {
				s := t.String()
				sig.WriteString(strconv.Itoa(len(s)))
				sig.WriteByte(':')
				sig.WriteString(s)
			} else {
				sig.WriteByte('~')
			}
		}
		if _, dup := seen[sig.String()]; !dup {
			seen[sig.String()] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}
