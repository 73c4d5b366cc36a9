package sparql

import (
	"context"
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
	res, err := evalCtx(ctx, st, q, opt)
	if err != nil {
		return nil, wrapEval(err)
	}
	return res, nil
}

func evalCtx(ctx context.Context, st Source, q *Query, opt Options) (*Results, error) {
	return evalWithEngine(newEngine(ctx, st, opt), q, opt)
}

func evalWithEngine(e *engine, q *Query, opt Options) (res *Results, err error) {
	execStrategy := "materialized"
	if e.trace != nil {
		execStart := time.Now()
		e.exec = e.trace.Add(nil, "execute")
		defer func() {
			e.exec.Set("", execStrategy, 0, resultRows(res), execStart)
		}()
	}
	// Early-termination fast paths: LIMIT-pushdown scans, the bounded
	// ORDER BY top-k heap, and first-solution ASK. They return exactly the
	// rows the materializing pipeline below would; see stream.go.
	if !opt.NoStream {
		if r, ok, ferr := e.evalStreamFast(q); ok {
			if e.met != nil {
				e.met.QueriesStreamed.Inc()
			}
			execStrategy = "streamed"
			return r, ferr
		}
	}
	if e.met != nil {
		e.met.QueriesMaterialized.Inc()
	}
	var rows []Binding
	var vars []string
	if q.Form == FormSelect && (len(q.GroupBy) > 0 || projectionHasAggregates(q)) {
		rows, vars, err = e.evalGrouped(q)
		if err != nil {
			return nil, err
		}
	} else {
		var sols []Binding
		sols, err = e.evalGroup(q.Where, []Binding{{}})
		if err != nil {
			return nil, err
		}
		if q.Form == FormAsk {
			return &Results{Form: FormAsk, Ask: len(sols) > 0}, nil
		}
		vars = streamVars(q)
		rows = make([]Binding, 0, len(sols))
		p := newProjector(q, vars, true)
		for _, s := range sols {
			rows = append(rows, p.project(s))
		}
	}

	// ORDER BY; the hidden key columns are dropped after sorting.
	hidden := hiddenOrdNames(len(q.OrderBy))
	sortRows(rows, q.OrderBy, hidden)
	stripHidden(rows, hidden)

	// DISTINCT.
	if q.Distinct {
		rows = distinctRows(rows, vars)
	}
	rows = sliceOffsetLimit(rows, q.Offset, q.Limit)
	return &Results{Form: FormSelect, Vars: vars, Rows: rows}, nil
}

// resultRows counts a result's rows for the execute span (ASK counts its
// answer as 0/1).
func resultRows(r *Results) int {
	if r == nil {
		return 0
	}
	if r.Form == FormAsk {
		if r.Ask {
			return 1
		}
		return 0
	}
	return len(r.Rows)
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
