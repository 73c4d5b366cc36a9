package sparql

import (
	"context"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// The reference evaluator: a deliberately naive term-space SPARQL evaluator
// over store.Match — no planner, no dictionary IDs, no pushdown, no
// streaming, no parallelism. Every group element extends each input binding
// with its matches in textual order (the engine's seeded evaluation: a
// group, OPTIONAL or UNION branch sees the bindings flowing into it), group
// filters apply at the group's end, and expressions and aggregates are
// evaluated by the reference interpreter in expr_oracle_test.go. It is the
// oracle the engine is checked against (TestIDJoinDifferential,
// TestPushdownMatchesReference, FuzzQueryDifferential).

// refGroup evaluates a group graph pattern over input.
func refGroup(st *store.Store, g *Group, input []Binding) ([]Binding, error) {
	cur := input
	for _, el := range g.Elems {
		var err error
		if cur, err = refElem(st, el, cur); err != nil {
			return nil, err
		}
	}
	var out []Binding
	for _, b := range cur {
		keep := true
		for _, f := range g.Filters {
			if ok, err := evalBool(f, b); err != nil || !ok {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, b)
		}
	}
	return out, nil
}

// refElem evaluates one group element over input.
func refElem(st *store.Store, el GroupElem, input []Binding) ([]Binding, error) {
	var out []Binding
	switch el := el.(type) {
	case TriplePattern:
		nodes := [3]Node{el.S, el.P, el.O}
		for _, b := range input {
			var pat [3]rdf.Term
			for i, n := range nodes {
				if !n.IsVar() {
					pat[i] = n.Term
				} else if t, ok := b[n.Var]; ok {
					pat[i] = t
				}
			}
			for _, tr := range st.Match(store.Pattern{S: pat[0], P: pat[1], O: pat[2]}) {
				vals := [3]rdf.Term{tr.S, tr.P, tr.O}
				nb := maps.Clone(b)
				ok := true
				for i, n := range nodes {
					if !n.IsVar() {
						continue
					}
					if prev, bound := nb[n.Var]; bound {
						ok = ok && prev == vals[i]
					} else {
						nb[n.Var] = vals[i]
					}
				}
				if ok {
					out = append(out, nb)
				}
			}
		}
	case SubGroup:
		return refGroup(st, el.Inner, input)
	case Optional:
		for _, b := range input {
			m, err := refGroup(st, el.Inner, []Binding{b})
			if err != nil {
				return nil, err
			}
			if len(m) == 0 {
				m = []Binding{b}
			}
			out = append(out, m...)
		}
	case Union:
		l, err := refGroup(st, el.Left, input)
		if err != nil {
			return nil, err
		}
		r, err := refGroup(st, el.Right, input)
		if err != nil {
			return nil, err
		}
		out = append(l, r...)
	case Bind:
		for _, b := range input {
			if _, bound := b[el.Var]; bound {
				return nil, fmt.Errorf("reference: BIND target ?%s already bound", el.Var)
			}
			nb := maps.Clone(b)
			if t, err := evalExpr(el.Expr, b); err == nil {
				nb[el.Var] = t
			}
			out = append(out, nb)
		}
	case Values:
		for _, b := range input {
			for _, row := range el.Rows {
				nb := maps.Clone(b)
				ok := true
				for i, v := range el.Vars {
					if row[i] == nil {
						continue
					}
					if prev, bound := nb[v]; bound {
						ok = ok && prev == row[i]
					} else {
						nb[v] = row[i]
					}
				}
				if ok {
					out = append(out, nb)
				}
			}
		}
	default:
		return nil, fmt.Errorf("reference: unsupported element %T", el)
	}
	return out, nil
}

// refResult is a reference evaluation: the projected rows after ORDER BY
// and DISTINCT but before OFFSET/LIMIT, with each row's sort keys.
type refResult struct {
	ask  bool
	vars []string
	rows []Binding
	keys [][]rdf.Term
}

// refEval evaluates a parsed query.
func refEval(st *store.Store, q *Query) (*refResult, error) {
	sols, err := refGroup(st, q.Where, []Binding{{}})
	if err != nil {
		return nil, err
	}
	return refModifiers(q, sols), nil
}

// refModifiers projects, groups, orders and deduplicates a query's WHERE
// solutions.
func refModifiers(q *Query, sols []Binding) *refResult {
	if q.Form == FormAsk {
		return &refResult{ask: len(sols) > 0}
	}
	res := &refResult{}
	if len(q.GroupBy) > 0 || projectionHasAggregates(q) {
		res.grouped(q, sols)
	} else {
		res.project(q, sols)
	}
	idx := make([]int, len(res.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return compareKeys(q.OrderBy, res.keys[idx[a]], res.keys[idx[b]]) < 0
	})
	seen := map[string]bool{}
	var rows []Binding
	var keys [][]rdf.Term
	for _, i := range idx {
		if q.Distinct {
			sig := rowSig(res.vars, res.rows[i])
			if seen[sig] {
				continue
			}
			seen[sig] = true
		}
		rows = append(rows, res.rows[i])
		keys = append(keys, res.keys[i])
	}
	res.rows, res.keys = rows, keys
	return res
}

// project builds the rows of an ungrouped SELECT.
func (r *refResult) project(q *Query, sols []Binding) {
	if q.Star {
		set := map[string]bool{}
		refVars(q.Where, set)
		for v := range set {
			if !strings.HasPrefix(v, "_") {
				r.vars = append(r.vars, v)
			}
		}
		sort.Strings(r.vars)
	} else {
		for _, item := range q.Projection {
			r.vars = append(r.vars, item.Var)
		}
	}
	for _, s := range sols {
		row := Binding{}
		if q.Star {
			for _, v := range r.vars {
				if t, ok := s[v]; ok {
					row[v] = t
				}
			}
		}
		for _, item := range q.Projection {
			if item.Expr == nil {
				if t, ok := s[item.Var]; ok {
					row[item.Var] = t
				}
			} else if t, err := evalExpr(item.Expr, s); err == nil {
				row[item.Var] = t
			}
		}
		keys := make([]rdf.Term, len(q.OrderBy))
		for k, key := range q.OrderBy {
			keys[k], _ = evalExpr(key.Expr, s)
		}
		r.rows = append(r.rows, row)
		r.keys = append(r.keys, keys)
	}
}

// grouped builds the rows of a grouped SELECT: groups in first-appearance
// order, HAVING, then projection and sort keys over each group's rows.
func (r *refResult) grouped(q *Query, sols []Binding) {
	type group struct {
		keys []rdf.Term
		rows []Binding
	}
	var groups []*group
	index := map[string]*group{}
	for _, s := range sols {
		keys := make([]rdf.Term, len(q.GroupBy))
		for i, ge := range q.GroupBy {
			keys[i], _ = evalExpr(ge, s)
		}
		sig := termsSig(keys)
		g := index[sig]
		if g == nil {
			g = &group{keys: keys}
			index[sig] = g
			groups = append(groups, g)
		}
		g.rows = append(g.rows, s)
	}
	if len(q.GroupBy) == 0 && len(groups) == 0 {
		groups = append(groups, &group{})
	}
	for _, item := range q.Projection {
		r.vars = append(r.vars, item.Var)
	}
	for _, g := range groups {
		rep := Binding{}
		for i, ge := range q.GroupBy {
			if v, ok := ge.(ExVar); ok && g.keys[i] != nil {
				rep[v.Name] = g.keys[i]
			}
		}
		keep := true
		for _, h := range q.Having {
			t, err := evalAggExpr(h, g.rows, rep)
			ok, isBool := rdf.EffectiveBoolean(t)
			if err != nil || !isBool || !ok {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := Binding{}
		for _, item := range q.Projection {
			if item.Expr == nil {
				if t, ok := rep[item.Var]; ok {
					row[item.Var] = t
				}
			} else if t, err := evalAggExpr(item.Expr, g.rows, rep); err == nil && t != nil {
				row[item.Var] = t
			}
		}
		keys := make([]rdf.Term, len(q.OrderBy))
		for k, key := range q.OrderBy {
			keys[k], _ = evalAggExpr(key.Expr, g.rows, rep)
		}
		r.rows = append(r.rows, row)
		r.keys = append(r.keys, keys)
	}
}

// refVars collects every variable a group can bind (the SELECT * header).
func refVars(g *Group, set map[string]bool) {
	for _, el := range g.Elems {
		switch el := el.(type) {
		case TriplePattern:
			for _, n := range []Node{el.S, el.P, el.O} {
				if n.IsVar() {
					set[n.Var] = true
				}
			}
		case SubGroup:
			refVars(el.Inner, set)
		case Optional:
			refVars(el.Inner, set)
		case Union:
			refVars(el.Left, set)
			refVars(el.Right, set)
		case Bind:
			set[el.Var] = true
		case Values:
			for _, v := range el.Vars {
				set[v] = true
			}
		}
	}
}

// compareKeys orders two rows' sort keys: unbound first, DESC reversed.
func compareKeys(order []OrderKey, a, b []rdf.Term) int {
	for k, key := range order {
		c := rdf.Compare(a[k], b[k])
		if key.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// termsSig is an unambiguous signature of a term list (nil = unbound).
func termsSig(ts []rdf.Term) string {
	var sb strings.Builder
	for _, t := range ts {
		if t == nil {
			sb.WriteString("~")
			continue
		}
		s := fmt.Sprintf("%T:%s", t, t.String())
		sb.WriteString(strconv.Itoa(len(s)))
		sb.WriteByte(':')
		sb.WriteString(s)
	}
	return sb.String()
}

// rowSig is a row's signature over vars.
func rowSig(vars []string, row Binding) string {
	ts := make([]rdf.Term, len(vars))
	for i, v := range vars {
		ts[i] = row[v]
	}
	return termsSig(ts) + "/" + strconv.Itoa(len(row))
}

// total reports whether ORDER BY fixes the row order: no two adjacent rows
// tie on every sort key while differing in value.
func (r *refResult) total(q *Query) bool {
	for i := 1; i < len(r.rows); i++ {
		if compareKeys(q.OrderBy, r.keys[i-1], r.keys[i]) == 0 && !reflect.DeepEqual(r.rows[i-1], r.rows[i]) {
			return false
		}
	}
	return true
}

// window applies OFFSET/LIMIT.
func (r *refResult) window(q *Query) []Binding {
	rows := r.rows
	if q.Offset >= len(rows) {
		return nil
	}
	rows = rows[q.Offset:]
	if q.Limit >= 0 && q.Limit < len(rows) {
		rows = rows[:q.Limit]
	}
	return rows
}

// results is the reference answer in the engine's result shape.
func (r *refResult) results(q *Query) *Results {
	if q.Form == FormAsk {
		return &Results{Form: FormAsk, Ask: r.ask}
	}
	return &Results{Form: FormSelect, Vars: r.vars, Rows: r.window(q)}
}

// compare checks an engine result against the reference: the same rows in
// the same order where ORDER BY orders them totally; otherwise the same
// multiset, or — under OFFSET/LIMIT — as many rows as the window holds,
// drawn from the reference's full answer. It returns "" on agreement.
func (r *refResult) compare(q *Query, got *Results) string {
	if q.Form == FormAsk {
		if got.Ask != r.ask {
			return fmt.Sprintf("ask = %v, reference %v", got.Ask, r.ask)
		}
		return ""
	}
	if !reflect.DeepEqual(got.Vars, r.vars) && (len(got.Vars) > 0 || len(r.vars) > 0) {
		return fmt.Sprintf("vars = %v, reference %v", got.Vars, r.vars)
	}
	want := r.window(q)
	if len(got.Rows) != len(want) {
		return fmt.Sprintf("%d rows, reference %d", len(got.Rows), len(want))
	}
	if r.total(q) {
		for i := range want {
			if !reflect.DeepEqual(got.Rows[i], want[i]) {
				return fmt.Sprintf("row %d = %v, reference %v", i, got.Rows[i], want[i])
			}
		}
		return ""
	}
	pool := r.rows
	if q.Offset == 0 && q.Limit < 0 {
		pool = want
	}
	counts := map[string]int{}
	for _, row := range pool {
		counts[rowSig(r.vars, row)]++
	}
	for i, row := range got.Rows {
		sig := rowSig(r.vars, row)
		if counts[sig] == 0 {
			return fmt.Sprintf("row %d = %v is not in the reference answer (or occurs too often)", i, row)
		}
		counts[sig]--
	}
	return ""
}

// orderSensitive reports whether a query aggregates with SAMPLE or
// GROUP_CONCAT, whose values depend on the order of a group's rows — which
// SPARQL leaves to the implementation.
func orderSensitive(q *Query) bool {
	var walk func(e Expr) bool
	walk = func(e Expr) bool {
		switch ex := e.(type) {
		case ExAggregate:
			return ex.Name == "SAMPLE" || ex.Name == "GROUP_CONCAT"
		case ExUnary:
			return walk(ex.Expr)
		case ExBinary:
			return walk(ex.Left) || walk(ex.Right)
		case ExCall:
			return slices.ContainsFunc(ex.Args, walk)
		}
		return false
	}
	exprs := slices.Clone(q.Having)
	for _, item := range q.Projection {
		if item.Expr != nil {
			exprs = append(exprs, item.Expr)
		}
	}
	for _, k := range q.OrderBy {
		exprs = append(exprs, k.Expr)
	}
	return slices.ContainsFunc(exprs, walk)
}

// bindingSig is an unambiguous signature of a whole binding.
func bindingSig(b Binding) string {
	vars := make([]string, 0, len(b))
	for v := range b {
		vars = append(vars, v)
	}
	sort.Strings(vars)
	return strings.Join(vars, ",") + "=" + rowSig(vars, b)
}

// diffQuery evaluates query with the engine over src under opt and with the
// reference evaluator over st, describing the first disagreement ("" when
// they agree). Both may fail; an engine error the reference does not share
// is a disagreement, and so is the converse — except under LIMIT or ASK,
// where the engine may stop before the row that makes the reference fail.
// For order-sensitive aggregates the reference groups the engine's own
// WHERE solutions, once they are checked to be the reference's multiset.
func diffQuery(st *store.Store, src Source, query string, opt Options) string {
	q, err := Parse(query)
	if err != nil {
		return "parse: " + err.Error()
	}
	sols, refErr := refGroup(st, q.Where, []Binding{{}})
	if refErr == nil && orderSensitive(q) {
		engineSols, err := newEngine(context.Background(), src, opt).evalGroup(q.Where, []Binding{{}})
		if err != nil {
			return fmt.Sprintf("engine WHERE error %v; the reference answers", err)
		}
		counts := map[string]int{}
		for _, b := range sols {
			counts[bindingSig(b)]++
		}
		for _, b := range engineSols {
			counts[bindingSig(b)]--
		}
		for sig, n := range counts {
			if n != 0 {
				return fmt.Sprintf("WHERE solution %s: engine count differs from the reference by %d", sig, -n)
			}
		}
		sols = engineSols
	}
	got, err := ExecOpts(src, query, opt)
	switch {
	case err != nil && refErr == nil:
		return fmt.Sprintf("engine error %v; the reference answers", err)
	case err != nil:
		return ""
	case refErr != nil:
		if q.Limit >= 0 || q.Form == FormAsk {
			return ""
		}
		return fmt.Sprintf("reference error %v; the engine answers", refErr)
	}
	return refModifiers(q, sols).compare(q, got)
}
