package sparql

import (
	"encoding/binary"
	"slices"
	"strconv"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Grouped evaluation: GROUP BY, aggregates and HAVING. Groups form in
// first-appearance order and every aggregate folds its group's rows
// incrementally, in row order, so no group keeps its rows. When the WHERE
// clause ends in a pattern run the rows arrive as dictionary-ID rows
// (idTail): variable group keys then group on their IDs, and only the
// distinct keys and the aggregates' values are decoded.

// Aggregate kinds.
const (
	aggCount = iota
	aggSum
	aggAvg
	aggMin
	aggMax
	aggSample
	aggConcat
	aggUnknown
)

var aggKinds = map[string]int{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin,
	"MAX": aggMax, "SAMPLE": aggSample, "GROUP_CONCAT": aggConcat,
}

// aggAcc is one aggregate's running state over one group.
type aggAcc struct {
	n      int     // values folded (after DISTINCT)
	sum    float64 // SUM / AVG
	notInt bool    // SUM: some value is not an integer literal
	bad    bool    // SUM / AVG: some value is not numeric
	best   val     // MIN / MAX / SAMPLE
	buf    []byte  // GROUP_CONCAT
	seen   map[rdf.Term]struct{}
}

// fold adds the current row to the aggregate. Rows whose argument errors
// are skipped, per SPARQL.
func (s *aggSpec) fold(a *aggAcc, en *env) {
	if s.star {
		a.n++ // COUNT(*) counts rows
		return
	}
	v, ok := s.arg(en)
	if !ok {
		return
	}
	if s.boundOnly {
		if v.b {
			a.n++
		}
		return
	}
	if s.distinct {
		t := v.term()
		if a.seen == nil {
			a.seen = map[rdf.Term]struct{}{}
		}
		if _, dup := a.seen[t]; dup {
			return
		}
		a.seen[t] = struct{}{}
	}
	switch s.kind {
	case aggSum, aggAvg:
		if !a.bad {
			f, ok := v.num()
			if ok {
				a.sum += f
				a.notInt = a.notInt || !v.intOK()
			} else {
				a.bad = true
			}
		}
	case aggMin:
		if a.n == 0 || compareVals(v, a.best) < 0 {
			a.best = v
		}
	case aggMax:
		if a.n == 0 || compareVals(v, a.best) > 0 {
			a.best = v
		}
	case aggSample:
		if a.n == 0 {
			a.best = v
		}
	case aggConcat:
		if a.n > 0 {
			a.buf = append(a.buf, s.sep...)
		}
		switch t := v.term().(type) {
		case rdf.Literal:
			a.buf = append(a.buf, t.Lexical...)
		case rdf.IRI:
			a.buf = append(a.buf, t...)
		default:
			a.buf = append(a.buf, t.String()...)
		}
	}
	a.n++
}

// result finishes the aggregate; vNone means the aggregate errors.
func (s *aggSpec) result(a *aggAcc) val {
	switch s.kind {
	case aggCount:
		return numVal(float64(a.n), true)
	case aggSum:
		if a.bad {
			return val{}
		}
		return numVal(a.sum, !a.notInt)
	case aggAvg:
		switch {
		case a.n == 0:
			return numVal(0, true)
		case a.bad:
			return val{}
		}
		return numVal(a.sum/float64(a.n), false)
	case aggMin, aggMax, aggSample:
		if a.n == 0 {
			return val{}
		}
		return a.best
	case aggConcat:
		return termVal(rdf.NewLiteral(string(a.buf)))
	}
	return val{}
}

// groupedQuery is a grouped SELECT compiled once: the group keys and the
// aggregate arguments over the row frame, and HAVING, projection and ORDER
// BY keys over the group environment.
type groupedQuery struct {
	q      *Query
	gc     *groupCompiler
	keys   []evalFn
	having []evalFn
	items  []evalFn // nil for a bare variable
	order  []evalFn
	// keySlots[i] is GROUP BY key i's run slot when every key is a
	// variable the ID tail binds; nil otherwise.
	keySlots []int

	index   map[string]int
	groups  []groupState
	sig     []byte
	scratch []rdf.Term
}

type groupState struct {
	keyIDs   []store.ID
	keyTerms []rdf.Term // nil entries: the key expression errored
	accs     []aggAcc
}

func compileGrouped(q *Query) *groupedQuery {
	gc := &groupCompiler{rows: &frame{}}
	c := compiler{fr: &frame{}, group: gc}
	kc := compiler{fr: gc.rows}
	gq := &groupedQuery{q: q, gc: gc, index: map[string]int{}}
	for _, ge := range q.GroupBy {
		fn, _ := kc.compile(ge)
		gq.keys = append(gq.keys, fn)
	}
	for _, h := range q.Having {
		fn, _ := c.compile(h)
		gq.having = append(gq.having, fn)
	}
	for _, item := range q.Projection {
		var fn evalFn
		if item.Expr != nil {
			fn, _ = c.compile(item.Expr)
		}
		gq.items = append(gq.items, fn)
	}
	for _, key := range q.OrderBy {
		fn, _ := c.compile(key.Expr)
		gq.order = append(gq.order, fn)
	}
	return gq
}

// group returns the state of the row's group, creating it on first
// appearance. row is the current ID row when keySlots is set.
func (gq *groupedQuery) group(en *env, row []store.ID) *groupState {
	gq.sig = gq.sig[:0]
	gq.scratch = gq.scratch[:0]
	if gq.keySlots != nil {
		for _, s := range gq.keySlots {
			gq.sig = binary.LittleEndian.AppendUint64(gq.sig, row[s].Bits())
		}
	} else {
		for _, k := range gq.keys {
			// Length-prefixed key components, for the same reason as
			// distinctRows: a bare joiner would let ("x|","y") and
			// ("x","|y") collide and merge two distinct groups.
			var t rdf.Term
			if v, ok := k(en); ok {
				t = v.term()
				ks := t.String()
				gq.sig = strconv.AppendInt(gq.sig, int64(len(ks)), 10)
				gq.sig = append(gq.sig, ':')
				gq.sig = append(gq.sig, ks...)
			} else {
				gq.sig = append(gq.sig, '~')
			}
			gq.scratch = append(gq.scratch, t)
		}
	}
	if i, ok := gq.index[string(gq.sig)]; ok {
		return &gq.groups[i]
	}
	gq.index[string(gq.sig)] = len(gq.groups)
	g := groupState{accs: make([]aggAcc, len(gq.gc.aggs))}
	if gq.keySlots == nil {
		g.keyTerms = slices.Clone(gq.scratch)
	} else {
		g.keyIDs = make([]store.ID, len(gq.keySlots))
		for i, s := range gq.keySlots {
			g.keyIDs[i] = row[s]
		}
	}
	gq.groups = append(gq.groups, g)
	return &gq.groups[len(gq.groups)-1]
}

func (gq *groupedQuery) fold(g *groupState, en *env) {
	for k, spec := range gq.gc.aggs {
		spec.fold(&g.accs[k], en)
	}
}

// foldBindings groups term-space solutions.
func (gq *groupedQuery) foldBindings(sols []Binding) {
	var en env
	for _, s := range sols {
		en.b = s
		gq.fold(gq.group(&en, nil), &en)
	}
}

// foldIDs groups the undecoded rows of a WHERE clause's final pattern run.
func (gq *groupedQuery) foldIDs(t *idTail, memo *idMemo) {
	gq.keySlots = make([]int, 0, len(gq.q.GroupBy))
	for _, ge := range gq.q.GroupBy {
		v, isVar := ge.(ExVar)
		s := slices.Index(t.slotVars, v.Name)
		if !isVar || s < 0 {
			gq.keySlots = nil
			break
		}
		gq.keySlots = append(gq.keySlots, s)
	}
	rb := newRowBinder(gq.gc.rows, newFrameLayout(gq.gc.rows, t.slotVars), memo)
	rb.resolve(t.src, t.rows)
	var en env
	for r := 0; r < t.rows.n(); r++ {
		rb.bind(&en, t.rows, r, t.input[t.rows.parents[r]])
		gq.fold(gq.group(&en, t.rows.row(r)), &en)
	}
	if gq.keySlots == nil {
		return
	}
	// Decode the distinct keys in one batch.
	var ids []store.ID
	for _, g := range gq.groups {
		ids = append(ids, g.keyIDs...)
	}
	terms := t.src.Terms(ids)
	for i := range gq.groups {
		n := len(gq.keySlots)
		gq.groups[i].keyTerms = terms[i*n : (i+1)*n : (i+1)*n]
	}
}

// rows finishes every group into a projected result row (HAVING applied,
// hidden ORDER BY columns attached).
func (gq *groupedQuery) rows() ([]Binding, []string) {
	q := gq.q
	// Implicit single group for aggregate queries without GROUP BY — but
	// only when there are solutions; an empty input yields one empty group
	// per the SPARQL spec (COUNT(*) = 0).
	if len(q.GroupBy) == 0 && len(gq.groups) == 0 {
		gq.groups = append(gq.groups, groupState{accs: make([]aggAcc, len(gq.gc.aggs))})
	}
	vars := make([]string, 0, len(q.Projection))
	for _, item := range q.Projection {
		vars = append(vars, item.Var)
	}
	hidden := hiddenOrdNames(len(q.OrderBy))
	out := make([]Binding, 0, len(gq.groups))
	en := env{aggs: make([]val, len(gq.gc.aggs))}
	for _, g := range gq.groups {
		// The group's environment binds the variable keys.
		rep := Binding{}
		for i, ge := range q.GroupBy {
			if v, ok := ge.(ExVar); ok && g.keyTerms[i] != nil {
				rep[v.Name] = g.keyTerms[i]
			}
		}
		en.b = rep
		for k, spec := range gq.gc.aggs {
			en.aggs[k] = spec.result(&g.accs[k])
		}
		keep := true
		for _, h := range gq.having {
			if !ebvTrue(h, &en) {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		row := Binding{}
		for i, item := range q.Projection {
			if gq.items[i] == nil {
				// A bare variable must be a group key.
				if t, ok := rep[item.Var]; ok {
					row[item.Var] = t
				}
			} else if v, ok := gq.items[i](&en); ok {
				if t := v.term(); t != nil {
					row[item.Var] = t
				}
			}
		}
		for i, fn := range gq.order {
			if v, ok := fn(&en); ok {
				row[hidden[i]] = v.term()
			}
		}
		out = append(out, row)
	}
	return out, vars
}
