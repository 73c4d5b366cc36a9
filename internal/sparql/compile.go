package sparql

import (
	"math"
	"slices"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Compiled expressions. Every expression the engine evaluates — FILTER,
// BIND, projection, ORDER BY keys, GROUP BY keys, aggregate arguments and
// HAVING — is compiled once into a tree of closures over typed values
// (val), so nothing is re-interpreted per row:
//
//   - variables read a term-space Binding, or an ID-space row whose values
//     the caller resolved through the per-query idMemo, so a dictionary
//     term is decoded and its numeric value parsed at most once per query;
//   - constants are analyzed at compile time, and operators whose operands
//     are all constant are folded;
//   - comparison and logical results stay unboxed booleans, and arithmetic
//     results unboxed numbers, until a caller needs the term.
//
// Semantics are those of SPARQL's error-propagating, three-valued
// evaluation: an evaluation error is ok=false; || and && recover from an
// erroring operand when the other decides the result; FILTER keeps a row
// only on an error-free true effective boolean value. Fast paths cover
// numeric comparisons, term identity and the logical connectives; every
// other case boxes its operands and applies the term-level primitives in
// expr_eval.go, so compiled and reference results agree by construction
// (FuzzExprDifferential compares them against the tree-walking interpreter
// kept in the tests).

// valKind tags what a val holds.
type valKind uint8

const (
	// vNone is an unbound variable of an ID-space row (or an erroring
	// aggregate in a group environment).
	vNone valKind = iota
	// vBound is a bound variable read only for its boundness (BOUND,
	// COUNT): its term is never resolved.
	vBound
	// vTerm is a term read from a term-space Binding, parsed on use.
	vTerm
	// vInfo is a term analyzed once: a memoized dictionary term (id set)
	// or a folded constant (id 0).
	vInfo
	// vBool is an unboxed xsd:boolean.
	vBool
	// vNum is an unboxed arithmetic result: xsd:integer when isInt,
	// xsd:double otherwise.
	vNum
)

// val is one typed expression value.
type val struct {
	kind  valKind
	isInt bool
	b     bool
	id    store.ID
	f     float64
	t     rdf.Term
	inf   *termInfo
}

// termInfo is a term with its value-space facts parsed once.
type termInfo struct {
	t     rdf.Term
	num   float64
	numOK bool // numeric(t)
	intOK bool // t is a literal whose Int() succeeds
	lit   bool // t is a literal
}

func analyze(t rdf.Term) termInfo {
	ti := termInfo{t: t}
	if l, ok := t.(rdf.Literal); ok {
		ti.lit = true
		ti.num, ti.numOK = l.Float()
		if ti.numOK { // every integer datatype is numeric
			_, ti.intOK = l.Int()
		}
	}
	return ti
}

var (
	trueLit  rdf.Term = rdf.NewBoolean(true)
	falseLit rdf.Term = rdf.NewBoolean(false)
)

func boolVal(b bool) val { return val{kind: vBool, b: b} }

// numVal records an arithmetic result unboxed, holding exactly the value
// its boxed term reads back as: an integer result keeps its int64
// truncation, which is what the xsd:integer lexical form parses to.
func numVal(v float64, isInt bool) val {
	if isInt {
		v = float64(int64(v))
	}
	return val{kind: vNum, f: v, isInt: isInt}
}

func termVal(t rdf.Term) val { return val{kind: vTerm, t: t} }

// constVal analyzes a constant term once.
func constVal(t rdf.Term) val {
	ti := analyze(t)
	return val{kind: vInfo, inf: &ti}
}

// term boxes v into an RDF term.
func (v val) term() rdf.Term {
	switch v.kind {
	case vTerm:
		return v.t
	case vInfo:
		return v.inf.t
	case vBool:
		if v.b {
			return trueLit
		}
		return falseLit
	case vNum:
		if v.isInt {
			return rdf.NewInteger(int64(v.f))
		}
		return rdf.NewDouble(v.f)
	}
	return nil
}

// num is numeric(v.term()) without boxing.
func (v val) num() (float64, bool) {
	switch v.kind {
	case vTerm:
		return numeric(v.t)
	case vInfo:
		return v.inf.num, v.inf.numOK
	case vNum:
		return v.f, true
	}
	return 0, false
}

// intOK reports whether v.term() is a literal whose Int() succeeds.
func (v val) intOK() bool {
	switch v.kind {
	case vTerm:
		if l, ok := v.t.(rdf.Literal); ok {
			_, ok := l.Int()
			return ok
		}
	case vInfo:
		return v.inf.intOK
	case vNum:
		return v.isInt
	}
	return false
}

// ebv is rdf.EffectiveBoolean(v.term()).
func (v val) ebv() (bool, bool) {
	switch v.kind {
	case vBool:
		return v.b, true
	case vNum:
		return v.f != 0, true
	case vInfo:
		if !v.inf.lit {
			return false, false
		}
		if v.inf.numOK {
			return v.inf.num != 0, true // a numeric literal is never an xsd:boolean
		}
	}
	return rdf.EffectiveBoolean(v.term())
}

// sameTerm reports RDF term identity. Two memoized dictionary terms are
// identical exactly when their IDs are.
func sameTerm(a, b val) bool {
	if a.id != 0 && b.id != 0 {
		return a.id == b.id
	}
	return a.term() == b.term()
}

// valsEqual is SPARQL '=' (termsEqual) on typed values.
func valsEqual(a, b val) bool {
	if a.id != 0 && b.id != 0 {
		if a.id == b.id {
			return true
		}
		if !a.inf.lit || !b.inf.lit {
			return false // distinct terms, at least one not a literal
		}
	}
	af, aok := a.num()
	bf, bok := b.num()
	switch {
	case aok && bok:
		if af == bf {
			return true
		}
		if math.IsNaN(af) || math.IsNaN(bf) {
			return sameTerm(a, b) // NaN equals only itself, by identity
		}
		return false
	case aok || bok:
		// A numeric literal is neither identical to nor value-comparable
		// with a non-numeric term.
		return false
	}
	eq, _ := termsEqual(a.term(), b.term())
	return eq
}

// compareVals is rdf.Compare on typed values: numeric pairs compare by
// value without re-parsing, and everything else (including value-equal
// numerics, which tie-break on their lexical forms) falls back to the term
// order.
func compareVals(a, b val) int {
	if af, ok := a.num(); ok {
		if bf, ok := b.num(); ok {
			if af < bf {
				return -1
			}
			if af > bf {
				return 1
			}
		}
	}
	return rdf.Compare(a.term(), b.term())
}

// Comparison and arithmetic opcodes.
const (
	opEq = iota
	opNe
	opLt
	opGt
	opLe
	opGe
	opAdd
	opSub
	opMul
	opDiv
)

var binaryOps = map[string]int{
	"=": opEq, "!=": opNe, "<": opLt, ">": opGt, "<=": opLe, ">=": opGe,
	"+": opAdd, "-": opSub, "*": opMul, "/": opDiv,
}

var opNames = [...]string{"=", "!=", "<", ">", "<=", ">="}

// compareOp applies a comparison opcode.
func compareOp(op int, a, b val) (bool, bool) {
	if op == opEq || op == opNe {
		return valsEqual(a, b) != (op == opNe), true
	}
	if af, ok := a.num(); ok {
		if bf, ok := b.num(); ok {
			return cmpHolds(opNames[op], cmpFloat(af, bf)), true
		}
	}
	r, err := compareTerms(opNames[op], a.term(), b.term())
	return r, err == nil
}

// arith applies an arithmetic opcode; the result is an xsd:integer when
// both operands are integers and the value is integral (numResult).
func arith(op int, a, b val) (val, bool) {
	af, aok := a.num()
	bf, bok := b.num()
	if !aok || !bok {
		return val{}, false
	}
	var v float64
	switch op {
	case opAdd:
		v = af + bf
	case opSub:
		v = af - bf
	case opMul:
		v = af * bf
	default:
		if bf == 0 {
			return val{}, false
		}
		v = af / bf
	}
	return numVal(v, a.intOK() && b.intOK() && v == math.Trunc(v)), true
}

// env is the row an expression evaluates against.
type env struct {
	// b is a term-space row; in a group environment, the group's key
	// bindings.
	b Binding
	// vals, when non-nil, holds the frame's variables resolved from an
	// ID-space row (the term-space b is then ignored by variable reads).
	vals []val
	// aggs holds a group's finished aggregate values (vNone = error).
	aggs []val
}

// evalFn is a compiled expression: ok=false is an evaluation error.
type evalFn func(en *env) (val, bool)

// frame numbers the variables a set of compiled expressions reads; ID-space
// callers fill env.vals in frame order.
type frame struct {
	vars []string
	// byVal[i] is false when vars[i] is only tested for boundness, so an
	// ID-space caller need not decode it.
	byVal []bool
}

func (f *frame) slot(name string, byVal bool) int {
	for i, v := range f.vars {
		if v == name {
			f.byVal[i] = f.byVal[i] || byVal
			return i
		}
	}
	f.vars = append(f.vars, name)
	f.byVal = append(f.byVal, byVal)
	return len(f.vars) - 1
}

// aggSpec is one compiled aggregate of a grouped query.
type aggSpec struct {
	kind      int // aggCount, aggSum, ...
	distinct  bool
	star      bool
	sep       string
	arg       evalFn // nil for COUNT(*)
	boundOnly bool   // COUNT(?x): only the argument's boundness matters
}

// compiler compiles expressions against one frame. In a group context
// (group != nil) variables read the group's key binding, aggregates read
// the group's finished values, and operands are evaluated strictly — any
// operand error is the expression's error, as in SPARQL's aggregate
// projection — while aggregate arguments compile against the row frame
// group.rows.
type compiler struct {
	fr    *frame
	group *groupCompiler
}

type groupCompiler struct {
	rows *frame
	aggs []*aggSpec
}

// compileExpr compiles e for term-space rows or ID rows described by a
// fresh frame.
func compileExpr(e Expr) (evalFn, *frame) {
	c := compiler{fr: &frame{}}
	fn, _ := c.compile(e)
	return fn, c.fr
}

var errFn evalFn = func(*env) (val, bool) { return val{}, false }

func constFn(v val, ok bool) evalFn {
	if !ok {
		return errFn
	}
	if v.kind == vTerm {
		v = constVal(v.t)
	}
	return func(*env) (val, bool) { return v, true }
}

// fold evaluates an operator whose operands are all constant once.
func fold(fn evalFn, consts ...bool) (evalFn, bool) {
	for _, c := range consts {
		if !c {
			return fn, false
		}
	}
	v, ok := fn(nil)
	return constFn(v, ok), true
}

// compile returns the closure for e and whether it is constant.
func (c *compiler) compile(e Expr) (evalFn, bool) {
	switch ex := e.(type) {
	case ExVar:
		return c.variable(ex.Name), false
	case ExTerm:
		return constFn(constVal(ex.Term), true), true
	case ExUnary:
		return c.unary(ex)
	case ExBinary:
		return c.binary(ex)
	case ExCall:
		return c.call(ex)
	case ExAggregate:
		if c.group == nil {
			return errFn, true // aggregate outside a grouped query
		}
		return c.aggregate(ex), false
	}
	return errFn, true
}

func (c *compiler) variable(name string) evalFn {
	i := c.fr.slot(name, true)
	return func(en *env) (val, bool) {
		if en.vals != nil {
			v := en.vals[i]
			return v, v.kind != vNone
		}
		t, ok := en.b[name]
		if !ok {
			return val{}, false
		}
		return val{kind: vTerm, t: t}, true
	}
}

func (c *compiler) unary(ex ExUnary) (evalFn, bool) {
	inner, k := c.compile(ex.Expr)
	var fn evalFn
	switch ex.Op {
	case "!":
		fn = func(en *env) (val, bool) {
			v, ok := inner(en)
			if !ok {
				return val{}, false
			}
			b, ok := v.ebv()
			return boolVal(!b), ok
		}
	case "-":
		fn = func(en *env) (val, bool) {
			v, ok := inner(en)
			if !ok {
				return val{}, false
			}
			f, ok := v.num()
			if !ok {
				return val{}, false
			}
			return numVal(-f, v.intOK() && -f == math.Trunc(-f)), true
		}
	default:
		return errFn, true
	}
	return fold(fn, k)
}

func (c *compiler) binary(ex ExBinary) (evalFn, bool) {
	l, lk := c.compile(ex.Left)
	r, rk := c.compile(ex.Right)
	var fn evalFn
	switch ex.Op {
	case "||", "&&":
		fn = c.logic(ex.Op == "||", l, r)
	default:
		op, known := binaryOps[ex.Op]
		if !known {
			return errFn, true
		}
		fn = func(en *env) (val, bool) {
			a, ok := l(en)
			if !ok {
				return val{}, false
			}
			b, ok := r(en)
			if !ok {
				return val{}, false
			}
			if op >= opAdd {
				return arith(op, a, b)
			}
			res, ok := compareOp(op, a, b)
			return boolVal(res), ok
		}
	}
	return fold(fn, lk, rk)
}

// logic compiles || (or) and && over effective boolean values: the
// connective's absorbing value (true for ||, false for &&) on either
// error-free side decides the result even when the other side errors.
// Outside a group context the right operand is skipped once the left
// decides; in one, both operands must evaluate without error first.
func (c *compiler) logic(or bool, l, r evalFn) evalFn {
	strict := c.group != nil
	return func(en *env) (val, bool) {
		a, aok := l(en)
		var av, aebv bool
		if aok {
			av, aebv = a.ebv()
			if aebv && av == or && !strict {
				return boolVal(or), true
			}
		}
		b, bok := r(en)
		if strict && (!aok || !bok) {
			return val{}, false
		}
		var bv, bebv bool
		if bok {
			bv, bebv = b.ebv()
		}
		switch {
		case aebv && av == or, bebv && bv == or:
			return boolVal(or), true
		case aebv && bebv:
			return boolVal(!or), true
		}
		return val{}, false
	}
}

func (c *compiler) call(ex ExCall) (evalFn, bool) {
	strict := c.group != nil
	switch ex.Name {
	case "BOUND":
		v, isVar := ex.Args[0].(ExVar)
		if !isVar || strict {
			// BOUND needs a variable; in a group context its argument
			// has already been reduced to a value.
			return errFn, true
		}
		i := c.fr.slot(v.Name, false)
		return func(en *env) (val, bool) {
			if en.vals != nil {
				return boolVal(en.vals[i].kind != vNone), true
			}
			_, ok := en.b[v.Name]
			return boolVal(ok), true
		}, false
	}
	args := make([]evalFn, len(ex.Args))
	consts := make([]bool, len(ex.Args))
	for i, a := range ex.Args {
		args[i], consts[i] = c.compile(a)
	}
	var fn evalFn
	switch {
	case ex.Name == "COALESCE" && !strict:
		fn = func(en *env) (val, bool) {
			for _, a := range args {
				if v, ok := a(en); ok {
					return v, true
				}
			}
			return val{}, false
		}
	case ex.Name == "IF" && !strict:
		fn = func(en *env) (val, bool) {
			cv, ok := args[0](en)
			if !ok {
				return val{}, false
			}
			b, ok := cv.ebv()
			if !ok {
				return val{}, false
			}
			if b {
				return args[1](en)
			}
			return args[2](en)
		}
	default:
		name := ex.Name
		fn = func(en *env) (val, bool) {
			terms := make([]rdf.Term, len(args))
			for i, a := range args {
				v, ok := a(en)
				if !ok {
					return val{}, false
				}
				terms[i] = v.term()
			}
			switch name {
			case "COALESCE": // strict: every argument evaluated
				return termVal(terms[0]), true
			case "IF":
				b, ok := rdf.EffectiveBoolean(terms[0])
				if !ok {
					return val{}, false
				}
				if b {
					return termVal(terms[1]), true
				}
				return termVal(terms[2]), true
			}
			t, err := applyBuiltin(name, terms)
			if err != nil {
				return val{}, false
			}
			return termVal(t), true
		}
	}
	return fold(fn, consts...)
}

// aggregate registers ex as the next aggregate of the group context and
// returns the closure reading its finished value.
func (c *compiler) aggregate(ex ExAggregate) evalFn {
	kind, known := aggKinds[ex.Name]
	if !known {
		kind = aggUnknown
	}
	spec := &aggSpec{kind: kind, distinct: ex.Distinct, star: ex.Star, sep: ex.Separator}
	if !ex.Star {
		ac := compiler{fr: c.group.rows}
		if v, isVar := ex.Arg.(ExVar); isVar && ex.Name == "COUNT" && !ex.Distinct {
			spec.boundOnly = true
			spec.arg, _ = ac.call(ExCall{Name: "BOUND", Args: []Expr{v}})
		} else {
			spec.arg, _ = ac.compile(ex.Arg)
		}
	}
	k := len(c.group.aggs)
	c.group.aggs = append(c.group.aggs, spec)
	return func(en *env) (val, bool) {
		v := en.aggs[k]
		return v, v.kind != vNone
	}
}

// ebvTrue reports whether fn yields an error-free true effective boolean
// value — the FILTER and HAVING acceptance test.
func ebvTrue(fn evalFn, en *env) bool {
	v, ok := fn(en)
	if !ok {
		return false
	}
	b, ok := v.ebv()
	return ok && b
}

// idMemo is the per-query ID→term cache of ID-space expression evaluation:
// each distinct dictionary ID is decoded (in batches) and analyzed once.
// Entries never change after creation, so pointers into ents stay valid
// even after a later append moves the slice.
type idMemo struct {
	idx  map[store.ID]int32
	ents []termInfo
}

// resolve makes sure every ID in the given slots of rows is memoized —
// decoding the IDs it has not seen in one batch — and returns each cell's
// entry index, row-major (cells[r*len(slots)+j] for row r, slots[j]; -1 for
// an unbound cell).
func (m *idMemo) resolve(src Source, rows idRows, slots []int) []int32 {
	n := rows.n() * len(slots)
	if n == 0 {
		return nil
	}
	if m.idx == nil {
		m.idx = make(map[store.ID]int32, n)
	}
	cells := make([]int32, 0, n)
	var miss []store.ID
	for r := 0; r < rows.n(); r++ {
		row := rows.row(r)
		for _, s := range slots {
			id := row[s]
			if id == 0 {
				cells = append(cells, -1)
				continue
			}
			e, ok := m.idx[id]
			if !ok {
				e = int32(len(m.ents) + len(miss))
				m.idx[id] = e
				miss = append(miss, id)
			}
			cells = append(cells, e)
		}
	}
	if len(miss) > 0 {
		m.ents = slices.Grow(m.ents, len(miss))
		for _, t := range src.Terms(miss) {
			m.ents = append(m.ents, analyze(t))
		}
	}
	return cells
}

// acquireMemo hands out the query's memo to one evaluation step at a time;
// a step running concurrently (OPTIONAL inner groups fan out to workers)
// gets a private memo instead of contending on a lock per row. Pass shared
// to releaseMemo when the step ends.
func (e *engine) acquireMemo() (m *idMemo, shared bool) {
	if !e.memoMu.TryLock() {
		return &idMemo{}, false
	}
	if e.memo == nil {
		e.memo = &idMemo{}
	}
	return e.memo, true
}

func (e *engine) releaseMemo(shared bool) {
	if shared {
		e.memoMu.Unlock()
	}
}

// frameLayout maps a frame's variables onto one pattern run's slots:
// slots[i] is frame variable i's run slot (-1: the run does not bind it,
// read the row's parent binding), valSlots are the slots read by value, and
// cellOf[i] is variable i's column among them (-1: not read by value).
type frameLayout struct {
	slotVars                []string
	slots, cellOf, valSlots []int
}

func newFrameLayout(fr *frame, slotVars []string) *frameLayout {
	l := &frameLayout{slotVars: slotVars}
	for i, v := range fr.vars {
		s := slices.Index(slotVars, v)
		l.slots = append(l.slots, s)
		if s >= 0 && fr.byVal[i] {
			l.cellOf = append(l.cellOf, len(l.valSlots))
			l.valSlots = append(l.valSlots, s)
		} else {
			l.cellOf = append(l.cellOf, -1)
		}
	}
	return l
}

// rowBinder resolves a frame's variables for the ID rows of one pattern
// run: slot variables read by value through the memo, slot variables read
// for boundness straight from the row, anything else from the row's parent
// binding.
type rowBinder struct {
	fr   *frame
	lay  *frameLayout
	memo *idMemo
	// cells holds the resolved rows' memo entries, len(lay.valSlots) per
	// row.
	cells []int32
	vals  []val
}

func newRowBinder(fr *frame, lay *frameLayout, memo *idMemo) rowBinder {
	return rowBinder{fr: fr, lay: lay, memo: memo, vals: make([]val, len(fr.vars))}
}

// resolve decodes the value-read slot columns of rows through the memo;
// bind then reads rows by index.
func (rb *rowBinder) resolve(src Source, rows idRows) {
	rb.cells = rb.memo.resolve(src, rows, rb.lay.valSlots)
}

// bind fills the frame's values for row r of the resolved rows.
func (rb *rowBinder) bind(en *env, rows idRows, r int, parent Binding) {
	row := rows.row(r)
	width := len(rb.lay.valSlots)
	for i, s := range rb.lay.slots {
		switch c := rb.lay.cellOf[i]; {
		case s < 0:
			if t, ok := parent[rb.fr.vars[i]]; ok {
				rb.vals[i] = termVal(t)
			} else {
				rb.vals[i] = val{}
			}
		case row[s] == 0:
			rb.vals[i] = val{}
		case c >= 0:
			rb.vals[i] = val{kind: vInfo, id: row[s], inf: &rb.memo.ents[rb.cells[r*width+c]]}
		default:
			rb.vals[i] = val{kind: vBound, id: row[s]}
		}
	}
	en.vals = rb.vals
}
