package sparql

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Differential tests of the compiled evaluator (compile.go, agg.go) against
// the reference interpreter (expr_oracle_test.go): generated expressions
// over generated bindings, evaluated on term-space rows, on ID-space rows
// resolved through the memo, and — for aggregates — folded over a
// generated group, must agree on error-ness and on the resulting term.

// exprTermPool covers every value space the evaluator distinguishes:
// integers (including an unparsable and a whitespace-padded lexical form),
// decimals, doubles (NaN, infinity, huge), strings, language strings,
// booleans, temporals, IRIs and a blank node.
var exprTermPool = []rdf.Term{
	rdf.NewInteger(0),
	rdf.NewInteger(1),
	rdf.NewInteger(-3),
	rdf.NewInteger(42),
	rdf.NewTypedLiteral("9223372036854775807", rdf.XSDInteger),
	rdf.NewTypedLiteral("abc", rdf.XSDInteger),
	rdf.NewTypedLiteral(" 7 ", rdf.XSDInt),
	rdf.NewTypedLiteral("1.5", rdf.XSDDecimal),
	rdf.NewTypedLiteral("1.0", rdf.XSDDecimal),
	rdf.NewTypedLiteral("NaN", rdf.XSDDouble),
	rdf.NewTypedLiteral("INF", rdf.XSDDouble),
	rdf.NewTypedLiteral("1e300", rdf.XSDDouble),
	rdf.NewDouble(0.25),
	rdf.NewLiteral(""),
	rdf.NewLiteral("abc"),
	rdf.NewLiteral("ABC"),
	rdf.NewLiteral("1"),
	rdf.NewLangLiteral("chat", "fr"),
	rdf.NewLangLiteral("cat", "en-GB"),
	rdf.NewBoolean(true),
	rdf.NewBoolean(false),
	rdf.NewTypedLiteral("1", rdf.XSDBoolean),
	rdf.NewTypedLiteral("2020-01-02", rdf.XSDDate),
	rdf.NewTypedLiteral("2021-06-01T10:00:00Z", rdf.XSDDateTime),
	rdf.NewTypedLiteral("2020", rdf.XSDGYear),
	rdf.IRI("http://x/a"),
	rdf.IRI("http://x/b"),
	rdf.BlankNode("b1"),
}

var exprVarPool = []string{"a", "b", "c", "d"}

// exprGen builds expressions and bindings from a decision stream: fuzz
// bytes, or a seeded PRNG in the deterministic test. An exhausted stream
// reads zeros, which always selects a leaf.
type exprGen struct {
	data []byte
	rng  *rand.Rand
}

func (g *exprGen) pick(n int) int {
	if g.rng != nil {
		return g.rng.Intn(n)
	}
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b) % n
}

func (g *exprGen) leaf() Expr {
	if g.pick(2) == 0 {
		return ExVar{Name: exprVarPool[g.pick(len(exprVarPool))]}
	}
	return ExTerm{Term: exprTermPool[g.pick(len(exprTermPool))]}
}

var exprBinaryOps = []string{"||", "&&", "=", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"}

var exprUnaryCalls = []string{"STR", "LANG", "DATATYPE", "ISIRI", "ISBLANK", "ISLITERAL",
	"ISNUMERIC", "STRLEN", "UCASE", "ABS", "CEIL", "ROUND", "YEAR"}

var exprAggNames = []string{"COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT"}

// expr generates an expression of at most the given depth; aggs allows
// aggregate nodes (whose arguments never nest further aggregates).
func (g *exprGen) expr(depth int, aggs bool) Expr {
	if depth == 0 {
		return g.leaf()
	}
	switch g.pick(9) {
	case 0:
		return g.leaf()
	case 1, 2, 3:
		return ExBinary{Op: exprBinaryOps[g.pick(len(exprBinaryOps))], Left: g.expr(depth-1, aggs), Right: g.expr(depth-1, aggs)}
	case 4:
		op := "!"
		if g.pick(2) == 1 {
			op = "-"
		}
		return ExUnary{Op: op, Expr: g.expr(depth-1, aggs)}
	case 5:
		switch g.pick(4) {
		case 0:
			return ExCall{Name: "BOUND", Args: []Expr{ExVar{Name: exprVarPool[g.pick(len(exprVarPool))]}}}
		case 1:
			args := []Expr{g.expr(depth-1, aggs), g.expr(depth-1, aggs)}
			if g.pick(2) == 1 {
				args = append(args, g.expr(depth-1, aggs))
			}
			return ExCall{Name: "COALESCE", Args: args}
		case 2:
			return ExCall{Name: "IF", Args: []Expr{g.expr(depth-1, aggs), g.expr(depth-1, aggs), g.expr(depth-1, aggs)}}
		default:
			names := []string{"CONTAINS", "STRSTARTS", "REGEX", "CONCAT"}
			return ExCall{Name: names[g.pick(len(names))], Args: []Expr{g.expr(depth-1, aggs), g.expr(depth-1, aggs)}}
		}
	case 6:
		return ExCall{Name: exprUnaryCalls[g.pick(len(exprUnaryCalls))], Args: []Expr{g.expr(depth-1, aggs)}}
	default:
		if !aggs {
			return g.leaf()
		}
		agg := ExAggregate{Name: exprAggNames[g.pick(len(exprAggNames))], Distinct: g.pick(3) == 0, Separator: "|"}
		if agg.Name == "COUNT" && g.pick(3) == 0 {
			agg.Star = true
		} else {
			agg.Arg = g.expr(depth-1, false)
		}
		return agg
	}
}

// binding generates a row: each pool variable unbound or bound to a pool
// term.
func (g *exprGen) binding() Binding {
	b := Binding{}
	for _, v := range exprVarPool {
		if k := g.pick(len(exprTermPool) + 2); k < len(exprTermPool) {
			b[v] = exprTermPool[k]
		}
	}
	return b
}

// exprPoolStore holds every pool term as an object, so every pool term has a
// dictionary ID.
func exprPoolStore(t testing.TB) *store.Store {
	t.Helper()
	var triples []rdf.Triple
	for i, term := range exprTermPool {
		triples = append(triples, rdf.Triple{S: rdf.IRI(fmt.Sprintf("http://x/s%d", i)), P: "http://x/p", O: term})
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// encodeRows turns term-space rows into the ID tail a pattern run binding
// the pool variables would produce (an unbound variable is slot 0).
func encodeRows(t testing.TB, st *store.Store, rows []Binding) *idTail {
	t.Helper()
	tail := &idTail{src: st, rows: idRows{stride: len(exprVarPool)}, slotVars: exprVarPool}
	for r, b := range rows {
		for _, v := range exprVarPool {
			var id store.ID
			if term, ok := b[v]; ok {
				var found bool
				if id, found = st.LookupTermID(term); !found {
					t.Fatalf("pool term %v has no ID", term)
				}
			}
			tail.rows.ids = append(tail.rows.ids, id)
		}
		tail.rows.parents = append(tail.rows.parents, int32(r))
		tail.input = append(tail.input, Binding{})
	}
	return tail
}

// sameResult compares a compiled result with the oracle's.
func sameResult(v val, ok bool, want rdf.Term, wantErr error) bool {
	if ok != (wantErr == nil) {
		return false
	}
	return !ok || v.term() == want
}

// checkExpr compares compiled and interpreted evaluation of e over rows, on
// term-space and on ID-space rows.
func checkExpr(t *testing.T, st *store.Store, e Expr, rows []Binding) {
	t.Helper()
	fn, fr := compileExpr(e)
	tail := encodeRows(t, st, rows)
	rb := newRowBinder(fr, newFrameLayout(fr, tail.slotVars), &idMemo{})
	rb.resolve(st, tail.rows)
	for r, b := range rows {
		want, wantErr := evalExpr(e, b)
		v, ok := fn(&env{b: b})
		if !sameResult(v, ok, want, wantErr) {
			t.Fatalf("%s over %v: compiled (%v, ok=%v), interpreter (%v, %v)", exprString(e), b, v.term(), ok, want, wantErr)
		}
		var en env
		rb.bind(&en, tail.rows, r, tail.input[r])
		v, ok = fn(&en)
		if !sameResult(v, ok, want, wantErr) {
			t.Fatalf("%s over ID row %v: compiled (%v, ok=%v), interpreter (%v, %v)", exprString(e), b, v.term(), ok, want, wantErr)
		}
		fb, fbErr := evalBool(e, b)
		if ebvTrue(fn, &en) != (fbErr == nil && fb) {
			t.Fatalf("%s over %v: FILTER verdicts differ", exprString(e), b)
		}
	}
}

// checkAggExpr compares a grouped expression: the compiled aggregates fold
// the rows (as term-space and as ID-space rows) and the expression reads
// them over the group's key binding rep; the interpreter evaluates
// evalAggExpr over the same rows.
func checkAggExpr(t *testing.T, st *store.Store, e Expr, rows []Binding, rep Binding) {
	t.Helper()
	gc := &groupCompiler{rows: &frame{}}
	c := compiler{fr: &frame{}, group: gc}
	fn, _ := c.compile(e)
	want, wantErr := evalAggExpr(e, rows, rep)

	tail := encodeRows(t, st, rows)
	rb := newRowBinder(gc.rows, newFrameLayout(gc.rows, tail.slotVars), &idMemo{})
	rb.resolve(st, tail.rows)
	for _, idSpace := range []bool{false, true} {
		accs := make([]aggAcc, len(gc.aggs))
		var en env
		for r, b := range rows {
			if idSpace {
				rb.bind(&en, tail.rows, r, tail.input[r])
			} else {
				en.b = b
			}
			for k, spec := range gc.aggs {
				spec.fold(&accs[k], &en)
			}
		}
		gen := env{b: rep, aggs: make([]val, len(gc.aggs))}
		for k, spec := range gc.aggs {
			gen.aggs[k] = spec.result(&accs[k])
		}
		v, ok := fn(&gen)
		if !sameResult(v, ok, want, wantErr) {
			t.Fatalf("%s over %d rows (idSpace=%v): compiled (%v, ok=%v), interpreter (%v, %v)", exprString(e), len(rows), idSpace, v.term(), ok, want, wantErr)
		}
	}
}

// exprCase generates and checks one row-level and one grouped expression.
func exprCase(t *testing.T, st *store.Store, g *exprGen) {
	e := g.expr(4, false)
	rows := make([]Binding, 1+g.pick(4))
	for i := range rows {
		rows[i] = g.binding()
	}
	checkExpr(t, st, e, rows)

	ae := g.expr(3, true)
	rep := Binding{}
	if term, ok := rows[0]["a"]; ok && g.pick(2) == 0 {
		rep["a"] = term // ?a acts as the group key
	}
	checkAggExpr(t, st, ae, rows, rep)
}

// FuzzExprDifferential is the compiled evaluator's contract under
// coverage-guided fuzzing: the input bytes drive the expression and binding
// generator.
func FuzzExprDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 1, 1, 12, 1, 7, 3, 3, 1, 0, 5, 1, 2, 9})
	f.Add([]byte{3, 1, 1, 0, 0, 1, 9, 4, 0, 1, 3, 7, 7, 7, 2, 1, 5, 8, 6})
	f.Add([]byte{5, 2, 1, 1, 0, 2, 1, 3, 4, 1, 0, 0, 9, 9, 9, 9, 8, 8, 1})
	f.Add([]byte{7, 0, 1, 1, 2, 3, 8, 8, 8, 1, 0, 1, 5, 2, 2, 4, 4, 0, 1, 7})
	st := exprPoolStore(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		exprCase(t, st, &exprGen{data: data})
	})
}

// TestCompiledMatchesInterpreter runs the differential over a fixed set of
// seeded generations, so every test run covers it without the fuzzer.
func TestCompiledMatchesInterpreter(t *testing.T) {
	st := exprPoolStore(t)
	for seed := int64(0); seed < 3000; seed++ {
		exprCase(t, st, &exprGen{rng: rand.New(rand.NewSource(seed))})
	}
}

// TestCompiledEdgeCases pins value-space corners the generator reaches only
// rarely: NaN is equal to itself only by term identity, numerics compare by
// value across datatypes, and integer arithmetic stays integral.
func TestCompiledEdgeCases(t *testing.T) {
	st := exprPoolStore(t)
	nan := rdf.NewTypedLiteral("NaN", rdf.XSDDouble)
	rows := []Binding{
		{"a": nan, "b": nan},
		{"a": nan, "b": rdf.NewDouble(0.25)},
		{"a": rdf.NewInteger(1), "b": rdf.NewTypedLiteral("1.0", rdf.XSDDecimal)},
		{"a": rdf.NewTypedLiteral("2020-01-02", rdf.XSDDate), "b": rdf.NewTypedLiteral("2021-06-01T10:00:00Z", rdf.XSDDateTime)},
		{"a": rdf.IRI("http://x/a"), "b": rdf.IRI("http://x/a")},
		{"a": rdf.NewLangLiteral("chat", "fr"), "b": rdf.NewLiteral("abc")},
	}
	for _, src := range []string{
		"?a = ?b", "?a != ?b", "?a < ?b", "?a >= ?b", "?a = ?a", "?a != ?a",
		"?a + ?b", "?a * 2", "-?a", "!?a", "?a / 0", "?a || ?b", "?a && !?b",
		`COALESCE(?c, ?a)`, `IF(BOUND(?c), ?a, ?b)`, `STR(?a) < STR(?b)`,
	} {
		q, err := Parse("SELECT ?a WHERE { FILTER(" + src + ") }")
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		checkExpr(t, st, q.Where.Filters[0], rows)
	}
}
