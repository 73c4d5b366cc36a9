package sparql

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// Differential query fuzzing: random small graphs (with uncompacted delta
// triples and tombstones) and random queries over them, evaluated by the
// engine and by the reference evaluator (reference_test.go).

// Vocabulary: six entities, three predicates, a few literals, plus one
// term of each kind that never occurs in the graph.
var (
	fuzzEntities = []string{"<http://f/e0>", "<http://f/e1>", "<http://f/e2>", "<http://f/e3>", "<http://f/e4>", "<http://f/e5>"}
	fuzzPreds    = []string{"<http://f/p0>", "<http://f/p1>", "<http://f/p2>"}
	fuzzLiterals = []string{"0", "1", "2", "3", "4", `"a"`, `"b"`}
	fuzzAbsent   = []string{"<http://f/e9>", "<http://f/p9>", `"zz"`, "99"}
	fuzzVars     = []string{"?a", "?b", "?c", "?d"}
)

// fuzzGraph builds a random graph: a compacted base, then delta inserts and
// deletes of base and delta triples, so every scan sees a delta tail and
// tombstones.
func fuzzGraph(t testing.TB, rng *rand.Rand) *store.Store {
	t.Helper()
	ent := func() rdf.IRI { return rdf.IRI(fmt.Sprintf("http://f/e%d", rng.IntN(len(fuzzEntities)))) }
	triple := func() rdf.Triple {
		s := ent()
		tr := rdf.Triple{S: s, P: rdf.IRI(fmt.Sprintf("http://f/p%d", rng.IntN(len(fuzzPreds))))}
		switch rng.IntN(6) {
		case 0:
			tr.O = s // self-loops feed repeated-variable patterns
		case 1, 2:
			tr.O = ent()
		case 3, 4:
			tr.O = rdf.NewInteger(int64(rng.IntN(5)))
		default:
			tr.O = rdf.NewLiteral(string(rune('a' + rng.IntN(2))))
		}
		return tr
	}
	base := make([]rdf.Triple, 60+rng.IntN(80))
	for i := range base {
		base[i] = triple()
	}
	st, err := store.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	st.Compact()
	added := make([]rdf.Triple, 3+rng.IntN(10))
	for i := range added {
		added[i] = triple()
		if err := st.Add(added[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2+rng.IntN(6); i++ {
		if rng.IntN(2) == 0 {
			st.Delete(base[rng.IntN(len(base))])
		} else {
			st.Delete(added[rng.IntN(len(added))])
		}
	}
	return st
}

// queryGen writes random queries over the fuzz vocabulary.
type queryGen struct {
	rng *rand.Rand
}

func (g *queryGen) pick(xs []string) string { return xs[g.rng.IntN(len(xs))] }

func (g *queryGen) chance(pct int) bool { return g.rng.IntN(100) < pct }

// constant is a subject/object constant, occasionally one absent from the
// graph.
func (g *queryGen) constant() string {
	switch {
	case g.chance(8):
		return g.pick(fuzzAbsent)
	case g.chance(50):
		return g.pick(fuzzEntities)
	default:
		return g.pick(fuzzLiterals)
	}
}

func (g *queryGen) pattern() string {
	s := g.pick(fuzzVars)
	if g.chance(15) {
		s = g.pick(fuzzEntities)
	}
	p := g.pick(fuzzPreds)
	switch {
	case g.chance(15):
		p = g.pick(fuzzVars)
	case g.chance(5):
		p = "<http://f/p9>"
	}
	var o string
	switch {
	case g.chance(12) && strings.HasPrefix(s, "?"):
		o = s // repeated variable
	case g.chance(70):
		o = g.pick(fuzzVars)
	default:
		o = g.constant()
	}
	return s + " " + p + " " + o + " ."
}

func (g *queryGen) expr() string {
	v, w := g.pick(fuzzVars), g.pick(fuzzVars)
	switch g.rng.IntN(9) {
	case 0:
		return fmt.Sprintf("%s > %d", v, g.rng.IntN(5))
	case 1:
		return fmt.Sprintf("%s <= %d", v, g.rng.IntN(5))
	case 2:
		return v + " = " + g.constant()
	case 3:
		return v + " != " + w
	case 4:
		return "BOUND(" + v + ")"
	case 5:
		return "!BOUND(" + v + ")"
	case 6:
		return "isIRI(" + v + ")"
	case 7:
		return fmt.Sprintf("%s < %d || %s = %s", v, g.rng.IntN(5), w, g.constant())
	default:
		return "STR(" + v + `) = "a"`
	}
}

func (g *queryGen) values() string {
	if g.chance(50) {
		v := g.pick(fuzzVars)
		var vals []string
		for i := 0; i < 1+g.rng.IntN(3); i++ {
			vals = append(vals, g.constant())
		}
		return "VALUES " + v + " { " + strings.Join(vals, " ") + " }"
	}
	v, w := g.pick(fuzzVars), g.pick(fuzzVars)
	if v == w {
		w = "?x"
	}
	cell := func() string {
		if g.chance(25) {
			return "UNDEF"
		}
		return g.constant()
	}
	var rows []string
	for i := 0; i < 1+g.rng.IntN(3); i++ {
		rows = append(rows, "("+cell()+" "+cell()+")")
	}
	return "VALUES (" + v + " " + w + ") { " + strings.Join(rows, " ") + " }"
}

func (g *queryGen) bind() string {
	target := "?x"
	switch {
	case g.chance(20):
		target = g.pick(fuzzVars) // often already bound: the query must fail
	case g.chance(40):
		target = "?y"
	}
	v := g.pick(fuzzVars)
	exprs := []string{v, "STR(" + v + ")", v + " + 1", g.constant()}
	return "BIND(" + g.pick(exprs) + " AS " + target + ")"
}

// bindGuard writes a pattern, a filter on its object that usually rejects
// every row, and a BIND onto that same variable: the query must fail, so
// the filter must not be pushed into the pattern's run (where emptying the
// run would hide the error).
func (g *queryGen) bindGuard() string {
	v := g.pick(fuzzVars)
	return fmt.Sprintf("%s %s %s . FILTER(%s > %d) BIND(1 AS %s)", g.pick(fuzzVars), g.pick(fuzzPreds), v, v, 2+g.rng.IntN(3), v)
}

// group writes a group body: a leading pattern, then a few random elements.
func (g *queryGen) group(depth int) string {
	elems := []string{g.pattern()}
	if g.chance(10) {
		elems[0] = g.values()
	}
	for n := g.rng.IntN(4 - depth); n > 0; n-- {
		switch k := g.rng.IntN(13); {
		case k < 5:
			elems = append(elems, g.pattern())
		case k < 7:
			elems = append(elems, "FILTER("+g.expr()+")")
		case k == 7 && depth < 2:
			elems = append(elems, "OPTIONAL { "+g.group(depth+1)+" }")
		case k == 8 && depth < 2:
			elems = append(elems, "{ "+g.group(depth+1)+" } UNION { "+g.group(depth+1)+" }")
		case k == 9:
			elems = append(elems, g.values())
		case k == 10:
			elems = append(elems, g.bind())
		case k == 11:
			elems = append(elems, g.bindGuard())
		case depth < 2:
			elems = append(elems, "{ "+g.group(depth+1)+" }")
		}
	}
	return strings.Join(elems, " ")
}

// query writes a random SELECT or ASK query.
func (g *queryGen) query() string {
	where := "{ " + g.group(0) + " }"
	if g.chance(8) {
		return "ASK " + where
	}
	var sb strings.Builder
	sb.WriteString("SELECT ")
	var order []string
	if g.chance(15) {
		key := g.pick(fuzzVars)
		aggs := []string{"COUNT(*)", "COUNT(DISTINCT " + g.pick(fuzzVars) + ")", "MIN(" + g.pick(fuzzVars) + ")",
			"MAX(" + g.pick(fuzzVars) + ")", "SUM(" + g.pick(fuzzVars) + ")", "SAMPLE(" + g.pick(fuzzVars) + ")"}
		fmt.Fprintf(&sb, "%s (%s AS ?n) (%s AS ?m) WHERE %s GROUP BY %s", key, g.pick(aggs), g.pick(aggs), where, key)
		if g.chance(30) {
			sb.WriteString(" HAVING (COUNT(*) > 1)")
		}
		order = []string{key, "?n", "DESC(?m)"}
	} else {
		if g.chance(25) {
			sb.WriteString("DISTINCT ")
		}
		if g.chance(30) {
			sb.WriteString("*")
		} else {
			for i := 0; i < 1+g.rng.IntN(3); i++ {
				sb.WriteString(g.pick(append(fuzzVars, "?x")) + " ")
			}
			if g.chance(15) {
				sb.WriteString("(STR(" + g.pick(fuzzVars) + ") AS ?z)")
			}
		}
		sb.WriteString(" WHERE " + where)
		order = append(fuzzVars, "DESC(?a)", "DESC(?b)", "?x")
	}
	if g.chance(35) {
		sb.WriteString(" ORDER BY")
		for i := 0; i < 1+g.rng.IntN(2); i++ {
			sb.WriteString(" " + g.pick(order))
		}
	}
	if g.chance(40) {
		fmt.Fprintf(&sb, " LIMIT %d", g.rng.IntN(7))
	}
	if g.chance(20) {
		fmt.Fprintf(&sb, " OFFSET %d", g.rng.IntN(4))
	}
	return sb.String()
}

// queryCase builds one seed's graph and checks a batch of queries on it at
// parallelism 1 and 8, through both entries (diffQuery).
func queryCase(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	st := fuzzGraph(t, rng)
	g := &queryGen{rng: rng}
	for i := 0; i < 12; i++ {
		q := g.query()
		for _, par := range []int{1, 8} {
			if d := diffQuery(st, st, q, Options{Parallelism: par}); d != "" {
				t.Fatalf("seed %d, query %d (par=%d):\n%s\n%s", seed, i, par, q, d)
			}
		}
	}
}

// FuzzQueryDifferential checks the engine against the reference evaluator
// on generated graphs and queries: shared and repeated variables, absent
// constants, OPTIONAL, UNION, FILTER, VALUES, BIND, grouping and
// DISTINCT/ORDER BY/LIMIT/OFFSET.
func FuzzQueryDifferential(f *testing.F) {
	for seed := uint64(0); seed < 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(queryCase)
}
