package sparql

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// idJoinStore builds a dataset shaped to exercise every ID-executor strategy:
// categorical triples (bound-object merge joins), a link chain (equal-prefix
// subject merges), numeric literals, a hub every entity points at (duplicate
// merge keys), a few self-loops (repeated variables), plus uncompacted delta
// triples and a tombstone so ScanIDs runs carry a tail.
func idJoinStore(t testing.TB) *store.Store {
	t.Helper()
	const n = 300
	ent := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://x/e%d", i)) }
	var triples []rdf.Triple
	for i := 0; i < n; i++ {
		triples = append(triples,
			rdf.Triple{S: ent(i), P: "http://x/cat", O: rdf.NewLiteral(fmt.Sprintf("c%d", i%3))},
			rdf.Triple{S: ent(i), P: "http://x/num", O: rdf.NewInteger(int64(i % 50))},
			rdf.Triple{S: ent(i), P: "http://x/link", O: ent((i + 7) % n)},
			rdf.Triple{S: ent(i), P: "http://x/rel", O: ent(0)}, // shared hub
		)
		if i%37 == 0 {
			triples = append(triples, rdf.Triple{S: ent(i), P: "http://x/link", O: ent(i)})
		}
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	st.Compact()
	// Leave delta entries and a tombstone behind so the ID scans see an
	// uncompacted tail.
	for i := 0; i < 20; i++ {
		if err := st.Add(rdf.Triple{S: ent(n + i), P: "http://x/cat", O: rdf.NewLiteral("c1")}); err != nil {
			t.Fatal(err)
		}
		if err := st.Add(rdf.Triple{S: ent(n + i), P: "http://x/num", O: rdf.NewInteger(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Delete(rdf.Triple{S: ent(1), P: "http://x/num", O: rdf.NewInteger(1)}) {
		t.Fatal("tombstone delete failed")
	}
	return st
}

// idJoinQueries is the differential grid: shapes chosen to hit each strategy
// (merge join, scan-cross, per-row probe) and each exclusion (mixed slots,
// repeated variables, predicate-variable lead, absent constants).
var idJoinQueries = []struct {
	name, q string
}{
	{"bound-object merge", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v }`},
	{"three-pattern chain", `SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`},
	{"scan-cross then merge", `SELECT ?e ?c ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v }`},
	{"duplicate merge keys", `SELECT ?e ?v WHERE { ?e <http://x/rel> ?h . ?h <http://x/num> ?v }`},
	{"cycle join", `SELECT ?a ?b WHERE { ?a <http://x/link> ?b . ?b <http://x/link> ?a }`},
	{"repeated variable", `SELECT ?a WHERE { ?a <http://x/link> ?a }`},
	{"predicate variable lead", `SELECT ?p ?x ?y WHERE { <http://x/e0> ?p ?o . ?x ?p ?y } LIMIT 400`},
	{"empty run", `SELECT ?e ?v WHERE { ?e <http://x/cat> "missing" . ?e <http://x/num> ?v }`},
	{"absent constant", `SELECT ?v WHERE { ?e <http://nowhere/p> ?v }`},
	{"optional", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . OPTIONAL { ?e <http://x/num> ?v } }`},
	{"union", `SELECT ?e WHERE { { ?e <http://x/cat> "c0" } UNION { ?e <http://x/cat> "c1" } }`},
	{"values with foreign term", `SELECT ?e ?v WHERE { VALUES ?e { <http://x/e1> <http://nowhere/x> } ?e <http://x/num> ?v }`},
	{"filter", `SELECT ?e ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v FILTER(?v > 40) }`},
	{"order by limit", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v } ORDER BY ?v ?e LIMIT 25`},
}

// TestIDJoinDifferential is the executor contract: for every query shape,
// every parallelism setting, and both entries (ExecCtx and Stream), the
// engine returns the reference evaluator's answer.
func TestIDJoinDifferential(t *testing.T) {
	st := idJoinStore(t)
	for _, tc := range idJoinQueries {
		for _, par := range []int{1, 8} {
			if d := diffQuery(st, st, tc.q, Options{Parallelism: par}); d != "" {
				t.Errorf("%s (par=%d): %s", tc.name, par, d)
			}
		}
	}
}

func firstDiff(a, b []Binding) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(a[i], b[i]) {
			return fmt.Sprintf("row %d: %v vs %v", i, a[i], b[i])
		}
	}
	return fmt.Sprintf("length %d vs %d", len(a), len(b))
}

// TestIDJoinUnderConcurrentWrites runs the differential grid's join queries
// while writers add and delete triples that never match the queried
// predicates but continually bump the store's layout epoch (delta growth,
// compaction). Every result must still equal the quiescent answer — this
// drives the ScanIDs epoch-restart path from the executor's side.
func TestIDJoinUnderConcurrentWrites(t *testing.T) {
	st := idJoinStore(t)
	queries := []string{
		`SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v }`,
		`SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`,
	}
	want := make([][]Binding, len(queries))
	for i, q := range queries {
		want[i] = execOpts(t, st, q, Options{Parallelism: 1}).Rows
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				noise := rdf.Triple{
					S: rdf.IRI(fmt.Sprintf("http://noise/%d-%d", w, i)),
					P: "http://noise/p",
					O: rdf.NewInteger(int64(i)),
				}
				st.Add(noise)
				if i%5 == 0 {
					st.Delete(noise)
				}
				if i%50 == 0 {
					st.Compact()
				}
			}
		}(w)
	}
	for round := 0; round < 30; round++ {
		for i, q := range queries {
			res, err := ExecOpts(st, q, Options{Parallelism: 4})
			if err != nil {
				t.Fatalf("round %d query %d: %v", round, i, err)
			}
			if !reflect.DeepEqual(res.Rows, want[i]) {
				t.Fatalf("round %d query %d diverged under writes: %v", round, i, firstDiff(want[i], res.Rows))
			}
		}
	}
	close(stop)
	writers.Wait()
}

// TestIDJoinMergeEdgeCases drives a single pattern run at the strategy
// seams: a merge whose scan run is empty, input rows all sharing one key,
// and keys with no span in the sorted run but matches in the delta tail.
func TestIDJoinMergeEdgeCases(t *testing.T) {
	st := idJoinStore(t)
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	v := func(s string) Node { return Node{Var: s} }
	c := func(t rdf.Term) Node { return Node{Term: t} }

	ent := func(i int) rdf.IRI { return rdf.IRI(fmt.Sprintf("http://x/e%d", i)) }
	seed := []Binding{
		{"e": ent(1)},                      // its num triple is tombstoned
		{"e": ent(2)},                      // sorted-run match
		{"e": ent(2)},                      // duplicate key
		{"e": ent(305)},                    // match only in the uncompacted delta tail
		{"e": rdf.IRI("http://nowhere/e")}, // not in the dictionary
	}
	run := []GroupElem{TriplePattern{S: v("e"), P: c(rdf.IRI("http://x/num")), O: v("n")}}

	got, err := e.evalElems(run, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refGroup(st, &Group{Elems: run}, seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("merge edges diverged from the reference: %v", firstDiff(want, got))
	}
	if len(got) != 3 {
		t.Fatalf("expected 3 rows (dup key ×2 + delta tail), got %d", len(got))
	}

	// Empty scan run: a constant mask matching nothing returns no rows
	// without error.
	none := []GroupElem{TriplePattern{S: v("e"), P: c(rdf.IRI("http://x/cat")), O: c(rdf.NewLiteral("missing"))}}
	got, err = e.evalElems(none, nil, seed)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty run: got %d rows, err %v", len(got), err)
	}
}

// pushdownQueries exercises FILTER pushdown and ID-space grouping: filters
// on run variables (pushed), on variables the run does not bind (kept at
// the group's end), inside OPTIONAL and UNION, around BIND and VALUES, and
// grouped queries whose WHERE ends in a pattern run (ID keys) or not.
var pushdownQueries = []struct {
	name, q string
}{
	{"numeric range", `SELECT ?e ?v WHERE { ?e <http://x/num> ?v FILTER(?v >= 10 && ?v < 20) }`},
	{"two filters one run", `SELECT ?e ?c ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v FILTER(?v > 40) FILTER(?c != "c0") }`},
	{"string filter", `SELECT ?e WHERE { ?e <http://x/cat> ?c FILTER(REGEX(?c, "1$") || STR(?e) = "http://x/e2") }`},
	{"iri equality", `SELECT ?e ?o WHERE { ?e <http://x/link> ?o FILTER(?o = <http://x/e7> || ?o = ?e) }`},
	{"filter on optional var", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" OPTIONAL { ?e <http://x/num> ?v } FILTER(!BOUND(?v) || ?v > 30) }`},
	{"filter inside optional", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c2" OPTIONAL { ?e <http://x/num> ?v FILTER(?v > 25) } }`},
	{"optional filter on outer var", `SELECT ?e ?o WHERE { ?e <http://x/cat> ?c OPTIONAL { ?e <http://x/link> ?o . ?o <http://x/cat> ?c2 FILTER(?c2 = ?c) } }`},
	{"filters inside union", `SELECT ?e ?v WHERE { { ?e <http://x/num> ?v FILTER(?v < 3) } UNION { ?e <http://x/num> ?v FILTER(?v > 47) } }`},
	{"filter across runs", `SELECT ?e ?o ?w WHERE { ?e <http://x/num> ?v OPTIONAL { ?e <http://x/rel> ?h } ?e <http://x/link> ?o . ?o <http://x/num> ?w FILTER(?v + ?w > 20) FILTER(?v < 10) }`},
	{"filter before bind", `SELECT ?e ?w WHERE { ?e <http://x/num> ?v FILTER(?v > 44) BIND(?v * 2 AS ?w) }`},
	{"filter on values var", `SELECT ?e ?v WHERE { VALUES ?lim { 5 40 } ?e <http://x/num> ?v FILTER(?v < ?lim) }`},
	{"erroring filter", `SELECT ?e WHERE { ?e <http://x/cat> ?c FILTER(?c > 3 || ?c = "c1") }`},
	{"constant filter", `SELECT ?e WHERE { ?e <http://x/cat> "c0" FILTER(1 > 2) }`},
	{"filter limit", `SELECT ?e ?v WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v FILTER(?v > 20) } LIMIT 7`},
	{"filter order limit", `SELECT ?e ?v WHERE { ?e <http://x/cat> "c1" . ?e <http://x/num> ?v FILTER(?v > 20) } ORDER BY DESC(?v) ?e LIMIT 5`},
	{"group by run key", `SELECT ?c (COUNT(?e) AS ?n) (AVG(?v) AS ?m) (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (SAMPLE(?v) AS ?x) (GROUP_CONCAT(DISTINCT ?v; SEPARATOR=",") AS ?g) WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v FILTER(?v > 10) } GROUP BY ?c`},
	{"group by two keys having", `SELECT ?c ?v (COUNT(*) AS ?n) WHERE { ?e <http://x/cat> ?c . ?e <http://x/num> ?v } GROUP BY ?c ?v HAVING (COUNT(*) > 1) ORDER BY DESC(?n) ?c ?v`},
	{"group by expression", `SELECT (COUNT(DISTINCT ?e) AS ?n) (SUM(?v) AS ?s) WHERE { ?e <http://x/num> ?v } GROUP BY (?v / 10)`},
	{"group key outside final run", `SELECT ?c (COUNT(?o) AS ?n) (MAX(?w) AS ?hi) WHERE { ?e <http://x/cat> ?c OPTIONAL { ?e <http://x/rel> ?h } ?e <http://x/link> ?o . ?o <http://x/num> ?w } GROUP BY ?c ORDER BY ?c`},
	{"group after optional", `SELECT ?c (COUNT(?v) AS ?n) WHERE { ?e <http://x/cat> ?c OPTIONAL { ?e <http://x/num> ?v FILTER(?v < 5) } } GROUP BY ?c`},
	{"aggregate empty", `SELECT (COUNT(*) AS ?n) (AVG(?v) AS ?m) WHERE { ?e <http://x/num> ?v FILTER(?v > 1000) }`},
	{"aggregate no group by", `SELECT (COUNT(?e) AS ?n) (MIN(?c) AS ?lo) WHERE { ?e <http://x/cat> ?c FILTER(?c != "c2") }`},
}

// TestPushdownMatchesReference pins FILTER pushdown and ID-space grouping
// to the reference evaluator, which filters only at each group's end and
// groups decoded Bindings, at every parallelism and through both entries.
func TestPushdownMatchesReference(t *testing.T) {
	st := idJoinStore(t)
	for _, tc := range pushdownQueries {
		q, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := refEval(st, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.rows) == 0 && tc.name != "constant filter" && tc.name != "aggregate empty" {
			t.Errorf("%s: no rows; the case tests nothing", tc.name)
		}
		for _, par := range []int{1, 8} {
			if d := diffQuery(st, st, tc.q, Options{Parallelism: par}); d != "" {
				t.Errorf("%s (par=%d): %s", tc.name, par, d)
			}
		}
	}
}

// TestPushdownBindGuard pins the BIND exception: a filter is not pushed
// into a run whose variable a later BIND targets, so the BIND's error
// surfaces exactly as without pushdown even when the filter rejects every
// row.
func TestPushdownBindGuard(t *testing.T) {
	st := idJoinStore(t)
	q := `SELECT ?e WHERE { ?e <http://x/num> ?v FILTER(?v > 1000) BIND(1 AS ?v) }`
	parsed, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refEval(st, parsed); err == nil {
		t.Fatal("reference: BIND onto a bound variable should fail the query")
	}
	if _, err := ExecOpts(st, q, Options{Parallelism: 1}); err == nil {
		t.Fatal("BIND onto a bound variable should fail the query")
	}
}
