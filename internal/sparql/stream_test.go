package sparql

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// countingSource wraps a store and counts every triple the engine's scans
// visit — snapshot probes, materialized runs and the streaming driver's
// pages — the observable that proves LIMIT pushdown actually stops scanning
// instead of just truncating a full result.
type countingSource struct {
	*store.Store
	visited atomic.Int64
}

func (c *countingSource) ForEachID(s, p, o store.ID, fn func(store.IDTriple) bool) {
	c.Store.ForEachID(s, p, o, func(t store.IDTriple) bool {
		c.visited.Add(1)
		return fn(t)
	})
}

func (c *countingSource) ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (int, bool) {
	return c.Store.ForEachIDPage(s, p, o, pos, max, func(t store.IDTriple) bool {
		c.visited.Add(1)
		return fn(t)
	})
}

func (c *countingSource) ScanIDs(s, p, o store.ID, lead store.Position) (store.IDRun, bool) {
	run, ok := c.Store.ScanIDs(s, p, o, lead)
	if ok {
		c.visited.Add(int64(len(run.Sorted) + len(run.Tail)))
	}
	return run, ok
}

// streamStore builds a dataset big enough that full evaluation is clearly
// distinguishable from an early-terminated scan: n entities, each with a
// value triple and a link triple.
func streamStore(t testing.TB, n int) *store.Store {
	t.Helper()
	triples := make([]rdf.Triple, 0, 2*n)
	for i := 0; i < n; i++ {
		e := rdf.IRI(fmt.Sprintf("http://s/e%d", i))
		triples = append(triples,
			rdf.Triple{S: e, P: "http://s/value", O: rdf.NewInteger(int64(i % 1000))},
			rdf.Triple{S: e, P: "http://s/link", O: rdf.IRI(fmt.Sprintf("http://s/e%d", (i+1)%n))},
		)
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// execOpts evaluates and fails the test on error.
func execOpts(t *testing.T, src Source, q string, opt Options) *Results {
	t.Helper()
	res, err := ExecOpts(src, q, opt)
	if err != nil {
		t.Fatalf("ExecOpts(%q): %v", q, err)
	}
	return res
}

// TestSolutionModifierMatrix is the differential grid: every query shape
// must return identical rows in identical order across parallelism settings
// and across the streaming fast paths vs. the materializing pipeline.
func TestSolutionModifierMatrix(t *testing.T) {
	st := testStore(t)
	queries := []struct {
		name, q string
	}{
		{"limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 2`},
		{"limit-zero", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 0`},
		{"limit-zero-orderby", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 0`},
		{"offset-past-end", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 50`},
		{"offset-past-end-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 2 OFFSET 50`},
		{"offset-no-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 1`},
		{"limit-offset", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 1 OFFSET 1`},
		{"orderby-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 2`},
		{"orderby-desc-limit-offset", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) LIMIT 2 OFFSET 1`},
		{"orderby-expr-limit", `PREFIX ex: <http://example.org/> SELECT ?c WHERE { ?c ex:population ?pop } ORDER BY DESC(?pop) LIMIT 1`},
		{"distinct-orderby-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } ORDER BY ?q LIMIT 2`},
		{"distinct-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } LIMIT 2`},
		{"join-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?m WHERE { ?p foaf:knows ?q . ?p foaf:name ?n . ?q foaf:name ?m } LIMIT 2`},
		{"filter-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n ; foaf:age ?a . FILTER(?a > 26) } LIMIT 1`},
		{"optional-orderby", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY ?pop ?s LIMIT 4`},
		{"optional-orderby-desc", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY DESC(?pop) ?s LIMIT 4`},
		{"union-limit", `PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x WHERE { { ?x a foaf:Person } UNION { ?x a ex:City } } LIMIT 3`},
		{"values-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?p ?n WHERE { VALUES ?n { "Alice" "Carol" } ?p foaf:name ?n } LIMIT 1`},
		{"bind-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?twice WHERE { ?p foaf:age ?a ; foaf:name ?n . BIND(?a * 2 AS ?twice) } LIMIT 2`},
		{"expr-projection-limit", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT (?a + 1 AS ?next) WHERE { ?p foaf:age ?a } ORDER BY ?a LIMIT 2`},
		{"ask", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?p foaf:name "Carol" }`},
		{"ask-no-match", `PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?p foaf:name "Nobody" }`},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			ref := execOpts(t, st, tc.q, Options{Parallelism: 1, NoStream: true})
			for _, par := range []int{1, 4} {
				for _, noStream := range []bool{false, true} {
					got := execOpts(t, st, tc.q, Options{Parallelism: par, NoStream: noStream})
					label := fmt.Sprintf("par=%d noStream=%v", par, noStream)
					if !reflect.DeepEqual(got.Vars, ref.Vars) {
						t.Errorf("%s: vars = %v, want %v", label, got.Vars, ref.Vars)
					}
					if got.Ask != ref.Ask {
						t.Errorf("%s: ask = %v, want %v", label, got.Ask, ref.Ask)
					}
					if len(got.Rows) != len(ref.Rows) {
						t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(ref.Rows))
					}
					for i := range got.Rows {
						if !reflect.DeepEqual(got.Rows[i], ref.Rows[i]) {
							t.Errorf("%s: row %d = %v, want %v", label, i, got.Rows[i], ref.Rows[i])
						}
					}
				}
			}
		})
	}
}

// TestStreamedEqualsMaterialized runs the same queries through the Stream
// API and asserts row-for-row equality with the materializing pipeline.
func TestStreamedEqualsMaterialized(t *testing.T) {
	st := testStore(t)
	queries := []string{
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT 2`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } OFFSET 1`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY DESC(?n) LIMIT 2`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT DISTINCT ?q WHERE { ?p foaf:knows ?q } ORDER BY ?q LIMIT 2`,
		`PREFIX ex: <http://example.org/> PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?x WHERE { { ?x a foaf:Person } UNION { ?x a ex:City } } LIMIT 3`,
		`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n ?m WHERE { ?p foaf:knows ?q . ?p foaf:name ?n . ?q foaf:name ?m }`,
	}
	for _, par := range []int{1, 4} {
		for _, q := range queries {
			ref := execOpts(t, st, q, Options{Parallelism: par, NoStream: true})
			stm, err := PrepareStream(context.Background(), st, q, Options{Parallelism: par})
			if err != nil {
				t.Fatalf("PrepareStream(%q): %v", q, err)
			}
			var rows []Binding
			if err := stm.Run(func(r Binding) bool {
				rows = append(rows, r)
				return true
			}); err != nil {
				t.Fatalf("Run(%q): %v", q, err)
			}
			if len(rows) != len(ref.Rows) {
				t.Fatalf("par=%d %q: streamed %d rows, materialized %d", par, q, len(rows), len(ref.Rows))
			}
			for i := range rows {
				if !reflect.DeepEqual(rows[i], ref.Rows[i]) {
					t.Errorf("par=%d %q: row %d = %v, want %v", par, q, i, rows[i], ref.Rows[i])
				}
			}
		}
	}
}

// TestLimitPushdownStopsScanning is the early-termination guarantee: a
// LIMIT 10 over a six-figure solution space must visit a small constant
// number of triples, not the whole index — at every parallelism setting.
func TestLimitPushdownStopsScanning(t *testing.T) {
	st := streamStore(t, 50000) // 100k triples
	q := `SELECT ?s ?o WHERE { ?s <http://s/value> ?o } LIMIT 10`
	for _, par := range []int{1, 4} {
		src := &countingSource{Store: st}
		res := execOpts(t, src, q, Options{Parallelism: par})
		if len(res.Rows) != 10 {
			t.Fatalf("par=%d: got %d rows, want 10", par, len(res.Rows))
		}
		pushed := src.visited.Load()

		src2 := &countingSource{Store: st}
		ref := execOpts(t, src2, q, Options{Parallelism: par, NoStream: true})
		full := src2.visited.Load()
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Fatalf("par=%d: pushdown rows differ from materialized", par)
		}
		if pushed == 0 {
			t.Errorf("par=%d: pushdown visited no triples; the counting source saw no scan", par)
		}
		if pushed*10 > full {
			t.Errorf("par=%d: pushdown visited %d triples, materializing %d — want ≥10x fewer", par, pushed, full)
		}
	}
}

// TestLimitPushdownJoinCapped: with a join tail, the driver joins page by
// page and stops pulling pages once the window is filled, so the scan and
// the join both terminate early.
func TestLimitPushdownJoinCapped(t *testing.T) {
	st := streamStore(t, 20000)
	q := `SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v } LIMIT 7`
	for _, par := range []int{1, 8} {
		src := &countingSource{Store: st}
		res := execOpts(t, src, q, Options{Parallelism: par})
		if len(res.Rows) != 7 {
			t.Fatalf("par=%d: got %d rows, want 7", par, len(res.Rows))
		}
		pushed := src.visited.Load()
		ref := execOpts(t, st, q, Options{Parallelism: par, NoStream: true})
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Fatalf("par=%d: capped join rows differ from materialized", par)
		}
		if pushed == 0 {
			t.Errorf("par=%d: join pushdown visited no triples; the counting source saw no scan", par)
		}
		if pushed > 4000 { // full evaluation visits ≥40k
			t.Errorf("par=%d: join pushdown visited %d triples, want early termination", par, pushed)
		}
	}
}

// TestNestedGroupPushdown: redundant nesting must not defeat the
// early-termination plan — `{ { pattern } } LIMIT k` short-circuits like
// its un-nested form (and still matches the materializing rows), including
// with filters at both levels.
func TestNestedGroupPushdown(t *testing.T) {
	st := streamStore(t, 50000)
	for _, q := range []string{
		`SELECT ?s ?o WHERE { { ?s <http://s/value> ?o } } LIMIT 10`,
		`SELECT ?s ?o WHERE { { { ?s <http://s/value> ?o FILTER(?o >= 0) } } FILTER(?o < 1000) } LIMIT 10`,
	} {
		src := &countingSource{Store: st}
		res := execOpts(t, src, q, Options{Parallelism: 1})
		if len(res.Rows) != 10 {
			t.Fatalf("%s: got %d rows, want 10", q, len(res.Rows))
		}
		if v := src.visited.Load(); v == 0 || v > 1000 {
			t.Errorf("%s: visited %d triples, want early termination (and a counted scan)", q, v)
		}
		ref := execOpts(t, st, q, Options{Parallelism: 1, NoStream: true})
		if !reflect.DeepEqual(res.Rows, ref.Rows) {
			t.Errorf("%s: nested pushdown rows differ from materialized", q)
		}
	}
	// A group with no top-level pattern at all must not claim incremental
	// delivery.
	stm, err := PrepareStream(context.Background(), st,
		`SELECT ?s WHERE { { ?s <http://s/value> ?o } { ?s <http://s/link> ?t } }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stm.Incremental() {
		t.Error("two sibling subgroups have no suspendable scan; Incremental must be false")
	}
}

// TestHugeLimitNoOverflow: offset+limit near MaxInt must not wrap negative
// and silently return an empty result — both window shapes must match the
// materializing path.
func TestHugeLimitNoOverflow(t *testing.T) {
	st := testStore(t)
	for _, q := range []string{
		fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } LIMIT %d OFFSET 1`, int64(^uint(0)>>1)),
		fmt.Sprintf(`PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT %d OFFSET 1`, int64(^uint(0)>>1)),
	} {
		got := execOpts(t, st, q, Options{Parallelism: 1})
		ref := execOpts(t, st, q, Options{Parallelism: 1, NoStream: true})
		if len(got.Rows) != len(ref.Rows) || len(got.Rows) == 0 {
			t.Errorf("%s: streamed %d rows, materialized %d (want equal, non-zero)", q, len(got.Rows), len(ref.Rows))
		}
	}
}

// TestSubgroupPrefixNotIncremental: a pattern-bearing subgroup scheduled
// before the first top-level pattern is a full scan of its own, so the
// query must not be planned (or advertised) as incremental — but results
// still match.
func TestSubgroupPrefixNotIncremental(t *testing.T) {
	st := streamStore(t, 1000)
	q := `SELECT ?s ?v ?t WHERE { { ?s <http://s/value> ?v } ?s <http://s/link> ?t } LIMIT 3`
	stm, err := PrepareStream(context.Background(), st, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stm.Incremental() {
		t.Error("subgroup prefix forces full evaluation; Incremental must be false")
	}
	got := execOpts(t, st, q, Options{Parallelism: 1})
	ref := execOpts(t, st, q, Options{Parallelism: 1, NoStream: true})
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Errorf("rows differ: %v vs %v", got.Rows, ref.Rows)
	}
}

// TestAskShortCircuits: ASK stops at the first matching solution.
func TestAskShortCircuits(t *testing.T) {
	st := streamStore(t, 50000)
	src := &countingSource{Store: st}
	res := execOpts(t, src, `ASK { ?s <http://s/value> ?o }`, Options{Parallelism: 1})
	if !res.Ask {
		t.Fatal("ask = false, want true")
	}
	if v := src.visited.Load(); v == 0 || v > 16 {
		t.Errorf("ASK visited %d triples, want a handful", v)
	}
}

// TestTopKHeapBoundsWork: ORDER BY + LIMIT must not materialize the full
// sorted set; the heap keeps offset+limit candidates. (Scanning is still
// complete — ORDER BY needs every solution — so we check only result
// equality here; memory behavior is exercised by the 100k benchmark.)
func TestTopKOrderByLimit(t *testing.T) {
	st := streamStore(t, 5000)
	for _, q := range []string{
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY ?o ?s LIMIT 5`,
		`SELECT ?s ?o WHERE { ?s <http://s/value> ?o } ORDER BY DESC(?o) ?s LIMIT 5 OFFSET 3`,
		// Ties everywhere (o cycles mod 1000): the stable tiebreak must match.
		`SELECT ?s WHERE { ?s <http://s/value> ?o } ORDER BY ?o LIMIT 20`,
	} {
		for _, par := range []int{1, 4} {
			got := execOpts(t, st, q, Options{Parallelism: par})
			ref := execOpts(t, st, q, Options{Parallelism: par, NoStream: true})
			if !reflect.DeepEqual(got.Rows, ref.Rows) {
				t.Errorf("par=%d %q: top-k rows differ from materialized", par, q)
			}
		}
	}
}

// TestUnboundSortsFirstAsc pins SPARQL's ordering of unbound variables: an
// unbound sort key orders before every bound term under ASC, and therefore
// after every bound term under DESC — on the serial and parallel paths.
func TestUnboundOrderBy(t *testing.T) {
	st := testStore(t)
	base := `PREFIX ex: <http://example.org/>
SELECT ?s ?pop WHERE { ?s a ?t . OPTIONAL { ?s ex:population ?pop } } ORDER BY %s LIMIT 20`
	for _, par := range []int{1, 4} {
		for _, noStream := range []bool{false, true} {
			opt := Options{Parallelism: par, NoStream: noStream}
			asc := execOpts(t, st, fmt.Sprintf(base, "?pop ?s"), opt)
			if len(asc.Rows) == 0 {
				t.Fatal("no rows")
			}
			// ASC: all unbound rows first, then bound ascending.
			seenBound := false
			var prev rdf.Term
			for i, r := range asc.Rows {
				pop, bound := r["pop"]
				if bound {
					seenBound = true
					if prev != nil && rdf.Compare(prev, pop) > 0 {
						t.Errorf("asc row %d: %v after %v", i, pop, prev)
					}
					prev = pop
				} else if seenBound {
					t.Errorf("asc row %d: unbound after bound (par=%d noStream=%v)", i, par, noStream)
				}
			}
			if !seenBound {
				t.Fatal("expected some bound pop values")
			}
			// DESC: bound descending first, unbound rows last.
			desc := execOpts(t, st, fmt.Sprintf(base, "DESC(?pop) ?s"), opt)
			seenUnbound := false
			prev = nil
			for i, r := range desc.Rows {
				pop, bound := r["pop"]
				if !bound {
					seenUnbound = true
				} else {
					if seenUnbound {
						t.Errorf("desc row %d: bound after unbound (par=%d noStream=%v)", i, par, noStream)
					}
					if prev != nil && rdf.Compare(prev, pop) < 0 {
						t.Errorf("desc row %d: %v after %v", i, pop, prev)
					}
					prev = pop
				}
			}
			if !seenUnbound {
				t.Fatal("expected some unbound pop values")
			}
		}
	}
}

// TestDistinctSeparatorCollision is the regression for the bare-"|" dedup
// signature: rows ("a|b","c") and ("a","b|c") are distinct and must both
// survive DISTINCT.
func TestDistinctSeparatorCollision(t *testing.T) {
	triples := []rdf.Triple{
		{S: rdf.IRI("http://x/r1"), P: "http://x/p", O: rdf.NewLiteral("a|b")},
		{S: rdf.IRI("http://x/r1"), P: "http://x/q", O: rdf.NewLiteral("c")},
		{S: rdf.IRI("http://x/r2"), P: "http://x/p", O: rdf.NewLiteral("a")},
		{S: rdf.IRI("http://x/r2"), P: "http://x/q", O: rdf.NewLiteral("b|c")},
	}
	st, err := store.Load(triples)
	if err != nil {
		t.Fatal(err)
	}
	res := execOpts(t, st, `SELECT DISTINCT ?a ?b WHERE { ?s <http://x/p> ?a . ?s <http://x/q> ?b }`, Options{Parallelism: 1})
	if len(res.Rows) != 2 {
		t.Fatalf("DISTINCT dropped a row: got %d rows %v, want 2", len(res.Rows), res.Rows)
	}
	// And the unbound marker can't alias a literal either.
	res = execOpts(t, st, `SELECT DISTINCT ?a ?c WHERE { ?s <http://x/p> ?a . OPTIONAL { ?s <http://x/none> ?c } }`, Options{Parallelism: 1})
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(res.Rows))
	}
}

// TestUserOrdVariableSurvives is the regression for the "_ord" prefix
// match: a user variable legally named ?_ord0 must neither be clobbered by
// the hidden sort columns nor stripped from the results.
func TestUserOrdVariableSurvives(t *testing.T) {
	st := testStore(t)
	res := execOpts(t, st, `PREFIX foaf: <http://xmlns.com/foaf/0.1/>
SELECT ?_ord0 WHERE { ?p foaf:name ?_ord0 ; foaf:age ?a } ORDER BY DESC(?a)`, Options{Parallelism: 1})
	if got, want := res.Vars, []string{"_ord0"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("vars = %v, want %v", got, want)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(res.Rows))
	}
	// Ordered by DESC(age): Carol 35, Alice 30, Bob 25 — and each row must
	// carry the user's ?_ord0 binding (the name, not the hidden age key).
	want := []string{"Carol", "Alice", "Bob"}
	for i, r := range res.Rows {
		term, ok := r["_ord0"]
		if !ok {
			t.Fatalf("row %d: ?_ord0 was stripped: %v", i, r)
		}
		lit, ok := term.(rdf.Literal)
		if !ok || lit.Lexical != want[i] {
			t.Errorf("row %d: ?_ord0 = %v, want %q", i, term, want[i])
		}
		if len(r) != 1 {
			t.Errorf("row %d: hidden columns leaked: %v", i, r)
		}
	}
}

// TestStreamStopEarly: the consumer returning false stops evaluation
// without error (the client-disconnect path).
func TestStreamStopEarly(t *testing.T) {
	st := streamStore(t, 10000)
	src := &countingSource{Store: st}
	stm, err := PrepareStream(context.Background(), src, `SELECT ?s WHERE { ?s <http://s/value> ?o }`, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stm.Incremental() {
		t.Fatal("plain scan should stream incrementally")
	}
	n := 0
	if err := stm.Run(func(Binding) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("delivered %d rows, want 3", n)
	}
	if v := src.visited.Load(); v == 0 || v > 16 {
		t.Errorf("visited %d triples after consumer stop, want a handful", v)
	}
}

// TestStreamEmitCanWriteStore: streamed rows are delivered with no store
// lock held, so a consumer may write to the store mid-stream — the
// previous driver emitted from inside the scan's read lock, where this
// write would deadlock (RWMutexes queue the writer behind the held read
// lock and the nested operations behind the writer).
func TestStreamEmitCanWriteStore(t *testing.T) {
	st := streamStore(t, 200)
	donec := make(chan error, 1)
	go func() {
		stm, err := PrepareStream(context.Background(), st,
			`SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v }`, Options{Parallelism: 1})
		if err != nil {
			donec <- err
			return
		}
		rows := 0
		donec <- stm.Run(func(Binding) bool {
			rows++
			if rows == 1 {
				// A write from the consumer: only safe because no scan
				// lock is held during emission.
				if err := st.Add(rdf.Triple{
					S: rdf.IRI("http://s/mid-stream"), P: "http://s/value", O: rdf.NewInteger(1),
				}); err != nil {
					t.Error(err)
				}
			}
			return rows < 50
		})
	}()
	select {
	case err := <-donec:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("streaming query deadlocked against its own consumer's write")
	}
}

// TestStreamConcurrentWriters: a join-shaped streaming query makes
// progress while writers hammer the store from another goroutine.
func TestStreamConcurrentWriters(t *testing.T) {
	st := streamStore(t, 5000)
	stop := make(chan struct{})
	var writerErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			i++
			if err := st.Add(rdf.Triple{
				S: rdf.IRI(fmt.Sprintf("http://s/w%d", i)), P: "http://s/other", O: rdf.NewInteger(int64(i)),
			}); err != nil {
				writerErr = err
				return
			}
		}
	}()
	donec := make(chan error, 1)
	go func() {
		stm, err := PrepareStream(context.Background(), st,
			`SELECT ?s ?v WHERE { ?s <http://s/link> ?o . ?o <http://s/value> ?v } LIMIT 500`, Options{Parallelism: 4})
		if err != nil {
			donec <- err
			return
		}
		donec <- stm.Run(func(Binding) bool { return true })
	}()
	select {
	case err := <-donec:
		close(stop)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if writerErr != nil {
			t.Fatal(writerErr)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("streaming query deadlocked against concurrent writers")
	}
}

// compactingSource compacts the store once, right after the Nth scanned
// page — simulating a concurrent writer crossing the merge threshold mid-
// stream, which reshuffles every positional cursor.
type compactingSource struct {
	*store.Store
	afterPages int // compact after this many ForEachIDPage calls
	pages      int
	compacted  bool
}

func (c *compactingSource) ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (int, bool) {
	next, done := c.Store.ForEachIDPage(s, p, o, pos, max, fn)
	c.pages++
	if !c.compacted && c.pages >= c.afterPages {
		c.compacted = true
		c.Store.Compact()
	}
	return next, done
}

// TestStreamRestartsOnCompaction: the materialized fast path detects the
// epoch change, discards the possibly-corrupt pages, restarts, and still
// returns exactly the materializing pipeline's rows.
func TestStreamRestartsOnCompaction(t *testing.T) {
	st := streamStore(t, 2000)
	// A pending non-matching delta entry so Compact actually reshuffles.
	if err := st.Add(rdf.Triple{S: rdf.IRI("http://s/pending"), P: "http://s/other", O: rdf.NewInteger(1)}); err != nil {
		t.Fatal(err)
	}
	src := &compactingSource{Store: st, afterPages: 1}
	q := `SELECT ?s ?v WHERE { ?s <http://s/value> ?v } LIMIT 50`
	res := execOpts(t, src, q, Options{Parallelism: 1})
	if !src.compacted {
		t.Fatal("test did not exercise mid-scan compaction")
	}
	ref := execOpts(t, st, q, Options{Parallelism: 1, NoStream: true})
	if !reflect.DeepEqual(res.Rows, ref.Rows) {
		t.Fatalf("restarted scan rows differ from materialized: %d vs %d rows", len(res.Rows), len(ref.Rows))
	}
}

// TestStreamRunAbortsAfterDeliveryOnCompaction: an incremental stream that
// already handed rows to the consumer cannot restart without duplicating
// them; a mid-scan compaction surfaces as an evaluation error instead of
// silent corruption.
func TestStreamRunAbortsAfterDeliveryOnCompaction(t *testing.T) {
	st := streamStore(t, 2000)
	if err := st.Add(rdf.Triple{S: rdf.IRI("http://s/pending"), P: "http://s/other", O: rdf.NewInteger(1)}); err != nil {
		t.Fatal(err)
	}
	// Compact after the second page: the first page's rows have already
	// reached the consumer by then, so a transparent restart is off the
	// table.
	src := &compactingSource{Store: st, afterPages: 2}
	stm, err := PrepareStream(context.Background(), src,
		`SELECT ?s ?v WHERE { ?s <http://s/value> ?v }`, Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	err = stm.Run(func(Binding) bool {
		delivered++
		return true
	})
	if err == nil {
		t.Fatal("want an error after mid-stream compaction with rows delivered")
	}
	if !errorsIsEval(err) {
		t.Fatalf("error %v should classify as ErrEval", err)
	}
	if delivered == 0 {
		t.Fatal("expected some rows before the abort")
	}
}

func errorsIsEval(err error) bool { return errors.Is(err, ErrEval) }

// TestStreamAPIForms: form mismatches error, ASK streams, Incremental is
// false for shapes that must materialize.
func TestStreamAPIForms(t *testing.T) {
	st := testStore(t)
	sel, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sel.Ask(); err == nil {
		t.Error("Ask on SELECT should error")
	}
	ask, err := PrepareStream(context.Background(), st, `ASK { ?s ?p ?o }`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ask.Run(func(Binding) bool { return true }); err == nil {
		t.Error("Run on ASK should error")
	}
	ans, err := ask.Ask()
	if err != nil || !ans {
		t.Errorf("Ask = %v, %v; want true, nil", ans, err)
	}
	ordered, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 1`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ordered.Incremental() {
		t.Error("ORDER BY must not report incremental delivery")
	}
	if _, err := PrepareStream(context.Background(), st, `SELECT ?s WHERE {`, Options{}); err == nil {
		t.Error("parse error should surface from PrepareStream")
	}
}

// TestStreamSelectStarVars: SELECT * on the streaming path resolves the
// header statically (every bindable pattern variable, sorted); rows match
// the materializing path.
func TestStreamSelectStarVars(t *testing.T) {
	st := testStore(t)
	q := `PREFIX foaf: <http://xmlns.com/foaf/0.1/> SELECT * WHERE { ?p foaf:knows ?q } LIMIT 2`
	got := execOpts(t, st, q, Options{Parallelism: 1})
	ref := execOpts(t, st, q, Options{Parallelism: 1, NoStream: true})
	if !reflect.DeepEqual(got.Vars, []string{"p", "q"}) {
		t.Fatalf("vars = %v, want [p q]", got.Vars)
	}
	if !reflect.DeepEqual(got.Rows, ref.Rows) {
		t.Errorf("rows differ: %v vs %v", got.Rows, ref.Rows)
	}
}
