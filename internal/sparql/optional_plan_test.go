package sparql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

func optionalStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 1500, NumericProps: 1, CategoryProps: 1, LinkProps: 2, Seed: 41,
	}))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// optionalQuery substitutes the generated property IRIs into a query
// template: %[1]s rel0, %[2]s rel1, %[3]s cat0, %[4]s num0.
func optionalQuery(tmpl string) string {
	return fmt.Sprintf(tmpl, string(gen.Prop("rel0")), string(gen.Prop("rel1")),
		string(gen.Prop("cat0")), string(gen.Prop("num0")))
}

// TestOptionalInnerPlanSeeded pins the plan of an OPTIONAL inner group:
// with ?e bound by the outer rows, the join on ?e leads, not the scan over
// the inner group's constant object that an unseeded plan starts from.
func TestOptionalInnerPlanSeeded(t *testing.T) {
	st := optionalStore(t)
	q, err := Parse(optionalQuery(`SELECT ?e ?o WHERE { ?e <%[1]s> ?x OPTIONAL { ?o <%[3]s> "category-1" . ?e <%[2]s> ?o } }`))
	if err != nil {
		t.Fatal(err)
	}
	var inner *Group
	for _, el := range q.Where.Elems {
		if opt, ok := el.(Optional); ok {
			inner = opt.Inner
		}
	}
	if inner == nil {
		t.Fatal("no OPTIONAL in the parsed query")
	}
	e := newEngine(context.Background(), st, Options{Parallelism: 1})
	lead := func(elems []GroupElem) string { return patternString(patterns(elems)[0]) }
	join := "?e " + gen.Prop("rel1").String() + " ?o"
	if got := lead(e.planElemsBound(inner, map[string]bool{"e": true, "x": true})); got != join {
		t.Errorf("seeded inner plan leads with %q, want %q", got, join)
	}
	if got := lead(e.planElemsBound(inner, nil)); got == join {
		t.Errorf("unseeded inner plan leads with the join %q; the case tests nothing", got)
	}

	// Executed, the inner group is planned once for all outer rows, with
	// the join leading.
	tr := explain.NewTrace()
	if _, err := EvalOpts(st, q, Options{Parallelism: 1, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	var plans []string
	var walk func(sp *explain.Span)
	walk = func(sp *explain.Span) {
		if sp.Name == "plan" {
			plans = append(plans, sp.Detail)
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	if len(plans) != 1 || !strings.HasPrefix(plans[0], join+" . ") {
		t.Errorf("executed plans = %q, want one leading with %q", plans, join)
	}
}

// optionalPlanQueries are the shapes whose OPTIONAL inner groups are now
// planned with the outer variables bound.
var optionalPlanQueries = []struct{ name, q string }{
	{"join on outer var", `SELECT ?e ?o WHERE { ?e <%[1]s> ?x OPTIONAL { ?o <%[3]s> "category-1" . ?e <%[2]s> ?o } }`},
	{"nested optional", `SELECT ?e ?o ?v WHERE { ?e <%[3]s> "category-2" OPTIONAL { ?o <%[3]s> "category-1" . ?e <%[2]s> ?o OPTIONAL { ?o <%[4]s> ?v . ?o <%[1]s> ?y } } }`},
	{"filter on outer var", `SELECT ?e ?o WHERE { ?e <%[4]s> ?n OPTIONAL { ?o <%[3]s> ?c . ?e <%[1]s> ?o . ?o <%[4]s> ?m FILTER(?m > ?n) } }`},
	{"optional under union", `SELECT ?e ?o WHERE { { ?e <%[3]s> "category-0" } UNION { ?e <%[3]s> "category-3" OPTIONAL { ?o <%[3]s> "category-3" . ?e <%[2]s> ?o } } }`},
	{"optional in union branch joined later", `SELECT ?e ?o ?v WHERE { ?e <%[3]s> "category-5" { ?e <%[1]s> ?o } UNION { OPTIONAL { ?o <%[3]s> "category-5" . ?e <%[2]s> ?o } } ?e <%[4]s> ?v }`},
}

// TestOptionalPlanMatchesNoReorder checks that the seeded inner plans
// return the same solutions as the unplanned textual order — as multisets,
// since only the row order inside one outer row may change — at every
// parallelism, through both entries.
func TestOptionalPlanMatchesNoReorder(t *testing.T) {
	st := optionalStore(t)
	for _, tc := range optionalPlanQueries {
		q, err := Parse(optionalQuery(tc.q))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := solutionKeys(evalNoReorder(t, st, q))
		for _, par := range []int{1, 8} {
			for _, entry := range entries {
				res, err := entry.eval(st, q, Options{Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if got := solutionKeys(res); !reflect.DeepEqual(got, want) {
					t.Errorf("%s (par=%d %s): %d solutions, textual order %d", tc.name, par, entry.name, len(got), len(want))
				}
			}
		}
		if len(want) == 0 {
			t.Errorf("%s: no solutions; the case tests nothing", tc.name)
		}
	}
}

// TestOptionalPlanStreamedLimit runs OPTIONAL queries under LIMIT: the
// LIMIT-pushdown stream must return exactly the first rows of the
// materialized result, and a total ORDER BY makes the page independent of
// the plan, so it must equal the textual order's page.
func TestOptionalPlanStreamedLimit(t *testing.T) {
	st := optionalStore(t)
	for _, tc := range optionalPlanQueries[:3] {
		full := execOpts(t, st, optionalQuery(tc.q), Options{Parallelism: 1}) // no LIMIT: materialized
		limited := optionalQuery(tc.q) + " LIMIT 25"
		for _, par := range []int{1, 8} {
			got := execOpts(t, st, limited, Options{Parallelism: par})
			n := min(25, len(full.Rows))
			if !reflect.DeepEqual(got.Rows, full.Rows[:n]) {
				t.Errorf("%s LIMIT (par=%d): %v", tc.name, par, firstDiff(full.Rows[:n], got.Rows))
			}
		}

		ordered := optionalQuery(tc.q)
		q, err := Parse(ordered)
		if err != nil {
			t.Fatal(err)
		}
		ordered += " ORDER BY"
		for _, v := range streamVars(q) {
			ordered += " ?" + v
		}
		ordered += " LIMIT 25"
		oq, err := Parse(ordered)
		if err != nil {
			t.Fatal(err)
		}
		ref := evalNoReorder(t, st, oq)
		sort.SliceStable(ref.Rows, func(i, j int) bool {
			for _, v := range ref.Vars {
				if c := rdf.Compare(ref.Rows[i][v], ref.Rows[j][v]); c != 0 {
					return c < 0
				}
			}
			return false
		})
		ref.Rows = ref.Rows[:min(25, len(ref.Rows))]
		for _, entry := range entries {
			got, err := entry.eval(st, oq, Options{Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Rows, ref.Rows) {
				t.Errorf("%s ORDER BY LIMIT (%s): %v", tc.name, entry.name, firstDiff(ref.Rows, got.Rows))
			}
		}
	}
}

// The seeded plan must not leak the outer bindings into the inner group's
// own variables: a variable bound only inside OPTIONAL stays unbound in
// rows the inner group does not match.
func TestOptionalPlanKeepsUnmatchedRows(t *testing.T) {
	st := optionalStore(t)
	res := execOpts(t, st, optionalQuery(optionalPlanQueries[0].q), Options{Parallelism: 1})
	unmatched := 0
	for _, row := range res.Rows {
		if _, ok := row["o"]; !ok {
			unmatched++
		}
		if _, ok := row["e"].(rdf.IRI); !ok {
			t.Fatalf("row without ?e: %v", row)
		}
	}
	if unmatched == 0 || unmatched == len(res.Rows) {
		t.Fatalf("%d of %d rows unmatched; want some of each", unmatched, len(res.Rows))
	}
}
