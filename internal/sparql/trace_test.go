package sparql

import (
	"encoding/json"
	"strings"
	"testing"

	"github.com/lodviz/lodviz/internal/explain"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/store"
)

// traceStore is a tiny hand-checkable dataset: e1,e2 carry cat "c1", the
// link chain is e1→e2→e3, and every entity has a num value.
func traceStore(t *testing.T) *store.Store {
	t.Helper()
	e := func(i int) rdf.IRI { return rdf.IRI("http://x/e" + string(rune('0'+i))) }
	st, err := store.Load([]rdf.Triple{
		{S: e(1), P: "http://x/cat", O: rdf.NewLiteral("c1")},
		{S: e(2), P: "http://x/cat", O: rdf.NewLiteral("c1")},
		{S: e(3), P: "http://x/cat", O: rdf.NewLiteral("c2")},
		{S: e(1), P: "http://x/num", O: rdf.NewInteger(1)},
		{S: e(2), P: "http://x/num", O: rdf.NewInteger(2)},
		{S: e(3), P: "http://x/num", O: rdf.NewInteger(3)},
		{S: e(1), P: "http://x/link", O: e(2)},
		{S: e(2), P: "http://x/link", O: e(3)},
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Compact()
	return st
}

const traceQuery = `SELECT ?a ?b ?v WHERE { ?a <http://x/cat> "c1" . ?a <http://x/link> ?b . ?b <http://x/num> ?v }`

// TestTraceGolden pins the span structure for a 3-pattern BGP: a
// scan-cross seed, then two merge joins. Durations are zeroed; everything
// else — span nesting, pattern order after planning, strategies,
// per-pattern row counts — must match byte for byte.
func TestTraceGolden(t *testing.T) {
	st := traceStore(t)
	const plan = `?a <http://x/cat> \"c1\" . ?a <http://x/link> ?b . ?b <http://x/num> ?v`
	cases := []struct {
		name string
		want string
	}{
		{
			name: "id-join",
			want: `{"root":{"name":"query","durationMicros":0,"children":[` +
				`{"name":"parse","durationMicros":0},` +
				`{"name":"execute","strategy":"materialized","rowsOut":2,"durationMicros":0,"children":[` +
				`{"name":"plan","detail":"` + plan + `","durationMicros":0},` +
				`{"name":"pattern","detail":"?a <http://x/cat> \"c1\"","strategy":"id-cross","rowsIn":1,"rowsOut":2,"durationMicros":0},` +
				`{"name":"pattern","detail":"?a <http://x/link> ?b","strategy":"id-merge","rowsIn":2,"rowsOut":2,"durationMicros":0},` +
				`{"name":"pattern","detail":"?b <http://x/num> ?v","strategy":"id-merge","rowsIn":2,"rowsOut":2,"durationMicros":0}]}]}}`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := explain.NewTrace()
			res, err := ExecOpts(st, traceQuery, Options{Parallelism: 1, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			if len(res.Rows) != 2 {
				t.Fatalf("rows = %d, want 2", len(res.Rows))
			}
			tr.ZeroDurations()
			var sb strings.Builder
			enc := json.NewEncoder(&sb)
			enc.SetEscapeHTML(false)
			if err := enc.Encode(tr); err != nil {
				t.Fatal(err)
			}
			if got := strings.TrimSuffix(sb.String(), "\n"); got != tc.want {
				t.Errorf("trace mismatch\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestTraceRowCountsMatchResults cross-checks the trace against the
// executed plan on a larger differential dataset: the final pattern span's
// rowsOut must equal the result row count, and every span's rowsIn must be
// the previous span's rowsOut.
func TestTraceRowCountsMatchResults(t *testing.T) {
	st := idJoinStore(t)
	q := `SELECT ?e ?o ?v WHERE { ?e <http://x/cat> "c2" . ?e <http://x/link> ?o . ?o <http://x/num> ?v }`
	tr := explain.NewTrace()
	res, err := ExecOpts(st, q, Options{Parallelism: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var pats []*explain.Span
	var walk func(s *explain.Span)
	walk = func(s *explain.Span) {
		if s.Name == "pattern" {
			pats = append(pats, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root())
	if len(pats) != 3 {
		t.Fatalf("%d pattern spans, want 3", len(pats))
	}
	for i := 1; i < len(pats); i++ {
		if pats[i].RowsIn != pats[i-1].RowsOut {
			t.Errorf("span %d rowsIn %d != prior rowsOut %d", i, pats[i].RowsIn, pats[i-1].RowsOut)
		}
	}
	if last := pats[len(pats)-1]; last.RowsOut != len(res.Rows) {
		t.Errorf("final span rowsOut %d != result rows %d", last.RowsOut, len(res.Rows))
	}
	if s := tr.Summary(); s == "" {
		t.Error("empty trace summary")
	}
}

// TestEngineMetrics drives the executor and the streaming path, checking
// the counters move where expected.
func TestEngineMetrics(t *testing.T) {
	st := traceStore(t)
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	if _, err := ExecOpts(st, traceQuery, Options{Parallelism: 1, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.RunsIDJoin.Value() == 0 {
		t.Error("RunsIDJoin did not move")
	}
	if met.QueriesMaterialized.Value() != 1 {
		t.Errorf("QueriesMaterialized = %d, want 1", met.QueriesMaterialized.Value())
	}
	if met.RowsOut.Value() == 0 || met.MatchesScanned.Value() == 0 {
		t.Errorf("RowsOut=%d MatchesScanned=%d, want > 0", met.RowsOut.Value(), met.MatchesScanned.Value())
	}
	if _, err := ExecOpts(st, `SELECT ?s WHERE { ?s <http://x/cat> "c1" } LIMIT 1`, Options{Parallelism: 1, Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.QueriesStreamed.Value() != 1 {
		t.Errorf("QueriesStreamed = %d, want 1", met.QueriesStreamed.Value())
	}
	if met.PushdownHits.Value() != 1 {
		t.Errorf("PushdownHits = %d, want 1", met.PushdownHits.Value())
	}
	if met.PagesScanned.Value() == 0 {
		t.Error("PagesScanned did not move")
	}
	if _, err := ExecUpdate(st, `INSERT DATA { <http://x/e9> <http://x/cat> "c9" }`); err != nil {
		t.Fatal(err)
	}
	if _, err := ExecUpdateCtx(t.Context(), st, `INSERT DATA { <http://x/e8> <http://x/cat> "c8" }`, Options{Metrics: met}); err != nil {
		t.Fatal(err)
	}
	if met.Updates.Value() != 1 {
		t.Errorf("Updates = %d, want 1", met.Updates.Value())
	}
}

// TestTraceFilterSpan pins the pushed-down filter's span: it hangs under
// the last pattern span of the run it was pushed into and records the rows
// entering and leaving the filter, so a trace shows where rows were
// dropped.
func TestTraceFilterSpan(t *testing.T) {
	st := traceStore(t)
	const q = `SELECT ?a ?v WHERE { ?a <http://x/cat> "c1" . ?a <http://x/num> ?v FILTER(?v > 1) }`
	const want = `{"root":{"name":"query","durationMicros":0,"children":[` +
		`{"name":"parse","durationMicros":0},` +
		`{"name":"execute","strategy":"materialized","rowsOut":1,"durationMicros":0,"children":[` +
		`{"name":"plan","detail":"?a <http://x/cat> \"c1\" . ?a <http://x/num> ?v","durationMicros":0},` +
		`{"name":"pattern","detail":"?a <http://x/cat> \"c1\"","strategy":"id-cross","rowsIn":1,"rowsOut":2,"durationMicros":0},` +
		`{"name":"pattern","detail":"?a <http://x/num> ?v","strategy":"id-merge","rowsIn":2,"rowsOut":2,"durationMicros":0,"children":[` +
		`{"name":"filter","detail":"(?v > \"1\"^^<http://www.w3.org/2001/XMLSchema#integer>)","strategy":"id-filter","rowsIn":2,"rowsOut":1,"durationMicros":0}]}]}]}}`
	tr := explain.NewTrace()
	res, err := ExecOpts(st, q, Options{Parallelism: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	tr.ZeroDurations()
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(tr); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSuffix(sb.String(), "\n"); got != want {
		t.Errorf("trace mismatch\n got: %s\nwant: %s", got, want)
	}
}
