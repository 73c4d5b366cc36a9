package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/store"
)

// newHTTPTestServer serves an already-built Server (newTestServer builds
// its own store; this variant lets a test supply a wrapped query source).
func newHTTPTestServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// streamLine is the union of every NDJSON line shape the endpoint emits.
type streamLine struct {
	Vars    []string `json:"vars"`
	Boolean *bool    `json:"boolean"`
	Done    *bool    `json:"done"`
	Rows    int      `json:"rows"`
	Error   string   `json:"error"`
	raw     map[string]json.RawMessage
}

func streamGet(t *testing.T, base, query string) []streamLine {
	t.Helper()
	resp, err := http.Get(base + "/sparql/stream?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != streamContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, streamContentType)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "BYPASS" {
		t.Fatalf("X-Cache = %q, want BYPASS", xc)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		json.Unmarshal(sc.Bytes(), &ln.raw)
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestStreamEndpointSelect: head line, one line per row, done trailer —
// and the rows match the buffered /sparql endpoint's bindings.
func TestStreamEndpointSelect(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	q := `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5`
	lines := streamGet(t, ts.URL, q)
	if len(lines) != 7 { // head + 5 rows + trailer
		t.Fatalf("got %d lines, want 7", len(lines))
	}
	if len(lines[0].Vars) != 3 {
		t.Fatalf("head vars = %v, want 3 names", lines[0].Vars)
	}
	last := lines[len(lines)-1]
	if last.Done == nil || !*last.Done || last.Rows != 5 {
		t.Fatalf("trailer = %+v, want done with 5 rows", last)
	}
	// Differential against /sparql.
	var doc sparqlDoc
	getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
	for i, b := range doc.Results.Bindings {
		row := lines[i+1].raw
		if len(row) != len(b) {
			t.Fatalf("row %d: stream has %d bindings, buffered has %d", i, len(row), len(b))
		}
		for name, term := range b {
			var st struct {
				Value string `json:"value"`
			}
			if err := json.Unmarshal(row[name], &st); err != nil || st.Value != term.Value {
				t.Errorf("row %d var %s: stream %s, buffered %s", i, name, row[name], term.Value)
			}
		}
	}
}

func TestStreamEndpointAsk(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	lines := streamGet(t, ts.URL, `ASK { ?s ?p ?o }`)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0].Boolean == nil || !*lines[0].Boolean {
		t.Fatalf("boolean line = %+v, want true", lines[0])
	}
	if lines[1].Done == nil || !*lines[1].Done {
		t.Fatalf("trailer = %+v, want done", lines[1])
	}
}

func TestStreamEndpointParseError(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/sparql/stream?query=" + url.QueryEscape("SELECT ?s WHERE {"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// gatedSource wraps the store and blocks the streaming driver's paged scan
// after `free` triples total, until the gate channel is closed: the
// deliberately slow store wrapper. Evaluation provably cannot finish while
// the gate is shut, so anything the client has read by then was delivered
// mid-evaluation.
type gatedSource struct {
	*store.Store
	free int64
	gate chan struct{}
	seen atomic.Int64
}

func (g *gatedSource) ForEachIDPage(s, p, o store.ID, pos, max int, fn func(store.IDTriple) bool) (int, bool) {
	return g.Store.ForEachIDPage(s, p, o, pos, max, func(t store.IDTriple) bool {
		if g.seen.Add(1) > g.free {
			<-g.gate
		}
		return fn(t)
	})
}

// TestStreamFirstRowBeforeEvaluationCompletes is the streaming guarantee:
// the first NDJSON row reaches the client while the engine is still
// mid-scan (the gated source blocks after 3 triples; the full pattern has
// hundreds).
func TestStreamFirstRowBeforeEvaluationCompletes(t *testing.T) {
	st := gen.MiniLODStore()
	gate := make(chan struct{})
	// free covers the driver's first page (streamBatchInit matches) and
	// nothing more: the scan blocks mid-second-page while the client must
	// already hold the first rows.
	src := &gatedSource{Store: st, free: 6, gate: gate}
	s := New(st, Config{Logger: discardLogger(), querySource: src})
	ts := newHTTPTestServer(t, s)

	resp, err := http.Get(ts + "/sparql/stream?query=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	readLine := func() string {
		linec := make(chan string, 1)
		errc := make(chan error, 1)
		go func() {
			if sc.Scan() {
				linec <- sc.Text()
			} else {
				errc <- sc.Err()
			}
		}()
		select {
		case ln := <-linec:
			return ln
		case err := <-errc:
			t.Fatalf("stream ended early: %v", err)
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for a streamed line while the scan was gated")
		}
		return ""
	}
	head := readLine()
	if !strings.Contains(head, "vars") {
		t.Fatalf("first line is not a head: %q", head)
	}
	firstRow := readLine()
	if !strings.Contains(firstRow, `"uri"`) && !strings.Contains(firstRow, `"literal"`) && !strings.Contains(firstRow, `"bnode"`) {
		t.Fatalf("second line is not a binding row: %q", firstRow)
	}
	// The gate is still shut: evaluation cannot have completed, yet the
	// client holds a row. The scan must actually have reached the gate, or
	// the wrapper was bypassed and the test measured nothing.
	deadline := time.Now().Add(5 * time.Second)
	for src.seen.Load() <= src.free && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if seen := src.seen.Load(); seen <= src.free {
		t.Fatalf("the scan visited %d triples through the gated source, want more than %d", seen, src.free)
	}
	// Release the scan and drain the rest.
	close(gate)
	sawDone := false
	for sc.Scan() {
		if strings.Contains(sc.Text(), `"done":true`) {
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("missing done trailer after releasing the gate")
	}
}

// TestStreamMatchesBufferedAcrossShapes: for representative query shapes
// (incremental and materializing alike) the streamed row sequence equals
// the buffered endpoint's bindings array.
func TestStreamMatchesBufferedAcrossShapes(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	for _, q := range []string{
		`SELECT ?s WHERE { ?s ?p ?o } LIMIT 3 OFFSET 2`,
		`SELECT ?s ?o WHERE { ?s ?p ?o } ORDER BY ?o ?s LIMIT 4`,
		`SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 5`,
	} {
		lines := streamGet(t, ts.URL, q)
		var doc sparqlDoc
		getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(q), &doc)
		gotRows := len(lines) - 2
		if gotRows != len(doc.Results.Bindings) {
			t.Errorf("%s: streamed %d rows, buffered %d", q, gotRows, len(doc.Results.Bindings))
		}
	}
}
