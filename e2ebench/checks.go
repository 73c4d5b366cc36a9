package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// Output checks made after the window, so they cost the timed traffic
// nothing. Each failed check counts as one failed request.

// checkAfterWindow runs the workload's checks against the still-running
// instance.
func checkAfterWindow(in *instance, w *window) error {
	switch w.workload {
	case wlSPARQLCold:
		for _, o := range w.obs {
			for _, s := range o.samples {
				if why := checkSPARQL(in.st, s.req, s.body); why != "" {
					w.fail("sparql sample %.100s: %s", s.req.query, why)
				}
			}
		}
	case wlExploreSession:
		return checkExplore(in, w)
	}
	return nil
}

// checkSPARQL compares a /sparql response with a direct evaluation of the
// same query: the same variables, and the same rows as a multiset (as a
// sequence when ORDER BY fixes the order).
func checkSPARQL(st *store.Store, r request, body []byte) string {
	q, err := sparql.Parse(r.query)
	if err != nil {
		return "parsing: " + err.Error()
	}
	res, err := sparql.EvalCtx(context.Background(), st, q, sparql.Options{})
	if err != nil {
		return "direct evaluation: " + err.Error()
	}
	want := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		want[i] = canonicalRow(sparql.EncodeBinding(row))
	}
	var doc struct {
		Head struct {
			Vars []string `json:"vars"`
		} `json:"head"`
		Results struct {
			Bindings []map[string]sparql.JSONTerm `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return "decoding response: " + err.Error()
	}
	if strings.Join(doc.Head.Vars, ",") != strings.Join(res.Vars, ",") {
		return fmt.Sprintf("vars %v, want %v", doc.Head.Vars, res.Vars)
	}
	got := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		got[i] = canonicalRow(b)
	}
	return compareRows(got, want, r.ordered)
}

// canonicalRow renders one binding with its variables in sorted order.
func canonicalRow(b map[string]sparql.JSONTerm) string {
	names := make([]string, 0, len(b))
	for n := range b {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		t := b[n]
		fmt.Fprintf(&sb, "%s=%s|%s|%s|%s;", n, t.Type, t.Value, t.Lang, t.Datatype)
	}
	return sb.String()
}

func compareRows(got, want []string, ordered bool) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d rows, want %d", len(got), len(want))
	}
	if !ordered {
		got = append([]string(nil), got...)
		want = append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("row %d is %s, want %s", i, got[i], want[i])
		}
	}
	return ""
}

// checkExplore compares buffered responses across clients (every response
// for one URL — HIT or MISS — must carry the same body and ETag) and each
// stream with its buffered twin: the final line of /facets/stream and
// /stats/stream must hold exactly the buffered body, and /sparql/stream
// must deliver the rows of /sparql.
func checkExplore(in *instance, w *window) error {
	first := map[string]*bodyObs{}
	for _, o := range w.obs {
		for path, b := range o.bodies {
			if f, ok := first[path]; ok && (f.hash != b.hash || f.etag != b.etag) {
				w.fail("%s: clients saw different bodies or ETags", path)
				continue
			}
			first[path] = b
		}
	}
	c := newClient()
	defer c.close()
	checked := map[string]bool{}
	for _, o := range w.obs {
		for path, body := range o.streams {
			if checked[path] {
				continue
			}
			checked[path] = true
			buffered := bufferedPath(path)
			status, want, err := c.get(in.base + buffered)
			if err != nil {
				return err
			}
			if status != 200 {
				w.fail("%s: status %d", buffered, status)
				continue
			}
			if strings.HasPrefix(path, "/sparql/stream") {
				if why := checkSPARQLStream(body, want); why != "" {
					w.fail("%.100s: %s", path, why)
				}
				continue
			}
			var final struct {
				Result json.RawMessage `json:"result"`
			}
			if err := json.Unmarshal(lastLine(body), &final); err != nil {
				w.fail("%s: decoding final line: %v", path, err)
			} else if !bytes.Equal(final.Result, want) {
				w.fail("%s: final line differs from %s", path, buffered)
			}
		}
	}
	return nil
}

// checkSPARQLStream compares the rows of an NDJSON stream with the
// buffered SPARQL JSON body of the same query.
func checkSPARQLStream(stream, buffered []byte) string {
	lines := bytes.Split(bytes.TrimRight(stream, "\n"), []byte("\n"))
	if len(lines) < 2 {
		return "stream too short"
	}
	var got []string
	for _, l := range lines[1 : len(lines)-1] {
		var b map[string]sparql.JSONTerm
		if err := json.Unmarshal(l, &b); err != nil {
			return "decoding stream row: " + err.Error()
		}
		got = append(got, canonicalRow(b))
	}
	var doc struct {
		Results struct {
			Bindings []map[string]sparql.JSONTerm `json:"bindings"`
		} `json:"results"`
	}
	if err := json.Unmarshal(buffered, &doc); err != nil {
		return "decoding buffered body: " + err.Error()
	}
	want := make([]string, len(doc.Results.Bindings))
	for i, b := range doc.Results.Bindings {
		want[i] = canonicalRow(b)
	}
	return compareRows(got, want, false)
}

// checkDurability reloads the seeded dataset, replays the closed WAL over
// it and checks that every acknowledged insert is present, every
// acknowledged delete absent, and the triple count equals the live
// store's. It returns the number of failed checks with a description of
// the first.
func checkDurability(seed int64, walPath string, acked []request, liveLen int) (int, string, error) {
	st, err := store.Load(gen.EntityDataset(datasetOptions(seed)))
	if err != nil {
		return 0, "", err
	}
	if _, err := wal.Replay(walPath, func(rec wal.Record) error {
		switch rec.Op {
		case wal.OpAdd:
			_, err := st.AddBatch(rec.Triples)
			return err
		case wal.OpDelete:
			_, err := st.DeleteBatch(rec.Triples)
			return err
		default:
			return fmt.Errorf("unknown WAL op %v at seq %d", rec.Op, rec.Seq)
		}
	}); err != nil {
		return 0, "", fmt.Errorf("replaying WAL: %w", err)
	}
	failed, first := 0, ""
	miss := func(format string, args ...any) {
		failed++
		if first == "" {
			first = fmt.Sprintf(format, args...)
		}
	}
	for _, r := range acked {
		for _, t := range r.insert {
			if !st.Contains(t) {
				miss("acknowledged insert %v missing after replay", t)
			}
		}
		for _, t := range r.delete {
			if st.Contains(t) {
				miss("acknowledged delete %v present after replay", t)
			}
		}
	}
	if st.Len() != liveLen {
		miss("replayed store holds %d triples, live store %d", st.Len(), liveLen)
	}
	return failed, first, nil
}

// bufferedPath is the URL of a stream request's buffered twin.
func bufferedPath(path string) string { return strings.Replace(path, "/stream", "", 1) }
