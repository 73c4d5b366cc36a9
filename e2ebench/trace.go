package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// The traced run records spans from the benchmark's own code only: around
// the server's handler, around the WAL the store writes through, and around
// every store call the engine and exploration layers make during the
// direct replay (through timedSource). Nothing inside the program changes.

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the span that caused this one (0 = none).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Count is the number of items a callback scan delivered; Inclusive
	// marks spans whose time includes the caller's callback work.
	Count     int  `json:"count,omitempty"`
	Inclusive bool `json:"inclusive,omitempty"`
}

// maxKeptSpans bounds the spans kept for the trace file; aggregates cover
// every span.
const maxKeptSpans = 200000

// tracer collects spans in memory. The direct replay is sequential, so it
// sets the current request and parent span; the engine's parallel workers
// may record store spans concurrently, hence the mutex.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  uint64
	req     uint64
	parent  uint64
	kept    []span
	dropped int
	// children holds the intervals of the current parent's child spans,
	// for its self time.
	children [][2]int64
	totals   map[string]*layerTotal
}

// layerTotal aggregates every span of one name.
type layerTotal struct {
	calls int
	ns    int64
	durs  []float64 // per call, ms (HTTP and WAL spans only)
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), totals: map[string]*layerTotal{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, req, parent uint64, start, end int64, count int, inclusive, keepDur bool) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	id := t.nextID
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, Count: count, Inclusive: inclusive})
	} else {
		t.dropped++
	}
	lt := t.totals[name]
	if lt == nil {
		lt = &layerTotal{}
		t.totals[name] = lt
	}
	lt.calls++
	lt.ns += end - start
	if keepDur {
		lt.durs = append(lt.durs, float64(end-start)/1e6)
	}
	if parent != 0 && parent == t.parent {
		t.children = append(t.children, [2]int64{start, end})
	}
	return id
}

// child records a store call made under the current parent span.
func (t *tracer) child(name string, start int64, count int, inclusive bool) {
	t.mu.Lock()
	req, parent := t.req, t.parent
	t.mu.Unlock()
	t.record(name, req, parent, start, t.now(), count, inclusive, false)
}

// begin opens a layer call of the replay: spans recorded until end are its
// children.
func (t *tracer) begin(req uint64) int64 {
	t.mu.Lock()
	t.nextID++
	t.req, t.parent = req, t.nextID
	t.children = t.children[:0]
	t.mu.Unlock()
	return t.now()
}

// end closes the current layer call under name and returns its duration
// and self time (duration minus the union of its children's intervals).
func (t *tracer) end(name string, start int64) (dur, self time.Duration) {
	stop := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id, req := t.parent, t.req
	covered := unionLength(t.children)
	t.parent = 0
	if len(t.kept) < maxKeptSpans {
		t.kept = append(t.kept, span{ID: id, Req: req, Name: name, Start: start, End: stop})
	} else {
		t.dropped++
	}
	lt := t.totals[name]
	if lt == nil {
		lt = &layerTotal{}
		t.totals[name] = lt
	}
	lt.calls++
	lt.ns += stop - start
	return time.Duration(stop - start), time.Duration(stop - start - covered)
}

func unionLength(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, lo, hi := int64(0), iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
		} else if x[1] > hi {
			hi = x[1]
		}
	}
	return total + hi - lo
}

// total returns the aggregate of one span name (zero value when absent).
func (t *tracer) total(name string) layerTotal {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lt := t.totals[name]; lt != nil {
		return *lt
	}
	return layerTotal{}
}

// writeFile writes the kept spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// routeOf names the endpoint of an incoming request as the benchmark's
// per-route metrics do.
func routeOf(r *http.Request) string {
	route := strings.ReplaceAll(strings.Trim(r.URL.Path, "/"), "/", "_")
	if r.Method == http.MethodPost && strings.HasPrefix(r.Header.Get("Content-Type"), "application/sparql-update") {
		route += "_update"
	}
	return route
}

// tracedHandler wraps the server's handler with one span per request,
// keyed by the client's request number.
func tracedHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		next.ServeHTTP(w, r)
		// Only the timed requests carry a request number; set-up, warm-up
		// (number 0) and the /metrics scrapes do not.
		if id, err := strconv.ParseUint(r.Header.Get(reqIDHeader), 10, 64); err == nil && id != 0 {
			t.record("http."+routeOf(r), id, 0, start, t.now(), 0, false, true)
		}
	})
}

// timedWAL wraps the WAL the store writes through. AppendAdd and
// AppendDelete run under the store's write lock; Sync is the group-commit
// wait after it is released.
type timedWAL struct {
	log *wal.Log
	t   *tracer
}

func (w timedWAL) AppendAdd(ts []rdf.Triple) (uint64, error) {
	start := w.t.now()
	seq, err := w.log.AppendAdd(ts)
	w.t.record("wal.append", 0, 0, start, w.t.now(), len(ts), false, true)
	return seq, err
}

func (w timedWAL) AppendDelete(ts []rdf.Triple) (uint64, error) {
	start := w.t.now()
	seq, err := w.log.AppendDelete(ts)
	w.t.record("wal.append", 0, 0, start, w.t.now(), len(ts), false, true)
	return seq, err
}

func (w timedWAL) Sync(seq uint64) error {
	start := w.t.now()
	err := w.log.Sync(seq)
	w.t.record("wal.sync", 0, 0, start, w.t.now(), 0, false, true)
	return err
}

// timedSource wraps the store for the direct replay. Calls without
// callbacks are timed directly; callback scans record their item count
// and inclusive time (the callback runs inside the span).
type timedSource struct {
	st *store.Store
	t  *tracer
}

// The wrappers must keep the engine on its real paths: the SPARQL engine
// takes the dictionary-ID executor only for an IDSource.
var (
	_ sparql.IDSource = timedSource{}
	_ explore.Source  = timedSource{}
	_ store.WALSink   = timedWAL{}
)

// Span names of store calls, by layer metric.
const (
	spanScan   = "store.scan"   // ForEach*, ScanIDs, ForEachIDPage
	spanDecode = "store.decode" // Terms
	spanPlan   = "store.plan"   // Cardinalities, EstimateCount*, NumTerms
	spanLookup = "store.lookup" // LookupTermID
)

func (s timedSource) ForEach(p store.Pattern, fn func(rdf.Triple) bool) {
	start, n := s.t.now(), 0
	s.st.ForEach(p, func(t rdf.Triple) bool { n++; return fn(t) })
	s.t.child(spanScan, start, n, true)
}

func (s timedSource) ForEachPage(p store.Pattern, pos, max int, fn func(rdf.Triple) bool) (int, bool) {
	start, n := s.t.now(), 0
	next, done := s.st.ForEachPage(p, pos, max, func(t rdf.Triple) bool { n++; return fn(t) })
	s.t.child(spanScan, start, n, true)
	return next, done
}

func (s timedSource) ForEachID(sid, pid, oid store.ID, fn func(store.IDTriple) bool) {
	start, n := s.t.now(), 0
	s.st.ForEachID(sid, pid, oid, func(t store.IDTriple) bool { n++; return fn(t) })
	s.t.child(spanScan, start, n, true)
}

func (s timedSource) ForEachIDPage(sid, pid, oid store.ID, pos, max int, fn func(store.IDTriple) bool) (int, bool) {
	start, n := s.t.now(), 0
	next, done := s.st.ForEachIDPage(sid, pid, oid, pos, max, func(t store.IDTriple) bool { n++; return fn(t) })
	s.t.child(spanScan, start, n, true)
	return next, done
}

func (s timedSource) ScanIDs(sid, pid, oid store.ID, lead store.Position) (store.IDRun, bool) {
	start := s.t.now()
	run, ok := s.st.ScanIDs(sid, pid, oid, lead)
	s.t.child(spanScan, start, 0, false)
	return run, ok
}

func (s timedSource) Terms(ids []store.ID) []rdf.Term {
	start := s.t.now()
	out := s.st.Terms(ids)
	s.t.child(spanDecode, start, len(ids), false)
	return out
}

func (s timedSource) LookupTermID(t rdf.Term) (store.ID, bool) {
	start := s.t.now()
	id, ok := s.st.LookupTermID(t)
	s.t.child(spanLookup, start, 1, false)
	return id, ok
}

func (s timedSource) Cardinalities() map[rdf.IRI]store.PredCardinality {
	start := s.t.now()
	c := s.st.Cardinalities()
	s.t.child(spanPlan, start, 0, false)
	return c
}

func (s timedSource) EstimateCount(p store.Pattern) int {
	start := s.t.now()
	n := s.st.EstimateCount(p)
	s.t.child(spanPlan, start, 0, false)
	return n
}

func (s timedSource) EstimateCountIDs(sid, pid, oid store.ID) int {
	start := s.t.now()
	n := s.st.EstimateCountIDs(sid, pid, oid)
	s.t.child(spanPlan, start, 0, false)
	return n
}

func (s timedSource) NumTerms() int {
	start := s.t.now()
	n := s.st.NumTerms()
	s.t.child(spanPlan, start, 0, false)
	return n
}

func (s timedSource) LayoutEpoch() uint64 { return s.st.LayoutEpoch() }

func (s timedSource) Generation() uint64 { return s.st.Generation() }
