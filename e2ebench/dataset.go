package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/lodviz/lodviz/internal/federation"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/ledger"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/server"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// Dataset shape: 20k entities, each with a type, a label, two numeric, one
// temporal, three categorical (12 values each) and two link properties —
// 10 statements per entity, 200k triples in all.
const (
	numEntities   = 20000
	numClasses    = 5
	numCategories = 12
)

func datasetOptions(seed int64) gen.EntityOptions {
	return gen.EntityOptions{
		Entities:      numEntities,
		Classes:       numClasses,
		NumericProps:  2,
		TemporalProps: 1,
		CategoryProps: 3,
		Categories:    numCategories,
		LinkProps:     2,
		Seed:          seed,
	}
}

func prop(name string) string { return gen.NS + "prop/" + name }

func entityIRI(i int) string { return fmt.Sprintf("%sentity/%d", gen.NS, i) }

func classIRI(c int) string { return fmt.Sprintf("%sclass/%d", gen.NS, c) }

// dataset is what the traffic generators know about the generated data:
// each entity's class and label and, for the write-mixed writer, which
// deletes some of them, the triples themselves.
type dataset struct {
	triples []rdf.Triple
	class   []int
	label   []string
}

func newDataset(triples []rdf.Triple) *dataset {
	d := &dataset{triples: triples, class: make([]int, numEntities), label: make([]string, numEntities)}
	prefix := gen.NS + "entity/"
	for _, t := range triples {
		s, ok := t.S.(rdf.IRI)
		if !ok || !strings.HasPrefix(string(s), prefix) {
			continue
		}
		var i int
		if _, err := fmt.Sscanf(string(s)[len(prefix):], "%d", &i); err != nil || i < 0 || i >= numEntities {
			continue
		}
		switch t.P {
		case rdf.RDFType:
			var c int
			if o, ok := t.O.(rdf.IRI); ok {
				fmt.Sscanf(string(o), gen.NS+"class/%d", &c)
			}
			d.class[i] = c
		case rdf.RDFSLabel:
			if l, ok := t.O.(rdf.Literal); ok {
				d.label[i] = l.Lexical
			}
		}
	}
	return d
}

// instance is one running server over a freshly loaded dataset, configured
// as cmd/lodvizd configures it by default (facet warming on, 4096-entry
// response cache, 64 in-flight requests per endpoint, NumCPU parallelism),
// plus — for write-mixed — a WAL with the "always" sync policy and the
// ledger observer, as `lodvizd -wal <file> -wal-sync always` runs.
type instance struct {
	data    *dataset
	st      *store.Store
	reg     *obs.Registry
	srv     *server.Server
	wal     *wal.Log
	walPath string
	base    string // http://127.0.0.1:<port>
	cancel  context.CancelFunc
	served  chan error
	setup   time.Duration
}

// setupOptions selects the optional parts of an instance.
type setupOptions struct {
	seed    int64
	walPath string // "" = no WAL
	// wrapWAL, when set, wraps the WAL before it is attached to the store
	// (the traced run's timing sink).
	wrapWAL func(*wal.Log) store.WALSink
	// wrapHandler, when set, wraps the server's handler (the traced run's
	// HTTP span recorder).
	wrapHandler func(http.Handler) http.Handler
}

// startInstance generates and loads the dataset, starts the server on a
// loopback listener and warms its lazy state: keyword index, root facets
// and the planner's cardinality table. Its duration is one setup_s sample.
func startInstance(opt setupOptions) (*instance, error) {
	t0 := time.Now()
	triples := gen.EntityDataset(datasetOptions(opt.seed))
	st, err := store.Load(triples)
	if err != nil {
		return nil, fmt.Errorf("loading dataset: %w", err)
	}
	in := &instance{data: newDataset(triples), st: st, reg: obs.NewRegistry()}
	if opt.walPath == "" {
		// Only write-mixed writes (and only it has a WAL); elsewhere the
		// slice would sit in the measured heap.
		in.data.triples = nil
	}
	cfg := server.Config{
		FacetWarming: true,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		Mesh:         federation.NewMesh(federation.Options{}),
		Metrics:      in.reg,
	}
	if opt.walPath != "" {
		if err := os.MkdirAll(filepath.Dir(opt.walPath), 0o755); err != nil {
			return nil, err
		}
		if err := os.Remove(opt.walPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		led := ledger.New()
		in.wal, err = wal.Open(opt.walPath, wal.Options{Sync: wal.SyncAlways, Observer: led.Append, Metrics: wal.NewMetrics(in.reg)})
		if err != nil {
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		in.walPath = opt.walPath
		var sink store.WALSink = in.wal
		if opt.wrapWAL != nil {
			sink = opt.wrapWAL(in.wal)
		}
		st.SetWAL(sink)
		cfg.Ledger, cfg.WAL, cfg.WALSyncDesc = led, in.wal, "always"
	}
	in.srv = server.New(st, cfg)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.close()
		return nil, err
	}
	in.base = "http://" + ln.Addr().String()
	var h http.Handler = in.srv.Handler()
	if opt.wrapHandler != nil {
		h = opt.wrapHandler(h)
	}
	ctx, cancel := context.WithCancel(context.Background())
	in.cancel = cancel
	in.served = make(chan error, 1)
	go func() { in.served <- serve(ctx, ln, h) }()

	if err := in.warm(); err != nil {
		in.close()
		return nil, fmt.Errorf("warming: %w", err)
	}
	in.setup = time.Since(t0)
	return in, nil
}

// serve runs an http.Server with lodvizd's settings until ctx ends.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

// warm pays the lazy set-up costs through the HTTP surface: the keyword
// index (first /search), the root facet view (first /facets, which also
// lands in the response cache) and the cardinality table (first planned
// SPARQL query).
func (in *instance) warm() error {
	c := newClient()
	defer c.close()
	for _, path := range []string{
		"/search?q=" + url.QueryEscape("entity 1") + "&limit=10",
		"/facets",
		"/sparql?query=" + url.QueryEscape(fmt.Sprintf("SELECT ?e WHERE { ?e <%s> \"category-0\" . ?e <%s> \"category-1\" }", prop("cat0"), prop("cat1"))),
	} {
		st, _, err := c.get(in.base + path)
		if err != nil {
			return err
		}
		if st != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", path, st)
		}
	}
	return nil
}

// close stops the server, waits for it and closes the WAL.
func (in *instance) close() error {
	var err error
	if in.cancel != nil {
		in.cancel()
		if serr := <-in.served; serr != nil && serr != http.ErrServerClosed {
			err = serr
		}
		in.cancel = nil
	}
	if in.wal != nil {
		if cerr := in.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		in.wal = nil
	}
	return err
}

// settle waits until background work the server started on its own (facet
// warming jobs outlive their requests) has finished, so it neither bleeds
// into the next measurement nor holds memory. It gives up after limit.
func settle(baseline int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
}
