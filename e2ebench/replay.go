package main

import (
	"context"
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"github.com/lodviz/lodviz/internal/core"
	"github.com/lodviz/lodviz/internal/explore"
	"github.com/lodviz/lodviz/internal/facet"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/keyword"
	"github.com/lodviz/lodviz/internal/obs"
	"github.com/lodviz/lodviz/internal/rdf"
	"github.com/lodviz/lodviz/internal/sparql"
)

// The direct replay: the traced run replays the workload's seeded read
// sequence by calling each layer's public functions over timedSource, the
// way the handlers call them, so the time of one request splits into
// parse / eval / encode, store scan / decode / plan and the exploration
// layers. Repeats of a request at an unchanged store generation are skipped,
// as the response cache would answer them; streams always run.

// replayResult aggregates the replay.
type replayResult struct {
	executed int // layer calls made (skipped repeats excluded)

	queries        int
	rows           int
	parse, encode  time.Duration
	evalSelf       time.Duration
	encodeAllocs   uint64
	traced, direct *sparql.Metrics // engine counters: over timedSource, over the bare store
	parityFailures []string

	facets, facetFirst, neighborhood, statsFirst, hetreeBuild, keywordLookup []float64 // ms per call
}

// replay runs the first limit reads of the workload's sequence (or stops
// after maxDur). On write-mixed it applies one update from writer after
// every readsPerWrite reads, so the planner's and the keyword index's
// invalidation costs show as they do under the live feed.
func replay(in *instance, t *tracer, workload string, seed int64, limit int, maxDur time.Duration, writer generator, readsPerWrite int) (*replayResult, error) {
	ctx := context.Background()
	readers, _ := newGenerators(workload, seed, in.data)
	src := timedSource{st: in.st, t: t}
	rr := &replayResult{
		traced: sparql.NewMetrics(obs.NewRegistry()),
		direct: sparql.NewMetrics(obs.NewRegistry()),
	}
	kw := keyword.NewLazy(in.st)
	kw.Index()
	seen := map[string]bool{}
	prefs := core.DefaultPreferences()
	deadline := time.Now().Add(maxDur)
	for i := 0; i < limit && time.Now().Before(deadline); i++ {
		if writer != nil && readsPerWrite > 0 && i > 0 && i%readsPerWrite == 0 {
			u := writer.next()
			if _, err := sparql.ExecUpdateCtx(ctx, in.st, u.body, sparql.Options{}); err != nil {
				return nil, fmt.Errorf("replaying update: %w", err)
			}
		}
		r := readers[i%len(readers)].next()
		if r.route == "stats" {
			// One cached view the store computes itself; it has no layer
			// split of its own.
			continue
		}
		id := uint64(i + 1)
		key := fmt.Sprintf("%s|g%d", r.path, in.st.Generation())
		if r.stream {
			seen[fmt.Sprintf("%s|g%d", bufferedPath(r.path), in.st.Generation())] = true
		} else if seen[key] {
			continue
		} else {
			seen[key] = true
		}
		rr.executed++
		switch r.route {
		case "sparql", "sparql_stream":
			if err := rr.sparql(ctx, t, src, in, r.query, id); err != nil {
				return nil, err
			}
		case "facets", "facets_stream":
			start := t.begin(id)
			sess, err := facet.NewSessionCtx(ctx, src)
			if err != nil {
				return nil, err
			}
			sess.MaxValuesPerFacet = facet.DefaultMaxValues
			for _, f := range r.filters {
				sess.Apply(facet.Filter{Predicate: rdf.IRI(f.pred), Value: rdf.NewLiteral(fmt.Sprintf("category-%d", f.value))})
			}
			if r.stream {
				first := int64(0)
				if _, _, err := sess.Stream(ctx, 0, 1, func(facet.Batch) bool {
					if first == 0 {
						first = t.now()
					}
					return true
				}); err != nil {
					return nil, err
				}
				dur, _ := t.end("facet.stream", start)
				rr.facetFirst = append(rr.facetFirst, firstBatchMS(start, first, dur))
				continue
			}
			if _, err := sess.CountCtx(ctx); err != nil {
				return nil, err
			}
			if _, err := sess.FacetsCtx(ctx); err != nil {
				return nil, err
			}
			dur, _ := t.end("facet.facets", start)
			rr.facets = append(rr.facets, ms(dur))
		case "graph_neighborhood":
			start := t.begin(id)
			if _, err := explore.FindNeighborhood(ctx, src, rdf.IRI(r.node), explore.NeighborhoodOptions{Hops: 1}); err != nil && !errors.Is(err, explore.ErrNodeNotFound) {
				return nil, err
			}
			dur, _ := t.end("explore.neighborhood", start)
			rr.neighborhood = append(rr.neighborhood, ms(dur))
		case "stats_stream":
			start := t.begin(id)
			first := int64(0)
			if _, err := explore.StreamStats(ctx, src, 0, 1, func(explore.StatsBatch) bool {
				if first == 0 {
					first = t.now()
				}
				return true
			}); err != nil {
				return nil, err
			}
			dur, _ := t.end("explore.stats_stream", start)
			rr.statsFirst = append(rr.statsFirst, firstBatchMS(start, first, dur))
		case "hetree":
			start := t.begin(id)
			tree, err := hetree.FromSource(ctx, src, rdf.IRI(r.prop), hetree.Options{
				Mode: hetree.ContentBased, Degree: prefs.TreeDegree, LeafCapacity: prefs.LeafCapacity, Incremental: true,
			})
			if err != nil {
				return nil, err
			}
			tree.LevelFor(r.budget)
			dur, _ := t.end("hetree.build", start)
			rr.hetreeBuild = append(rr.hetreeBuild, ms(dur))
		case "search", "complete":
			start := t.begin(id)
			if r.route == "search" {
				kw.Index().Search(r.text, 10)
			} else {
				kw.Index().Complete(r.text, 10)
			}
			dur, _ := t.end("keyword."+r.route, start)
			rr.keywordLookup = append(rr.keywordLookup, ms(dur))
		}
	}
	a, b := rr.traced, rr.direct
	if a.RunsIDJoin.Value() != b.RunsIDJoin.Value() || a.RunsHash.Value() != b.RunsHash.Value() {
		rr.parityFailures = append(rr.parityFailures, fmt.Sprintf("engine runs over the timing wrapper: %d idjoin / %d hash; over the store: %d / %d",
			a.RunsIDJoin.Value(), a.RunsHash.Value(), b.RunsIDJoin.Value(), b.RunsHash.Value()))
	}
	return rr, nil
}

func firstBatchMS(start, first int64, whole time.Duration) float64 {
	if first == 0 {
		return ms(whole) // no approximate batch: the exact answer is the first line
	}
	return float64(first-start) / 1e6
}

var heapAllocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocObjects() uint64 {
	metrics.Read(heapAllocObjects)
	if heapAllocObjects[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return heapAllocObjects[0].Value.Uint64()
}

// sparql replays one query as the /sparql handler runs it: parse, evaluate
// over the timing wrapper, encode. The same parsed query is then evaluated
// over the bare store for the executor-parity check.
func (rr *replayResult) sparql(ctx context.Context, t *tracer, src timedSource, in *instance, query string, id uint64) error {
	start := t.now()
	q, err := sparql.Parse(query)
	if err != nil {
		return err
	}
	stop := t.now()
	t.record("sparql.parse", id, 0, start, stop, 0, false, false)
	rr.parse += time.Duration(stop - start)

	start = t.begin(id)
	res, err := sparql.EvalCtx(ctx, src, q, sparql.Options{Metrics: rr.traced})
	if err != nil {
		return err
	}
	_, self := t.end("sparql.eval", start)
	rr.evalSelf += self

	allocs := allocObjects()
	start = t.now()
	if _, err := res.JSON(); err != nil {
		return err
	}
	stop = t.now()
	rr.encodeAllocs += allocObjects() - allocs
	t.record("sparql.encode", id, 0, start, stop, len(res.Rows), false, false)
	rr.encode += time.Duration(stop - start)
	rr.queries++
	rr.rows += len(res.Rows)

	plain, err := sparql.EvalCtx(ctx, in.st, q, sparql.Options{Metrics: rr.direct})
	if err != nil {
		return err
	}
	if len(plain.Rows) != len(res.Rows) && len(rr.parityFailures) < 4 {
		rr.parityFailures = append(rr.parityFailures, fmt.Sprintf("%.80s: %d rows over the timing wrapper, %d over the store", query, len(res.Rows), len(plain.Rows)))
	}
	return nil
}
