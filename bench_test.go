// Benchmarks, one group per experiment E1–E12 (the experiment table in
// cmd/benchharness/main.go names each one).
// cmd/benchharness runs the same workloads as parameter sweeps and prints
// paper-style rows; these testing.B benches give per-operation costs.
package lodviz

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/lodviz/lodviz/internal/aggregate"
	"github.com/lodviz/lodviz/internal/bundling"
	"github.com/lodviz/lodviz/internal/crack"
	"github.com/lodviz/lodviz/internal/gen"
	"github.com/lodviz/lodviz/internal/hetree"
	"github.com/lodviz/lodviz/internal/layout"
	"github.com/lodviz/lodviz/internal/prefetch"
	"github.com/lodviz/lodviz/internal/progressive"
	"github.com/lodviz/lodviz/internal/recommend"
	"github.com/lodviz/lodviz/internal/registry"
	"github.com/lodviz/lodviz/internal/sampling"
	"github.com/lodviz/lodviz/internal/sparql"
	"github.com/lodviz/lodviz/internal/spatial"
	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/super"
)

// E1/E2 — survey table regeneration.

func BenchmarkTable1Generation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if registry.RenderTable1() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Generation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if registry.RenderTable2() == "" {
			b.Fatal("empty table")
		}
	}
}

// E3 — reduction strategies (100k points → 10k budget).

func e3Points(n int) []sampling.Point {
	rng := rand.New(rand.NewSource(7))
	pts := make([]sampling.Point, n)
	for i := range pts {
		if i%997 == 0 {
			pts[i] = sampling.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}
		} else {
			pts[i] = sampling.Point{X: 50 + rng.NormFloat64()*2, Y: 50 + rng.NormFloat64()*2}
		}
	}
	return pts
}

func BenchmarkE3ReductionReservoir(b *testing.B) {
	pts := e3Points(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, _ := sampling.NewReservoir[sampling.Point](10000, 1)
		for _, p := range pts {
			r.Add(p)
		}
		_ = r.Sample()
	}
}

func BenchmarkE3ReductionVAS(b *testing.B) {
	pts := e3Points(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sampling.VisualizationAware(pts, 10000, 1000, 1000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ReductionBin2D(b *testing.B) {
	pts := e3Points(100000)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.Bin2D(xs, ys, 100, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ReductionM4(b *testing.B) {
	series := make([]aggregate.M4Point, 100000)
	for i := range series {
		series[i] = aggregate.M4Point{T: float64(i), V: math.Sin(float64(i) / 500)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := aggregate.M4(series, 1000); err != nil {
			b.Fatal(err)
		}
	}
}

// E4 — progressive aggregation.

func BenchmarkE4ProgressiveTo10Percent(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 1000000)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := progressive.NewSampler(vals, progressive.Mean, int64(i))
		s.Step(len(vals) / 10)
		_ = s.Current()
	}
}

// E5 — HETree construction.

func e5Items(n int) []hetree.Item {
	rng := rand.New(rand.NewSource(5))
	items := make([]hetree.Item, n)
	for i := range items {
		items[i] = hetree.Item{Value: rng.NormFloat64() * 1000}
	}
	return items
}

func BenchmarkE5HETreeFull(b *testing.B) {
	items := e5Items(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5HETreeIncremental(b *testing.B) {
	items := e5Items(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := hetree.New(items, hetree.Options{Degree: 4, LeafCapacity: 32, Incremental: true})
		if err != nil {
			b.Fatal(err)
		}
		// One drill-down path.
		n := tr.Root()
		for {
			cs := tr.Children(n)
			if cs == nil {
				break
			}
			n = cs[0]
		}
	}
}

// E6 — adaptive indexing: the cost of a 100-query session.

func e6Vals(n int) ([]float64, [][2]float64) {
	rng := rand.New(rand.NewSource(6))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.Float64() * 1e6
	}
	queries := make([][2]float64, 100)
	for i := range queries {
		lo := rng.Float64() * 1e6
		queries[i] = [2]float64{lo, lo + 1e4}
	}
	return vals, queries
}

func BenchmarkE6CrackingSession(b *testing.B) {
	vals, queries := e6Vals(1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, _ := crack.New(vals)
		for _, q := range queries {
			c.Count(q[0], q[1])
		}
	}
}

func BenchmarkE6ScanSession(b *testing.B) {
	vals, queries := e6Vals(1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := crack.NewScan(vals)
		for _, q := range queries {
			s.Count(q[0], q[1])
		}
	}
}

func BenchmarkE6SortSession(b *testing.B) {
	vals, queries := e6Vals(1000000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := crack.NewSorted(vals)
		for _, q := range queries {
			s.Count(q[0], q[1])
		}
	}
}

// E7 — viewport queries: disk tiles vs in-memory R-tree.

func e7Tiles(b *testing.B) (*spatial.TileStore, []spatial.TilePoint) {
	b.Helper()
	rng := rand.New(rand.NewSource(8))
	pts := make([]spatial.TilePoint, 100000)
	for i := range pts {
		pts[i] = spatial.TilePoint{ID: uint32(i), X: rng.Float64() * 4096, Y: rng.Float64() * 4096}
	}
	dir, err := os.MkdirTemp("", "lodviz-bench")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	ts, err := spatial.NewTileStore(filepath.Join(dir, "t.db"), spatial.NewRect(0, 0, 4096, 4096), 32, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ts.Close() })
	if err := ts.AddAll(pts); err != nil {
		b.Fatal(err)
	}
	return ts, pts
}

func BenchmarkE7DiskTilesWindow(b *testing.B) {
	ts, _ := e7Tiles(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := spatial.NewRect(float64(i%8)*400, float64(i%4)*800, float64(i%8)*400+1024, float64(i%4)*800+1024)
		if _, err := ts.Query(w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE7RTreeWindow(b *testing.B) {
	_, pts := e7Tiles(b)
	var rt spatial.RTree
	for _, p := range pts {
		rt.Insert(spatial.Entry{Rect: spatial.PointRect(p.X, p.Y), ID: p.ID})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := spatial.NewRect(float64(i%8)*400, float64(i%4)*800, float64(i%8)*400+1024, float64(i%4)*800+1024)
		rt.Search(w)
	}
}

// E8 — supernode frame vs flat layout.

func e8Graph(b *testing.B) *Graph {
	b.Helper()
	ds, err := GenerateScaleFree(10000, 2, 13)
	if err != nil {
		b.Fatal(err)
	}
	return ds.BuildGraph()
}

func BenchmarkE8FlatLayout(b *testing.B) {
	g := e8Graph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.ForceDirected(g, layout.Options{Iterations: 5, Seed: 1})
	}
}

func BenchmarkE8SupernodeFrame(b *testing.B) {
	g := e8Graph(b)
	h := super.Build(g, super.Options{MaxLeafSize: 64, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := h.NewView()
		v.ExpandToBudget(200)
		v.Edges()
	}
}

// E9 — bundling.

func BenchmarkE9BundlingHEB(b *testing.B) {
	parent := []int{-1, 0, 0}
	positions := []bundling.Point{{X: 500, Y: 50}, {X: 100, Y: 500}, {X: 900, Y: 500}}
	var edges []bundling.Edge
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		l1 := len(parent)
		parent = append(parent, 1)
		positions = append(positions, bundling.Point{X: 50 + rng.Float64()*100, Y: 400 + rng.Float64()*300})
		l2 := len(parent)
		parent = append(parent, 2)
		positions = append(positions, bundling.Point{X: 850 + rng.Float64()*100, Y: 400 + rng.Float64()*300})
		edges = append(edges, bundling.Edge{From: l1, To: l2})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundling.HierarchicalBundle(edges, parent, positions, 0.9)
	}
}

// E10 — prefetch session simulation.

func BenchmarkE10PrefetchSession(b *testing.B) {
	trace := make([]prefetch.Tile, 200)
	for i := range trace {
		trace[i] = prefetch.Tile{X: i, Y: 0, Zoom: 4}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prefetch.SimulateSession(trace, 32, true, func(prefetch.Tile) {})
	}
}

// E11 — recommendation.

func BenchmarkE11Recommend(b *testing.B) {
	cols := []recommend.Profile{
		{Name: "t", Kind: recommend.Temporal, Cardinality: 100, Rows: 100, Coverage: 1},
		{Name: "v", Kind: recommend.Numeric, Cardinality: 90, Rows: 100, Coverage: 1},
		{Name: "c", Kind: recommend.Categorical, Cardinality: 6, Rows: 100, Coverage: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(recommend.Recommend(cols)) == 0 {
			b.Fatal("no recommendations")
		}
	}
}

// E12 — substrate throughput.

func BenchmarkE12StoreLoad(b *testing.B) {
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Load(triples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(triples)), "triples/op")
}

func BenchmarkE12PatternMatch(b *testing.B) {
	st, _ := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 10000, NumericProps: 2, CategoryProps: 1, LinkProps: 1, Seed: 12,
	}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.ForEach(store.Pattern{S: gen.Res("entity", i%10000)}, func(Triple) bool { return true })
	}
}

// E13 — parallel BGP join engine: the same multi-pattern join evaluated
// sequentially and by the worker-pool pipeline, over ≥100k generated triples.

func bgpJoinStore(b *testing.B) *store.Store {
	b.Helper()
	triples := gen.EntityDataset(gen.EntityOptions{
		Entities: 20000, NumericProps: 2, CategoryProps: 2, LinkProps: 1, Seed: 13,
	})
	if len(triples) < 100000 {
		b.Fatalf("dataset too small: %d triples", len(triples))
	}
	st, err := store.Load(triples)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func bgpJoinQuery(b *testing.B) *sparql.Query {
	b.Helper()
	q := fmt.Sprintf(`SELECT ?e ?o ?v WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> ?v . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("num0")))
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	return parsed
}

func benchBGPJoin(b *testing.B, parallelism int) {
	st := bgpJoinStore(b)
	parsed := bgpJoinQuery(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalOpts(st, parsed, sparql.Options{Parallelism: parallelism})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkBGPJoinSequential(b *testing.B) { benchBGPJoin(b, 1) }

func BenchmarkBGPJoinParallel(b *testing.B) { benchBGPJoin(b, 0) }

// BenchmarkBGPJoinParallel4 pins the pool at 4 workers for machines where
// NumCPU is large enough that scheduling noise dominates.
func BenchmarkBGPJoinParallel4(b *testing.B) { benchBGPJoin(b, 4) }

// E13b — dictionary-ID execution of the bound-predicate and bound-object
// joins, isolated at Parallelism 1 so the measurement is the executor, not
// the pool. cmd/benchharness -scenarios store records the timings in
// BENCH_store.json and the CI bench-regression job tracks them.

func benchBGPJoinOpts(b *testing.B, query string, opt sparql.Options) {
	st := bgpJoinStore(b)
	parsed, err := sparql.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalOpts(st, parsed, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// boundPQuery is the bound-predicate case: both patterns scan a full
// predicate range and equi-join on subject AND category value, so all 20k
// entities flow through the join but only ~1/8 survive the value equality.
// The executor keeps the intermediates as uint32 rows and only decodes the
// survivors.
func boundPQuery() string {
	return fmt.Sprintf(`SELECT ?e ?c WHERE { ?e <%s> ?c . ?e <%s> ?c . }`,
		string(gen.Prop("cat0")), string(gen.Prop("cat1")))
}

// boundOQuery is the bound-object case: a POS-access entry on one category
// value, a link hop, and a bound-object re-check on the link target —
// intermediate fan-out with a small surviving set.
func boundOQuery() string {
	return fmt.Sprintf(`SELECT ?e ?o WHERE { ?e <%s> "category-2" . ?e <%s> ?o . ?o <%s> "category-2" . }`,
		string(gen.Prop("cat0")), string(gen.Prop("rel0")), string(gen.Prop("cat0")))
}

func BenchmarkBGPJoinBoundPIDs(b *testing.B) {
	benchBGPJoinOpts(b, boundPQuery(), sparql.Options{Parallelism: 1})
}

func BenchmarkBGPJoinBoundOIDs(b *testing.B) {
	benchBGPJoinOpts(b, boundOQuery(), sparql.Options{Parallelism: 1})
}

// E14 — streaming LIMIT pushdown: a first-page exploration query
// (LIMIT 10) over a BGP with >100k solutions, evaluated by the
// materializing pipeline (full scan, then slice) and by the streaming
// fast path (scan stops after 10 solutions). The streamed variant's cost
// scales with the limit, not the dataset — expect several orders of
// magnitude, comfortably past the 10x bar.

func limitPushdownStore(b *testing.B) *store.Store {
	b.Helper()
	// One value triple per entity: the single-pattern BGP below has
	// exactly `entities` solutions.
	const entities = 120000
	triples := make([]Triple, 0, entities)
	for i := 0; i < entities; i++ {
		triples = append(triples, Triple{
			S: IRI(fmt.Sprintf("http://bench/e%d", i)),
			P: "http://bench/value",
			O: NewInteger(int64(i)),
		})
	}
	st, err := store.Load(triples)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

func benchLimitPushdown(b *testing.B, noStream bool) {
	st := limitPushdownStore(b)
	parsed, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <http://bench/value> ?v } LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	opt := sparql.Options{NoStream: noStream}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalOpts(st, parsed, opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("got %d rows, want 10", len(res.Rows))
		}
	}
}

func BenchmarkLimitPushdownMaterialized(b *testing.B) { benchLimitPushdown(b, true) }

func BenchmarkLimitPushdownStreamed(b *testing.B) { benchLimitPushdown(b, false) }

// BenchmarkLimitPushdownOrderByTopK: ORDER BY ?v LIMIT 10 over the same
// store — the full scan is unavoidable, but the bounded heap replaces the
// 120k-row sort (O(n log k) comparisons, O(k) sort memory).
func BenchmarkLimitPushdownOrderByTopK(b *testing.B) {
	st := limitPushdownStore(b)
	parsed, err := sparql.Parse(`SELECT ?s ?v WHERE { ?s <http://bench/value> ?v } ORDER BY DESC(?v) LIMIT 10`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sparql.EvalOpts(st, parsed, sparql.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("got %d rows, want 10", len(res.Rows))
		}
	}
}

func BenchmarkE12SPARQLJoin(b *testing.B) {
	st, _ := store.Load(gen.EntityDataset(gen.EntityOptions{
		Entities: 5000, NumericProps: 1, CategoryProps: 1, LinkProps: 1, Seed: 12,
	}))
	q := fmt.Sprintf(`SELECT ?c (COUNT(?e) AS ?n) WHERE { ?e <%s> ?c . ?e <%s> ?v . } GROUP BY ?c`,
		string(gen.Prop("cat0")), string(gen.Prop("num0")))
	parsed, err := sparql.Parse(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.Eval(st, parsed); err != nil {
			b.Fatal(err)
		}
	}
}
