package sparql

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/lodviz/lodviz/internal/explain"
)

// The parallel BGP pipeline: intermediate binding sets are partitioned into
// contiguous chunks, workers probe the store's index ranges for each chunk
// concurrently (the store's permutation indexes are read-only under RLock,
// so probes never contend on data), and the per-chunk outputs are
// concatenated in chunk order. Because every chunk preserves the sequential
// probe order internally and chunks are emitted in index order, the merged
// output is byte-for-byte identical to the sequential loop — queries without
// ORDER BY stay deterministic for free.
//
// Worker accounting is engine-wide: an engine holds par-1 spare-worker
// tokens, every parChunks call runs the calling goroutine as one worker and
// borrows extra workers non-blockingly from that budget. Nested fan-out
// (OPTIONAL chunks whose inner groups fan out again) therefore degrades to
// inline evaluation instead of multiplying goroutines, and total concurrency
// stays bounded by Parallelism.

// parallelThreshold is the minimum binding-set size before fan-out pays for
// the goroutine overhead; smaller inputs run sequentially.
const parallelThreshold = 32

// chunksPerWorker oversubscribes chunks relative to workers so a straggler
// chunk (one hub entity with a huge index range) doesn't idle the pool.
const chunksPerWorker = 4

// Options configure query evaluation.
type Options struct {
	// Parallelism is the worker count for basic-graph-pattern evaluation.
	// 0 selects runtime.NumCPU(); values below 0 and 1 force sequential
	// evaluation. Results are identical (including order) at every
	// setting.
	Parallelism int
	// Service evaluates SERVICE clauses against remote endpoints. When nil,
	// SERVICE fails the query and SERVICE SILENT degrades to the local
	// partial result.
	Service ServiceEvaluator
	// NoStream disables the streaming fast paths (LIMIT-pushdown early
	// termination, the bounded top-k heap for ORDER BY + LIMIT, and the
	// first-solution short-circuit for ASK), forcing the materializing
	// pipeline. Results are identical either way; benchmarks and
	// differential tests use it to compare the two paths.
	NoStream bool
	// Metrics, when set, receives aggregate engine counters (pattern runs,
	// rows, scanned matches/pages, pushdown hits). Nil costs
	// one pointer check per flush site.
	Metrics *Metrics
	// Trace, when set, receives the query's execution span tree:
	// parse/plan/execute spans plus one child per pattern stage with the
	// join strategy and row counts. Nil disables tracing entirely.
	Trace *explain.Trace
}

// workers resolves the option to an effective worker count.
func (o Options) workers() int {
	if o.Parallelism == 0 {
		return runtime.NumCPU()
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// newEngine builds an engine for one query evaluation.
func newEngine(ctx context.Context, st Source, opt Options) *engine {
	e := &engine{ctx: ctx, st: st, par: opt.workers(), svc: opt.Service, met: opt.Metrics, trace: opt.Trace}
	if e.par > 1 {
		e.sem = make(chan struct{}, e.par-1)
	}
	return e
}

// parMap runs fn over contiguous chunks of input on the engine's worker
// pool (parChunks) and concatenates the per-chunk outputs in chunk index
// order, so the result is exactly fn(input)'s sequential output. fn must be
// safe for concurrent calls on disjoint chunks.
func (e *engine) parMap(input []Binding, fn func(chunk []Binding) ([]Binding, error)) ([]Binding, error) {
	parts, err := parChunks(e, len(input), func(lo, hi int) ([]Binding, error) {
		return fn(input[lo:hi])
	})
	if err != nil {
		return nil, err
	}
	if len(parts) == 1 {
		return parts[0], nil
	}
	return slices.Concat(parts...), nil
}

// parChunks runs fn over contiguous [lo,hi) chunks of n items on the
// engine's worker budget and returns the chunk outputs in index order, with
// the first error in index order — exactly what sequential evaluation
// would report. Inputs below parallelThreshold, an engine with par<=1, or
// an exhausted worker budget run as one inline chunk with no goroutines
// spawned.
func parChunks[T any](e *engine, n int, fn func(lo, hi int) (T, error)) ([]T, error) {
	inline := func() ([]T, error) {
		out, err := fn(0, n)
		if err != nil {
			return nil, err
		}
		return []T{out}, nil
	}
	if e.par <= 1 || n < parallelThreshold {
		return inline()
	}
	// Borrow extra workers beyond the calling goroutine. Non-blocking:
	// a nested call finding the budget spent stays inline rather than
	// deadlocking on tokens held by its ancestors.
	extra := 0
acquire:
	for extra < min(e.par, n)-1 {
		select {
		case e.sem <- struct{}{}:
			extra++
		default:
			break acquire
		}
	}
	if extra == 0 {
		return inline()
	}

	nchunks := (extra + 1) * chunksPerWorker
	chunkSize := (n + nchunks - 1) / nchunks
	nchunks = (n + chunkSize - 1) / chunkSize
	outs := make([]T, nchunks)
	errs := make([]error, nchunks)
	var next atomic.Int64
	worker := func() {
		for {
			idx := int(next.Add(1)) - 1
			if idx >= nchunks {
				return
			}
			lo := idx * chunkSize
			outs[idx], errs[idx] = fn(lo, min(lo+chunkSize, n))
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < extra; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-e.sem }() // return the token as soon as this worker drains
			worker()
		}()
	}
	worker() // the caller is worker zero
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return outs, nil
}
