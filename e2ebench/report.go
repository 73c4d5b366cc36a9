package main

import (
	"fmt"
	"net/http"

	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/lodviz/lodviz/internal/store"
	"github.com/lodviz/lodviz/internal/wal"
)

// routes are the endpoints the workloads use, as routeOf names them.
var routes = []string{
	"sparql", "sparql_stream", "sparql_update", "facets", "facets_stream",
	"graph_neighborhood", "hetree", "stats", "stats_stream", "search", "complete",
}

// gatedClientMetrics are the end-to-end metrics of BENCHMARK.json besides
// setup_s; extraClientMetrics are printed with them but exist on one
// workload only or read 0 on unchanged code, so --trace 1 reports them
// among the per-layer metrics.
var (
	gatedClientMetrics = []string{"throughput_rps", "latency_p50_ms", "latency_p99_ms", "alloc_bytes_per_req", "heap_live_mb"}
	extraClientMetrics = []string{"error_rate", "update_p50_ms", "update_p99_ms", "first_line_p50_ms"}
)

// minReads is the fewest successful reads a window may complete: with
// fewer, latency_p99_ms rests on under ten samples beyond it.
const minReads = 1000

// result counts the window's requests and failures. A window with fewer
// than minReads successful reads counts one more failure.
func (m *measured) result() *result {
	attempted := len(m.w.reads) + len(m.w.updates)
	if attempted == 0 {
		attempted = 1 // nothing completed: report the run as failed
		m.w.fail("no request completed")
	}
	if ok := m.w.succeeded(); ok < minReads {
		m.w.fail("window completed %d successful reads, fewer than the %d latency_p99_ms needs", ok, minReads)
	}
	failed := m.w.failed
	if failed > attempted {
		failed = attempted
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed}
}

// endToEnd computes the client-side metrics of an untraced window.
func (m *measured) endToEnd() map[string]metric {
	w := m.w
	var lat, first, upd []time.Duration
	for _, r := range w.reads {
		if r.failed {
			continue
		}
		lat = append(lat, r.latency)
		if r.firstLine > 0 {
			first = append(first, r.firstLine)
		}
	}
	for _, u := range w.updates {
		if !u.failed {
			upd = append(upd, u.latency)
		}
	}
	completed := float64(len(w.reads) + len(w.updates))
	attempted := completed
	if attempted == 0 {
		attempted = 1
	}
	return map[string]metric{
		"throughput_rps":      {float64(len(lat)) / w.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":      {ms(percentile(lat, 0.50)), "ms"},
		"latency_p99_ms":      {ms(percentile(lat, 0.99)), "ms"},
		"alloc_bytes_per_req": {ratio(float64(w.rtAfter.totalAlloc-w.rtBefore.totalAlloc), completed), "bytes"},
		"heap_live_mb":        {m.heapMB, "MiB"},
		"error_rate":          {float64(w.failed) / attempted, "ratio"},
		"update_p50_ms":       {ms(percentile(upd, 0.50)), "ms"},
		"update_p99_ms":       {ms(percentile(upd, 0.99)), "ms"},
		"first_line_p50_ms":   {ms(percentile(first, 0.50)), "ms"},
	}
}

// counters computes the per-layer metrics that come from /metrics and the
// runtime, read at the window edges.
func (m *measured) counters() map[string]metric {
	w := m.w
	b, a := w.mBefore, w.mAfter
	d := func(name string) float64 { return delta(b, a, name, nil) }
	reqs := delta(b, a, "lodviz_http_requests_total", notMetrics)
	completed := float64(len(w.reads) + len(w.updates))
	out := map[string]metric{
		"server.resp_bytes_per_req": {ratio(delta(b, a, "lodviz_http_response_bytes_total", notMetrics), reqs), "bytes"},
		"server.shed_share":         {ratio(d("lodviz_http_shed_total"), reqs), "ratio"},
		"cache.hit_ratio":           {ratio(d("lodviz_cache_hits_total"), d("lodviz_cache_hits_total")+d("lodviz_cache_misses_total")), "ratio"},
		"cache.evictions_per_req":   {ratio(d("lodviz_cache_evictions_total"), reqs), "count"},
		"sparql.idjoin_share":       {ratio(d("lodviz_engine_runs_idjoin_total"), d("lodviz_engine_runs_idjoin_total")+d("lodviz_engine_runs_hash_total")), "ratio"},
		"store.delta_end":           {a.sum("lodviz_store_delta_triples", nil), "count"},
		"store.compactions":         {d("lodviz_store_layout_epoch"), "count"},
		"wal.records_per_fsync":     {ratio(d("lodviz_wal_appends_total"), d("lodviz_wal_fsyncs_total")), "ratio"},
		"wal.bytes_per_triple":      {ratio(float64(m.walSize), d("lodviz_wal_appended_triples_total")), "bytes"},
		"runtime.gc_cpu_fraction":   {ratio(w.rtAfter.gcCPU-w.rtBefore.gcCPU, w.rtAfter.cpu-w.rtBefore.cpu), "ratio"},
		"runtime.gc_cycles_per_req": {ratio(float64(w.rtAfter.gcCycles-w.rtBefore.gcCycles), completed), "count"},
		"bench.writer_lag_p99_ms":   {ms(percentile(w.lags, 0.99)), "ms"},
	}
	e2e := m.endToEnd()
	for _, n := range extraClientMetrics {
		out[n] = e2e[n]
	}
	return out
}

// report describes the window in a few lines.
func (m *measured) report() []string {
	w := m.w
	byRoute := map[string]int{}
	for _, r := range w.reads {
		byRoute[r.route]++
	}
	names := make([]string, 0, len(byRoute))
	for n := range byRoute {
		names = append(names, n)
	}
	sort.Strings(names)
	mix := ""
	for _, n := range names {
		mix += fmt.Sprintf(" %s=%d", n, byRoute[n])
	}
	perSecond := make([]int, int(w.elapsed/time.Second)+1)
	for _, r := range w.reads {
		perSecond[int(r.at/time.Second)]++
	}
	out := []string{
		fmt.Sprintf("sequence digest: %s", m.digest),
		fmt.Sprintf("reads per second of the window: %v", perSecond),
		fmt.Sprintf("window %.2fs: %d reads, %d updates, %d failed", w.elapsed.Seconds(), len(w.reads), len(w.updates), w.failed),
		"reads by route:" + mix,
	}
	for _, f := range w.failures {
		out = append(out, "failure: "+f)
	}
	return out
}

// runTraced makes the traced run: an untraced window (the counter-based
// metrics and the throughput base), then the same seeded sequence against
// a fresh instance whose handler and WAL are wrapped in span recorders,
// then the direct replay of the sequence through the layers' functions.
func runTraced(workload string, seed int64, dur time.Duration, walPath, workdir string) (*result, []string, error) {
	var ids atomic.Uint64
	plain, err := measure(workload, seed, dur, setupOptions{seed: seed, walPath: walPath}, &ids, false)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()

	t := newTracer()
	traced, err := measure(workload, seed, dur, setupOptions{
		seed:        seed,
		walPath:     walPath,
		wrapWAL:     func(l *wal.Log) store.WALSink { return timedWAL{log: l, t: t} },
		wrapHandler: func(h http.Handler) http.Handler { return tracedHandler(t, h) },
	}, &ids, true)
	if err != nil {
		return nil, nil, err
	}
	in := traced.in
	walAppend, walSync := t.total("wal.append"), t.total("wal.sync")
	updates := t.total("http.sparql_update")

	// The replay covers the reads the traced window sent; on write-mixed it
	// interleaves the writer's next updates at the window's read:write
	// ratio.
	_, writer := newGenerators(workload, seed, in.data)
	readsPerWrite := 0
	if writer != nil {
		for range traced.w.updates {
			writer.next()
		}
		if len(traced.w.updates) > 0 {
			readsPerWrite = max(1, len(traced.w.reads)/len(traced.w.updates))
		}
	}
	rr, err := replay(in, t, workload, seed, len(traced.w.reads), dur, writer, readsPerWrite)
	if err != nil {
		in.close()
		return nil, nil, err
	}
	if workload == wlWriteMixed {
		if err := traced.durability(seed); err != nil {
			return nil, nil, err
		}
	}
	if err := in.close(); err != nil {
		return nil, nil, err
	}
	for _, f := range rr.parityFailures {
		traced.w.fail("executor parity: %s", f)
	}
	spanFile := filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	if err := t.writeFile(spanFile); err != nil {
		return nil, nil, err
	}

	res := plain.result()
	tres := traced.result()
	res.Attempted += tres.Attempted
	res.Failed += tres.Failed
	res.Correct = res.Correct && tres.Correct

	out := plain.counters()
	// HTTP layer, from the traced window's handler spans.
	handler := map[uint64]float64{}
	var all []float64
	for _, s := range t.kept {
		if strings.HasPrefix(s.Name, "http.") {
			handler[s.Req] = float64(s.End-s.Start) / 1e6
		}
	}
	var transport []float64
	for _, r := range traced.w.reads {
		if h, ok := handler[r.id]; ok && !r.failed {
			all = append(all, h)
			transport = append(transport, ms(r.latency)-h)
		}
	}
	out["server.handler_p50_ms"] = metric{median(all), "ms"}
	out["server.transport_p50_ms"] = metric{median(transport), "ms"}
	for _, rt := range routes {
		out["server.route_p50_ms."+rt] = metric{median(t.total("http." + rt).durs), "ms"}
	}
	out["bench.trace_overhead_ratio"] = metric{ratio(traced.endToEnd()["throughput_rps"].Value, plain.endToEnd()["throughput_rps"].Value), "ratio"}

	// WAL and the write path, from the traced window.
	out["wal.append_ms"] = metric{ratio(float64(walAppend.ns)/1e6, float64(walAppend.calls)), "ms"}
	out["wal.sync_wait_ms"] = metric{ratio(float64(walSync.ns)/1e6, float64(walSync.calls)), "ms"}
	out["store.apply_ms"] = metric{ratio(float64(updates.ns-walAppend.ns-walSync.ns)/1e6, float64(updates.calls)), "ms"}

	// Engine, store and exploration layers, from the direct replay.
	q := float64(rr.queries)
	out["sparql.parse_ms"] = metric{ratio(ms(rr.parse), q), "ms"}
	out["sparql.eval_self_ms"] = metric{ratio(ms(rr.evalSelf), q), "ms"}
	out["sparql.encode_ms"] = metric{ratio(ms(rr.encode), q), "ms"}
	out["sparql.encode_allocs_per_row"] = metric{ratio(float64(rr.encodeAllocs), float64(rr.rows)), "count"}
	out["sparql.rows_per_query"] = metric{ratio(float64(rr.rows), q), "count"}
	out["sparql.matches_per_row"] = metric{ratio(float64(rr.traced.MatchesScanned.Value()), float64(rr.rows)), "ratio"}
	ex := float64(rr.executed)
	out["store.scan_ms"] = metric{ratio(float64(t.total(spanScan).ns)/1e6, ex), "ms"}
	out["store.decode_ms"] = metric{ratio(float64(t.total(spanDecode).ns)/1e6, ex), "ms"}
	out["store.plan_ms"] = metric{ratio(float64(t.total(spanPlan).ns)/1e6, ex), "ms"}
	out["facet.facets_ms"] = metric{mean(rr.facets), "ms"}
	out["facet.stream_first_batch_ms"] = metric{mean(rr.facetFirst), "ms"}
	out["explore.neighborhood_ms"] = metric{mean(rr.neighborhood), "ms"}
	out["explore.stats_first_batch_ms"] = metric{mean(rr.statsFirst), "ms"}
	out["hetree.build_ms"] = metric{mean(rr.hetreeBuild), "ms"}
	out["keyword.search_ms"] = metric{mean(rr.keywordLookup), "ms"}
	res.Metrics = out

	report := plain.report()
	report = append(report, traced.report()[1:]...)
	report = append(report,
		fmt.Sprintf("direct replay: %d layer calls, %d queries, %d rows; engine runs over the wrapper %d idjoin / %d hash, over the store %d / %d",
			rr.executed, rr.queries, rr.rows, rr.traced.RunsIDJoin.Value(), rr.traced.RunsHash.Value(), rr.direct.RunsIDJoin.Value(), rr.direct.RunsHash.Value()),
		fmt.Sprintf("spans: %d kept in %s, %d dropped", len(t.kept), spanFile, t.dropped))
	return res, report, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
