// Command e2ebench is lodviz's end-to-end benchmark. It runs the real
// server handler in-process behind a loopback TCP listener, configured as
// lodvizd runs by default, over a seeded 200k-triple entity dataset, and
// drives it with one of three workloads:
//
//   - sparql-cold: 2 closed-loop SPARQL clients, almost no cache hits;
//   - explore-session: 2 closed-loop facet-browser / graph-explorer clients
//     whose hot set fits the response cache;
//   - write-mixed: 1 closed-loop reader plus an open-loop writer sending
//     SPARQL updates through a WAL that fsyncs every acknowledged write.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash e2ebench/run.sh --workload sparql-cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics with tracing off; with
// --trace 1 it makes an untraced and a traced run of the same seeded
// sequence and reports the per-layer split. Either way it checks the
// outputs, prints every metric by name and unit, and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "seed of the dataset and the request sequences")
	seconds := flag.Int("seconds", 10, "length of each timed window in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/e2ebench/work", "directory for the WAL and the span file")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(workload string, seed int64, dur time.Duration, trace int, workdir string) error {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	switch {
	case !known:
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	case dur < time.Second:
		return errors.New("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	walPath := ""
	if workload == wlWriteMixed {
		walPath = filepath.Join(workdir, "write-mixed.wal")
	}
	fmt.Printf("# e2ebench workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d\n", workload, seed, int(dur/time.Second), trace, runtime.GOMAXPROCS(0))
	var (
		res    *result
		report []string
		err    error
	)
	if trace == 0 {
		res, report, err = runEndToEnd(workload, seed, dur, walPath)
	} else {
		res, report, err = runTraced(workload, seed, dur, walPath, workdir)
	}
	if err != nil {
		return err
	}
	for _, l := range report {
		fmt.Println("#", l)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-36s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// measured is one untraced window with its checks done.
type measured struct {
	w       *window
	in      *instance
	setup   time.Duration
	digest  string
	heapMB  float64
	walSize int64 // write-mixed: WAL bytes after the window
}

// measure starts an instance, runs one untraced window and its checks.
// keep leaves the instance running (for the traced run's replay); the
// caller then closes it.
func measure(workload string, seed int64, dur time.Duration, opt setupOptions, ids *atomic.Uint64, keep bool) (*measured, error) {
	baseline := runtime.NumGoroutine()
	in, err := startInstance(opt)
	if err != nil {
		return nil, err
	}
	m := &measured{in: in, setup: in.setup}
	started := runtime.NumGoroutine()
	if err := warmUp(in.base, warmupGenerators(workload, seed, in.data), warmupRequests[workload]); err != nil {
		in.close()
		return nil, err
	}
	// The heap is read here, after a fixed number of requests, and not
	// after the window: the response cache fills during the window, so
	// its size there would follow the throughput.
	settle(started, 10*time.Second)
	m.heapMB = liveHeapMB()
	readers, writer := newGenerators(workload, seed, in.data)
	idle := runtime.NumGoroutine()
	if m.w, err = runWindow(in, workload, readers, writer, dur, ids); err != nil {
		in.close()
		return nil, err
	}

	settle(idle, 10*time.Second)
	if err := checkAfterWindow(in, m.w); err != nil {
		in.close()
		return nil, err
	}
	m.digest = sequenceDigest(workload, seed, in.data)
	if keep {
		return m, nil
	}
	if workload == wlWriteMixed {
		if err := m.durability(seed); err != nil {
			return nil, err
		}
	}
	if err := in.close(); err != nil {
		return nil, err
	}
	m.in = nil
	settle(baseline, 10*time.Second)
	return m, nil
}

// durability closes a write-mixed instance and runs the WAL replay check.
func (m *measured) durability(seed int64) error {
	if err := m.in.close(); err != nil {
		return err
	}
	fi, err := os.Stat(m.in.walPath)
	if err != nil {
		return err
	}
	m.walSize = fi.Size()
	failed, first, err := checkDurability(seed, m.in.walPath, m.w.acked, m.in.st.Len())
	if err != nil {
		return err
	}
	for i := 0; i < failed; i++ {
		m.w.fail("durability: %s", first)
	}
	return nil
}

// runEndToEnd sets up three times (setup_s is the median), then measures
// one untraced window on the last instance.
func runEndToEnd(workload string, seed int64, dur time.Duration, walPath string) (*result, []string, error) {
	var setups []float64
	for i := 0; i < 2; i++ {
		in, err := startInstance(setupOptions{seed: seed, walPath: walPath})
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, in.setup.Seconds())
		if err := in.close(); err != nil {
			return nil, nil, err
		}
		runtime.GC()
	}
	var ids atomic.Uint64
	m, err := measure(workload, seed, dur, setupOptions{seed: seed, walPath: walPath}, &ids, false)
	if err != nil {
		return nil, nil, err
	}
	setups = append(setups, m.setup.Seconds())
	res := m.result()
	e2e := m.endToEnd()
	res.Metrics = map[string]metric{"setup_s": {median(setups), "s"}}
	for _, n := range gatedClientMetrics {
		res.Metrics[n] = e2e[n]
	}
	report := m.report()
	report = append(report, fmt.Sprintf("setup_s samples: %.3f %.3f %.3f", setups[0], setups[1], setups[2]))
	for _, n := range extraClientMetrics {
		report = append(report, fmt.Sprintf("%-36s %14.6g %s", n, e2e[n].Value, e2e[n].Unit))
	}
	return res, report, nil
}
