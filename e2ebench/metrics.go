package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one parsed /metrics exposition: every sample keyed by its
// family name, with its labels.
type scrape map[string][]sample

type sample struct {
	labels map[string]string
	value  float64
}

// fetchMetrics scrapes the server's /metrics endpoint.
func fetchMetrics(base string) (scrape, error) {
	c := newClient()
	defer c.close()
	status, body, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseExposition(body)
}

// parseExposition reads the Prometheus text format the obs registry
// writes: `name{k="v",...} value` lines and # comments.
func parseExposition(body []byte) (scrape, error) {
	out := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels := line[:sp], map[string]string{}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			for _, kv := range splitLabels(name[i+1 : len(name)-1]) {
				k, val, _ := strings.Cut(kv, "=")
				if uq, err := strconv.Unquote(val); err == nil {
					val = uq
				}
				labels[k] = val
			}
			name = name[:i]
		}
		out[name] = append(out[name], sample{labels: labels, value: v})
	}
	return out, sc.Err()
}

// splitLabels splits a label list on the commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	start, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			quoted = !quoted
		case ',':
			if !quoted {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// sum adds the samples of a family whose labels satisfy keep (nil = all).
func (s scrape) sum(name string, keep func(map[string]string) bool) float64 {
	total := 0.0
	for _, smp := range s[name] {
		if keep == nil || keep(smp.labels) {
			total += smp.value
		}
	}
	return total
}

// notMetrics drops the scrapes' own requests from the HTTP families.
func notMetrics(l map[string]string) bool { return l["route"] != "/metrics" }

// delta is after − before for one family.
func delta(before, after scrape, name string, keep func(map[string]string) bool) float64 {
	return after.sum(name, keep) - before.sum(name, keep)
}

// runtimeSample is the process state read at a window edge.
type runtimeSample struct {
	totalAlloc uint64
	gcCycles   uint64
	gcCPU, cpu float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	rs := runtimeSample{totalAlloc: mem.TotalAlloc}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		rs.gcCycles = samples[0].Value.Uint64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		rs.gcCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindFloat64 {
		rs.cpu = samples[2].Value.Float64()
	}
	return rs
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / (1 << 20)
}

// percentile is the nearest-rank q-quantile of ds (0 for none).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
