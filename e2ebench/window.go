package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// record is one completed request as the client saw it.
type record struct {
	id        uint64
	at        time.Duration // completion, since the window started
	route     string
	latency   time.Duration
	firstLine time.Duration // streams only
	failed    bool
}

// window is one timed stretch of traffic against an instance.
type window struct {
	workload string
	elapsed  time.Duration
	reads    []record
	updates  []record
	lags     []time.Duration // open-loop writer lateness, per update
	failures []string        // descriptions of the first failures
	failed   int             // requests that failed (transport, status or check)

	rtBefore, rtAfter runtimeSample
	mBefore, mAfter   scrape

	acked []request // updates the server acknowledged
	obs   []*clientObs
}

// clientObs is what one reader keeps for the checks made after the
// window; each reader owns its own, so recording needs no locking.
type clientObs struct {
	// samples: a seeded sample of sparql-cold responses.
	samples []sampledResponse
	// bodies: per buffered explore-session URL, the first body seen.
	bodies map[string]*bodyObs
	// streams: the first completed response of each stream URL.
	streams map[string][]byte
}

type sampledResponse struct {
	req  request
	body []byte
}

type bodyObs struct {
	hash  uint64
	etag  string
	cache string
}

const (
	sampleEvery = 25  // sparql-cold: every 25th response of a client is checked
	maxSamples  = 100 // per client
	maxStreams  = 200 // per client
)

// succeeded counts the reads that completed without failing.
func (w *window) succeeded() int {
	n := 0
	for _, r := range w.reads {
		if !r.failed {
			n++
		}
	}
	return n
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.failures) < 8 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// runWindow drives the readers as closed loops (each waits for its reply
// before sending the next request) and the writer, if any, as an open loop
// at writeRate, for dur. /metrics and the runtime are read at both edges.
func runWindow(in *instance, workload string, readers []generator, writer generator, dur time.Duration, ids *atomic.Uint64) (*window, error) {
	w := &window{workload: workload}
	var err error
	if w.mBefore, err = fetchMetrics(in.base); err != nil {
		return nil, err
	}
	w.rtBefore = readRuntime()
	start := time.Now()
	end := start.Add(dur)

	var wg sync.WaitGroup
	logs := make([][]record, len(readers))
	fails := make([][]string, len(readers))
	w.obs = make([]*clientObs, len(readers))
	for i, g := range readers {
		w.obs[i] = &clientObs{bodies: map[string]*bodyObs{}, streams: map[string][]byte{}}
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			logs[i], fails[i] = runReader(in.base, workload, g, start, end, ids, w.obs[i])
		}(i, g)
	}
	var wmu sync.Mutex
	if writer != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runWriter(in.base, writer, start, end, ids, func(r request, rec record, lag time.Duration, why string) {
				wmu.Lock()
				defer wmu.Unlock()
				w.updates = append(w.updates, rec)
				w.lags = append(w.lags, lag)
				if why != "" {
					w.fail("%s: %s", r.route, why)
				} else {
					w.acked = append(w.acked, r)
				}
			})
		}()
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.rtAfter = readRuntime()
	if w.mAfter, err = fetchMetrics(in.base); err != nil {
		return nil, err
	}
	for i := range logs {
		w.reads = append(w.reads, logs[i]...)
		for _, f := range fails[i] {
			w.fail("%s", f)
		}
	}
	return w, nil
}

// warmUp sends n requests from each generator, closed-loop and unmeasured.
func warmUp(base string, readers []generator, n int) error {
	errs := make([]error, len(readers))
	var wg sync.WaitGroup
	for i, g := range readers {
		wg.Add(1)
		go func(i int, g generator) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for k := 0; k < n; k++ {
				resp, err := c.do(base, g.next(), 0, time.Now())
				if err == nil && resp.status != http.StatusOK {
					err = fmt.Errorf("warm-up request: status %d: %.200s", resp.status, resp.body)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runReader is one closed-loop client.
func runReader(base, workload string, g generator, start, end time.Time, ids *atomic.Uint64, obs *clientObs) ([]record, []string) {
	c := newClient()
	defer c.close()
	var log []record
	var fails []string
	for n := 0; time.Now().Before(end); n++ {
		r := g.next()
		id := ids.Add(1)
		resp, err := c.do(base, r, id, time.Now())
		rec := record{id: id, at: time.Since(start), route: r.route, latency: resp.latency, firstLine: resp.firstLine}
		why := ""
		switch {
		case err != nil:
			why = err.Error()
		case resp.status < 200 || resp.status > 299:
			why = fmt.Sprintf("status %d", resp.status)
		default:
			why = observe(workload, r, resp, n, obs)
		}
		if why != "" {
			rec.failed = true
			fails = append(fails, fmt.Sprintf("%s %.80s: %s", r.route, r.path, why))
		}
		log = append(log, rec)
	}
	return log, fails
}

// observe makes the checks possible while the response is in hand and
// keeps what the checks after the window need. A non-empty result is a
// failed check.
func observe(workload string, r request, resp response, n int, obs *clientObs) string {
	if r.stream {
		last := lastLine(resp.body)
		var tail struct {
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(last, &tail); err != nil || !tail.Done {
			return fmt.Sprintf("stream did not complete: %.200s", last)
		}
		if workload == wlExploreSession && len(obs.streams) < maxStreams {
			if _, ok := obs.streams[r.path]; !ok {
				obs.streams[r.path] = resp.body
			}
		}
		return ""
	}
	switch workload {
	case wlSPARQLCold:
		if n%sampleEvery == 0 && len(obs.samples) < maxSamples {
			obs.samples = append(obs.samples, sampledResponse{req: r, body: resp.body})
		}
	case wlExploreSession:
		h := fnv.New64a()
		h.Write(resp.body)
		sum := h.Sum64()
		if b, ok := obs.bodies[r.path]; ok {
			if b.hash != sum || b.etag != resp.etag {
				return fmt.Sprintf("%s body/ETag differs from the %s response", resp.cache, b.cache)
			}
			return ""
		}
		obs.bodies[r.path] = &bodyObs{hash: sum, etag: resp.etag, cache: resp.cache}
	}
	return ""
}

// lastLine returns the last non-empty line of an NDJSON body.
func lastLine(body []byte) []byte {
	body = bytes.TrimRight(body, "\n")
	if i := bytes.LastIndexByte(body, '\n'); i >= 0 {
		return body[i+1:]
	}
	return body
}

// runWriter is the open-loop data feed: update i is due at start +
// i/writeRate whatever happened to earlier ones, and its latency is timed
// from that due time. All updates share one connection. done is called once
// per update with a failure description ("" = acknowledged and correct).
func runWriter(base string, g generator, start, end time.Time, ids *atomic.Uint64, done func(request, record, time.Duration, string)) {
	c := newClient()
	defer c.close()
	var wg sync.WaitGroup
	period := time.Second / writeRate
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(end) {
			break
		}
		time.Sleep(time.Until(due))
		lag := time.Since(due)
		r := g.next()
		id := ids.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.do(base, r, id, due)
			rec := record{id: id, route: r.route, latency: resp.latency}
			why := ""
			switch {
			case err != nil:
				why = err.Error()
			case resp.status != http.StatusOK:
				why = fmt.Sprintf("status %d: %.200s", resp.status, resp.body)
			default:
				var ack struct {
					Inserted int `json:"inserted"`
					Deleted  int `json:"deleted"`
				}
				if err := json.Unmarshal(resp.body, &ack); err != nil {
					why = "decoding acknowledgement: " + err.Error()
				} else if ack.Inserted != len(r.insert) || ack.Deleted != len(r.delete) {
					why = fmt.Sprintf("acknowledged %d inserted / %d deleted, want %d / %d", ack.Inserted, ack.Deleted, len(r.insert), len(r.delete))
				}
			}
			rec.failed = why != ""
			done(r, rec, lag, why)
		}()
	}
	wg.Wait()
}
