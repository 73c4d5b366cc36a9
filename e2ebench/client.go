package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is one HTTP connection to the server: every request it sends
// waits for the previous one, so a benchmark client never holds more than
// one connection.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// get fetches url and returns the status and the whole body.
func (c *client) get(url string) (int, []byte, error) {
	resp, err := c.hc.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// reqIDHeader carries the benchmark's request number to the traced
// handler wrapper, which keys its HTTP span by it.
const reqIDHeader = "X-Bench-Req"

// response is what a client observed for one request.
type response struct {
	status    int
	body      []byte
	etag      string
	cache     string        // X-Cache disposition
	firstLine time.Duration // streams: time to the first NDJSON line
	latency   time.Duration
}

// do sends r and reads the whole response. For NDJSON streams it also
// times the arrival of the first line. start is the time the latency is
// measured from: the send time for closed-loop clients, the scheduled time
// for the open-loop writer.
func (c *client) do(base string, r request, id uint64, start time.Time) (response, error) {
	var hr *http.Request
	var err error
	if r.body != "" {
		hr, err = http.NewRequest(http.MethodPost, base+r.path, strings.NewReader(r.body))
		if err == nil {
			hr.Header.Set("Content-Type", "application/sparql-update")
		}
	} else {
		hr, err = http.NewRequest(http.MethodGet, base+r.path, nil)
	}
	if err != nil {
		return response{}, err
	}
	hr.Header.Set(reqIDHeader, strconv.FormatUint(id, 10))
	resp, err := c.hc.Do(hr)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	out := response{status: resp.StatusCode, etag: resp.Header.Get("ETag"), cache: resp.Header.Get("X-Cache")}
	if r.stream {
		br := bufio.NewReaderSize(resp.Body, 64<<10)
		var buf bytes.Buffer
		line, err := br.ReadSlice('\n')
		out.firstLine = time.Since(start)
		buf.Write(line)
		if err == nil {
			_, err = buf.ReadFrom(br)
		} else if err == io.EOF {
			err = nil
		}
		out.body = buf.Bytes()
		out.latency = time.Since(start)
		if err != nil {
			return out, fmt.Errorf("reading stream: %w", err)
		}
		return out, nil
	}
	out.body, err = io.ReadAll(resp.Body)
	out.latency = time.Since(start)
	return out, err
}
