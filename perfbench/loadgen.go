package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/scenarios"
)

// apiKey is the key the benchmark's aiopsd accepts (caller "bench").
const (
	apiKey    = "bench"
	apiCaller = "bench"
)

// Request kinds. Every request carries X-Bench-Req: its index in the
// schedule, so a traced server can match handler spans to client times.
const (
	kindPost      = "post"
	kindGet       = "get"
	kindList      = "list"
	kindLakeStats = "lake-stats"
	kindLakeTag   = "lake-tag"
)

// request is one scheduled operation of an open-loop schedule.
type request struct {
	Index    int
	At       time.Duration // due time, from the start of the run
	Kind     string
	ID       string // post: the new incident; get: the incident read
	Scenario string // post; lake-tag: the tag read
	Severity int    // post
	Region   string // post; list: the region listed
}

// body is the POST /v1/incidents payload.
func (r *request) body() []byte {
	if r.Kind != kindPost {
		return nil
	}
	b := fmt.Sprintf(`{"id":%q,"scenario":%q,"severity":"sev%d"`, r.ID, r.Scenario, r.Severity)
	if r.Region != "" {
		b += fmt.Sprintf(`,"region":%q`, r.Region)
	}
	return []byte(b + "}")
}

// poissonTimes draws arrival times of a Poisson process at rate per
// second over [0, seconds).
func poissonTimes(rng *rand.Rand, rate float64, seconds int) []time.Duration {
	var out []time.Duration
	end := time.Duration(seconds) * time.Second
	t := time.Duration(0)
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= end {
			return out
		}
		out = append(out, t)
	}
}

// newPost draws one POST of the uniform scenario mix with a spread
// severity; region is empty for the default region.
func newPost(rng *rand.Rand, id, region string) request {
	all := scenarios.All()
	return request{
		Kind: kindPost, ID: id, Scenario: all[rng.Intn(len(all))].Name(),
		Severity: rng.Intn(4), Region: region,
	}
}

// outcome is what happened to one request.
type outcome struct {
	Req    *request
	Status int
	Body   []byte
	Err    error
	// Sent and Done are offsets from the run start; latency is Done
	// minus the due time Req.At, so a stall counts against every
	// request queued behind it.
	Sent, Done time.Duration
}

func (o *outcome) latency() time.Duration { return o.Done - o.Req.At }
func (o *outcome) late() time.Duration    { return o.Sent - o.Req.At }

// newClient is one keep-alive connection's worth of HTTP client: each
// load worker owns one, so connections never exceed workers.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			Proxy:               nil,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte, reqIndex int) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", apiKey)
	req.Header.Set("X-Bench-Req", strconv.Itoa(reqIndex))
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runOpenLoop sends every request at its due time from one feeder over
// workers connections (capped at nproc by the caller) and returns the
// outcomes in schedule order. It never retries.
func runOpenLoop(tg *gatewayTarget, reqs []request, workers int) []outcome {
	out := make([]outcome, len(reqs))
	jobs := make(chan int, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range jobs {
				o := &out[i]
				o.Req = &reqs[i]
				o.Sent = time.Since(start)
				o.Status, o.Body, o.Err = tg.call(c, w, o.Req)
				o.Done = time.Since(start)
			}
		}(w)
	}
	for i := range reqs {
		if d := reqs[i].At - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}
