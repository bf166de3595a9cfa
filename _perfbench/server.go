package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"oregami/internal/serve"
)

// harness is an in-process mapping service (the handler stack behind
// `oregami serve`) on a loopback port, with a client limited to a fixed
// number of connections.
type harness struct {
	srv    *serve.Server
	cancel context.CancelFunc
	done   chan error
	url    string
	client *http.Client
}

// startServer binds a default-configured server to a free loopback port
// and waits until it accepts requests.
func startServer(conns int) (*harness, error) {
	srv := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe(ctx) }()
	deadline := time.Now().Add(10 * time.Second)
	for srv.Addr() == "" {
		select {
		case err := <-done:
			cancel()
			return nil, fmt.Errorf("serve: %v", err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			cancel()
			<-done
			return nil, fmt.Errorf("server did not bind within 10s")
		}
	}
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &harness{
		srv:    srv,
		cancel: cancel,
		done:   done,
		url:    "http://" + srv.Addr() + "/v1/map",
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second},
	}, nil
}

// stop closes the client's connections, drains the server and waits
// for it to exit.
func (h *harness) stop() error {
	h.client.CloseIdleConnections()
	h.cancel()
	return <-h.done
}

// post sends one mapping request over loopback and reads the whole
// response.
func (h *harness) post(body []byte) (int, []byte, error) {
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// handle runs one request through the server's handler in process, with
// no network in between. The request is built before the clock starts.
func (h *harness) handle(body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.srv.Handler().ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes(), time.Since(start)
}

// served is the part of a MapResponse the benchmark checks.
type served struct {
	Tasks       int                   `json:"tasks"`
	Fingerprint string                `json:"fingerprint"`
	Cache       string                `json:"cache"`
	Checked     bool                  `json:"checked"`
	Violations  []string              `json:"violations"`
	Metrics     *serve.MetricsSummary `json:"metrics"`
	Error       string                `json:"error"`
}

// verifier checks served responses: status 200, the expected cache
// disposition, the oracle flag on checked requests, and one fingerprint
// per key for the whole run. It also keeps each key's METRICS summary
// for the quality columns. Safe for concurrent use.
type verifier struct {
	mu       sync.Mutex
	keys     []key
	fp       []string
	quality  []*serve.MetricsSummary
	failures []string
	attempts int
	failed   int
}

func newVerifier(keys []key) *verifier {
	return &verifier{keys: keys, fp: make([]string, len(keys)), quality: make([]*serve.MetricsSummary, len(keys))}
}

func (v *verifier) fail(format string, args ...interface{}) {
	v.failed++
	if len(v.failures) < 20 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	} else if len(v.failures) == 20 {
		v.failures = append(v.failures, "...")
	}
}

// check validates one response for key i and returns the decoded
// fields, or ok=false (counted as a failure).
func (v *verifier) check(i int, status int, body []byte, err error, wantCache string, checked bool) (served, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.attempts++
	k := v.keys[i].label
	var s served
	if err != nil {
		v.fail("%s: %v", k, err)
		return s, false
	}
	if jerr := json.Unmarshal(body, &s); jerr != nil {
		v.fail("%s: status %d, undecodable body: %v", k, status, jerr)
		return s, false
	}
	if status != http.StatusOK {
		v.fail("%s: status %d: %s %v", k, status, s.Error, s.Violations)
		return s, false
	}
	if wantCache != "" && s.Cache != wantCache {
		v.fail("%s: cache %q, want %q", k, s.Cache, wantCache)
		return s, false
	}
	if checked && (!s.Checked || len(s.Violations) > 0) {
		v.fail("%s: oracle not clean (checked=%t, %d violations)", k, s.Checked, len(s.Violations))
		return s, false
	}
	if s.Fingerprint == "" || s.Metrics == nil {
		v.fail("%s: response lacks fingerprint or metrics", k)
		return s, false
	}
	switch {
	case v.fp[i] == "":
		v.fp[i] = s.Fingerprint
		v.quality[i] = s.Metrics
	case v.fp[i] != s.Fingerprint:
		v.fail("%s: fingerprint drift %.12s != %.12s", k, s.Fingerprint, v.fp[i])
		return s, false
	}
	return s, true
}

// qualitySums sums the METRICS summary once per distinct key that is the
// same for every seed.
func (v *verifier) qualitySums() (ipc, contention, dilation float64, keys int) {
	for i, q := range v.quality {
		if q == nil || v.keys[i].generated {
			continue
		}
		keys++
		ipc += q.TotalIPC
		contention += float64(q.MaxContention)
		dilation += float64(q.MaxDilation)
	}
	return
}
