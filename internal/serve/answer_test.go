package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"oregami/internal/check"
	"oregami/internal/store"
)

// refWriteJSON is the writeJSON that rendered every mapping response
// before answers were written from an entry's stored bytes, kept
// verbatim as the referee of the response differential.
func refWriteJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// sameAsRef is the response differential. It decodes a served answer
// the way a client does, strictly (no field MapResponse lacks), renders
// the decoded response the way the referee did — refWriteJSON for a
// /v1/map body, json.Marshal of the BatchItem for a batch line — and
// requires both to decode to equal JSON values: the same keys, with
// MapResponse's omitempty rules, and the same values. Each key must
// appear once, and apiVersion must be stamped.
func sameAsRef(t *testing.T, raw []byte, batch bool) BatchItem {
	t.Helper()
	if err := uniqueKeys(raw); err != nil {
		t.Fatalf("%v in %s", err, raw)
	}
	var item BatchItem
	var into interface{} = &item.MapResponse
	if batch {
		into = &item
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	var ref []byte
	if batch {
		ref, _ = json.Marshal(item)
	} else {
		rec := httptest.NewRecorder()
		refWriteJSON(rec, http.StatusOK, item.MapResponse)
		ref = rec.Body.Bytes()
	}
	var got, want map[string]interface{}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ref, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("answer differs from the referee's rendering:\n got %s\nwant %s", raw, ref)
	}
	if item.APIVersion != APIVersion {
		t.Errorf("apiVersion = %q, want %q in %s", item.APIVersion, APIVersion, raw)
	}
	return item
}

// uniqueKeys reports a top-level key that appears twice: a decoder
// keeps the last, so a duplicate would hide from sameAsRef's decode.
func uniqueKeys(raw []byte) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return fmt.Errorf("not a JSON object (%v)", err)
	}
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		k := tok.(string)
		if seen[k] {
			return fmt.Errorf("key %q twice", k)
		}
		seen[k] = true
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return err
		}
	}
	return nil
}

// postRaw sends one /v1/map request and returns the status and body.
func postRaw(t *testing.T, url string, req MapRequest, query string) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/map"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// mapAnswer posts req, requires status and the cache disposition, and
// runs the differential on the body.
func mapAnswer(t *testing.T, url string, req MapRequest, query string, status int, cache string) MapResponse {
	t.Helper()
	got, raw := postRaw(t, url, req, query)
	if got != status {
		t.Fatalf("status = %d, want %d: %s", got, status, raw)
	}
	resp := sameAsRef(t, raw, false).MapResponse
	if resp.Cache != cache {
		t.Errorf("cache = %q, want %q: %s", resp.Cache, cache, raw)
	}
	return resp
}

// sameMapping requires two answers to carry one entry's shared fields.
func sameMapping(t *testing.T, a, b MapResponse) {
	t.Helper()
	a.Cache, a.Checked, a.ElapsedMS, a.Proxied, a.Violations, a.Error = "", false, 0, false, nil, ""
	b.Cache, b.Checked, b.ElapsedMS, b.Proxied, b.Violations, b.Error = "", false, 0, false, nil, ""
	if !reflect.DeepEqual(a, b) {
		t.Errorf("answers of one entry differ:\n%+v\n%+v", a, b)
	}
}

// TestAnswersMatchReferee runs the response differential over every
// /v1/map disposition: miss, hit, checked hit, shared, bypass, degraded,
// and an oracle failure's 422.
func TestAnswersMatchReferee(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	miss := mapAnswer(t, ts.URL, req, "", http.StatusOK, "miss")
	hit := mapAnswer(t, ts.URL, req, "", http.StatusOK, "hit")
	sameMapping(t, miss, hit)
	checked := mapAnswer(t, ts.URL, req, "?check=1", http.StatusOK, "hit")
	if !checked.Checked {
		t.Error("checked hit does not say checked")
	}
	sameMapping(t, miss, checked)
	bypass := req
	bypass.Options = &MapRequestOptions{NoCache: true}
	sameMapping(t, miss, withoutCompute(mapAnswer(t, ts.URL, bypass, "", http.StatusOK, "bypass"), miss))

	// shared: a flight for the key has already finished but is still
	// registered, so the request's lookup misses and it joins the flight.
	other := MapRequest{Workload: "broadcast8", Net: "hypercube:3"}
	r, herr := s.resolve(&other)
	if herr != nil {
		t.Fatal(herr)
	}
	e, err := s.compute(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	call := &flightCall{done: make(chan struct{}), val: e}
	close(call.done)
	s.flights.mu.Lock()
	s.flights.m = map[string]*flightCall{r.key: call}
	s.flights.mu.Unlock()
	shared := mapAnswer(t, ts.URL, other, "", http.StatusOK, "shared")
	s.flights.mu.Lock()
	delete(s.flights.m, r.key)
	s.flights.mu.Unlock()
	if shared.Fingerprint != hashHex(e.fp) {
		t.Errorf("shared answer fingerprint %s, want the flight's %s", shared.Fingerprint, hashHex(e.fp))
	}

	// 422: a cached mapping that fails the oracle but whose fingerprint
	// was recorded after the damage, so the hit check lets it through.
	bad := MapRequest{Workload: "jacobi", Net: "mesh:4,4"}
	if r, herr = s.resolve(&bad); herr != nil {
		t.Fatal(herr)
	}
	if e, err = s.compute(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	e.m.Place[0], e.m.Place[1] = e.m.Place[1], e.m.Place[0]
	e.fp = check.Fingerprint(e.m)
	s.cache.put(e)
	failed := mapAnswer(t, ts.URL, bad, "?check=1", http.StatusUnprocessableEntity, "hit")
	if !failed.Checked || len(failed.Violations) == 0 || !strings.Contains(failed.Error, "oracle") {
		t.Errorf("422 answer: checked=%v violations=%v error=%q", failed.Checked, failed.Violations, failed.Error)
	}
}

// withoutCompute returns a with b's compute_ms, the one shared field
// two computations of one request do not agree on.
func withoutCompute(a, b MapResponse) MapResponse {
	a.ComputeMS = b.ComputeMS
	return a
}

// TestDegradedAnswerMatchesReferee: a degraded answer is written from
// its entry's bytes like any other.
func TestDegradedAnswerMatchesReferee(t *testing.T) {
	_, ts := newTestServer(t, Config{StageTimeout: time.Nanosecond})
	req := MapRequest{Workload: "jacobi", Bindings: map[string]int{"n": 12}, Net: "hypercube:3",
		Options: &MapRequestOptions{Algo: "arbitrary"}}
	mapAnswer(t, ts.URL, req, "", http.StatusOK, "degraded")
}

// TestWarmAnswersMatchReferee: a warm-restored hit matches the referee,
// whether its record holds a stored body or, as stores written before
// the body was kept verbatim do, a whole MapResponse with its
// per-request fields.
func TestWarmAnswersMatchReferee(t *testing.T) {
	dir := t.TempDir()
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	s1, ts1 := newPersistentServer(t, dir, Config{})
	miss := mapAnswer(t, ts1.URL, req, "", http.StatusOK, "miss")
	drainPersist(t, s1, 1)
	r, herr := s1.resolve(&req)
	if herr != nil {
		t.Fatal(herr)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newPersistentServer(t, dir, Config{})
	sameMapping(t, miss, mapAnswer(t, ts2.URL, req, "", http.StatusOK, "hit"))
	if got := s2.Stats().WarmHits.Load(); got != 1 {
		t.Errorf("warm hits = %d, want 1", got)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// Overwrite the record with the whole-response payload of an older
	// store: its cache and elapsed_ms keys must not reach the wire.
	fp := "older store's fingerprint"
	old := miss
	old.Cache, old.ElapsedMS, old.Fingerprint = "", 0, hashHex(fp)
	payload, _ := json.Marshal(old)
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(store.Record{Key: r.key, Fingerprint: fp, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, ts3 := newPersistentServer(t, dir, Config{})
	warm := mapAnswer(t, ts3.URL, req, "", http.StatusOK, "hit")
	if warm.Fingerprint != old.Fingerprint || !reflect.DeepEqual(warm.Assignment, miss.Assignment) {
		t.Errorf("older record served %s %v, want %s %v", warm.Fingerprint, warm.Assignment, old.Fingerprint, miss.Assignment)
	}
}

// TestProxiedAnswersMatchReferee: a proxied miss and a proxied hit on
// a 2-node cluster match the referee and carry the owner's mapping.
func TestProxiedAnswersMatchReferee(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	req := MapRequest{Workload: "nbody", Net: "hypercube:3"}
	other := tc.fronts[tc.nonOwnerOf(t, req)].URL
	cold := mapAnswer(t, other, req, "", http.StatusOK, "miss")
	warm := mapAnswer(t, other, req, "?check=1", http.StatusOK, "hit")
	if !cold.Proxied || !warm.Proxied || !warm.Checked {
		t.Errorf("proxied cold=%v warm=%v, warm checked=%v", cold.Proxied, warm.Proxied, warm.Checked)
	}
	sameMapping(t, cold, warm)
	direct := mapAnswer(t, tc.fronts[tc.ownerOf(t, req)].URL, req, "", http.StatusOK, "hit")
	sameMapping(t, cold, direct)
}

// TestBatchItemsMatchReferee runs the differential over NDJSON and SSE
// batch items, a failed item included.
func TestBatchItemsMatchReferee(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal([]MapRequest{
		{Workload: "nbody", Net: "hypercube:3"},
		{Workload: "nosuch", Net: "hypercube:3"},
		{Workload: "broadcast8", Net: "hypercube:3", Options: &MapRequestOptions{NoCache: true}},
	})
	for _, accept := range []string{"application/x-ndjson", "text/event-stream"} {
		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/map/batch", bytes.NewReader(body))
		hreq.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		items := map[int]MapResponse{}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if accept == "text/event-stream" {
				if !bytes.HasPrefix(line, []byte("data: {\"index\"")) {
					continue // blank separators and the done event
				}
				line = bytes.TrimPrefix(line, []byte("data: "))
			}
			item := sameAsRef(t, line, true)
			items[item.Index] = item.MapResponse
		}
		resp.Body.Close()
		if len(items) != 3 {
			t.Fatalf("%s: %d items, want 3", accept, len(items))
		}
		if items[0].Fingerprint == "" || items[2].Cache != "bypass" {
			t.Errorf("%s: items 0 and 2: %+v %+v", accept, items[0], items[2])
		}
		if !strings.Contains(items[1].Error, "unknown workload") || items[1].Fingerprint != "" {
			t.Errorf("%s: failed item: %+v", accept, items[1])
		}
	}
}
