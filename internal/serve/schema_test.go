package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// post sends raw JSON and returns the status plus body text.
func post(t *testing.T, url, path, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// envelopeVersion decodes a response body's apiVersion, "" if the body
// is no JSON object.
func envelopeVersion(body string) string {
	var env struct {
		APIVersion string `json:"apiVersion"`
	}
	if json.Unmarshal([]byte(body), &env) != nil {
		return ""
	}
	return env.APIVersion
}

func TestEveryEnvelopeCarriesAPIVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Success envelope.
	status, ok := postMap(t, ts.URL, MapRequest{Workload: "nbody", Net: "hypercube:3"}, "")
	if status != 200 || ok.APIVersion != APIVersion {
		t.Errorf("map apiVersion = %q (status %d), want %q", ok.APIVersion, status, APIVersion)
	}
	// Cached responses keep the stamp.
	_, warm := postMap(t, ts.URL, MapRequest{Workload: "nbody", Net: "hypercube:3"}, "")
	if warm.Cache != "hit" || warm.APIVersion != APIVersion {
		t.Errorf("cached map apiVersion = %q (cache %q)", warm.APIVersion, warm.Cache)
	}

	// Error envelope.
	if status, body := post(t, ts.URL, "/v1/map", `{"net":"hypercube:3"}`); status != 400 || envelopeVersion(body) != APIVersion {
		t.Errorf("error envelope: %d %s", status, body)
	}

	// Vet, workloads, stats.
	if _, body := post(t, ts.URL, "/v1/vet", `{"source":"algorithm a; nodetype t 0..1; comphase c { forall i in 0..0 : t(i) -> t(i+1); } phases c;"}`); envelopeVersion(body) != APIVersion {
		t.Errorf("vet envelope: %s", body)
	}
	for _, path := range []string{"/v1/workloads", "/v1/stats?json=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var env struct {
			APIVersion string `json:"apiVersion"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if env.APIVersion != APIVersion {
			t.Errorf("%s apiVersion = %q, want %q", path, env.APIVersion, APIVersion)
		}
	}
}

func TestUnknownRequestFieldsRejectedByName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body, field string
	}{
		{"top level", "/v1/map", `{"workload":"nbody","net":"hypercube:3","bogus":1}`, "bogus"},
		{"nested option", "/v1/map", `{"workload":"nbody","net":"hypercube:3","options":{"parallel":2}}`, "parallel"},
		{"vet", "/v1/vet", `{"source":"x","sources":"y"}`, "sources"},
		{"batch item", "/v1/map/batch", `[{"workload":"nbody","net":"hypercube:3","chck":true}]`, "chck"},
		// The retired v1 spellings of options.check/nocache/algo.
		{"v1 check", "/v1/map", `{"workload":"nbody","net":"hypercube:3","check":true}`, "check"},
		{"v1 nocache", "/v1/map", `{"workload":"nbody","net":"hypercube:3","nocache":true}`, "nocache"},
		{"v1 force", "/v1/map", `{"workload":"nbody","net":"hypercube:3","options":{"force":"arbitrary"}}`, "force"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts.URL, tc.path, tc.body)
			if status != 400 {
				t.Fatalf("status = %d, want 400 (%s)", status, body)
			}
			if !strings.Contains(body, `unknown request field \"`+tc.field+`\"`) &&
				!strings.Contains(body, `unknown request field "`+tc.field+`"`) {
				t.Fatalf("body does not name field %q: %s", tc.field, body)
			}
		})
	}
}

// TestInvalidOptionsRejectedByField pins option parity with the facade:
// every value core.Request.Validate (or resolve, for timeout_ms) rejects
// is a 400 naming the JSON field, decided before any computation, so no
// cache entry appears under a second key.
func TestInvalidOptionsRejectedByField(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct{ options, field string }{
		{`{"max_tasks_per_proc":-5}`, "options.max_tasks_per_proc"},
		{`{"timeout_ms":-1}`, "options.timeout_ms"},
		{`{"stage_timeout_ms":-1}`, "options.stage_timeout_ms"},
		{`{"parallelism":-1}`, "options.parallelism"},
		{`{"algo":"bogus"}`, "options.algo"},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			status, body := post(t, ts.URL, "/v1/map",
				`{"workload":"nbody","net":"hypercube:3","options":`+tc.options+`}`)
			if status != 400 || !strings.Contains(body, tc.field) {
				t.Fatalf("options %s: %d %s, want 400 naming %s", tc.options, status, body, tc.field)
			}
			if n := s.cache.len(); n != 0 {
				t.Fatalf("options %s: %d cache entries, want 0", tc.options, n)
			}
		})
	}
}

func TestParallelismOption(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Negative budgets are a schema error.
	status, body := post(t, ts.URL, "/v1/map",
		`{"workload":"nbody","net":"hypercube:3","options":{"parallelism":-1}}`)
	if status != 400 || !strings.Contains(body, "options.parallelism") {
		t.Fatalf("parallelism=-1: %d %s", status, body)
	}

	// Parallelism never splits the cache: the same mapping at different
	// budgets shares one content address, so the second request is a hit
	// with the identical fingerprint.
	req := func(p int) MapRequest {
		return MapRequest{Workload: "nbody", Net: "hypercube:3",
			Options: &MapRequestOptions{Parallelism: p}}
	}
	st1, seq := postMap(t, ts.URL, req(1), "")
	if st1 != 200 {
		t.Fatalf("parallelism=1: status %d", st1)
	}
	st4, par := postMap(t, ts.URL, req(4), "")
	if st4 != 200 {
		t.Fatalf("parallelism=4: status %d", st4)
	}
	if par.Cache != "hit" {
		t.Errorf("parallelism=4 after =1: cache %q, want hit (parallelism must not split the key)", par.Cache)
	}
	if seq.Fingerprint != par.Fingerprint {
		t.Errorf("fingerprint differs across parallelism: %s vs %s", seq.Fingerprint, par.Fingerprint)
	}
}

func TestPerRequestBudgetDividesCores(t *testing.T) {
	cfg := Config{Workers: 4}.withDefaults()
	if cfg.Parallel < 1 {
		t.Fatalf("Parallel = %d, want >= 1", cfg.Parallel)
	}
	cfg = Config{Workers: 1, Parallel: 0}.withDefaults()
	if cfg.Parallel < 1 {
		t.Fatalf("Parallel = %d, want >= 1", cfg.Parallel)
	}
	cfg = Config{Parallel: -5}.withDefaults()
	if cfg.Parallel != 1 {
		t.Fatalf("negative Parallel = %d, want clamp to 1", cfg.Parallel)
	}

	// A request can lower but not raise the server budget.
	s := New(Config{Parallel: 2})
	r, herr := s.resolve(&MapRequest{Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{Parallelism: 1}})
	if herr != nil {
		t.Fatal(herr)
	}
	if r.req.Parallelism != 1 {
		t.Errorf("lowered budget = %d, want 1", r.req.Parallelism)
	}
	r, herr = s.resolve(&MapRequest{Workload: "nbody", Net: "hypercube:3",
		Options: &MapRequestOptions{Parallelism: 64}})
	if herr != nil {
		t.Fatal(herr)
	}
	if r.req.Parallelism != 2 {
		t.Errorf("raised budget = %d, want cap 2", r.req.Parallelism)
	}
}
