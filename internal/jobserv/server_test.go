package jobserv

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hmccoal"
)

func startServer(t *testing.T, opt Options) (*httptest.Server, *Daemon) {
	t.Helper()
	d := newTestDaemon(t, opt)
	srv := httptest.NewServer(NewServer(d))
	t.Cleanup(srv.Close)
	return srv, d
}

func postJob(t *testing.T, srv *httptest.Server, tenant string, pri int, spec Spec) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"tenant": tenant, "priority": pri, "spec": spec})
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	return resp
}

func decodeJSON[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return v
}

func TestHTTPSubmitPollResult(t *testing.T) {
	srv, _ := startServer(t, Options{exec: instantExec})

	resp := postJob(t, srv, "web", 2, singleSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	id := decodeJSON[map[string]string](t, resp)["id"]
	if id == "" {
		t.Fatal("submit returned no job id")
	}

	// Long-poll until terminal.
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/wait?timeout=10s")
	if err != nil {
		t.Fatalf("GET wait: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait status = %d, want 200", resp.StatusCode)
	}
	v := decodeJSON[JobView](t, resp)
	if v.State != StateDone || v.Tenant != "web" || v.Priority != 2 || v.Kind != KindSingle {
		t.Fatalf("wait view = %+v", v)
	}

	// Poll and list agree.
	resp, _ = http.Get(srv.URL + "/api/v1/jobs/" + id)
	if got := decodeJSON[JobView](t, resp); got.State != StateDone {
		t.Fatalf("poll view = %+v", got)
	}
	resp, _ = http.Get(srv.URL + "/api/v1/jobs?tenant=web")
	if got := decodeJSON[[]JobView](t, resp); len(got) != 1 || got[0].ID != id {
		t.Fatalf("list = %+v", got)
	}
	resp, _ = http.Get(srv.URL + "/api/v1/jobs?tenant=other")
	if got := decodeJSON[[]JobView](t, resp); len(got) != 0 {
		t.Fatalf("foreign-tenant list = %+v", got)
	}

	// The result document round-trips.
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatalf("GET result: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status = %d, want 200", resp.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if buf.String() != string(fakeResult(id)) {
		t.Fatalf("result = %q, want %q", buf.String(), fakeResult(id))
	}

	// Status reflects the finished job.
	resp, _ = http.Get(srv.URL + "/api/v1/status")
	if st := decodeJSON[DaemonStatus](t, resp); st.Done != 1 {
		t.Fatalf("status = %+v, want Done 1", st)
	}
}

func TestHTTPAdmissionErrors(t *testing.T) {
	now := time.Unix(2000, 0)
	srv, _ := startServer(t, Options{
		exec:  instantExec,
		Quota: Quota{Rate: 0.5, Burst: 1},
		now:   func() time.Time { return now },
	})

	// Bad spec: structured 400.
	resp := postJob(t, srv, "web", 0, Spec{Kind: "mystery"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
	e := decodeJSON[map[string]*AdmitError](t, resp)["error"]
	if e == nil || e.Code != CodeBadSpec {
		t.Fatalf("bad spec error = %+v", e)
	}
	// Sweep axes the simulator would refuse at run time are bad specs too.
	for _, body := range []string{
		`{"tenant":"web","spec":{"kind":"sweep","sweep":"mshr","bench":"HPCG","entries":[0]}}`,
		`{"tenant":"web","spec":{"kind":"sweep","sweep":"fault","bench":"HPCG","bers":[2]}}`,
	} {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", body, resp.StatusCode)
		}
		if e := decodeJSON[map[string]*AdmitError](t, resp)["error"]; e == nil || e.Code != CodeBadSpec {
			t.Fatalf("%s: error = %+v, want %s", body, e, CodeBadSpec)
		}
	}

	// Rate limit: structured 429 with a Retry-After header.
	resp = postJob(t, srv, "web", 0, singleSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status = %d", resp.StatusCode)
	}
	resp = postJob(t, srv, "web", 0, singleSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 carries no Retry-After header")
	}
	e = decodeJSON[map[string]*AdmitError](t, resp)["error"]
	if e == nil || e.Code != CodeRateLimited || e.RetryAfterMs <= 0 || e.Tenant != "web" {
		t.Fatalf("rate-limit error = %+v", e)
	}

	// Malformed body: 400, not a panic or a 500.
	resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

func TestHTTPCancelAndMissing(t *testing.T) {
	g := newExecGate()
	srv, _ := startServer(t, Options{Slots: 1, exec: g.exec})

	resp := postJob(t, srv, "web", 0, singleSpec())
	running := decodeJSON[map[string]string](t, resp)["id"]
	g.waitStarted(t)
	resp = postJob(t, srv, "web", 0, singleSpec())
	queued := decodeJSON[map[string]string](t, resp)["id"]

	del := func(id string) *http.Response {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("DELETE: %v", err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := del(queued); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("cancel queued status = %d, want 204", resp.StatusCode)
	}
	if resp := del(queued); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status = %d, want 409", resp.StatusCode)
	}
	if resp := del("j-999999"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel missing status = %d, want 409", resp.StatusCode)
	}

	for _, path := range []string{"/api/v1/jobs/j-999999", "/api/v1/jobs/j-999999/result"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s status = %d, want 404", path, resp.StatusCode)
		}
	}
	g.release(running)
}

func TestHTTPWaitTimeout(t *testing.T) {
	g := newExecGate()
	srv, _ := startServer(t, Options{Slots: 1, exec: g.exec})
	resp := postJob(t, srv, "web", 0, singleSpec())
	id := decodeJSON[map[string]string](t, resp)["id"]
	g.waitStarted(t)

	// A wait that expires returns 202 with the live view: poll again.
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/wait?timeout=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("expired wait status = %d, want 202", resp.StatusCode)
	}
	if v := decodeJSON[JobView](t, resp); v.State != StateRunning {
		t.Fatalf("expired wait view = %+v", v)
	}
	g.release(id)
}

// TestHTTPRealSingleRun drives one real simulation through the full HTTP
// surface, proving the service wires the paper pipeline end to end.
func TestHTTPRealSingleRun(t *testing.T) {
	srv, _ := startServer(t, Options{Slots: 1})
	resp := postJob(t, srv, "web", 0, Spec{Kind: KindSingle, Bench: hmccoal.Benchmarks()[0], CPUs: 2, Ops: 80})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	id := decodeJSON[map[string]string](t, resp)["id"]
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + id + "/wait?timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeJSON[JobView](t, resp); v.State != StateDone {
		t.Fatalf("real run ended %+v", v)
	}
	resp, err = http.Get(srv.URL + "/api/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("result decode: %v", err)
	}
	resp.Body.Close()
	if doc["kind"] != string(KindSingle) || doc["summary"] == nil {
		t.Fatalf("result doc = %v", doc)
	}
	if _, ok := doc["summary"].(string); !ok || doc["summary"] == "" {
		t.Fatalf("summary missing from %v", doc)
	}
}
