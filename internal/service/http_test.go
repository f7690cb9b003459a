package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

func postJob(t *testing.T, url string, req SubmitRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestHTTPByteIdentity runs a real (tiny) spec through the HTTP API
// and checks the served document is byte-identical to the in-process
// deterministic report — on the cold miss and again on the cache hit.
// This is the service-path equivalence the remote CLI mode relies on.
func TestHTTPByteIdentity(t *testing.T) {
	opts := experiments.DefaultOptions()
	opts.Parallelism = 2
	s := New(Config{Workers: 1, QueueDepth: 4, Options: opts})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := experiments.Spec{Exps: []string{"table1"}, Seed: 1988}
	local, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	for round, wantCached := range []bool{false, true} {
		resp, body := postJob(t, srv.URL, SubmitRequest{Spec: spec, WaitMS: 30000})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: submit status %d: %s", round, resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if st.State != StateDone || st.Cached != wantCached {
			t.Fatalf("round %d: state=%s cached=%v, want done cached=%v", round, st.State, st.Cached, wantCached)
		}
		rresp, result := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/result")
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("round %d: result status %d", round, rresp.StatusCode)
		}
		if rresp.Header.Get("X-Pasm-Cached") != strconv.FormatBool(wantCached) {
			t.Errorf("round %d: X-Pasm-Cached = %q", round, rresp.Header.Get("X-Pasm-Cached"))
		}
		if !bytes.Equal(result, want) {
			t.Errorf("round %d: served bytes differ from local deterministic report\nserved: %s\nlocal:  %s",
				round, result, want)
		}
	}
}

// TestHTTPBackpressure exercises the 503 path end to end: full queue
// and draining both yield 503 with a Retry-After header.
func TestHTTPBackpressure(t *testing.T) {
	g := newGatedRunner()
	s := New(Config{Workers: 1, QueueDepth: 1, run: g.run})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, body := postJob(t, srv.URL, SubmitRequest{Spec: specN(1)})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("A: status %d: %s", resp.StatusCode, body)
	}
	var a JobStatus
	json.Unmarshal(body, &a)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.Job(a.ID)
		if st.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("A never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body = postJob(t, srv.URL, SubmitRequest{Spec: specN(2)}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("B: status %d: %s", resp.StatusCode, body)
	}
	resp, body = postJob(t, srv.URL, SubmitRequest{Spec: specN(3)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("C: status %d, want 503: %s", resp.StatusCode, body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("C: Retry-After = %q, want integer >= 1", resp.Header.Get("Retry-After"))
	}

	// Result of an unfinished job: 409 + Retry-After.
	resp, _ = getBody(t, srv.URL+"/v1/jobs/"+a.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("unfinished result: status %d, want 409", resp.StatusCode)
	}

	// Draining: 503 on submit, but accepted work completes.
	go s.Shutdown(context.Background())
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	resp, _ = postJob(t, srv.URL, SubmitRequest{Spec: specN(4)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("drain submit: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain submit: missing Retry-After")
	}
	g.release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Shutdown(ctx)
	resp, _ = getBody(t, srv.URL+"/v1/jobs/"+a.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("drained job result: status %d, want 200", resp.StatusCode)
	}
}

// TestHTTPErrors covers the non-2xx surfaces: bad body, bad spec,
// unknown ids, wait endpoint.
func TestHTTPErrors(t *testing.T) {
	g := newGatedRunner()
	g.release()
	s := New(Config{Workers: 1, QueueDepth: 4, run: g.run})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, srv.URL, SubmitRequest{Spec: experiments.Spec{Exps: []string{"fig99"}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/v1/jobs/j999-deadbeef")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp, _ = getBody(t, srv.URL+"/v1/jobs/j999-deadbeef/result")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown result: status %d, want 404", resp.StatusCode)
	}

	// Wait endpoint returns the terminal state.
	_, body := postJob(t, srv.URL, SubmitRequest{Spec: specN(5)})
	var st JobStatus
	json.Unmarshal(body, &st)
	resp, body = getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/wait?timeout_ms=10000")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait: status %d", resp.StatusCode)
	}
	json.Unmarshal(body, &st)
	if st.State != StateDone {
		t.Errorf("wait returned state %s", st.State)
	}

	// Health and metrics are always JSON.
	resp, body = getBody(t, srv.URL+"/healthz")
	var health map[string]any
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &health) != nil {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz status = %v", health["status"])
	}
	resp, body = getBody(t, srv.URL+"/metrics")
	var metrics map[string]float64
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &metrics) != nil {
		t.Errorf("metrics: %d %s", resp.StatusCode, body)
	}
	if metrics["service/submitted"] < 1 {
		t.Errorf("metrics missing submitted counter: %v", metrics["service/submitted"])
	}
}

// postFill issues a raw peer-fill request with the given headers.
func postFill(t *testing.T, url string, spec experiments.Spec, body []byte, hdrs map[string]string) (status int, msg string) {
	t.Helper()
	rawSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+FillPath, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(FillSpecHeader, base64.StdEncoding.EncodeToString(rawSpec))
	for k, v := range hdrs {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// TestFillEndpointSecurity: the fill endpoint shares the public
// listener, so it must be locked down — disabled without a configured
// secret, authenticated per request, pinned to this binary's
// CodeVersion, and body-capped. Only a correctly authenticated,
// version-matched, valid canonical payload lands.
func TestFillEndpointSecurity(t *testing.T) {
	runner := func(context.Context, experiments.Spec) ([]byte, error) { return []byte("computed\n"), nil }

	// No secret configured: the endpoint is disabled outright.
	open := New(Config{Workers: 1, QueueDepth: 4, run: runner})
	defer open.Shutdown(context.Background())
	openSrv := httptest.NewServer(open.Handler())
	defer openSrv.Close()
	if status, _ := postFill(t, openSrv.URL, specN(7), fillBody(t, 7), map[string]string{
		FillCodeHeader: experiments.CodeVersion,
	}); status != http.StatusForbidden {
		t.Fatalf("fill without configured secret: status %d, want 403", status)
	}

	s := New(Config{Workers: 1, QueueDepth: 4, FillSecret: "s3cret", run: runner})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	auth := map[string]string{FillSecretHeader: "s3cret", FillCodeHeader: experiments.CodeVersion}
	cases := []struct {
		name string
		body []byte
		hdrs map[string]string
		want int
	}{
		{"missing secret", fillBody(t, 7), map[string]string{FillCodeHeader: experiments.CodeVersion}, http.StatusForbidden},
		{"wrong secret", fillBody(t, 7), map[string]string{FillSecretHeader: "nope", FillCodeHeader: experiments.CodeVersion}, http.StatusForbidden},
		{"missing code version", fillBody(t, 7), map[string]string{FillSecretHeader: "s3cret"}, http.StatusConflict},
		{"wrong code version", fillBody(t, 7), map[string]string{FillSecretHeader: "s3cret", FillCodeHeader: "pasm-sim/0"}, http.StatusConflict},
		{"oversized body", bytes.Repeat([]byte("x"), maxFillBytes+1), auth, http.StatusRequestEntityTooLarge},
		{"invalid payload", []byte(`{"junk":1}` + "\n"), auth, http.StatusBadRequest},
		{"valid fill", fillBody(t, 7), auth, http.StatusOK},
		{"duplicate fill", fillBody(t, 7), auth, http.StatusAlreadyReported},
	}
	for _, tc := range cases {
		status, msg := postFill(t, srv.URL, specN(7), tc.body, tc.hdrs)
		if status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, status, tc.want)
		}
		if limit := strconv.Itoa(maxFillBytes); status == http.StatusRequestEntityTooLarge && !strings.Contains(msg, limit) {
			t.Errorf("%s: message %q does not name the %s-byte limit", tc.name, msg, limit)
		}
	}

	// Everything that bounced is visible in metrics; exactly one fill
	// landed.
	m := s.Metrics()
	if m["service/peer_fills"] != 1 {
		t.Errorf("peer_fills = %v, want 1", m["service/peer_fills"])
	}
	if m["service/peer_fill_rejects"] < 4 {
		t.Errorf("peer_fill_rejects = %v, want >= 4", m["service/peer_fill_rejects"])
	}
}

// paddedSubmit encodes req as a submit body of exactly size bytes:
// the JSON object with insignificant whitespace before its closing
// brace.
func paddedSubmit(t *testing.T, req SubmitRequest, size int) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) > size {
		t.Fatalf("request encodes in %d bytes, more than %d", len(body), size)
	}
	pad := bytes.Repeat([]byte(" "), size-len(body))
	return append(append(body[:len(body)-1:len(body)-1], pad...), '}')
}

// TestHTTPSubmitBodyBound: a submit body past MaxSubmitBytes gets a
// JSON 413 without being run, while a body of exactly the limit is
// accepted and serves the same bytes as a local run.
func TestHTTPSubmitBodyBound(t *testing.T) {
	opts := experiments.DefaultOptions()
	s := New(Config{Workers: 1, QueueDepth: 4, Options: opts})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	spec := experiments.Spec{Exps: []string{"table1"}, Seed: 7}
	req := SubmitRequest{Spec: spec, WaitMS: 30000}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(paddedSubmit(t, req, MaxSubmitBytes+1)))
	if err != nil {
		t.Fatal(err)
	}
	var eb errorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" || decErr != nil || eb.Error == "" {
		t.Errorf("oversized body: want a JSON error, got Content-Type %q, decode err %v, body %+v", ct, decErr, eb)
	}
	if n := len(s.Jobs()); n != 0 {
		t.Errorf("oversized body created %d jobs", n)
	}

	local, err := experiments.RunSpec(spec, experiments.RunConfig{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/json",
		bytes.NewReader(paddedSubmit(t, req, MaxSubmitBytes)))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	decErr = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || decErr != nil || st.State != StateDone {
		t.Fatalf("body at the limit: status %d, state %s, decode err %v", resp.StatusCode, st.State, decErr)
	}
	if _, got := getBody(t, srv.URL+"/v1/jobs/"+st.ID+"/result"); !bytes.Equal(got, want) {
		t.Errorf("body at the limit: served bytes differ from the local report")
	}
}

// TestReadTimeoutSparesLongPolls pins the reason the servers may set
// ReadTimeout but not WriteTimeout: once a request has been read, its
// handler may wait far longer than ReadTimeout. With a 50ms read
// timeout and 300ms jobs, a submit long-poll (wait_ms) and a /wait
// long-poll both answer with the job's terminal state.
func TestReadTimeoutSparesLongPolls(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, run: func(context.Context, experiments.Spec) ([]byte, error) {
		time.Sleep(300 * time.Millisecond)
		return []byte("slow\n"), nil
	}})
	defer s.Shutdown(context.Background())
	srv := httptest.NewUnstartedServer(s.Handler())
	srv.Config.ReadTimeout = 50 * time.Millisecond
	srv.Start()
	defer srv.Close()

	var st JobStatus
	resp, body := postJob(t, srv.URL, SubmitRequest{Spec: specN(1), WaitMS: 5000})
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("submit long-poll: %d %s (err %v), want 200 done", resp.StatusCode, body, err)
	}
	queued, err := s.Submit(specN(2), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	resp, body = getBody(t, srv.URL+"/v1/jobs/"+queued.ID+"/wait?timeout_ms=5000")
	if err := json.Unmarshal(body, &st); err != nil || resp.StatusCode != http.StatusOK || st.State != StateDone {
		t.Fatalf("/wait long-poll: %d %s (err %v), want 200 done", resp.StatusCode, body, err)
	}
}
