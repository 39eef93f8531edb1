package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"flatnet/internal/astopo"
	"flatnet/internal/bgpsim"
	"flatnet/internal/core"
)

// decodeErr pulls the structured error out of a non-200 response body.
func decodeErr(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("non-JSON error body %q: %v", rec.Body, err)
	}
	return body.Error.Code
}

func TestHealthz(t *testing.T) {
	rec := get(t, testServer(t, nil).Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Errorf("body = %q", rec.Body)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	get(t, h, "/v1/reach?as=100") // one computation to count

	rec := get(t, h, "/v1/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var st statsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ASes != 8 || st.Tier1 != 2 || st.Tier2 != 1 {
		t.Errorf("topology stats = %d ASes, %d tier1, %d tier2; want 8/2/1", st.ASes, st.Tier1, st.Tier2)
	}
	// One reach computation fills one entry: the response body.
	if st.Requests < 1 || st.Computations != 1 || st.CacheEntries != 1 {
		t.Errorf("counters = %+v", st)
	}
	for _, gone := range []string{`"classes"`, `"collapse_ratio"`} {
		if strings.Contains(rec.Body.String(), gone) {
			t.Errorf("stats still report %s: %s", gone, rec.Body.String())
		}
	}
}

func TestReachValidation(t *testing.T) {
	h := testServer(t, nil).Handler()
	cases := []struct {
		url    string
		status int
		code   string
	}{
		{"/v1/reach", http.StatusBadRequest, "bad_request"},         // missing as
		{"/v1/reach?as=nope", http.StatusBadRequest, "bad_request"}, // non-numeric
		{"/v1/reach?as=999", http.StatusNotFound, "not_found"},      // not in graph
		{"/v1/reach?as=100&kind=bogus", http.StatusBadRequest, "bad_request"},
		{"/v1/reach?as=100&timeout=later", http.StatusBadRequest, "bad_request"},
		{"/v1/reach?as=100&timeout=-1s", http.StatusBadRequest, "bad_request"},
	}
	for _, c := range cases {
		rec := get(t, h, c.url)
		if rec.Code != c.status {
			t.Errorf("%s: status = %d, want %d (body %s)", c.url, rec.Code, c.status, rec.Body)
			continue
		}
		if code := decodeErr(t, rec); code != c.code {
			t.Errorf("%s: error code = %q, want %q", c.url, code, c.code)
		}
	}
}

func TestReachValues(t *testing.T) {
	h := testServer(t, nil).Handler()
	for _, c := range []struct {
		kind string
		want int
	}{
		{"full", 7},           // everyone
		{"hierarchy-free", 2}, // only directly peered user ISPs 4 and 5
	} {
		rec := get(t, h, "/v1/reach?as=100&kind="+c.kind)
		if rec.Code != http.StatusOK {
			t.Fatalf("kind %s: status %d, body %s", c.kind, rec.Code, rec.Body)
		}
		var resp reachResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Reachable != c.want || resp.Total != 7 {
			t.Errorf("kind %s: reachable = %d/%d, want %d/7", c.kind, resp.Reachable, resp.Total, c.want)
		}
	}
}

func TestRelianceEndpoint(t *testing.T) {
	h := testServer(t, nil).Handler()
	rec := get(t, h, "/v1/reliance?as=100&kind=full&top=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp relianceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Top) == 0 || len(resp.Top) > 3 {
		t.Fatalf("top = %v, want 1..3 entries", resp.Top)
	}
	// Removing peer AS 2 strands both 2 and its customer 6; every other
	// failure strands at most one AS, so 2 leads the ranking.
	if resp.Top[0].AS != 2 {
		t.Errorf("top reliance = AS%d, want AS2", resp.Top[0].AS)
	}

	if rec := get(t, h, "/v1/reliance?as=100&top=0"); rec.Code != http.StatusBadRequest {
		t.Errorf("top=0: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/reliance?as=100&top=100000"); rec.Code != http.StatusBadRequest {
		t.Errorf("top above limit: status = %d, want 400", rec.Code)
	}
}

func TestLeakEndpoint(t *testing.T) {
	s := testServer(t, nil)
	h := s.Handler()
	rec := get(t, h, "/v1/leak?as=100&scenario=announce-all&trials=4&seed=7")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp leakResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trials <= 0 || resp.Trials > 4 {
		t.Errorf("trials = %d, want 1..4", resp.Trials)
	}
	if resp.Seed != 7 || resp.Scenario != "announce-all" {
		t.Errorf("echoed params = %+v", resp)
	}
	if resp.WorstDetour < resp.P95Detour || resp.P95Detour < 0 {
		t.Errorf("detour stats out of order: %+v", resp)
	}
	if s.sweeps.Len() != 1 {
		t.Errorf("sweep prototype cache has %d entries, want 1", s.sweeps.Len())
	}

	if rec := get(t, h, "/v1/leak?as=100&scenario=bogus"); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown scenario: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/leak?as=100&seed=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad seed: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/leak?as=100&trials=999999"); rec.Code != http.StatusBadRequest {
		t.Errorf("trials above limit: status = %d, want 400", rec.Code)
	}
}

func TestBatchGet(t *testing.T) {
	h := testServer(t, nil).Handler()
	rec := get(t, h, "/v1/batch?as=100,1,2&kind=full")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Engine != "scalar" {
		t.Errorf("engine = %q, want scalar for 3 origins", resp.Engine)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %v", resp.Results)
	}
	// Each count must match the single-origin endpoint's answer.
	for _, br := range resp.Results {
		one := get(t, h, fmt.Sprintf("/v1/reach?as=%d&kind=full", br.AS))
		var single reachResponse
		if err := json.Unmarshal(one.Body.Bytes(), &single); err != nil {
			t.Fatal(err)
		}
		if br.Reachable != single.Reachable {
			t.Errorf("AS%d: batch %d != single %d", br.AS, br.Reachable, single.Reachable)
		}
	}

	if rec := get(t, h, "/v1/batch"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing list: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/batch?as=1,nope"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad ASN in list: status = %d, want 400", rec.Code)
	}
	if rec := get(t, h, "/v1/batch?as=1,999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown origin: status = %d, want 404", rec.Code)
	}
}

func TestBatchPostWideRequestUsesBatchEngine(t *testing.T) {
	// A star: provider 1 over enough stub customers that the origin list
	// crosses BatchLanes and must ride the bit-parallel engine.
	g := astopo.NewGraph(0, 0)
	nStubs := bgpsim.BatchLanes + 6
	origins := make([]astopo.ASN, 0, nStubs)
	for i := 0; i < nStubs; i++ {
		stub := astopo.ASN(1000 + i)
		if err := g.AddLink(1, stub, astopo.P2C); err != nil {
			t.Fatal(err)
		}
		origins = append(origins, stub)
	}
	s, err := New(Config{Dataset: core.Dataset{Graph: g, Tier1: astopo.NewASSet(1)}})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	body, _ := json.Marshal(batchRequest{AS: origins, Kind: "full"})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(string(body))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp batchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Engine != "batch" {
		t.Errorf("engine = %q, want batch for %d origins", resp.Engine, nStubs)
	}
	if len(resp.Results) != nStubs {
		t.Fatalf("got %d results, want %d", len(resp.Results), nStubs)
	}
	// Every stub reaches the provider and, via provider-down export, every
	// sibling: the whole graph minus itself.
	want := g.NumASes() - 1
	for _, br := range resp.Results {
		if br.Reachable != want {
			t.Errorf("AS%d: reachable = %d, want %d", br.AS, br.Reachable, want)
		}
	}
}

func TestBatchPostValidation(t *testing.T) {
	h := testServer(t, nil).Handler()
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)))
		return rec
	}
	if rec := post(`not json`); rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: status = %d, want 400", rec.Code)
	}
	if rec := post(`{"as":[]}`); rec.Code != http.StatusBadRequest {
		t.Errorf("empty list: status = %d, want 400", rec.Code)
	}
	if rec := post(`{"as":[100],"kind":"bogus"}`); rec.Code != http.StatusBadRequest {
		t.Errorf("bad kind: status = %d, want 400", rec.Code)
	}
}

func TestBatchCapEnforced(t *testing.T) {
	h := testServer(t, nil).Handler()
	rec := get(t, h, "/v1/batch?as="+strings.Repeat("100,", maxBatch)+"100")
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceed the per-request limit") {
		t.Errorf("over-cap batch: status = %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := testServer(t, nil).Handler()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reach?as=100", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/reach: status = %d, want 405", rec.Code)
	}
}
