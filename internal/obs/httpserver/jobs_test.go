package httpserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/liberty"
	"noisewave/internal/telemetry"
)

// jobsLibertyText serializes a one-cell library for the HTTP round-trips.
func jobsLibertyText(t *testing.T) string {
	t.Helper()
	flat := func(d float64) *liberty.Table2D {
		return &liberty.Table2D{
			Index1: []float64{10e-12, 500e-12},
			Index2: []float64{1e-15, 100e-15},
			Values: [][]float64{{d, d}, {d, d}},
		}
	}
	lib := liberty.NewLibrary("httplib", 1.2)
	lib.AddCell(&liberty.Cell{
		Name: "INV",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 2e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{{
			From: "A", To: "Y", Sense: liberty.NegativeUnate,
			CellRise: flat(10e-12), CellFall: flat(12e-12),
			RiseTransition: flat(30e-12), FallTransition: flat(28e-12),
		}},
	})
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func staJobBody(t *testing.T, slewPs int) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"tenant":   "http-test",
		"priority": 1,
		"config": jobs.Config{
			Experiment: "sta",
			Netlist: fmt.Sprintf("design d\ninput a slew=%dps at=0ps\noutput y\n"+
				"gate u1 INV A=a Y=y\n", slewPs),
			Liberty: jobsLibertyText(t),
			Require: map[string]string{"y": "200ps"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestJobsAPIRoundTrip drives the full HTTP lifecycle: submit, list,
// status, poll the result URL, and read jobs.* metrics off /metrics.
func TestJobsAPIRoundTrip(t *testing.T) {
	reg := telemetry.New()
	m := jobs.NewManager(jobs.Options{Telemetry: reg})
	defer m.Close()
	ts := httptest.NewServer((&Server{Registry: reg, Jobs: m}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(staJobBody(t, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st jobs.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("submit response missing id/hash: %+v", st)
	}

	// Poll the result URL until terminal (the STA job is milliseconds).
	var result jobs.Result
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			break
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("result status = %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if result.Experiment != "sta" || result.STA == nil {
		t.Fatalf("result payload = %+v", result)
	}
	if result.STA.WorstSlack == nil {
		t.Error("no slack in result")
	}

	// Status and list endpoints agree.
	resp, err = http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got jobs.Status
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if got.State != jobs.StateDone {
		t.Errorf("state = %s, want done", got.State)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list []jobs.Status
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}

	// Resubmission: same body, served from cache, visible on /metrics.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(staJobBody(t, 100)))
	if err != nil {
		t.Fatal(err)
	}
	var st2 jobs.Status
	json.NewDecoder(resp.Body).Decode(&st2)
	resp.Body.Close()
	if !st2.CacheHit || st2.State != jobs.StateDone {
		t.Errorf("resubmission not a cache hit: %+v", st2)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var page bytes.Buffer
	page.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(page.String(), "noisewave_jobs_cache_hits 1") {
		t.Errorf("/metrics missing jobs cache-hit counter:\n%s", page.String())
	}
}

// TestJobsAPIErrors: 400 on garbage, 404 on unknown, 429 on quota.
func TestJobsAPIErrors(t *testing.T) {
	reg := telemetry.New()
	m := jobs.NewManager(jobs.Options{Telemetry: reg, TenantQuota: 1, Runners: 1})
	defer m.Close()
	ts := httptest.NewServer((&Server{Registry: reg, Jobs: m}).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"config":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty config status = %d, want 400", resp.StatusCode)
	}

	// A sweep past a size limit is refused at the door: 400 naming the
	// limit, and no job.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"config":{"experiment":"table1","cases":10001}}`))
	if err != nil {
		t.Fatal(err)
	}
	var e errorBody
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "cases 10001 exceeds the limit of 10000") {
		t.Errorf("over-limit cases: status %d, error %q; want 400 naming the limit", resp.StatusCode, e.Error)
	}

	// A field the experiment does not read, and a required time that does
	// not parse, are refused at the door too: accepted, they would split
	// the cache or fail only after queueing.
	const sta = `"experiment":"sta","netlist":"design d","liberty":"library(l){}"`
	for _, tc := range []struct{ body, want string }{
		{`{"config":{` + sta + `,"technique":"SGDP"}}`, `unknown field "technique"`},
		{`{"config":{"experiment":"pushout","p":35}}`, "p/techniques apply to table1 jobs only"},
		{`{"config":{"experiment":"pushout","techniques":["SGDP"]}}`, "p/techniques apply to table1 jobs only"},
		{`{"config":{"experiment":"pushout","seed":7}}`, "seed applies to monte_carlo pushout jobs only"},
		{`{"config":{` + sta + `,"require":{"y":"banana"}}}`, `require y: bad quantity "banana"`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: status %d, error %q; want 400 with %q", tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Errorf("%d jobs after rejected submissions, want 0", n)
	}

	resp, err = http.Get(ts.URL + "/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}

	// Fill the single-slot quota with slow pushout jobs, then overflow it.
	// (Queued jobs count toward the quota, so nothing needs to actually run.)
	first, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"q","config":{"experiment":"pushout","cases":50}}`))
	if err != nil {
		t.Fatal(err)
	}
	var slow jobs.Status
	json.NewDecoder(first.Body).Decode(&slow)
	first.Body.Close()
	if first.StatusCode != http.StatusAccepted {
		t.Fatalf("first pushout submit status = %d", first.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"tenant":"q","config":{"experiment":"pushout","cases":51}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel the slow job over HTTP rather than waiting for it.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+slow.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cancel status = %d, want 200", resp.StatusCode)
	}
}

// TestJobsAPIOversizedBody: a submission body past the cap is refused
// with 413 and the usual JSON error body, and no job is created. The
// route is mounted with a 1 KiB cap so the test need not stream
// maxSubmitBytes through the decoder.
func TestJobsAPIOversizedBody(t *testing.T) {
	const maxBody = 1 << 10
	reg := telemetry.New()
	m := jobs.NewManager(jobs.Options{Telemetry: reg})
	defer m.Close()
	mux := http.NewServeMux()
	(&Server{Registry: reg}).mountJobs(mux, m, maxBody)

	// An unterminated string keeps the decoder reading past the cap; under
	// no cap the same body is a 400 (unexpected EOF).
	body := `{"tenant":"` + strings.Repeat("a", maxBody)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", rec.Code)
	}
	var e errorBody
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error == "" {
		t.Errorf("413 body = %q, want a JSON error (%v)", rec.Body.String(), err)
	}
	if n := len(m.Jobs()); n != 0 {
		t.Errorf("%d jobs after an oversized submission, want 0", n)
	}
}
