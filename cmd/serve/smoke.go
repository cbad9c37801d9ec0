package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/liberty"
	"noisewave/internal/obs/httpserver"
	"noisewave/internal/telemetry"
)

// runSmoke boots the service on a loopback port and drives the HTTP API
// end to end: an elmore STA job and a transistor-level pushout job, each
// checked bit-for-bit against the direct in-process run, then resubmitted
// to prove the content-addressed cache serves them with zero new solves.
func runSmoke(workers int) error {
	if workers == 0 {
		workers = 2
	}
	reg := telemetry.New()
	mgr := jobs.NewManager(jobs.Options{
		Workers: workers, Telemetry: reg,
	})
	defer mgr.Close()
	srv := &httpserver.Server{Registry: reg, Jobs: mgr}
	httpSrv, ln, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("serve: smoke server on", base)

	libText, err := smokeLiberty()
	if err != nil {
		return fmt.Errorf("build liberty fixture: %w", err)
	}
	staCfg := jobs.Config{
		Experiment: "sta",
		Netlist: "design smoke_chain\n" +
			"input a slew=100ps at=0ps\n" +
			"output y\n" +
			"gate u1 INV A=a Y=n1\n" +
			"gate u2 BUF A=n1 Y=n2\n" +
			"gate u3 INV A=n2 Y=y\n" +
			"netcap n1 5fF\nnetres n1 200\n" +
			"netcap n2 3fF\nnetres n2 150\n",
		Liberty: libText,
		Wire:    "elmore",
		Require: map[string]string{"y": "500ps"},
	}
	pushCfg := jobs.Config{Experiment: "pushout", Cases: 3, RangeS: 0.4e-9}

	// Drive both jobs through HTTP and compare against the direct path.
	// The direct runs use their own registry so the service counters stay
	// attributable to the HTTP jobs alone.
	for _, tc := range []struct {
		name string
		cfg  jobs.Config
	}{{"sta-elmore", staCfg}, {"pushout", pushCfg}} {
		got, err := submitAndWait(base, tc.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", tc.name, err)
		}
		want, err := jobs.RunDirect(context.Background(), tc.cfg,
			jobs.Options{Workers: workers, Telemetry: telemetry.New()})
		if err != nil {
			return fmt.Errorf("%s direct run: %w", tc.name, err)
		}
		// The service result crossed a JSON round-trip; Go's float encoding
		// is exact (shortest-representation), so equality here is
		// bit-identity of every number.
		if !reflect.DeepEqual(got, roundTrip(want)) {
			return fmt.Errorf("%s: service result differs from direct run\n got: %+v\nwant: %+v",
				tc.name, got, want)
		}
		fmt.Printf("serve: smoke %-16s matches direct run\n", tc.name)
	}

	// Resubmissions must be cache hits that run zero new solves.
	before, err := scrapeCounters(base)
	if err != nil {
		return err
	}
	for _, cfg := range []jobs.Config{staCfg, pushCfg} {
		st, err := submit(base, cfg)
		if err != nil {
			return fmt.Errorf("resubmit: %w", err)
		}
		if !st.CacheHit || st.State != jobs.StateDone {
			return fmt.Errorf("resubmission not served from cache: %+v", st)
		}
	}
	after, err := scrapeCounters(base)
	if err != nil {
		return err
	}
	if hits := after["noisewave_jobs_cache_hits"] - before["noisewave_jobs_cache_hits"]; hits != 2 {
		return fmt.Errorf("jobs.cache_hits moved by %d, want 2", hits)
	}
	for name, v := range after {
		if strings.HasPrefix(name, "noisewave_spice_") && v != before[name] {
			return fmt.Errorf("cache hit ran solves: %s moved %d -> %d", name, before[name], v)
		}
	}
	fmt.Println("serve: smoke cache hits served with zero new solves")

	// A draining manager must shed load: submissions get 503 with a
	// Retry-After so clients back off and retry after the restart.
	mgr.Drain(time.Second)
	body, err := json.Marshal(map[string]any{"tenant": "smoke", "config": staCfg})
	if err != nil {
		return err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("submit to draining manager: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		return fmt.Errorf("503 response missing Retry-After header")
	}
	fmt.Println("serve: smoke draining manager answers 503 + Retry-After")
	return nil
}

// smokeLiberty builds the synthetic two-cell library the smoke netlist
// instantiates, serialized to Liberty text like a real client would send.
func smokeLiberty() (string, error) {
	flat := func(d float64) *liberty.Table2D {
		return &liberty.Table2D{
			Index1: []float64{10e-12, 500e-12},
			Index2: []float64{1e-15, 100e-15},
			Values: [][]float64{{d, d}, {d, d}},
		}
	}
	lib := liberty.NewLibrary("smokelib", 1.2)
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
	lib.AddCell(&liberty.Cell{
		Name: "BUF",
		Pins: []liberty.Pin{
			{Name: "A", Direction: "input", Cap: 3e-15},
			{Name: "Y", Direction: "output"},
		},
		Arcs: []liberty.Arc{{
			From: "A", To: "Y", Sense: liberty.PositiveUnate,
			CellRise: flat(20e-12), CellFall: flat(20e-12),
			RiseTransition: flat(30e-12), FallTransition: flat(30e-12),
		}},
	})
	var buf bytes.Buffer
	if err := lib.Write(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// submit POSTs one config and decodes the job status.
func submit(base string, cfg jobs.Config) (jobs.Status, error) {
	body, err := json.Marshal(map[string]any{"tenant": "smoke", "config": cfg})
	if err != nil {
		return jobs.Status{}, err
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jobs.Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jobs.Status{}, fmt.Errorf("submit status %d", resp.StatusCode)
	}
	var st jobs.Status
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// submitAndWait submits and polls the result URL until the job settles.
func submitAndWait(base string, cfg jobs.Config) (*jobs.Result, error) {
	st, err := submit(base, cfg)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(5 * time.Minute)
	for {
		resp, err := http.Get(base + "/jobs/" + st.ID + "/result")
		if err != nil {
			return nil, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			defer resp.Body.Close()
			var res jobs.Result
			return &res, json.NewDecoder(resp.Body).Decode(&res)
		case http.StatusAccepted:
			resp.Body.Close()
		default:
			var eb struct {
				Error string `json:"error"`
			}
			json.NewDecoder(resp.Body).Decode(&eb)
			resp.Body.Close()
			return nil, fmt.Errorf("result status %d: %s", resp.StatusCode, eb.Error)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s did not finish", st.ID)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// roundTrip pushes a result through JSON, mirroring what the HTTP client
// sees, so DeepEqual compares like with like (nil-vs-empty slices etc.).
func roundTrip(r *jobs.Result) *jobs.Result {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	var out jobs.Result
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return &out
}

// scrapeCounters reads the integer-valued samples off /metrics.
func scrapeCounters(base string) (map[string]int64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = int64(v)
		}
	}
	return out, sc.Err()
}
