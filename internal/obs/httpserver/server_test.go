package httpserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"noisewave/internal/obs"
	"noisewave/internal/sweep"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

func TestPromNameSanitization(t *testing.T) {
	for in, want := range map[string]string{
		"spice.newton_iterations": "noisewave_spice_newton_iterations",
		"sweep.worker.0.cases":    "noisewave_sweep_worker_0_cases",
		"weird-name!":             "noisewave_weird_name_",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("spice.transients").Add(3)
	reg.Gauge("sweep.queue_depth").Set(2)
	reg.Timer("spice.transient_seconds").Observe(0.25)
	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	const want = "# TYPE noisewave_spice_transients counter\n" +
		"noisewave_spice_transients 3\n" +
		"# TYPE noisewave_sweep_queue_depth gauge\n" +
		"noisewave_sweep_queue_depth 2\n" +
		"# TYPE noisewave_spice_transient_seconds summary\n" +
		"noisewave_spice_transient_seconds_count 1\n" +
		"noisewave_spice_transient_seconds_sum 0.25\n" +
		"# TYPE noisewave_spice_transient_seconds_min gauge\n" +
		"noisewave_spice_transient_seconds_min 0.25\n" +
		"# TYPE noisewave_spice_transient_seconds_max gauge\n" +
		"noisewave_spice_transient_seconds_max 0.25\n"
	if got := b.String(); got != want {
		t.Errorf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// serverFixture runs a tiny traced sweep and returns a fully-wired server.
func serverFixture(t *testing.T) *Server {
	t.Helper()
	reg := telemetry.New()
	tr := trace.New()
	p := &obs.Progress{}
	p.SetPhase("mini", 4)
	_, _, _, err := sweep.RunPartial(context.Background(), 4,
		sweep.Options{Workers: 2, Telemetry: reg, Tracer: tr, Progress: p.Hook(nil)},
		func(int) (struct{}, error) { return struct{}{}, nil },
		func(_ context.Context, i int, _ struct{}) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	return &Server{Registry: reg, Tracer: tr, Progress: p}
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	body, _ := io.ReadAll(rr.Result().Body)
	return rr.Code, string(body)
}

func TestEndpoints(t *testing.T) {
	h := serverFixture(t).Handler()

	code, body := get(t, h, "/healthz")
	if code != 200 || body != "ok\n" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		"noisewave_sweep_cases_completed 4",
		"# TYPE noisewave_sweep_cases_dispatched counter",
		"noisewave_sweep_queue_depth 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, h, "/progress")
	if code != 200 {
		t.Fatalf("/progress = %d", code)
	}
	var p struct {
		Phase     string `json:"phase"`
		Done      int    `json:"done"`
		Total     int    `json:"total"`
		Completed int64  `json:"completed"`
	}
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatal(err)
	}
	if p.Phase != "mini" || p.Done != 4 || p.Total != 4 || p.Completed != 4 {
		t.Errorf("/progress = %+v", p)
	}

	code, body = get(t, h, "/trace/2")
	if code != 200 {
		t.Fatalf("/trace/2 = %d %s", code, body)
	}
	var spans []struct {
		Name string `json:"name"`
		Case int    `json:"case"`
	}
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || spans[0].Name != "sweep.case" || spans[0].Case != 2 {
		t.Errorf("/trace/2 spans = %+v", spans)
	}

	if code, _ := get(t, h, "/trace/99"); code != 404 {
		t.Errorf("/trace/99 = %d, want 404", code)
	}
	if code, _ := get(t, h, "/trace/abc"); code != 400 {
		t.Errorf("/trace/abc = %d, want 400", code)
	}
}

// TestEmptyServer: every field nil must still serve sane responses.
func TestEmptyServer(t *testing.T) {
	h := (&Server{}).Handler()
	if code, _ := get(t, h, "/healthz"); code != 200 {
		t.Error("empty /healthz not 200")
	}
	if code, body := get(t, h, "/metrics"); code != 200 || body != "" {
		t.Errorf("empty /metrics = %d %q", code, body)
	}
	if code, _ := get(t, h, "/progress"); code != 200 {
		t.Error("empty /progress not 200")
	}
	if code, _ := get(t, h, "/trace/0"); code != 404 {
		t.Error("empty /trace/0 not 404")
	}
}

func TestStartBindsSynchronously(t *testing.T) {
	s := serverFixture(t)
	srv, ln, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("live /healthz = %d", resp.StatusCode)
	}

	// A second bind on the same port must fail fast with an error.
	if _, _, err := s.Start(ln.Addr().String()); err == nil {
		t.Error("Start on a taken port must error")
	}
}
