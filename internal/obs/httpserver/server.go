// Package httpserver is the HTTP surface of the engine: Prometheus metrics
// exposition, liveness, live sweep progress and per-case trace retrieval
// over plain net/http, all read-only — scraping a hot sweep perturbs it by
// nothing beyond a snapshot. When a jobs.Manager is attached (cmd/serve),
// the same mux additionally carries the timing-as-a-service job API:
// submission, status, results and cancellation (see jobs.go).
package httpserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"noisewave/internal/jobs"
	"noisewave/internal/obs"
	"noisewave/internal/telemetry"
	"noisewave/internal/trace"
)

// Server exposes a run's observability surfaces over HTTP:
//
//	GET /metrics      Prometheus text exposition of the telemetry registry
//	GET /healthz      liveness ("ok")
//	GET /progress     live sweep progress + queue/pool/case counters (JSON)
//	GET /trace/{case} the hierarchical spans of one sweep case (JSON)
//
// All fields are optional: a nil Registry serves an empty metrics page, a
// nil Tracer 404s every trace request, a nil Progress reports the zero
// phase. A non-nil Jobs additionally mounts the timing-as-a-service job
// API (POST /jobs and friends — see jobs.go), turning the read-only status
// server into a long-running job service.
//
// Every request passes through the observability middleware: per-route RED
// metrics (http.requests.<route> / http.errors.<route> counters and an
// http.request_seconds.<route> histogram on the Registry), one structured
// access-log line on Log carrying the request's correlation ID, an
// X-Correlation-ID response header, and panic containment — a panicking
// handler produces a 500 JSON body plus a flight-recorder event instead of
// a dropped connection. GET /debug/flight dumps the Flight ring.
type Server struct {
	Registry *telemetry.Registry
	Tracer   *trace.Tracer
	Progress *obs.Progress
	Jobs     *jobs.Manager
	Log      *slog.Logger        // access + error log; nil = silent
	Flight   *obs.FlightRecorder // panic/incident ring; nil = disabled
}

// progressPayload is the /progress response body.
type progressPayload struct {
	obs.ProgressSnapshot
	QueueDepth  float64 `json:"queue_depth"`
	PoolSize    float64 `json:"pool_size"`
	Dispatched  int64   `json:"dispatched"`
	Completed   int64   `json:"completed"`
	Quarantined int64   `json:"quarantined"`
}

// Handler returns the route mux. It is exported separately from Start so
// tests (and embedders) can drive it through httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, s.Registry.Snapshot()); err != nil {
			// Headers are gone; all we can do is drop the connection.
			return
		}
	})
	mux.HandleFunc("GET /progress", func(w http.ResponseWriter, _ *http.Request) {
		snap := s.Registry.Snapshot()
		p := progressPayload{
			ProgressSnapshot: s.Progress.Snapshot(),
			QueueDepth:       snap.Gauges["sweep.queue_depth"],
			PoolSize:         snap.Gauges["sweep.pool_size"],
			Dispatched:       snap.Counters["sweep.cases_dispatched"],
			Completed:        snap.Counters["sweep.cases_completed"],
			Quarantined:      snap.Counters["sweep.cases_quarantined"],
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(p)
	})
	mux.HandleFunc("GET /trace/{case}", func(w http.ResponseWriter, r *http.Request) {
		idx, err := strconv.Atoi(r.PathValue("case"))
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("bad case index"))
			return
		}
		if s.Tracer == nil {
			writeError(w, http.StatusNotFound, errors.New("tracing disabled"))
			return
		}
		spans := s.Tracer.CaseSpans(idx)
		if len(spans) == 0 {
			writeError(w, http.StatusNotFound, errors.New("no spans for case"))
			return
		}
		body, err := trace.MarshalSpans(s.Tracer.Epoch(), spans)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	})
	mux.HandleFunc("GET /debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// Nil-safe: a disabled recorder dumps an empty ring.
		s.Flight.WriteJSON(w)
	})
	if s.Jobs != nil {
		s.mountJobs(mux, s.Jobs, maxSubmitBytes)
	}
	return s.middleware(mux)
}

// corrKey carries the per-request correlation holder; corrHolder lets a
// handler deep in the mux (the jobs API) surface the job ID back to the
// middleware that opened the request, so the access-log line and the
// X-Correlation-ID header carry it. The holder is written and read on the
// request goroutine only.
type corrKey struct{}

type corrHolder struct{ id string }

// setCorrelation records id as the request's correlation ID (no-op when the
// middleware did not run, e.g. bare handler tests).
func setCorrelation(r *http.Request, id string) {
	if h, ok := r.Context().Value(corrKey{}).(*corrHolder); ok {
		h.id = id
	}
}

// routeKey flattens a ServeMux pattern ("GET /jobs/{id}") into a metric
// name segment ("get_jobs_id"); requests that match no route fall into
// "unmatched" so the RED series stay low-cardinality no matter what paths
// are probed.
func routeKey(pattern string) string {
	if pattern == "" {
		return "unmatched"
	}
	var b strings.Builder
	prev := byte('_')
	for i := 0; i < len(pattern); i++ {
		c := pattern[i]
		switch {
		case c >= 'A' && c <= 'Z':
			c += 'a' - 'A'
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		default:
			c = '_'
		}
		if c == '_' && prev == '_' {
			continue
		}
		b.WriteByte(c)
		prev = c
	}
	return strings.TrimSuffix(b.String(), "_")
}

// statusWriter captures the response status and size for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// middleware wraps the mux with the RED + access-log + panic-containment
// layer described on Server.
func (s *Server) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, pattern := mux.Handler(r)
		route := routeKey(pattern)
		holder := &corrHolder{}
		r = r.WithContext(context.WithValue(r.Context(), corrKey{}, holder))
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()

		defer func() {
			elapsed := time.Since(start).Seconds()
			panicked := recover()
			if panicked != nil {
				err := fmt.Errorf("panic: %v", panicked)
				s.Flight.Record(slog.LevelError, "handler panic", holder.id, map[string]any{
					"route": pattern, "path": r.URL.Path, "panic": fmt.Sprint(panicked),
				})
				if sw.status == 0 {
					// Nothing written yet: turn the panic into a JSON 500.
					writeError(sw, http.StatusInternalServerError, err)
				}
			}
			s.Registry.Counter("http.requests." + route).Inc()
			if sw.status >= 500 {
				s.Registry.Counter("http.errors." + route).Inc()
			}
			s.Registry.Histogram("http.request_seconds." + route).Observe(elapsed)
			if s.Log != nil {
				attrs := []slog.Attr{
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("route", pattern),
					slog.Int("status", sw.status),
					slog.Int64("bytes", sw.bytes),
					slog.Float64("seconds", elapsed),
				}
				if holder.id != "" {
					attrs = append(attrs, slog.String("corr", holder.id))
				}
				level := slog.LevelInfo
				if panicked != nil || sw.status >= 500 {
					level = slog.LevelError
				}
				s.Log.LogAttrs(r.Context(), level, "http request", attrs...)
			}
		}()

		mux.ServeHTTP(sw, r)
	})
}

// correlate marks the request as belonging to job id: the access-log line
// picks it up from the holder and the response echoes it as
// X-Correlation-ID (so it must be called before the first body write).
func correlate(w http.ResponseWriter, r *http.Request, id string) {
	setCorrelation(r, id)
	w.Header().Set("X-Correlation-ID", id)
}

// Start binds addr synchronously — so a bad address fails fast, before any
// sweep work starts — and serves in a background goroutine. The returned
// listener carries the resolved address (useful with ":0"); closing the
// returned *http.Server stops it.
func (s *Server) Start(addr string) (*http.Server, net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("httpserver: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return srv, ln, nil
}
