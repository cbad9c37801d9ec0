package httpserver

import (
	"encoding/json"
	"errors"
	"net/http"

	"noisewave/internal/jobs"
)

// Job API. When Server.Jobs is set, Handler additionally mounts the
// timing-as-a-service surface:
//
//	POST   /jobs              submit a batch config; 202 + job status
//	GET    /jobs              list every known job (most recent first)
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/result  the result (202 while running, 200 when done)
//	DELETE /jobs/{id}         cancel a queued or running job
//
// Submission errors map onto transport codes: an invalid config is 400, a
// body over maxSubmitBytes is 413, a full backlog or an exhausted tenant
// quota is 429 (with Retry-After), a closed or draining manager is 503
// (with Retry-After). The submit body is:
//
//	{"tenant": "team-a", "priority": 5, "config": {"experiment": "table1", ...}}
//
// tenant and priority are optional (default: "default", 0).

// maxSubmitBytes caps a POST /jobs body. The largest legitimate submission
// inlines a netlist and a Liberty library; a 10⁵-gate netlist is ~5 MB, so
// 64 MiB leaves an order of magnitude of headroom while bounding what one
// request can make the daemon buffer.
const maxSubmitBytes = 64 << 20

// submitRequest is the POST /jobs body.
type submitRequest struct {
	Tenant   string      `json:"tenant"`
	Priority int         `json:"priority"`
	Config   jobs.Config `json:"config"`
}

// errorBody is every non-2xx JSON response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// mountJobs registers the job routes on mux against manager m, refusing
// submission bodies over maxBody bytes (Handler passes maxSubmitBytes).
func (s *Server) mountJobs(mux *http.ServeMux, m *jobs.Manager, maxBody int64) {
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		var req submitRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, err)
			return
		}
		if req.Tenant == "" {
			req.Tenant = "default"
		}
		j, err := m.Submit(req.Config, req.Tenant, req.Priority)
		switch {
		case err == nil:
			correlate(w, r, j.ID)
			writeJSON(w, http.StatusAccepted, j.Status())
		case errors.Is(err, jobs.ErrInvalidConfig):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, jobs.ErrQuota), errors.Is(err, jobs.ErrBacklogFull):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, jobs.ErrClosed), errors.Is(err, jobs.ErrDraining):
			// Shutting down (or drained): tell the client to retry once
			// the daemon is back — the durable queue survives the restart.
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
	})

	mux.HandleFunc("GET /jobs", func(w http.ResponseWriter, _ *http.Request) {
		all := m.Jobs()
		out := make([]jobs.Status, 0, len(all))
		for _, j := range all {
			out = append(out, j.Status())
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown job"))
			return
		}
		correlate(w, r, j.ID)
		writeJSON(w, http.StatusOK, j.Status())
	})

	mux.HandleFunc("GET /jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown job"))
			return
		}
		correlate(w, r, j.ID)
		switch j.State() {
		case jobs.StateDone:
			writeJSON(w, http.StatusOK, j.Result())
		case jobs.StateFailed:
			writeError(w, http.StatusInternalServerError, j.Err())
		case jobs.StateCanceled:
			writeError(w, http.StatusGone, errors.New("job canceled"))
		case jobs.StateInterrupted:
			// Terminal without a result: the daemon died mid-run and the
			// recovery policy declined to re-run. Resubmit to retry.
			writeError(w, http.StatusGone, j.Err())
		default:
			// Not finished: report the status so pollers can track progress
			// from the same URL they will fetch the result from.
			writeJSON(w, http.StatusAccepted, j.Status())
		}
	})

	mux.HandleFunc("DELETE /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		j, ok := m.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, errors.New("unknown job"))
			return
		}
		correlate(w, r, j.ID)
		if !m.Cancel(id) {
			writeError(w, http.StatusConflict, errors.New("job already terminal"))
			return
		}
		writeJSON(w, http.StatusOK, j.Status())
	})
}
