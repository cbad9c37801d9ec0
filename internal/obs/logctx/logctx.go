// Package logctx is the request-scoped structured-logging layer: a thin,
// zero-dependency wrapper over log/slog that threads a correlation ID and a
// logger through context.Context, so every layer of the pipeline — HTTP
// handler, job manager, sweep worker, spice recovery ladder — emits events
// that can be joined back to the one request that caused them.
//
// The correlation ID is hierarchical by convention: a job ID for service
// requests ("j-ab12cd34..."), a trace ID for traced sweeps, and a bare case
// index for direct runs. Whatever the source, the same string appears as
// the "corr" attribute on every log line, in the access log, in the journal
// records' job ID, and as the job attribute on trace spans, which is what
// makes end-to-end forensics a grep instead of an archaeology dig.
//
// Like the telemetry registry, everything here is nil-safe and cheap when
// disabled: From on a bare context returns a Discard logger whose Enabled
// check short-circuits before any allocation, so hot paths thread ctx
// unconditionally.
package logctx

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
)

type ctxKey int

const (
	idKey ctxKey = iota
	loggerKey
)

// WithID returns a context carrying the correlation ID. The ID rides the
// context independently of the logger, so middleware can stamp it before
// the handler decides what (if anything) to log.
func WithID(ctx context.Context, id string) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, idKey, id)
}

// ID returns the correlation ID carried by ctx ("" if none).
func ID(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(idKey).(string)
	return id
}

// With returns a context carrying the logger; From retrieves it.
func With(ctx context.Context, l *slog.Logger) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, loggerKey, l)
}

// From returns the logger carried by ctx, bound with the context's
// correlation ID as the "corr" attribute. A context with no logger (or a
// nil ctx) yields the Discard logger, so call sites never nil-check:
//
//	logctx.From(ctx).Warn("case quarantined", "case", idx, "err", err)
func From(ctx context.Context) *slog.Logger {
	if ctx == nil {
		return Discard()
	}
	l, _ := ctx.Value(loggerKey).(*slog.Logger)
	if l == nil {
		return Discard()
	}
	if id := ID(ctx); id != "" {
		return l.With(slog.String("corr", id))
	}
	return l
}

var discard = slog.New(discardHandler{})

// Discard returns the shared no-op logger. Its handler reports every level
// as disabled, so slog skips record construction entirely.
func Discard() *slog.Logger { return discard }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// ParseLevel maps the -log flag values to slog levels. Accepts
// debug/info/warn/error (case-insensitive) plus "off" to disable logging
// entirely.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	case "off", "none":
		// Higher than any record the pipeline emits.
		return slog.LevelError + 4, nil
	}
	return 0, fmt.Errorf("logctx: unknown log level %q (want debug|info|warn|error|off)", s)
}

// New builds a leveled logger writing to w. format selects the handler:
// "json" for one JSON object per line (machine-joinable, the artifact and
// CI format) or "text" for the compact human handler (the terminal
// default).
func New(w io.Writer, format string, level slog.Leveler) (*slog.Logger, error) {
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "json":
		return slog.New(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level})), nil
	case "text", "human", "":
		return slog.New(NewHuman(w, level)), nil
	}
	return nil, fmt.Errorf("logctx: unknown log format %q (want text|json)", format)
}

// Tee returns a handler that fans every record out to all of hs — the
// mechanism behind "one event lands on stderr, in the per-run artifact
// buffer, and in the flight recorder". Enabled when any branch is enabled;
// each branch still applies its own level gate.
func Tee(hs ...slog.Handler) slog.Handler {
	return teeHandler{hs: hs}
}

type teeHandler struct{ hs []slog.Handler }

func (t teeHandler) Enabled(ctx context.Context, l slog.Level) bool {
	for _, h := range t.hs {
		if h.Enabled(ctx, l) {
			return true
		}
	}
	return false
}

func (t teeHandler) Handle(ctx context.Context, r slog.Record) error {
	var first error
	for _, h := range t.hs {
		if !h.Enabled(ctx, r.Level) {
			continue
		}
		if err := h.Handle(ctx, r.Clone()); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (t teeHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := make([]slog.Handler, len(t.hs))
	for i, h := range t.hs {
		out[i] = h.WithAttrs(attrs)
	}
	return teeHandler{hs: out}
}

func (t teeHandler) WithGroup(name string) slog.Handler {
	out := make([]slog.Handler, len(t.hs))
	for i, h := range t.hs {
		out[i] = h.WithGroup(name)
	}
	return teeHandler{hs: out}
}

// SyncBuffer is a mutex-guarded io.Writer + reader pair for capturing log
// output in memory (per-run artifact buffers, tests). slog handlers
// serialize their own writes, but the capture side reads concurrently with
// live emission, so the buffer locks both directions.
type SyncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *SyncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

// String returns the accumulated output.
func (s *SyncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// Human is the compact terminal handler:
//
//	15:04:05.000 WARN  sweep: case quarantined corr=j-ab12 case=7 err=...
//
// Attr values render with %v; groups flatten to dotted prefixes. Attr order
// is bound-attrs-first then record order, matching slog convention, and a
// single Write per record keeps concurrent loggers line-atomic.
type Human struct {
	level slog.Leveler
	mu    *sync.Mutex
	w     io.Writer
	attrs string // preformatted " k=v k=v" from WithAttrs
	group string // dotted prefix from WithGroup
}

// NewHuman returns a Human handler writing records at or above level to w.
func NewHuman(w io.Writer, level slog.Leveler) *Human {
	if level == nil {
		level = slog.LevelInfo
	}
	return &Human{level: level, mu: &sync.Mutex{}, w: w}
}

func (h *Human) Enabled(_ context.Context, l slog.Level) bool {
	return l >= h.level.Level()
}

func (h *Human) Handle(_ context.Context, r slog.Record) error {
	var b strings.Builder
	if !r.Time.IsZero() {
		b.WriteString(r.Time.Format("15:04:05.000"))
		b.WriteByte(' ')
	}
	fmt.Fprintf(&b, "%-5s %s", r.Level.String(), r.Message)
	b.WriteString(h.attrs)
	r.Attrs(func(a slog.Attr) bool {
		h.appendAttr(&b, a, h.group)
		return true
	})
	b.WriteByte('\n')
	h.mu.Lock()
	defer h.mu.Unlock()
	_, err := io.WriteString(h.w, b.String())
	return err
}

func (h *Human) appendAttr(b *strings.Builder, a slog.Attr, prefix string) {
	a.Value = a.Value.Resolve()
	if a.Value.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p = prefix + a.Key + "."
		}
		for _, ga := range a.Value.Group() {
			h.appendAttr(b, ga, p)
		}
		return
	}
	if a.Equal(slog.Attr{}) {
		return
	}
	fmt.Fprintf(b, " %s%s=%v", prefix, a.Key, a.Value.Any())
}

func (h *Human) WithAttrs(attrs []slog.Attr) slog.Handler {
	var b strings.Builder
	b.WriteString(h.attrs)
	for _, a := range attrs {
		h.appendAttr(&b, a, h.group)
	}
	c := *h
	c.attrs = b.String()
	return &c
}

func (h *Human) WithGroup(name string) slog.Handler {
	c := *h
	if name != "" {
		c.group = h.group + name + "."
	}
	return &c
}
