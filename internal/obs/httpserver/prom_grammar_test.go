package httpserver

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"noisewave/internal/telemetry"
)

// promParser is a minimal validating parser for the Prometheus text
// exposition format 0.0.4 — enough grammar to catch the failure modes a
// hand-rolled exporter actually produces: samples before their TYPE line,
// duplicate TYPE lines, malformed metric names, broken label escaping,
// and unparseable values.
type promParser struct {
	t     *testing.T
	types map[string]string // family -> declared type
	seen  map[string]bool   // family -> any sample seen
}

func parseProm(t *testing.T, page string) *promParser {
	t.Helper()
	p := &promParser{t: t, types: map[string]string{}, seen: map[string]bool{}}
	for ln, line := range strings.Split(page, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			p.comment(ln+1, line)
			continue
		}
		p.sample(ln+1, line)
	}
	return p
}

func (p *promParser) comment(ln int, line string) {
	fields := strings.Fields(line)
	if len(fields) < 2 || (fields[1] != "TYPE" && fields[1] != "HELP") {
		p.t.Errorf("line %d: comment is neither TYPE nor HELP: %q", ln, line)
		return
	}
	if fields[1] != "TYPE" {
		return
	}
	if len(fields) != 4 {
		p.t.Errorf("line %d: TYPE wants '# TYPE name kind': %q", ln, line)
		return
	}
	name, kind := fields[2], fields[3]
	if !validMetricName(name) {
		p.t.Errorf("line %d: invalid metric name %q", ln, name)
	}
	switch kind {
	case "counter", "gauge", "summary", "histogram", "untyped":
	default:
		p.t.Errorf("line %d: unknown metric type %q", ln, kind)
	}
	if _, dup := p.types[name]; dup {
		p.t.Errorf("line %d: duplicate TYPE for %q", ln, name)
	}
	if p.seen[name] {
		p.t.Errorf("line %d: TYPE for %q after its samples", ln, name)
	}
	p.types[name] = kind
}

func (p *promParser) sample(ln int, line string) {
	name := line
	rest := ""
	if i := strings.IndexAny(line, "{ "); i >= 0 {
		name, rest = line[:i], line[i:]
	}
	if !validMetricName(name) {
		p.t.Errorf("line %d: invalid metric name %q", ln, name)
		return
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			p.t.Errorf("line %d: unterminated label set: %q", ln, line)
			return
		}
		p.labels(ln, rest[1:end])
		rest = rest[end+1:]
	}
	val := strings.TrimSpace(rest)
	// An optional timestamp may follow the value; this exporter never
	// emits one, so a second field is an error here.
	if strings.ContainsAny(val, " \t") {
		p.t.Errorf("line %d: unexpected trailing fields: %q", ln, line)
		return
	}
	if _, err := strconv.ParseFloat(val, 64); err != nil {
		p.t.Errorf("line %d: value %q does not parse: %v", ln, val, err)
	}

	// Tie the sample back to its family's TYPE declaration.
	family := p.family(name)
	if _, ok := p.types[family]; !ok {
		p.t.Errorf("line %d: sample %q before any TYPE for family %q", ln, name, family)
	}
	p.seen[family] = true
}

// family maps a sample name to the family its TYPE line declares: summary
// and histogram samples use the _sum/_count/_bucket suffixes of their base
// family, everything else is its own family.
func (p *promParser) family(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		if kind, ok := p.types[base]; ok && (kind == "summary" || kind == "histogram") {
			return base
		}
	}
	return name
}

func (p *promParser) labels(ln int, s string) {
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			p.t.Errorf("line %d: label without '=': %q", ln, s)
			return
		}
		lname := s[:eq]
		if !validLabelName(lname) {
			p.t.Errorf("line %d: invalid label name %q", ln, lname)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			p.t.Errorf("line %d: label value for %q is not quoted", ln, lname)
			return
		}
		s = s[1:]
		// Scan the escaped value: only \\, \", \n escapes are legal.
		closed := false
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' {
				if i+1 >= len(s) || !strings.ContainsRune(`\"n`, rune(s[i+1])) {
					p.t.Errorf("line %d: bad escape in label %q", ln, lname)
					return
				}
				i++
				continue
			}
			if s[i] == '"' {
				s = s[i+1:]
				closed = true
				break
			}
		}
		if !closed {
			p.t.Errorf("line %d: unterminated label value for %q", ln, lname)
			return
		}
		s = strings.TrimPrefix(s, ",")
	}
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// TestPrometheusGrammar renders a registry exercising every metric kind —
// counters, gauges, plain timers, timers with retained samples (summary
// quantiles), and histograms, under hostile source names — and validates
// the page against the text-format grammar.
func TestPrometheusGrammar(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("sweep.cases_completed").Add(42)
	reg.Counter("weird-name.with:éxotic chars").Inc()
	reg.Gauge("sweep.queue_depth").Set(3.5)
	reg.Timer("fit.effective_admittance").Observe(0.25)

	q := reg.Timer("jobs.submit_seconds")
	q.KeepSamples(16)
	for i := 1; i <= 10; i++ {
		q.Observe(float64(i) * 0.01)
	}

	h := reg.HistogramWith("jobs.run_seconds", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(99)
	reg.Histogram("http.request_seconds.get_metrics").Observe(0.002)

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	p := parseProm(t, page)

	// Every declared family produced at least one sample.
	for fam := range p.types {
		if !p.seen[fam] {
			t.Errorf("family %q declared but has no samples", fam)
		}
	}
	// The summary carries its quantile lines, the histogram its buckets.
	for _, want := range []string{
		`noisewave_jobs_submit_seconds{quantile="0.5"}`,
		`noisewave_jobs_submit_seconds{quantile="0.95"}`,
		`noisewave_jobs_submit_seconds{quantile="0.99"}`,
		`noisewave_jobs_run_seconds_bucket{le="0.1"} 1`,
		`noisewave_jobs_run_seconds_bucket{le="1"} 2`,
		`noisewave_jobs_run_seconds_bucket{le="10"} 2`,
		`noisewave_jobs_run_seconds_bucket{le="+Inf"} 3`,
		`noisewave_jobs_run_seconds_count 3`,
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q", want)
		}
	}

	// Histogram buckets must be cumulative (non-decreasing toward +Inf).
	var prev int64 = -1
	for _, line := range strings.Split(page, "\n") {
		if !strings.HasPrefix(line, "noisewave_jobs_run_seconds_bucket") {
			continue
		}
		var n int64
		if _, err := fmt.Sscanf(line[strings.LastIndex(line, " ")+1:], "%d", &n); err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if n < prev {
			t.Errorf("bucket counts not cumulative at %q", line)
		}
		prev = n
	}
}

// TestPrometheusOneFamilyPerName registers one name through both Timer and
// Histogram. The registry keeps one instrument per name (the first
// registration, here the bucketless timer), so the page declares a single
// family that holds both observations.
func TestPrometheusOneFamilyPerName(t *testing.T) {
	reg := telemetry.New()
	reg.Timer("x.seconds").Observe(0.25)
	reg.Histogram("x.seconds").Observe(0.5)

	var b strings.Builder
	if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	parseProm(t, page)
	if n := strings.Count(page, "# TYPE noisewave_x_seconds "); n != 1 {
		t.Errorf("page declares %d noisewave_x_seconds families, want 1:\n%s", n, page)
	}
	for _, want := range []string{"noisewave_x_seconds_count 2\n", "noisewave_x_seconds_sum 0.75\n"} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
}
