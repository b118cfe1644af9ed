package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"dynaspam/internal/probe"
)

// This file renders and lints the Prometheus text exposition format,
// version 0.0.4: `# HELP`/`# TYPE` comment headers followed by sample
// lines `name{label="value",...} value`. Histograms expand into
// cumulative `_bucket{le="..."}` series ending at le="+Inf", plus `_sum`
// and `_count`.

// simPrefix namespaces aggregated probe.Registry metrics so scraped
// series can't collide with the plane's own job/runtime families.
const simPrefix = "dynaspam_sim_"

// label is one exposition label pair; values are escaped at render time.
type label struct{ k, v string }

// expoWriter accumulates exposition text, remembering the first write
// error so callers can format unconditionally and check once.
type expoWriter struct {
	w   io.Writer
	err error
}

func (e *expoWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// header emits the # HELP and # TYPE lines that open a metric family.
func (e *expoWriter) header(name, help, typ string) {
	e.printf("# HELP %s %s\n", name, escapeHelp(help))
	e.printf("# TYPE %s %s\n", name, typ)
}

// sample emits one sample line.
func (e *expoWriter) sample(name string, labels []label, v float64) {
	if len(labels) == 0 {
		e.printf("%s %s\n", name, formatValue(v))
		return
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.k + `="` + escapeLabelValue(l.v) + `"`
	}
	e.printf("%s{%s} %s\n", name, strings.Join(parts, ","), formatValue(v))
}

// escapeLabelValue applies the exposition-format label escapes:
// backslash, double quote, and newline.
func escapeLabelValue(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP docstring (backslash and newline only; quotes
// are legal there).
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// formatValue renders a sample value. Prometheus accepts Go's 'g'
// rendering, including +Inf/-Inf/NaN spellings.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeExport renders an aggregated probe export under simPrefix. Metric
// names arriving here already passed probe's charset validation at
// registration, so prefixed names are valid by construction. Counters get
// the conventional _total suffix; histograms expand to cumulative buckets.
// The cycle-accounting counters are left to writeCPIStack.
func writeExport(e *expoWriter, ex probe.Export) {
	names := make([]string, 0, len(ex.Counters))
	for name := range ex.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, cpiCounterPrefix) {
			continue
		}
		full := simPrefix + name + "_total"
		e.header(full, "Aggregated simulation counter "+name+" summed across finished sweep cells.", "counter")
		e.sample(full, nil, ex.Counters[name])
	}

	names = names[:0]
	for name := range ex.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := simPrefix + name
		e.header(full, "Aggregated simulation gauge "+name+" (last finished cell wins).", "gauge")
		e.sample(full, nil, ex.Gauges[name])
	}

	names = names[:0]
	for name := range ex.Hists {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		full := simPrefix + name
		e.header(full, "Aggregated simulation histogram "+name+" merged across finished sweep cells.", "histogram")
		writeHistSeries(e, full, ex.Hists[name])
	}
}

// writeHistSeries expands one histogram into its cumulative _bucket series
// (closed by le="+Inf"), _sum, and _count. Overflow samples are counted
// only by Count, so +Inf comes from there, not from the explicit buckets.
func writeHistSeries(e *expoWriter, full string, h probe.Histogram) {
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.BucketCounts[i]
		e.sample(full+"_bucket", []label{{"le", formatValue(b)}}, float64(cum))
	}
	e.sample(full+"_bucket", []label{{"le", "+Inf"}}, float64(h.Count))
	e.sample(full+"_sum", nil, h.Sum)
	e.sample(full+"_count", nil, float64(h.Count))
}

// cpiCounterPrefix is the probe-registry spelling of the cycle-accounting
// buckets (internal/cpistack cause names appended); writeCPIStack renders
// them as one labeled family so dashboards can stack the causes of one
// series instead of juggling eighteen.
const cpiCounterPrefix = "cpi_cycles_"

// writeCPIStack renders the cycle-accounting stack as one cause-labeled
// family, dynaspam_cpistack_cycles_total{cause=...}. It is the only place
// the stack appears on a scrape page (writeExport skips the cpi_cycles_
// counters), and the causes sum exactly to the merged runs' total cycles.
func writeCPIStack(e *expoWriter, ex probe.Export) {
	causes := make([]string, 0, 8)
	//lint:allow mapiter collect-then-sort: sort.Strings below makes causes order-independent
	for name := range ex.Counters {
		if strings.HasPrefix(name, cpiCounterPrefix) {
			causes = append(causes, strings.TrimPrefix(name, cpiCounterPrefix))
		}
	}
	if len(causes) == 0 {
		return
	}
	sort.Strings(causes)
	const full = "dynaspam_cpistack_cycles_total"
	e.header(full, "Cycles attributed to each cycle-accounting cause, summed across finished sweep cells; causes sum exactly to total cycles.", "counter")
	for _, c := range causes {
		e.sample(full, []label{{"cause", c}}, ex.Counters[cpiCounterPrefix+c])
	}
}

// Label is one exported label pair for ExtraSample; values are escaped at
// render time.
type Label struct {
	Key   string
	Value string
}

// ExtraSample is one sample line of an ExtraFamily.
type ExtraSample struct {
	Labels []Label
	Value  float64
}

// ExtraFamily is a metric family contributed to /metrics by a subsystem
// outside the telemetry package (the jobs plane's queue depths and cache
// counters). Type must be one of the exposition 0.0.4 types ("counter",
// "gauge", ...); Name must satisfy the metric charset, which LintExposition
// (and CI's lint-metrics step) will verify on the rendered page. A family
// of Type "histogram" supplies Hist instead of Samples and expands into
// the cumulative _bucket/_sum/_count series at render time (the jobs
// plane's queue-wait and turnaround latency distributions). Hist must be
// an immutable snapshot — callbacks run on the scrape goroutine, so hand
// over a deep copy made under the contributor's own lock, never the live
// histogram.
type ExtraFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ExtraSample
	Hist    probe.Histogram
}

// writeExtras renders caller-contributed families in the order given.
func writeExtras(e *expoWriter, fams []ExtraFamily) {
	for _, f := range fams {
		e.header(f.Name, f.Help, f.Type)
		if f.Type == "histogram" {
			writeHistSeries(e, f.Name, f.Hist)
			continue
		}
		for _, s := range f.Samples {
			ls := make([]label, len(s.Labels))
			for i, l := range s.Labels {
				ls[i] = label{l.Key, l.Value}
			}
			e.sample(f.Name, ls, s.Value)
		}
	}
}

// expoTypes are the metric types the 0.0.4 format defines.
var expoTypes = map[string]bool{
	"counter": true, "gauge": true, "histogram": true,
	"summary": true, "untyped": true,
}

// LintExposition validates Prometheus text exposition read from r: every
// sample must belong to a family declared by a preceding # TYPE, family
// lines must be contiguous, names must fit the metric charset, label
// values must be properly quoted and escaped, values must parse, and
// every histogram must close with an le="+Inf" bucket. It returns the
// first violation found, or nil for a clean page.
//
// This is the check behind `dynaspam lint-metrics` and the httptest
// suite; it deliberately re-implements parsing rather than reusing the
// writer above, so a writer bug cannot lint itself clean.
func LintExposition(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	st := lintState{
		typeOf:  make(map[string]string),
		closed:  make(map[string]bool),
		infSeen: make(map[string]bool),
	}
	n := 0
	for sc.Scan() {
		n++
		if err := st.line(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return st.finish()
}

// lintState carries the cross-line checks of LintExposition.
type lintState struct {
	typeOf  map[string]string // family -> declared type
	closed  map[string]bool   // families a later family already ended
	infSeen map[string]bool   // histogram families with an le="+Inf" bucket
	current string            // family the last sample line belonged to
}

func (st *lintState) line(line string) error {
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		return st.comment(line)
	}
	return st.sample(line)
}

// comment validates a # HELP or # TYPE line; other comments pass freely.
func (st *lintState) comment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil
	}
	switch fields[1] {
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], strings.TrimSpace(fields[3])
		if !probe.ValidMetricName(name) {
			return fmt.Errorf("TYPE declares invalid metric name %q", name)
		}
		if !expoTypes[typ] {
			return fmt.Errorf("TYPE %s declares unknown type %q", name, typ)
		}
		if _, dup := st.typeOf[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		st.typeOf[name] = typ
	case "HELP":
		if len(fields) < 3 {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		if !probe.ValidMetricName(fields[2]) {
			return fmt.Errorf("HELP declares invalid metric name %q", fields[2])
		}
	}
	return nil
}

// sample validates one sample line and the family-contiguity invariant.
func (st *lintState) sample(line string) error {
	name, labels, rest, err := splitSample(line)
	if err != nil {
		return err
	}
	if !probe.ValidMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	value := strings.TrimSpace(rest)
	if i := strings.IndexByte(value, ' '); i >= 0 {
		// Optional timestamp after the value.
		ts := strings.TrimSpace(value[i+1:])
		if _, err := strconv.ParseInt(ts, 10, 64); err != nil {
			return fmt.Errorf("metric %s: bad timestamp %q", name, ts)
		}
		value = value[:i]
	}
	if _, err := strconv.ParseFloat(value, 64); err != nil {
		return fmt.Errorf("metric %s: bad value %q", name, value)
	}

	family, err := st.familyOf(name, labels)
	if err != nil {
		return err
	}
	if family != st.current {
		if st.current != "" {
			st.closed[st.current] = true
		}
		if st.closed[family] {
			return fmt.Errorf("family %s reappears after other families; exposition families must be contiguous", family)
		}
		st.current = family
	}
	return nil
}

// familyOf resolves a sample name to its declared family, checking the
// histogram sub-series rules on the way.
func (st *lintState) familyOf(name string, labels map[string]string) (string, error) {
	if typ, ok := st.typeOf[name]; ok {
		if typ == "histogram" {
			return "", fmt.Errorf("histogram %s exposes a bare sample; expected %s_bucket/_sum/_count", name, name)
		}
		return name, nil
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base == name {
			continue
		}
		typ, ok := st.typeOf[base]
		if !ok || (typ != "histogram" && typ != "summary") {
			continue
		}
		if suffix == "_bucket" {
			le, ok := labels["le"]
			if !ok {
				return "", fmt.Errorf("histogram bucket %s lacks an le label", name)
			}
			if _, err := strconv.ParseFloat(le, 64); err != nil {
				return "", fmt.Errorf("histogram bucket %s has unparseable le=%q", name, le)
			}
			if le == "+Inf" {
				st.infSeen[base] = true
			}
		}
		return base, nil
	}
	return "", fmt.Errorf("sample %s has no preceding # TYPE declaration", name)
}

// finish runs the end-of-page checks.
func (st *lintState) finish() error {
	names := make([]string, 0, len(st.typeOf))
	for name, typ := range st.typeOf {
		if typ == "histogram" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if !st.infSeen[name] {
			return fmt.Errorf("histogram %s never exposes an le=\"+Inf\" bucket", name)
		}
	}
	return nil
}

// splitSample parses `name{labels} value` into its parts. labels is nil
// when the sample has no label braces.
func splitSample(line string) (name string, labels map[string]string, rest string, err error) {
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		name = line[:brace]
		labels = make(map[string]string)
		rest, err = parseLabels(line[brace+1:], labels)
		return name, labels, rest, err
	}
	if space < 0 {
		return "", nil, "", fmt.Errorf("sample line %q has no value", line)
	}
	return line[:space], nil, line[space+1:], nil
}

// parseLabels consumes `k="v",...}` and returns what follows the brace.
func parseLabels(s string, out map[string]string) (string, error) {
	for {
		s = strings.TrimLeft(s, " ,")
		if strings.HasPrefix(s, "}") {
			return s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return "", fmt.Errorf("label pair missing '=' near %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		if !probe.ValidMetricName(key) {
			return "", fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return "", fmt.Errorf("label %s value is not quoted", key)
		}
		val, tail, err := parseQuoted(s[1:])
		if err != nil {
			return "", fmt.Errorf("label %s: %w", key, err)
		}
		out[key] = val
		s = tail
	}
}

// parseQuoted consumes an escaped label value up to its closing quote and
// returns the decoded value plus the remaining input.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		case '\n':
			return "", "", fmt.Errorf("unterminated label value")
		default:
			b.WriteByte(c)
		}
	}
	return "", "", fmt.Errorf("unterminated label value")
}
