package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Strict parser for the Prometheus text exposition format, used by the
// exposition tests and by TestObservability (internal/differential) to
// prove that what the servers scrape is well-formed and consistent with
// the JSON snapshot.
// It is deliberately pickier than a real scraper: samples must follow a
// `# TYPE` line for their family, names must match the exposition
// grammar, and histogram families must satisfy the cumulative-bucket
// invariants (non-decreasing buckets, a final `+Inf` bucket equal to
// `_count`).

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// PromFamily is one parsed metric family: its declared type and its
// samples in input order. For histograms the samples span the
// `_bucket`/`_sum`/`_count` suffixed series.
type PromFamily struct {
	Name    string
	Type    string // "counter", "gauge", "histogram"
	Samples []PromSample
}

// PromScrape is a fully parsed and validated exposition payload.
type PromScrape struct {
	Families map[string]*PromFamily
	Order    []string // family names in input order
}

// Value returns the value of the sample with the given name and no
// distinguishing labels beyond the scrape's const labels, or false when
// absent. Histograms are addressed by their suffixed series names.
func (s *PromScrape) Value(name string) (float64, bool) {
	for _, f := range s.Families {
		for _, smp := range f.Samples {
			if smp.Name == name {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

func validPromName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r == '_' || r == ':':
		case r >= 'a' && r <= 'z':
		case r >= 'A' && r <= 'Z':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseLabels parses `k="v",...}` starting just past the opening brace,
// returning the labels and the rest of the line after the brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := map[string]string{}
	for {
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		key := strings.TrimSpace(s[:eq])
		if !validPromName(key) {
			return nil, "", fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: unquoted value", key)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", key)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("label %s: dangling escape", key)
				}
				e := s[0]
				s = s[1:]
				switch e {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", key, e)
				}
				continue
			}
			val.WriteByte(c)
		}
		if _, dup := labels[key]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", key)
		}
		labels[key] = val.String()
		s = strings.TrimLeft(s, " ")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
			continue
		}
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		return nil, "", fmt.Errorf("label %s: expected ',' or '}'", key)
	}
}

// baseFamily strips a histogram series suffix to its family name.
func baseFamily(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf)
		}
	}
	return name
}

// ParsePrometheus parses and validates a text exposition payload.
// Violations of the format — samples before their `# TYPE` line,
// invalid metric or label names, malformed values, histogram families
// missing `_sum`/`_count` or with non-cumulative buckets or a `+Inf`
// bucket that disagrees with `_count` — are returned as errors.
func ParsePrometheus(r io.Reader) (*PromScrape, error) {
	scrape := &PromScrape{Families: map[string]*PromFamily{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
				}
				name, typ := fields[2], fields[3]
				if !validPromName(name) {
					return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
				}
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q", lineNo, typ)
				}
				if _, dup := scrape.Families[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				scrape.Families[name] = &PromFamily{Name: name, Type: typ}
				scrape.Order = append(scrape.Order, name)
			}
			continue // other comments (incl. HELP) are ignored
		}
		// Sample line: name[{labels}] value [timestamp]
		rest := line
		end := strings.IndexAny(rest, "{ ")
		if end < 0 {
			return nil, fmt.Errorf("line %d: no value in %q", lineNo, line)
		}
		name := rest[:end]
		if !validPromName(name) {
			return nil, fmt.Errorf("line %d: invalid metric name %q", lineNo, name)
		}
		labels := map[string]string{}
		rest = rest[end:]
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest[1:])
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return nil, fmt.Errorf("line %d: want 'value [timestamp]', got %q", lineNo, rest)
		}
		val, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q: %v", lineNo, fields[0], err)
		}
		fam := scrape.Families[baseFamily(name)]
		if fam != nil && fam.Type == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				if _, ok := labels["le"]; !ok {
					return nil, fmt.Errorf("line %d: %s without le label", lineNo, name)
				}
			case strings.HasSuffix(name, "_sum"), strings.HasSuffix(name, "_count"):
			default:
				return nil, fmt.Errorf("line %d: %s is not a histogram series", lineNo, name)
			}
		} else {
			fam = scrape.Families[name]
			if fam == nil {
				return nil, fmt.Errorf("line %d: sample %q before its TYPE line", lineNo, name)
			}
		}
		fam.Samples = append(fam.Samples, PromSample{Name: name, Labels: labels, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, name := range scrape.Order {
		if err := validateFamily(scrape.Families[name]); err != nil {
			return nil, fmt.Errorf("family %s: %v", name, err)
		}
	}
	return scrape, nil
}

// validateFamily checks the histogram cumulative-bucket invariants.
func validateFamily(f *PromFamily) error {
	if f.Type != "histogram" {
		return nil
	}
	var buckets []PromSample
	var sum, count *PromSample
	for i := range f.Samples {
		s := &f.Samples[i]
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			buckets = append(buckets, *s)
		case strings.HasSuffix(s.Name, "_sum"):
			sum = s
		case strings.HasSuffix(s.Name, "_count"):
			count = s
		}
	}
	if sum == nil || count == nil {
		return fmt.Errorf("missing _sum or _count")
	}
	if len(buckets) == 0 {
		return fmt.Errorf("no buckets")
	}
	prevLe := ""
	prev := -1.0
	for i, b := range buckets {
		le := b.Labels["le"]
		if i > 0 && prevLe == "+Inf" {
			return fmt.Errorf("bucket after +Inf")
		}
		if b.Value < prev {
			return fmt.Errorf("non-cumulative buckets: le=%s value %v < %v", le, b.Value, prev)
		}
		prev = b.Value
		prevLe = le
	}
	if prevLe != "+Inf" {
		return fmt.Errorf("last bucket le=%s, want +Inf", prevLe)
	}
	if prev != count.Value {
		return fmt.Errorf("+Inf bucket %v != _count %v", prev, count.Value)
	}
	return nil
}
