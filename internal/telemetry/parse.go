package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is a deliberately tiny reader for the text format Expose
// emits. It exists for two consumers: the exposition golden tests (round
// trip what we wrote) and, later, a scatter-gather front door that needs
// to merge shard scrapes without pulling in a Prometheus client
// dependency. It handles exactly the subset this package produces:
// one HELP and one TYPE line per family, samples with optional labels,
// no timestamps, no exemplars.

// Sample is one parsed exposition line.
type Sample struct {
	Name   string            // full sample name, e.g. vgx_sched_run_seconds_bucket
	Labels map[string]string // nil when unlabelled
	Value  float64
}

// Family is one parsed metric family.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Parse reads Prometheus text format as produced by Expose. Families
// are returned in input order; unknown directives, malformed lines,
// invalid metric or label names, a family without a TYPE line and a
// sample before its family's TYPE line are errors (this is a strict
// parser for our own output, not a general scrape parser). A sample
// joins the family whose HELP or TYPE line came last when its name is
// that family's name or the name plus _bucket, _sum or _count;
// otherwise it joins the family its name denotes once those suffixes
// are stripped. Whatever Parse accepts, RenderFamilies renders as text
// that parses back to the same families (FuzzExpositionParse).
func Parse(r io.Reader) ([]*Family, error) {
	var (
		out  []*Family
		byNm = map[string]*Family{}
		cur  *Family
	)
	family := func(name string) *Family {
		if f, ok := byNm[name]; ok {
			return f
		}
		f := &Family{Name: name}
		byNm[name] = f
		out = append(out, f)
		return f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := line[len("# HELP "):]
			name, help, _ := strings.Cut(rest, " ")
			if !validName(name, true) {
				return nil, fmt.Errorf("telemetry: line %d: HELP for invalid metric name %q", ln, name)
			}
			cur = family(name)
			cur.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := line[len("# TYPE "):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				return nil, fmt.Errorf("telemetry: line %d: TYPE without a type", ln)
			}
			if !validName(name, true) {
				return nil, fmt.Errorf("telemetry: line %d: TYPE for invalid metric name %q", ln, name)
			}
			cur = family(name)
			cur.Type = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("telemetry: line %d: unknown directive %q", ln, line)
		}
		s, base, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("telemetry: line %d: %w", ln, err)
		}
		// _bucket/_sum/_count samples belong to the histogram family.
		f := cur
		if f == nil || !belongs(s.Name, f.Name) {
			f = family(base)
		}
		if f.Type == "" {
			return nil, fmt.Errorf("telemetry: line %d: sample %s before the TYPE line of %s", ln, s.Name, f.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, f := range out {
		if f.Type == "" {
			return nil, fmt.Errorf("telemetry: family %s has no TYPE line", f.Name)
		}
	}
	return out, nil
}

// belongs reports whether a sample named name is one of family's own
// samples: the family name itself or a histogram's _bucket, _sum or
// _count series.
func belongs(name, family string) bool {
	suffix, ok := strings.CutPrefix(name, family)
	return ok && (suffix == "" || suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}

// parseSample splits `name{k="v",...} value` and returns the sample plus
// the family base name (histogram suffixes stripped).
func parseSample(line string) (Sample, string, error) {
	var s Sample
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return s, "", fmt.Errorf("malformed sample %q", line)
	}
	s.Name = line[:nameEnd]
	if !validName(s.Name, true) {
		return s, "", fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[nameEnd:]
	if rest[0] == '{' {
		close := strings.LastIndexByte(rest, '}')
		if close < 0 {
			return s, "", fmt.Errorf("unterminated labels in %q", line)
		}
		labels, err := parseLabels(rest[1:close])
		if err != nil {
			return s, "", err
		}
		s.Labels = labels
		rest = rest[close+1:]
	}
	valStr := strings.TrimSpace(rest)
	v, err := parseValue(valStr)
	if err != nil {
		return s, "", fmt.Errorf("bad value %q: %w", valStr, err)
	}
	s.Value = v
	base := s.Name
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base = strings.TrimSuffix(base, suf)
	}
	return s, base, nil
}

// parseLabels parses the body of a `{...}` label block; an empty body
// yields nil labels, as for an unlabelled sample.
func parseLabels(body string) (map[string]string, error) {
	var labels map[string]string
	for body != "" {
		eq := strings.IndexByte(body, '=')
		if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label segment %q", body)
		}
		key := body[:eq]
		if !validName(key, false) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		// Scan the quoted value honouring backslash escapes.
		i := eq + 2
		var val strings.Builder
		for i < len(body) && body[i] != '"' {
			if body[i] == '\\' && i+1 < len(body) {
				switch body[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(body[i+1])
				}
				i += 2
				continue
			}
			val.WriteByte(body[i])
			i++
		}
		if i >= len(body) {
			return nil, fmt.Errorf("unterminated label value in %q", body)
		}
		if labels == nil {
			labels = map[string]string{}
		}
		labels[key] = val.String()
		body = body[i+1:]
		body = strings.TrimPrefix(body, ",")
	}
	return labels, nil
}

// validName reports whether s is a Prometheus metric name
// ([a-zA-Z_:][a-zA-Z0-9_:]*) or, with colons false, a label name
// ([a-zA-Z_][a-zA-Z0-9_]*).
func validName(s string, colons bool) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9' || colons && c == ':'
		if !ok {
			return false
		}
	}
	return true
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(s, 64)
}

// FilterFamilies returns the exposition text with every family whose
// name matches drop removed. The determinism property test uses it to
// strip wall-clock families (anything ending in _seconds) before
// comparing worker counts byte for byte.
func FilterFamilies(text string, drop func(name string) bool) string {
	fams, err := Parse(strings.NewReader(text))
	if err != nil {
		return text
	}
	kept := fams[:0]
	for _, f := range fams {
		if !drop(f.Name) {
			kept = append(kept, f)
		}
	}
	return RenderFamilies(kept)
}
