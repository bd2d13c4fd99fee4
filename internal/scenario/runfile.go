// The runfile parser. The format is TOML-like key/value sections:
//
//	# comment
//	[scenario]
//	name     = "scaling"
//	duration = "30s"
//
//	[topology]
//	nodes = 8,64,256,1000        # a comma list is a sweep axis
//
//	[filters]
//	source = """
//	  ... multi-line E-code ...
//	"""
//
//	[schedule]
//	at = "10s partition 4"       # repeated `at` keys build the schedule
//	at = "20s heal"
//
// Unknown sections and keys are errors, not warnings, and every error names
// the offending section, key and line — a runfile that parses is a runfile
// the harness fully understands.
package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// ParseError is a runfile diagnostic pointing at the offending line.
type ParseError struct {
	File    string
	Line    int
	Section string
	Key     string
	Msg     string
}

// Error renders "file:line: [section] key: msg".
func (e *ParseError) Error() string {
	var sb strings.Builder
	if e.File != "" {
		fmt.Fprintf(&sb, "%s:", e.File)
	}
	if e.Line > 0 {
		fmt.Fprintf(&sb, "%d:", e.Line)
	}
	if sb.Len() > 0 {
		sb.WriteString(" ")
	}
	if e.Section != "" {
		fmt.Fprintf(&sb, "[%s] ", e.Section)
	}
	if e.Key != "" {
		fmt.Fprintf(&sb, "%s: ", e.Key)
	}
	sb.WriteString(e.Msg)
	return sb.String()
}

// LoadFile reads, parses and validates a runfile.
func LoadFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(string(data), filepath.Base(path))
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// Parse parses runfile text. file labels diagnostics (use the base name).
// Parse does not validate cross-field consistency; call Validate on the
// result.
func Parse(text, file string) (*Scenario, error) {
	s := Defaults()
	s.Path = file
	p := &parser{file: file, lines: strings.Split(text, "\n"), s: &s}
	if err := p.run(); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, &ParseError{File: file, Section: "scenario", Key: "name", Msg: "required key missing"}
	}
	return &s, nil
}

type parser struct {
	file    string
	lines   []string
	i       int // current line index
	section string
	s       *Scenario

	// seenNodes tracks whether [topology] nodes was set explicitly, so an
	// empty list can be distinguished from the default.
	seenNodes bool
}

func (p *parser) errf(line int, key, format string, args ...any) error {
	return &ParseError{File: p.file, Line: line, Section: p.section, Key: key, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) run() error {
	for p.i = 0; p.i < len(p.lines); p.i++ {
		lineNo := p.i + 1
		line := stripComment(p.lines[p.i])
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return p.errf(lineNo, "", "malformed section header %q", line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if !knownSection(name) {
				return p.errf(lineNo, "", "unknown section [%s] (known: scenario, topology, load, filters, subscribers, churn, schedule, output)", name)
			}
			p.section = name
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return p.errf(lineNo, "", "expected `key = value`, got %q", line)
		}
		if p.section == "" {
			return p.errf(lineNo, "", "key before any [section] header")
		}
		key := strings.TrimSpace(line[:eq])
		raw := strings.TrimSpace(line[eq+1:])
		val, err := p.value(raw, lineNo, key)
		if err != nil {
			return err
		}
		if err := p.assign(key, val, lineNo); err != nil {
			return err
		}
	}
	return nil
}

// value resolves a raw right-hand side, consuming continuation lines for
// triple-quoted strings.
func (p *parser) value(raw string, lineNo int, key string) (string, error) {
	if strings.HasPrefix(raw, `"""`) {
		rest := raw[3:]
		if idx := strings.Index(rest, `"""`); idx >= 0 {
			return rest[:idx], nil
		}
		var sb strings.Builder
		sb.WriteString(rest)
		for p.i++; p.i < len(p.lines); p.i++ {
			l := p.lines[p.i]
			if idx := strings.Index(l, `"""`); idx >= 0 {
				sb.WriteString("\n" + l[:idx])
				return sb.String(), nil
			}
			sb.WriteString("\n" + l)
		}
		return "", p.errf(lineNo, key, `unterminated """ string`)
	}
	return raw, nil
}

// stripComment removes a trailing # comment, respecting double quotes.
func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			inStr = !inStr
		case '#':
			if !inStr {
				return line[:i]
			}
		}
	}
	return line
}

func knownSection(name string) bool {
	switch name {
	case "scenario", "topology", "load", "filters", "subscribers", "churn", "schedule", "output":
		return true
	}
	return false
}

// assign routes one key/value pair to its Scenario field. Every branch
// reports type errors with the line number.
func (p *parser) assign(key, val string, line int) error {
	s := p.s
	switch p.section {
	case "scenario":
		switch key {
		case "name":
			s.Name = unquote(val)
			if s.Name == "" {
				return p.errf(line, key, "must not be empty")
			}
			return nil
		case "seed":
			return p.setInt64(&s.Seed, val, line, key)
		case "engine":
			s.Engine = unquote(val)
			return nil
		case "duration":
			return p.setDuration(&s.Duration, val, line, key)
		case "tick":
			return p.setDuration(&s.Tick, val, line, key)
		case "data_dir":
			s.DataDir = unquote(val)
			return nil
		case "writers":
			return p.setInt(&s.Writers, val, line, key)
		case "dispatch":
			s.Dispatch = unquote(val)
			return nil
		}
	case "topology":
		switch key {
		case "nodes":
			list, err := parseIntList(val)
			if err != nil {
				return p.errf(line, key, "%v", err)
			}
			s.Topology.Nodes = list
			p.seenNodes = true
			return nil
		case "branching":
			list, err := parseIntList(val)
			if err != nil {
				return p.errf(line, key, "%v", err)
			}
			s.Topology.Branchings = list
			return nil
		}
	case "load":
		switch key {
		case "rate":
			return p.setFloat(&s.Load.Rate, val, line, key)
		case "payload":
			return p.setInt(&s.Load.Payload, val, line, key)
		case "payload_jitter":
			return p.setFloat(&s.Load.PayloadJitter, val, line, key)
		case "burst_every":
			return p.setDuration(&s.Load.BurstEvery, val, line, key)
		case "burst_len":
			return p.setDuration(&s.Load.BurstLen, val, line, key)
		case "burst_factor":
			return p.setFloat(&s.Load.BurstFactor, val, line, key)
		}
	case "filters":
		switch key {
		case "mode":
			s.Filters.Mode = unquote(val)
			return nil
		case "period":
			return p.setDuration(&s.Filters.Period, val, line, key)
		case "diff_pct":
			return p.setFloat(&s.Filters.DiffPct, val, line, key)
		case "source":
			s.Filters.Source = val
			return nil
		}
	case "subscribers":
		switch key {
		case "rate":
			return p.setFloat(&s.Subscribers.Rate, val, line, key)
		case "inbox":
			return p.setInt(&s.Subscribers.Inbox, val, line, key)
		case "slow_fraction":
			return p.setFloat(&s.Subscribers.SlowFraction, val, line, key)
		case "slow_rate":
			return p.setFloat(&s.Subscribers.SlowRate, val, line, key)
		}
	case "churn":
		switch key {
		case "interval":
			return p.setDuration(&s.Churn.Interval, val, line, key)
		case "fraction":
			return p.setFloat(&s.Churn.Fraction, val, line, key)
		case "down":
			return p.setDuration(&s.Churn.Down, val, line, key)
		}
	case "schedule":
		if key != "at" {
			return p.errf(line, key, "unknown key (the schedule section only takes repeated `at = \"<offset> <verb> ...\"` entries)")
		}
		act, err := parseAction(unquote(val))
		if err != nil {
			return p.errf(line, key, "%v", err)
		}
		act.Line = line
		s.Schedule = append(s.Schedule, act)
		return nil
	case "output":
		if key == "dir" {
			s.Output.Dir = unquote(val)
			return nil
		}
	}
	return p.errf(line, key, "unknown key in [%s]", p.section)
}

// --- typed setters ---

func (p *parser) setInt(dst *int, val string, line int, key string) error {
	n, err := strconv.Atoi(unquote(val))
	if err != nil {
		return p.errf(line, key, "want an integer, got %q", val)
	}
	*dst = n
	return nil
}

func (p *parser) setInt64(dst *int64, val string, line int, key string) error {
	n, err := strconv.ParseInt(unquote(val), 10, 64)
	if err != nil {
		return p.errf(line, key, "want an integer, got %q", val)
	}
	*dst = n
	return nil
}

func (p *parser) setFloat(dst *float64, val string, line int, key string) error {
	f, err := strconv.ParseFloat(unquote(val), 64)
	if err != nil {
		return p.errf(line, key, "want a number, got %q", val)
	}
	*dst = f
	return nil
}

func (p *parser) setDuration(dst *time.Duration, val string, line int, key string) error {
	d, err := time.ParseDuration(unquote(val))
	if err != nil {
		return p.errf(line, key, "want a duration like \"30s\", got %q", val)
	}
	*dst = d
	return nil
}

func unquote(v string) string {
	v = strings.TrimSpace(v)
	if len(v) >= 2 && v[0] == '"' && v[len(v)-1] == '"' {
		return v[1 : len(v)-1]
	}
	return v
}

func parseIntList(val string) ([]int, error) {
	parts := strings.Split(val, ",")
	out := make([]int, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(unquote(part))
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("want a comma list of integers, got %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseAction parses one schedule entry: "<offset> <verb> [args...]".
func parseAction(text string) (Action, error) {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		return Action{}, fmt.Errorf("want \"<offset> <verb> [args]\", got %q", text)
	}
	at, err := time.ParseDuration(fields[0])
	if err != nil {
		return Action{}, fmt.Errorf("bad offset %q: %v", fields[0], err)
	}
	if at < 0 {
		return Action{}, fmt.Errorf("negative offset %q", fields[0])
	}
	a := Action{At: at, Verb: fields[1]}
	args := fields[2:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("verb %q wants %d argument(s), got %d", a.Verb, n, len(args))
		}
		return nil
	}
	switch a.Verb {
	case "kill", "revive", "stall", "unstall":
		if err := need(1); err != nil {
			return Action{}, err
		}
		a.Node = args[0]
	case "partition":
		if err := need(1); err != nil {
			return Action{}, err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return Action{}, fmt.Errorf("partition wants a positive node count, got %q", args[0])
		}
		a.Value = float64(n)
	case "heal":
		if err := need(0); err != nil {
			return Action{}, err
		}
	case "perturb":
		if err := need(1); err != nil {
			return Action{}, err
		}
		mbps, err := strconv.ParseFloat(args[0], 64)
		if err != nil || mbps < 0 {
			return Action{}, fmt.Errorf("perturb wants a non-negative Mbps value, got %q", args[0])
		}
		a.Value = mbps
	case "disk":
		// disk <node> enospc <bytes> | disk <node> failsync
		if len(args) < 2 {
			return Action{}, fmt.Errorf("disk wants \"<node> enospc <bytes>\" or \"<node> failsync\"")
		}
		a.Node = args[0]
		a.Arg = args[1]
		switch a.Arg {
		case "enospc":
			if len(args) != 3 {
				return Action{}, fmt.Errorf("disk enospc wants a byte budget")
			}
			n, err := strconv.Atoi(args[2])
			if err != nil || n < 0 {
				return Action{}, fmt.Errorf("disk enospc wants a non-negative byte budget, got %q", args[2])
			}
			a.Value = float64(n)
		case "failsync":
			if len(args) != 2 {
				return Action{}, fmt.Errorf("disk failsync takes no further arguments")
			}
		default:
			return Action{}, fmt.Errorf("unknown disk fault %q (want enospc or failsync)", a.Arg)
		}
	case "queryall":
		// queryall <agg> <metric> [window] — the query text, verbatim.
		if len(args) < 2 {
			return Action{}, fmt.Errorf("queryall wants a query, e.g. \"queryall p99 loadavg last 30s\"")
		}
		a.Arg = strings.Join(args, " ")
	default:
		return Action{}, fmt.Errorf("unknown verb %q (want kill, revive, stall, unstall, partition, heal, perturb, disk or queryall)", a.Verb)
	}
	return a, nil
}
