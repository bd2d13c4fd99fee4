package ecode

import "fmt"

// Record is one monitoring record visible to a filter through the input[]
// and output[] arrays. The field set is the paper's filter ABI.
type Record struct {
	// Value is the current monitored value.
	Value float64
	// LastSent is the value most recently submitted to the channel
	// (last_value_sent in filter source).
	LastSent float64
	// ID is the metric identifier (metrics.ID as an integer).
	ID int64
	// Timestamp is the sample time in seconds since the epoch.
	Timestamp float64
}

// EnvSpec declares the symbols a filter may reference, fixed at compile
// time. d-mon builds one spec per deployment site: metric-name constants
// (LOADAVG, FREEMEM, ...) plus any scalar globals the host exposes.
type EnvSpec struct {
	// Consts are integer compile-time constants, typically metric indices.
	Consts map[string]int64
	// IntGlobals names mutable int globals; position is the runtime slot.
	IntGlobals []string
	// FloatGlobals names mutable double globals; position is the slot.
	FloatGlobals []string
}

// validate rejects specs with duplicate or colliding names.
func (s *EnvSpec) validate() error {
	seen := map[string]string{}
	add := func(name, class string) error {
		if name == "" {
			return fmt.Errorf("ecode: empty symbol name in env spec (%s)", class)
		}
		if name == "input" || name == "output" || name == "ninput" || name == "noutput" {
			return fmt.Errorf("ecode: symbol %q shadows a builtin", name)
		}
		if prev, ok := seen[name]; ok {
			return fmt.Errorf("ecode: symbol %q declared as both %s and %s", name, prev, class)
		}
		seen[name] = class
		return nil
	}
	for name := range s.Consts {
		if err := add(name, "const"); err != nil {
			return err
		}
	}
	for _, name := range s.IntGlobals {
		if err := add(name, "int global"); err != nil {
			return err
		}
	}
	for _, name := range s.FloatGlobals {
		if err := add(name, "double global"); err != nil {
			return err
		}
	}
	return nil
}

// Env is the runtime environment one filter execution runs against. Input
// holds the candidate records; Output is a preallocated destination array.
// The filter marks output records by assigning to output[i]; OutCount
// reports how many leading entries were written.
type Env struct {
	Input  []Record
	Output []Record
	// Ints and Floats back the scalar globals declared in the EnvSpec, in
	// declaration order.
	Ints   []int64
	Floats []float64

	outHigh int // number of leading output records considered written
}

// NewEnv returns an Env sized for the given spec with an output capacity of
// outCap records.
func NewEnv(spec *EnvSpec, outCap int) *Env {
	return &Env{
		Output: make([]Record, outCap),
		Ints:   make([]int64, len(spec.IntGlobals)),
		Floats: make([]float64, len(spec.FloatGlobals)),
	}
}

// Reset clears output bookkeeping (and not the input or globals) so the env
// can be reused across filter runs without reallocation.
func (e *Env) Reset() {
	e.outHigh = 0
	for i := range e.Output {
		e.Output[i] = Record{}
	}
}

// OutCount reports how many output records the last run wrote (the highest
// assigned index plus one).
func (e *Env) OutCount() int { return e.outHigh }

// markOut records that output index i was assigned.
func (e *Env) markOut(i int) {
	if i+1 > e.outHigh {
		e.outHigh = i + 1
	}
}

// Result is the value returned by a filter run: Type is TypeVoid when the
// filter fell off the end or executed a bare return.
type Result struct {
	Type Type
	Int  int64
	F    float64
}
