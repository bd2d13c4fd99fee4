package ecode

import "errors"

// Runtime errors surfaced by filter execution. A failing filter never takes
// down the monitoring host; d-mon catches the error and falls back to
// unfiltered submission.
var (
	// ErrSteps is returned when a filter exceeds its execution budget, the
	// user-space analogue of the kernel refusing runaway filter code.
	ErrSteps = errors.New("ecode: execution step limit exceeded")
	// ErrBounds is returned for an out-of-range input/output index.
	ErrBounds = errors.New("ecode: record index out of range")
	// ErrDivZero is returned for integer division or modulo by zero.
	ErrDivZero = errors.New("ecode: integer division by zero")
)

// DefaultMaxSteps bounds filter execution; generous for monitoring filters
// (the paper's Figure 3 filter runs in 30 to 78 steps).
const DefaultMaxSteps = 1 << 20

// value is one local variable slot: ints use i, doubles f. The checker types
// every access, so no tag is needed.
type value struct {
	i int64
	f float64
}

// VM is the scratch of a filter run: the locals, the step count and the
// environment of the run in progress. A VM is reusable but not safe for
// concurrent use; d-mon owns one per deployment site.
type VM struct {
	// MaxSteps bounds one Run invocation; 0 means DefaultMaxSteps.
	MaxSteps int
	env      *Env
	locals   []value
	steps    int
	maxSteps int
	ret      Result
}

// NewVM returns a VM with the default step budget.
func NewVM() *VM { return &VM{} }

// start readies vm for a run against env of a filter with frameSize locals.
// The result is void until a return statement sets it.
func (vm *VM) start(env *Env, frameSize int) {
	vm.env, vm.steps, vm.maxSteps, vm.ret = env, 0, vm.MaxSteps, Result{Type: TypeVoid}
	if vm.maxSteps == 0 {
		vm.maxSteps = DefaultMaxSteps
	}
	if cap(vm.locals) < frameSize {
		vm.locals = make([]value, frameSize)
	}
	vm.locals = vm.locals[:frameSize]
	clear(vm.locals)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
