package ecode

import (
	"errors"
	"fmt"
)

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
// (the paper's Figure 3 filter runs in tens of steps).
const DefaultMaxSteps = 1 << 20

// value is one VM stack slot. Integer values and record references use i
// (references encode array and index); doubles use f. Opcodes are typed, so
// no runtime tag is needed.
type value struct {
	i int64
	f float64
}

const refArrayShift = 32

func makeRef(arr ArrayRef, idx int64) int64 { return int64(arr)<<refArrayShift | idx }

func refParts(r int64) (ArrayRef, int) {
	return ArrayRef(r >> refArrayShift), int(r & 0xFFFFFFFF)
}

// VM executes compiled filter programs. A VM is reusable but not safe for
// concurrent use; d-mon owns one per deployment site.
type VM struct {
	// MaxSteps bounds one Run invocation; 0 means DefaultMaxSteps.
	MaxSteps int
	stack    []value
	locals   []value
}

// NewVM returns a VM with the default step budget.
func NewVM() *VM { return &VM{} }

func (vm *VM) record(env *Env, ref int64) (*Record, error) {
	arr, idx := refParts(ref)
	if arr == ArrInput {
		if idx < 0 || idx >= len(env.Input) {
			return nil, fmt.Errorf("%w: input[%d] with %d inputs", ErrBounds, idx, len(env.Input))
		}
		return &env.Input[idx], nil
	}
	if idx < 0 || idx >= len(env.Output) {
		return nil, fmt.Errorf("%w: output[%d] with capacity %d", ErrBounds, idx, len(env.Output))
	}
	return &env.Output[idx], nil
}

// Run executes prog against env and returns the filter's result.
func (vm *VM) Run(prog *Program, env *Env) (Result, error) {
	maxSteps := vm.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps
	}
	if cap(vm.locals) < prog.FrameSize {
		vm.locals = make([]value, prog.FrameSize)
	}
	locals := vm.locals[:prog.FrameSize]
	for i := range locals {
		locals[i] = value{}
	}
	if vm.stack == nil {
		vm.stack = make([]value, 0, 64)
	}
	stack := vm.stack[:0]
	defer func() { vm.stack = stack[:0] }()

	push := func(v value) { stack = append(stack, v) }
	pop := func() value {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	code := prog.Code
	steps := 0
	for pc := 0; pc < len(code); pc++ {
		steps++
		if steps > maxSteps {
			return Result{}, ErrSteps
		}
		in := code[pc]
		switch in.Op {
		case OpNop:
		case OpConstI:
			push(value{i: in.I})
		case OpConstF:
			push(value{f: in.F})
		case OpLoadLoc:
			push(locals[in.A])
		case OpStoreLoc:
			locals[in.A] = stack[len(stack)-1]
		case OpLoadGI:
			if int(in.A) >= len(env.Ints) {
				return Result{}, fmt.Errorf("%w: int global %d", ErrBounds, in.A)
			}
			push(value{i: env.Ints[in.A]})
		case OpStoreGI:
			if int(in.A) >= len(env.Ints) {
				return Result{}, fmt.Errorf("%w: int global %d", ErrBounds, in.A)
			}
			env.Ints[in.A] = stack[len(stack)-1].i
		case OpLoadGF:
			if int(in.A) >= len(env.Floats) {
				return Result{}, fmt.Errorf("%w: double global %d", ErrBounds, in.A)
			}
			push(value{f: env.Floats[in.A]})
		case OpStoreGF:
			if int(in.A) >= len(env.Floats) {
				return Result{}, fmt.Errorf("%w: double global %d", ErrBounds, in.A)
			}
			env.Floats[in.A] = stack[len(stack)-1].f
		case OpBuiltin:
			switch in.A {
			case builtinNInput:
				push(value{i: int64(len(env.Input))})
			default:
				push(value{i: int64(len(env.Output))})
			}
		case OpIndexIn:
			idx := pop().i
			if idx < 0 || idx >= int64(len(env.Input)) {
				return Result{}, fmt.Errorf("%w: input[%d] with %d inputs", ErrBounds, idx, len(env.Input))
			}
			push(value{i: makeRef(ArrInput, idx)})
		case OpIndexOut:
			idx := pop().i
			if idx < 0 || idx >= int64(len(env.Output)) {
				return Result{}, fmt.Errorf("%w: output[%d] with capacity %d", ErrBounds, idx, len(env.Output))
			}
			push(value{i: makeRef(ArrOutput, idx)})
		case OpRecLoadF:
			rec, err := vm.record(env, pop().i)
			if err != nil {
				return Result{}, err
			}
			switch Field(in.A) {
			case FieldValue:
				push(value{f: rec.Value})
			case FieldLastSent:
				push(value{f: rec.LastSent})
			case FieldID:
				push(value{i: rec.ID})
			case FieldTimestamp:
				push(value{f: rec.Timestamp})
			}
		case OpRecStoreF:
			v := pop()
			ref := pop().i
			rec, err := vm.record(env, ref)
			if err != nil {
				return Result{}, err
			}
			switch Field(in.A) {
			case FieldValue:
				rec.Value = v.f
			case FieldLastSent:
				rec.LastSent = v.f
			case FieldID:
				rec.ID = v.i
			case FieldTimestamp:
				rec.Timestamp = v.f
			}
			if arr, idx := refParts(ref); arr == ArrOutput {
				env.markOut(idx)
			}
			push(v)
		case OpRecCopy:
			srcRef := pop().i
			dstRef := pop().i
			src, err := vm.record(env, srcRef)
			if err != nil {
				return Result{}, err
			}
			dst, err := vm.record(env, dstRef)
			if err != nil {
				return Result{}, err
			}
			*dst = *src
			if arr, idx := refParts(dstRef); arr == ArrOutput {
				env.markOut(idx)
			}
			push(value{i: dstRef})
		case OpAddI:
			b := pop()
			stack[len(stack)-1].i += b.i
		case OpSubI:
			b := pop()
			stack[len(stack)-1].i -= b.i
		case OpMulI:
			b := pop()
			stack[len(stack)-1].i *= b.i
		case OpDivI:
			b := pop()
			if b.i == 0 {
				return Result{}, ErrDivZero
			}
			stack[len(stack)-1].i /= b.i
		case OpModI:
			b := pop()
			if b.i == 0 {
				return Result{}, ErrDivZero
			}
			stack[len(stack)-1].i %= b.i
		case OpNegI:
			stack[len(stack)-1].i = -stack[len(stack)-1].i
		case OpNotI:
			if stack[len(stack)-1].i == 0 {
				stack[len(stack)-1].i = 1
			} else {
				stack[len(stack)-1].i = 0
			}
		case OpBNotI:
			stack[len(stack)-1].i = ^stack[len(stack)-1].i
		case OpAndI:
			b := pop()
			stack[len(stack)-1].i &= b.i
		case OpOrI:
			b := pop()
			stack[len(stack)-1].i |= b.i
		case OpXorI:
			b := pop()
			stack[len(stack)-1].i ^= b.i
		case OpShlI:
			b := pop()
			stack[len(stack)-1].i <<= uint64(b.i) & 63
		case OpShrI:
			b := pop()
			stack[len(stack)-1].i >>= uint64(b.i) & 63
		case OpAddF:
			b := pop()
			stack[len(stack)-1].f += b.f
		case OpSubF:
			b := pop()
			stack[len(stack)-1].f -= b.f
		case OpMulF:
			b := pop()
			stack[len(stack)-1].f *= b.f
		case OpDivF:
			b := pop()
			stack[len(stack)-1].f /= b.f
		case OpNegF:
			stack[len(stack)-1].f = -stack[len(stack)-1].f
		case OpEqI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i == b.i)
		case OpNeI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i != b.i)
		case OpLtI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i < b.i)
		case OpLeI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i <= b.i)
		case OpGtI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i > b.i)
		case OpGeI:
			b := pop()
			stack[len(stack)-1].i = b2i(stack[len(stack)-1].i >= b.i)
		case OpEqF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f == b.f)}
		case OpNeF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f != b.f)}
		case OpLtF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f < b.f)}
		case OpLeF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f <= b.f)}
		case OpGtF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f > b.f)}
		case OpGeF:
			b := pop()
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f >= b.f)}
		case OpI2F:
			stack[len(stack)-1] = value{f: float64(stack[len(stack)-1].i)}
		case OpF2I:
			stack[len(stack)-1] = value{i: int64(stack[len(stack)-1].f)}
		case OpBoolF:
			stack[len(stack)-1] = value{i: b2i(stack[len(stack)-1].f != 0)}
		case OpJump:
			pc = int(in.A) - 1
		case OpJumpZ:
			if pop().i == 0 {
				pc = int(in.A) - 1
			}
		case OpJumpNZ:
			if pop().i != 0 {
				pc = int(in.A) - 1
			}
		case OpDup:
			push(stack[len(stack)-1])
		case OpPop:
			stack = stack[:len(stack)-1]
		case OpRetI:
			return Result{Type: TypeInt, Int: pop().i}, nil
		case OpRetF:
			return Result{Type: TypeFloat, F: pop().f}, nil
		case OpRetVoid:
			return Result{Type: TypeVoid}, nil
		default:
			return Result{}, fmt.Errorf("ecode: illegal opcode %d at pc %d", in.Op, pc)
		}
	}
	return Result{Type: TypeVoid}, nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
