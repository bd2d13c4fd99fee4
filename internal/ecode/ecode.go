package ecode

import (
	"errors"
	"fmt"
	"time"
)

// maxSourceBytes caps the filter source Compile accepts. Filter source
// arrives from control-channel peers; the parser and checker recurse once
// per nesting level, and a megabyte of nested parentheses or of one long
// operator chain overflows the goroutine stack, a fatal error no recover
// catches. The cap also bounds compile time and what the filter cache can
// hold. The paper's Figure 3 filter is about 400 bytes.
const maxSourceBytes = 64 << 10

// ErrSourceTooLarge classifies the error of source over the 64 KiB cap
// (errors.Is), so that a deployer can count the cap's hits.
var ErrSourceTooLarge = errors.New("ecode: filter source over the size limit")

// sourceSizeError is the cap's error: its own message, matching
// ErrSourceTooLarge.
type sourceSizeError int

func (e sourceSizeError) Error() string {
	return fmt.Sprintf("ecode: filter source is %d bytes, limit %d", int(e), maxSourceBytes)
}

func (sourceSizeError) Is(target error) bool { return target == ErrSourceTooLarge }

// Filter is a compiled E-code filter: its body as Go closures, the number
// of local slots it needs, its source and the environment spec it was
// compiled against.
type Filter struct {
	body      stmtFn
	frameSize int
	source    string
	spec      *EnvSpec
}

// Compile parses and type-checks E-code source against the symbol
// environment described by spec and generates its code, a Go closure per
// node. It is the user-space analogue of the paper's dynamic code
// generation step performed at the host that runs the filter. Source longer
// than 64 KiB is rejected before lexing.
func Compile(source string, spec *EnvSpec) (*Filter, error) {
	if len(source) > maxSourceBytes {
		return nil, sourceSizeError(len(source))
	}
	stmts, err := parse(source)
	if err != nil {
		return nil, err
	}
	frame, err := check(stmts, spec)
	if err != nil {
		return nil, err
	}
	if spec == nil {
		spec = &EnvSpec{}
	}
	return &Filter{body: generate(stmts), frameSize: frame, source: source, spec: spec}, nil
}

// Run executes the filter against env using vm as its scratch. If vm is nil
// a fresh one is used.
func (f *Filter) Run(vm *VM, env *Env) (res Result, err error) {
	if vm == nil {
		vm = NewVM()
	}
	vm.start(env, f.frameSize)
	defer func() {
		vm.env = nil
		if r := recover(); r != nil {
			re, ok := r.(runtimeError)
			if !ok {
				panic(r)
			}
			res, err = Result{}, re.err
		}
	}()
	f.body(vm)
	return vm.ret, nil
}

// RunTimed is Run plus a wall-clock measurement of the execution, for
// callers feeding the observability layer's filter-time distribution. The
// measurement wraps only the filter's run, not environment binding.
func (f *Filter) RunTimed(vm *VM, env *Env) (Result, time.Duration, error) {
	start := time.Now()
	res, err := f.Run(vm, env)
	return res, time.Since(start), err
}

// Source returns the original filter source, as redistributed over the
// control channel.
func (f *Filter) Source() string { return f.source }

// NewEnv allocates a runtime environment matching the filter's spec with
// output capacity outCap.
func (f *Filter) NewEnv(outCap int) *Env { return NewEnv(f.spec, outCap) }
