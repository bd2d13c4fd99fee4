package ecode

import (
	"fmt"
	"testing"
)

// Tree-walking interpreter over the checked AST: the oracle the parity tests
// and FuzzFilterParity hold compiled filters to. It implements their
// semantics — runtime errors, record bounds, a step limit — without sharing
// the code generator: Filter.Run and the interpreter execute the same
// checked AST, one as generated closures and one by walking it. It charges
// a step per statement (blocks included) and per expression node it
// evaluates, where a compiled filter charges every node of a statement's
// expressions up front and nothing for a block, so the two exhaust
// DefaultMaxSteps on different programs.

type ctrl int

const (
	ctrlNone ctrl = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

// A record reference as an int: the array in the high half, the index in
// the low.
const refArrayShift = 32

func makeRef(arr ArrayRef, idx int64) int64 { return int64(arr)<<refArrayShift | idx }

func refParts(r int64) (ArrayRef, int) {
	return ArrayRef(r >> refArrayShift), int(r & 0xFFFFFFFF)
}

type interpState struct {
	env    *Env
	locals []value
	steps  int
	max    int
	ret    Result
}

func interpret(stmts []Stmt, env *Env) (Result, error) {
	st := &interpState{env: env, max: DefaultMaxSteps}
	// Frame size: find the max slot by scanning declarations.
	st.locals = make([]value, maxSlotOf(stmts))
	for _, s := range stmts {
		c, err := st.exec(s)
		if err != nil {
			return Result{}, err
		}
		if c == ctrlReturn {
			return st.ret, nil
		}
	}
	return Result{Type: TypeVoid}, nil
}

func maxSlotOf(stmts []Stmt) int {
	max := 0
	var walkStmt func(Stmt)
	walkStmt = func(s Stmt) {
		switch st := s.(type) {
		case *DeclStmt:
			if st.Slot+1 > max {
				max = st.Slot + 1
			}
		case *IfStmt:
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *ForStmt:
			for _, i := range st.Init {
				walkStmt(i)
			}
			walkStmt(st.Body)
		case *WhileStmt:
			walkStmt(st.Body)
		case *BlockStmt:
			for _, i := range st.List {
				walkStmt(i)
			}
		}
	}
	for _, s := range stmts {
		walkStmt(s)
	}
	return max
}

func (st *interpState) step() error {
	st.steps++
	if st.steps > st.max {
		return ErrSteps
	}
	return nil
}

func (st *interpState) exec(s Stmt) (ctrl, error) {
	if err := st.step(); err != nil {
		return ctrlNone, err
	}
	switch n := s.(type) {
	case *DeclStmt:
		var v value
		if n.Init != nil {
			var err error
			v, err = st.eval(n.Init)
			if err != nil {
				return ctrlNone, err
			}
		}
		st.locals[n.Slot] = v
		return ctrlNone, nil
	case *ExprStmt:
		// A bare record reference is bounds-checked like every record
		// index (docs/ECODE.md): the VM's indexin/indexout check it when
		// the record is named, before the statement discards it.
		if idx, ok := n.X.(*Index); ok {
			_, _, _, err := st.evalRef(idx)
			return ctrlNone, err
		}
		_, err := st.eval(n.X)
		return ctrlNone, err
	case *IfStmt:
		cond, err := st.evalBool(n.Cond)
		if err != nil {
			return ctrlNone, err
		}
		if cond {
			return st.exec(n.Then)
		}
		if n.Else != nil {
			return st.exec(n.Else)
		}
		return ctrlNone, nil
	case *ForStmt:
		for _, init := range n.Init {
			if _, err := st.exec(init); err != nil {
				return ctrlNone, err
			}
		}
		for {
			if n.Cond != nil {
				ok, err := st.evalBool(n.Cond)
				if err != nil {
					return ctrlNone, err
				}
				if !ok {
					return ctrlNone, nil
				}
			}
			c, err := st.exec(n.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return ctrlReturn, nil
			}
			if n.Post != nil {
				if _, err := st.eval(n.Post); err != nil {
					return ctrlNone, err
				}
			}
			if err := st.step(); err != nil {
				return ctrlNone, err
			}
		}
	case *WhileStmt:
		for {
			ok, err := st.evalBool(n.Cond)
			if err != nil {
				return ctrlNone, err
			}
			if !ok {
				return ctrlNone, nil
			}
			c, err := st.exec(n.Body)
			if err != nil {
				return ctrlNone, err
			}
			if c == ctrlBreak {
				return ctrlNone, nil
			}
			if c == ctrlReturn {
				return ctrlReturn, nil
			}
			if err := st.step(); err != nil {
				return ctrlNone, err
			}
		}
	case *ReturnStmt:
		if n.X == nil {
			st.ret = Result{Type: TypeVoid}
			return ctrlReturn, nil
		}
		v, err := st.eval(n.X)
		if err != nil {
			return ctrlNone, err
		}
		if n.X.exprType() == TypeFloat {
			st.ret = Result{Type: TypeFloat, F: v.f}
		} else {
			st.ret = Result{Type: TypeInt, Int: v.i}
		}
		return ctrlReturn, nil
	case *BreakStmt:
		return ctrlBreak, nil
	case *ContinueStmt:
		return ctrlContinue, nil
	case *BlockStmt:
		for _, inner := range n.List {
			c, err := st.exec(inner)
			if err != nil {
				return ctrlNone, err
			}
			if c != ctrlNone {
				return c, nil
			}
		}
		return ctrlNone, nil
	}
	return ctrlNone, fmt.Errorf("ecode: interpreting unknown statement %T", s)
}

func (st *interpState) evalBool(x Expr) (bool, error) {
	v, err := st.eval(x)
	if err != nil {
		return false, err
	}
	if x.exprType() == TypeFloat {
		return v.f != 0, nil
	}
	return v.i != 0, nil
}

// evalRef evaluates a record-typed expression to a record pointer.
func (st *interpState) evalRef(x Expr) (*Record, ArrayRef, int, error) {
	if a, ok := x.(*Assign2); ok && a.Typ == TypeRecord {
		// A record assignment's value is a reference to its destination, as
		// in a compiled filter, so `output[0] = output[1] = input[2]` chains. Its own
		// evalRef has checked the bounds.
		v, err := st.eval(a)
		if err != nil {
			return nil, 0, 0, err
		}
		arr, i := refParts(v.i)
		if arr == ArrInput {
			return &st.env.Input[i], arr, i, nil
		}
		return &st.env.Output[i], arr, i, nil
	}
	idx, ok := x.(*Index)
	if !ok {
		return nil, 0, 0, fmt.Errorf("ecode: %s is not a record reference", x.exprType())
	}
	iv, err := st.eval(idx.Inner)
	if err != nil {
		return nil, 0, 0, err
	}
	i := int(iv.i)
	if idx.Arr == ArrInput {
		if i < 0 || i >= len(st.env.Input) {
			return nil, 0, 0, fmt.Errorf("%w: input[%d] with %d inputs", ErrBounds, i, len(st.env.Input))
		}
		return &st.env.Input[i], ArrInput, i, nil
	}
	if i < 0 || i >= len(st.env.Output) {
		return nil, 0, 0, fmt.Errorf("%w: output[%d] with capacity %d", ErrBounds, i, len(st.env.Output))
	}
	return &st.env.Output[i], ArrOutput, i, nil
}

func fieldGet(rec *Record, f Field) value {
	switch f {
	case FieldValue:
		return value{f: rec.Value}
	case FieldLastSent:
		return value{f: rec.LastSent}
	case FieldID:
		return value{i: rec.ID}
	default:
		return value{f: rec.Timestamp}
	}
}

func fieldSet(rec *Record, f Field, v value) {
	switch f {
	case FieldValue:
		rec.Value = v.f
	case FieldLastSent:
		rec.LastSent = v.f
	case FieldID:
		rec.ID = v.i
	case FieldTimestamp:
		rec.Timestamp = v.f
	}
}

func (st *interpState) eval(x Expr) (value, error) {
	if err := st.step(); err != nil {
		return value{}, err
	}
	switch e := x.(type) {
	case *IntLit:
		return value{i: e.Value}, nil
	case *FloatLit:
		return value{f: e.Value}, nil
	case *Ident:
		switch e.Kind {
		case VarLocal:
			return st.locals[e.Slot], nil
		case VarGlobal:
			if e.Typ == TypeFloat {
				if e.Slot >= len(st.env.Floats) {
					return value{}, fmt.Errorf("%w: double global %d", ErrBounds, e.Slot)
				}
				return value{f: st.env.Floats[e.Slot]}, nil
			}
			if e.Slot >= len(st.env.Ints) {
				return value{}, fmt.Errorf("%w: int global %d", ErrBounds, e.Slot)
			}
			return value{i: st.env.Ints[e.Slot]}, nil
		case VarConst:
			return value{i: e.Val}, nil
		case varBuiltin:
			if e.Slot == builtinNInput {
				return value{i: int64(len(st.env.Input))}, nil
			}
			return value{i: int64(len(st.env.Output))}, nil
		}
		return value{}, fmt.Errorf("ecode: evaluating ident kind %d", e.Kind)
	case *Member:
		rec, _, _, err := st.evalRef(e.Rec)
		if err != nil {
			return value{}, err
		}
		return fieldGet(rec, e.Field), nil
	case *Conv:
		v, err := st.eval(e.X)
		if err != nil {
			return value{}, err
		}
		if e.Typ == TypeFloat {
			return value{f: float64(v.i)}, nil
		}
		return value{i: int64(v.f)}, nil
	case *Unary:
		v, err := st.eval(e.X)
		if err != nil {
			return value{}, err
		}
		switch e.Op {
		case Minus:
			if e.Typ == TypeFloat {
				return value{f: -v.f}, nil
			}
			return value{i: -v.i}, nil
		case Not:
			truth := v.i != 0
			if e.X.exprType() == TypeFloat {
				truth = v.f != 0
			}
			return value{i: b2i(!truth)}, nil
		case Tilde:
			return value{i: ^v.i}, nil
		}
	case *IncDec:
		id := e.X.(*Ident)
		old, err := st.eval(id)
		if err != nil {
			return value{}, err
		}
		delta := int64(1)
		if e.Op == Dec {
			delta = -1
		}
		var nv value
		if id.Typ == TypeFloat {
			nv = value{f: old.f + float64(delta)}
		} else {
			nv = value{i: old.i + delta}
		}
		if err := st.storeVar(id, nv); err != nil {
			return value{}, err
		}
		if e.Prefix {
			return nv, nil
		}
		return old, nil
	case *Binary:
		return st.binary(e)
	case *Cond:
		cond, err := st.evalBool(e.C)
		if err != nil {
			return value{}, err
		}
		if cond {
			return st.eval(e.Then)
		}
		return st.eval(e.Else)
	case *Assign2:
		return st.assign(e)
	case *Index:
		return value{}, fmt.Errorf("ecode: record value used as scalar")
	}
	return value{}, fmt.Errorf("ecode: interpreting unknown expression %T", x)
}

func (st *interpState) storeVar(id *Ident, v value) error {
	switch id.Kind {
	case VarLocal:
		st.locals[id.Slot] = v
		return nil
	case VarGlobal:
		if id.Typ == TypeFloat {
			if id.Slot >= len(st.env.Floats) {
				return fmt.Errorf("%w: double global %d", ErrBounds, id.Slot)
			}
			st.env.Floats[id.Slot] = v.f
			return nil
		}
		if id.Slot >= len(st.env.Ints) {
			return fmt.Errorf("%w: int global %d", ErrBounds, id.Slot)
		}
		st.env.Ints[id.Slot] = v.i
		return nil
	}
	return fmt.Errorf("ecode: storing to ident kind %d", id.Kind)
}

func (st *interpState) binary(e *Binary) (value, error) {
	if e.Op == AndAnd {
		l, err := st.evalBool(e.L)
		if err != nil || !l {
			return value{i: 0}, err
		}
		r, err := st.evalBool(e.R)
		if err != nil {
			return value{}, err
		}
		return value{i: b2i(r)}, nil
	}
	if e.Op == OrOr {
		l, err := st.evalBool(e.L)
		if err != nil {
			return value{}, err
		}
		if l {
			return value{i: 1}, nil
		}
		r, err := st.evalBool(e.R)
		if err != nil {
			return value{}, err
		}
		return value{i: b2i(r)}, nil
	}
	l, err := st.eval(e.L)
	if err != nil {
		return value{}, err
	}
	r, err := st.eval(e.R)
	if err != nil {
		return value{}, err
	}
	isF := e.L.exprType() == TypeFloat
	switch e.Op {
	case Plus:
		if isF {
			return value{f: l.f + r.f}, nil
		}
		return value{i: l.i + r.i}, nil
	case Minus:
		if isF {
			return value{f: l.f - r.f}, nil
		}
		return value{i: l.i - r.i}, nil
	case Star:
		if isF {
			return value{f: l.f * r.f}, nil
		}
		return value{i: l.i * r.i}, nil
	case Slash:
		if isF {
			return value{f: l.f / r.f}, nil
		}
		if r.i == 0 {
			return value{}, ErrDivZero
		}
		return value{i: l.i / r.i}, nil
	case Percent:
		if r.i == 0 {
			return value{}, ErrDivZero
		}
		return value{i: l.i % r.i}, nil
	case Amp:
		return value{i: l.i & r.i}, nil
	case Pipe:
		return value{i: l.i | r.i}, nil
	case Caret:
		return value{i: l.i ^ r.i}, nil
	case Shl:
		return value{i: l.i << (uint64(r.i) & 63)}, nil
	case Shr:
		return value{i: l.i >> (uint64(r.i) & 63)}, nil
	case Eq:
		if isF {
			return value{i: b2i(l.f == r.f)}, nil
		}
		return value{i: b2i(l.i == r.i)}, nil
	case NotEq:
		if isF {
			return value{i: b2i(l.f != r.f)}, nil
		}
		return value{i: b2i(l.i != r.i)}, nil
	case Lt:
		if isF {
			return value{i: b2i(l.f < r.f)}, nil
		}
		return value{i: b2i(l.i < r.i)}, nil
	case LtEq:
		if isF {
			return value{i: b2i(l.f <= r.f)}, nil
		}
		return value{i: b2i(l.i <= r.i)}, nil
	case Gt:
		if isF {
			return value{i: b2i(l.f > r.f)}, nil
		}
		return value{i: b2i(l.i > r.i)}, nil
	case GtEq:
		if isF {
			return value{i: b2i(l.f >= r.f)}, nil
		}
		return value{i: b2i(l.i >= r.i)}, nil
	}
	return value{}, fmt.Errorf("ecode: interpreting binary op %s", e.Op)
}

func (st *interpState) assign(e *Assign2) (value, error) {
	// Record copy. Evaluation order matches compiled filters: destination
	// reference first, then source, then the copy.
	if e.Typ == TypeRecord {
		dst, arr, idx, err := st.evalRef(e.L)
		if err != nil {
			return value{}, err
		}
		src, _, _, err := st.evalRef(e.R)
		if err != nil {
			return value{}, err
		}
		*dst = *src
		if arr == ArrOutput {
			st.env.markOut(idx)
		}
		return value{i: makeRef(arr, int64(idx))}, nil
	}
	switch l := e.L.(type) {
	case *Ident:
		// Evaluation order matches compiled filters: current value first for
		// compound forms, then the right-hand side.
		var cur value
		if e.Op != Assign {
			var err error
			cur, err = st.eval(l)
			if err != nil {
				return value{}, err
			}
		}
		r, err := st.eval(e.R)
		if err != nil {
			return value{}, err
		}
		if e.Op != Assign {
			r, err = applyCompound(e.Op, l.Typ, cur, r)
			if err != nil {
				return value{}, err
			}
		}
		if err := st.storeVar(l, r); err != nil {
			return value{}, err
		}
		return r, nil
	case *Member:
		// The record reference first, then (compound forms) the field's
		// current value, then the right-hand side, as for an *Ident.
		rec, arr, idx, err := st.evalRef(l.Rec)
		if err != nil {
			return value{}, err
		}
		cur := fieldGet(rec, l.Field)
		r, err := st.eval(e.R)
		if err != nil {
			return value{}, err
		}
		if e.Op != Assign {
			r, err = applyCompound(e.Op, fieldType(l.Field), cur, r)
			if err != nil {
				return value{}, err
			}
		}
		fieldSet(rec, l.Field, r)
		if arr == ArrOutput {
			st.env.markOut(idx)
		}
		return r, nil
	}
	return value{}, fmt.Errorf("ecode: interpreting assignment to %T", e.L)
}

func applyCompound(op Kind, t Type, cur, r value) (value, error) {
	if t == TypeFloat {
		switch op {
		case PlusAssign:
			return value{f: cur.f + r.f}, nil
		case MinusAssign:
			return value{f: cur.f - r.f}, nil
		case StarAssign:
			return value{f: cur.f * r.f}, nil
		case SlashAssign:
			return value{f: cur.f / r.f}, nil
		}
		return value{}, fmt.Errorf("ecode: compound op %s on double", op)
	}
	switch op {
	case PlusAssign:
		return value{i: cur.i + r.i}, nil
	case MinusAssign:
		return value{i: cur.i - r.i}, nil
	case StarAssign:
		return value{i: cur.i * r.i}, nil
	case SlashAssign:
		if r.i == 0 {
			return value{}, ErrDivZero
		}
		return value{i: cur.i / r.i}, nil
	case PercentAssign:
		if r.i == 0 {
			return value{}, ErrDivZero
		}
		return value{i: cur.i % r.i}, nil
	}
	return value{}, fmt.Errorf("ecode: compound op %s on int", op)
}

// oracle runs f's source on the interpreter. It parses and checks the source
// itself and walks the AST, so a code-generation bug in Compile and Run
// cannot give the same wrong answer on both sides of a parity test.
func oracle(f *Filter, env *Env) (Result, error) {
	stmts, err := checkedAST(f.Source(), f.Spec())
	if err != nil {
		return Result{}, err
	}
	return interpret(stmts, env)
}

// checkedAST parses and type-checks src against spec.
func checkedAST(src string, spec *EnvSpec) ([]Stmt, error) {
	stmts, err := parse(src)
	if err != nil {
		return nil, err
	}
	if _, err := check(stmts, spec); err != nil {
		return nil, err
	}
	return stmts, nil
}

// BenchmarkCompiledVsInterp compares the paper's Figure 3 filter run as
// generated closures against the interpreter walking its AST: what E-code's
// dynamic code generation buys per event. Both sides run the same checked
// program, on two inputs: every condition passes (all four records out),
// and none does.
func BenchmarkCompiledVsInterp(b *testing.B) {
	f := MustCompile(paperFigure3, testSpec())
	stmts, err := checkedAST(paperFigure3, testSpec())
	if err != nil {
		b.Fatal(err)
	}
	vm := NewVM()
	for _, exec := range []struct {
		name string
		run  func(*Env) (Result, error)
	}{
		{"compiled", func(env *Env) (Result, error) { return f.Run(vm, env) }},
		{"interpreted", func(env *Env) (Result, error) { return interpret(stmts, env) }},
	} {
		b.Run(exec.name, func(b *testing.B) {
			for _, in := range []struct {
				name string
				env  *Env
			}{
				{"all-pass", figure3Env(f, 3.0, 20000, 40e6, 9000, 8000)},
				{"none-pass", figure3Env(f, 0.5, 100, 200e6, 7000, 8000)},
			} {
				b.Run(in.name, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						in.env.Reset()
						if _, err := exec.run(in.env); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
