package ecode

import "fmt"

// The code generator turns the checked AST into Go closures, built once per
// filter: every node becomes a function value of its static type, and a run
// calls the body's. This is the pure-Go form of the paper's dynamic code
// generation. Nothing dispatches on an opcode or on a value's kind at run
// time, because the checker has typed every node and made every conversion
// explicit.
//
// The closures capture only compile-time facts (slots, field ids,
// constants, their operands' closures). Per-run state (the Env, the locals,
// the step count) lives in the VM each closure is handed, so one Filter is
// shared by any number of runners.
//
// A runtime error (ErrBounds, ErrDivZero, ErrSteps) unwinds by a panic of
// runtimeError, which only Filter.Run recovers. The generators themselves
// return no error: the checker has refused every program they could not
// translate, so an unexpected node is an internal bug and panics.
//
// The step budget: a statement charges 1 plus the node count of the
// expressions it evaluates, and a loop iteration 1 plus the node count of its
// condition and post, fixed at compile time. Every node runs at most once
// per charge that counts it, so MaxSteps bounds the work of a run whatever
// the size of its expressions. Blocks are flattened into their enclosing
// statement list and cost nothing of their own.

// fn is the generated code of a node whose value has Go type T: int64 and
// float64 for E-code's int and double, bool for a condition, int for a
// record (an index into the array the node names), a pointer for a
// variable's storage, flow for a statement.
type fn[T any] func(*VM) T

type num interface{ int64 | float64 }

type stmtFn = fn[flow]

// flow is how a statement ends: fall through to the next one, or leave by
// break, continue or return.
type flow uint8

const (
	flowNext flow = iota
	flowBreak
	flowContinue
	flowReturn
)

// runtimeError carries a runtime error out of generated code to Filter.Run.
type runtimeError struct{ err error }

func fail(err error) { panic(runtimeError{err}) }

func internal(n any) string { return fmt.Sprintf("ecode: internal: no code for %T", n) }

// charge takes n steps from the run's budget.
func (vm *VM) charge(n int) {
	vm.steps += n
	if vm.steps > vm.maxSteps {
		fail(ErrSteps)
	}
}

func (vm *VM) records(arr ArrayRef) []Record {
	if arr == ArrInput {
		return vm.env.Input
	}
	return vm.env.Output
}

// index bounds-checks i against the named record array.
func (vm *VM) index(arr ArrayRef, i int64) int {
	if n := len(vm.records(arr)); i < 0 || i >= int64(n) {
		if arr == ArrInput {
			fail(fmt.Errorf("%w: input[%d] with %d inputs", ErrBounds, i, n))
		}
		fail(fmt.Errorf("%w: output[%d] with capacity %d", ErrBounds, i, n))
	}
	return int(i)
}

// wrote marks record i of arr as assigned; only output records count.
func (vm *VM) wrote(arr ArrayRef, i int) {
	if arr == ArrOutput {
		vm.env.markOut(i)
	}
}

// nodes counts the nodes of x, the step charge of evaluating it.
func nodes(x Expr) int {
	switch e := x.(type) {
	case nil:
		return 0
	case *Index:
		return 1 + nodes(e.Inner)
	case *Member:
		return 1 + nodes(e.Rec)
	case *Conv:
		return 1 + nodes(e.X)
	case *Unary:
		return 1 + nodes(e.X)
	case *IncDec:
		return 1 + nodes(e.X)
	case *Binary:
		return 1 + nodes(e.L) + nodes(e.R)
	case *Assign2:
		return 1 + nodes(e.L) + nodes(e.R)
	case *Cond:
		return 1 + nodes(e.C) + nodes(e.Then) + nodes(e.Else)
	}
	return 1
}

// --- statements ---

// generate translates a checked program into its body.
func generate(stmts []Stmt) stmtFn { return seq(stmtList(stmts)) }

// stmtList translates stmts, flattening nested blocks: the checker has
// already resolved their scopes to slots.
func stmtList(stmts []Stmt) []stmtFn {
	var out []stmtFn
	for _, s := range stmts {
		if b, ok := s.(*BlockStmt); ok {
			out = append(out, stmtList(b.List)...)
		} else {
			out = append(out, stmt(s))
		}
	}
	return out
}

// seq runs list in order until a statement leaves by break, continue or
// return.
func seq(list []stmtFn) stmtFn {
	switch len(list) {
	case 0:
		return constant(flowNext)
	case 1:
		return list[0]
	}
	return func(vm *VM) flow {
		for _, s := range list {
			if f := s(vm); f != flowNext {
				return f
			}
		}
		return flowNext
	}
}

func body(s Stmt) stmtFn { return seq(stmtList([]Stmt{s})) }

func stmt(s Stmt) stmtFn {
	switch st := s.(type) {
	case *DeclStmt:
		local := &Ident{Kind: VarLocal, Slot: st.Slot}
		if st.Typ == TypeFloat {
			return declare(st, floatVar(local), floatExpr)
		}
		return declare(st, intVar(local), intExpr)
	case *ExprStmt:
		return exprStmt(st.X, 1+nodes(st.X))
	case *IfStmt:
		cost, cond, then, els := 1+nodes(st.Cond), boolExpr(st.Cond), body(st.Then), constant(flowNext)
		if st.Else != nil {
			els = body(st.Else)
		}
		return func(vm *VM) flow {
			vm.charge(cost)
			if cond(vm) {
				return then(vm)
			}
			return els(vm)
		}
	case *ForStmt:
		// The iteration's charge counts the post's nodes: the post's own
		// statement charges them, so the loop charges 1 plus the condition.
		var post stmtFn
		if st.Post != nil {
			post = exprStmt(st.Post, nodes(st.Post))
		}
		return loop(seq(stmtList(st.Init)), st.Cond, body(st.Body), post)
	case *WhileStmt:
		return loop(nil, st.Cond, body(st.Body), nil)
	case *ReturnStmt:
		if st.X == nil { // the run's result is already void
			return func(vm *VM) flow { vm.charge(1); return flowReturn }
		}
		cost := 1 + nodes(st.X)
		if st.X.exprType() == TypeFloat {
			x := floatExpr(st.X)
			return func(vm *VM) flow {
				vm.charge(cost)
				vm.ret = Result{Type: TypeFloat, F: x(vm)}
				return flowReturn
			}
		}
		x := intExpr(st.X)
		return func(vm *VM) flow {
			vm.charge(cost)
			vm.ret = Result{Type: TypeInt, Int: x(vm)}
			return flowReturn
		}
	case *BreakStmt:
		return func(vm *VM) flow { vm.charge(1); return flowBreak }
	case *ContinueStmt:
		return func(vm *VM) flow { vm.charge(1); return flowContinue }
	}
	panic(internal(s))
}

// declare sets a local to its initializer, or to zero.
func declare[T num](st *DeclStmt, local fn[*T], expr func(Expr) fn[T]) stmtFn {
	cost, init := 1+nodes(st.Init), constant(T(0))
	if st.Init != nil {
		init = expr(st.Init)
	}
	return func(vm *VM) flow {
		vm.charge(cost)
		*local(vm) = init(vm)
		return flowNext
	}
}

// exprStmt evaluates x for its effects at the given charge.
func exprStmt(x Expr, cost int) stmtFn {
	switch x.exprType() {
	case TypeFloat:
		return effect(cost, floatExpr(x))
	case TypeRecord: // a bare record reference is still bounds-checked
		_, r := recExpr(x)
		return effect(cost, r)
	}
	return effect(cost, intExpr(x))
}

func effect[T any](cost int, x fn[T]) stmtFn {
	return func(vm *VM) flow { vm.charge(cost); x(vm); return flowNext }
}

// loop is for and while: init (may be nil) once, then while cond (nil is
// true) holds, body and post (may be nil).
func loop(init stmtFn, condX Expr, body, post stmtFn) stmtFn {
	cost, cond := 1+nodes(condX), constant(true)
	if condX != nil {
		cond = boolExpr(condX)
	}
	return func(vm *VM) flow {
		if init != nil {
			init(vm)
		}
		for {
			vm.charge(cost)
			if !cond(vm) {
				return flowNext
			}
			switch body(vm) {
			case flowBreak:
				return flowNext
			case flowReturn:
				return flowReturn
			}
			if post != nil {
				post(vm)
			}
		}
	}
}

// --- expressions ---

func intExpr(x Expr) fn[int64] {
	switch e := x.(type) {
	case *IntLit:
		return constant(e.Value)
	case *Ident:
		switch e.Kind {
		case VarConst:
			return constant(e.Val)
		case varBuiltin:
			if e.Slot == builtinNInput {
				return func(vm *VM) int64 { return int64(len(vm.env.Input)) }
			}
			return func(vm *VM) int64 { return int64(len(vm.env.Output)) }
		}
		return load(intVar(e))
	case *Member: // the id field, the one int field
		return field(e, intField)
	case *Conv:
		f := floatExpr(e.X)
		return func(vm *VM) int64 { return int64(f(vm)) }
	case *Unary:
		switch e.Op {
		case Minus:
			v := intExpr(e.X)
			return func(vm *VM) int64 { return -v(vm) }
		case Tilde:
			v := intExpr(e.X)
			return func(vm *VM) int64 { return ^v(vm) }
		}
		return truth(boolExpr(e))
	case *IncDec:
		return incDec(e, intVar(e.X.(*Ident)))
	case *Binary:
		switch e.Op {
		case AndAnd, OrOr, Eq, NotEq, Lt, LtEq, Gt, GtEq:
			return truth(boolExpr(e))
		}
		return binary(intOp(e.Op), intExpr(e.L), intExpr(e.R))
	case *Cond:
		return choose(boolExpr(e.C), intExpr(e.Then), intExpr(e.Else))
	case *Assign2:
		return assign(e, intExpr(e.R), intOp(e.Op), intVar, intField)
	}
	panic(internal(x))
}

func floatExpr(x Expr) fn[float64] {
	switch e := x.(type) {
	case *FloatLit:
		return constant(e.Value)
	case *Ident:
		return load(floatVar(e))
	case *Member:
		return field(e, floatField)
	case *Conv:
		i := intExpr(e.X)
		return func(vm *VM) float64 { return float64(i(vm)) }
	case *Unary: // unary minus, the one double-valued prefix operator
		v := floatExpr(e.X)
		return func(vm *VM) float64 { return -v(vm) }
	case *IncDec:
		return incDec(e, floatVar(e.X.(*Ident)))
	case *Binary:
		return binary(floatOp(e.Op), floatExpr(e.L), floatExpr(e.R))
	case *Cond:
		return choose(boolExpr(e.C), floatExpr(e.Then), floatExpr(e.Else))
	case *Assign2:
		return assign(e, floatExpr(e.R), floatOp(e.Op), floatVar, floatField)
	}
	panic(internal(x))
}

// boolExpr translates a condition: comparisons and logic directly, any
// other scalar as "is not zero".
func boolExpr(x Expr) fn[bool] {
	switch e := x.(type) {
	case *Binary:
		switch e.Op {
		case AndAnd:
			l, r := boolExpr(e.L), boolExpr(e.R)
			return func(vm *VM) bool { return l(vm) && r(vm) }
		case OrOr:
			l, r := boolExpr(e.L), boolExpr(e.R)
			return func(vm *VM) bool { return l(vm) || r(vm) }
		case Eq, NotEq, Lt, LtEq, Gt, GtEq:
			// The checker converted both operands to one type.
			if e.L.exprType() == TypeFloat {
				return compare(e.Op, floatExpr(e.L), floatExpr(e.R))
			}
			return compare(e.Op, intExpr(e.L), intExpr(e.R))
		}
	case *Unary:
		if e.Op == Not {
			v := boolExpr(e.X)
			return func(vm *VM) bool { return !v(vm) }
		}
	}
	if x.exprType() == TypeFloat {
		f := floatExpr(x)
		return func(vm *VM) bool { return f(vm) != 0 }
	}
	i := intExpr(x)
	return func(vm *VM) bool { return i(vm) != 0 }
}

// recExpr translates a record-valued node (input[i], output[i], or a record
// assignment, whose value is its destination) to the array it names and a
// bounds-checked index into it.
func recExpr(x Expr) (ArrayRef, fn[int]) {
	switch e := x.(type) {
	case *Index:
		arr := e.Arr
		if c, ok := e.Inner.(*Ident); ok && c.Kind == VarConst {
			// A metric constant, input[LOADAVG]: the common index.
			k := c.Val
			return arr, func(vm *VM) int { return vm.index(arr, k) }
		}
		inner := intExpr(e.Inner)
		return arr, func(vm *VM) int { return vm.index(arr, inner(vm)) }
	case *Assign2: // dst = src copies the whole record
		darr, dst := recExpr(e.L)
		sarr, src := recExpr(e.R)
		return darr, func(vm *VM) int {
			d := dst(vm)
			s := src(vm)
			vm.records(darr)[d] = vm.records(sarr)[s]
			vm.wrote(darr, d)
			return d
		}
	}
	panic(internal(x))
}

func constant[T any](v T) fn[T] { return func(*VM) T { return v } }

// truth is a condition as an int, 1 or 0.
func truth(b fn[bool]) fn[int64] { return func(vm *VM) int64 { return b2i(b(vm)) } }

func choose[T any](c fn[bool], a, b fn[T]) fn[T] {
	return func(vm *VM) T {
		if c(vm) {
			return a(vm)
		}
		return b(vm)
	}
}

func binary[T num](op func(a, b T) T, l, r fn[T]) fn[T] {
	return func(vm *VM) T { return op(l(vm), r(vm)) }
}

func compare[T num](op Kind, l, r fn[T]) fn[bool] {
	switch op {
	case Eq:
		return func(vm *VM) bool { return l(vm) == r(vm) }
	case NotEq:
		return func(vm *VM) bool { return l(vm) != r(vm) }
	case Lt:
		return func(vm *VM) bool { return l(vm) < r(vm) }
	case LtEq:
		return func(vm *VM) bool { return l(vm) <= r(vm) }
	case Gt:
		return func(vm *VM) bool { return l(vm) > r(vm) }
	}
	return func(vm *VM) bool { return l(vm) >= r(vm) }
}

// intOp is the arithmetic of a binary or compound-assignment operator on
// ints, nil for plain assignment. Shift counts are taken modulo 64.
func intOp(op Kind) func(a, b int64) int64 {
	switch op {
	case Slash, SlashAssign:
		return func(a, b int64) int64 {
			if b == 0 {
				fail(ErrDivZero)
			}
			return a / b
		}
	case Percent, PercentAssign:
		return func(a, b int64) int64 {
			if b == 0 {
				fail(ErrDivZero)
			}
			return a % b
		}
	case Amp:
		return func(a, b int64) int64 { return a & b }
	case Pipe:
		return func(a, b int64) int64 { return a | b }
	case Caret:
		return func(a, b int64) int64 { return a ^ b }
	case Shl:
		return func(a, b int64) int64 { return a << (uint64(b) & 63) }
	case Shr:
		return func(a, b int64) int64 { return a >> (uint64(b) & 63) }
	}
	return arith[int64](op)
}

// floatOp is intOp on doubles; division by zero is IEEE, not an error.
func floatOp(op Kind) func(a, b float64) float64 {
	if op == Slash || op == SlashAssign {
		return func(a, b float64) float64 { return a / b }
	}
	return arith[float64](op)
}

// arith is the operators whose code is the same on ints and doubles.
func arith[T num](op Kind) func(a, b T) T {
	switch op {
	case Plus, PlusAssign:
		return func(a, b T) T { return a + b }
	case Minus, MinusAssign:
		return func(a, b T) T { return a - b }
	case Star, StarAssign:
		return func(a, b T) T { return a * b }
	case Assign:
		return nil
	}
	panic(internal(op))
}

// --- storage ---

// intVar addresses an int variable; a global's slot is bounds-checked.
func intVar(id *Ident) fn[*int64] {
	s := id.Slot
	if id.Kind == VarLocal {
		return func(vm *VM) *int64 { return &vm.locals[s].i }
	}
	return func(vm *VM) *int64 {
		if s >= len(vm.env.Ints) {
			fail(fmt.Errorf("%w: int global %d", ErrBounds, s))
		}
		return &vm.env.Ints[s]
	}
}

// floatVar addresses a double variable; a global's slot is bounds-checked.
func floatVar(id *Ident) fn[*float64] {
	s := id.Slot
	if id.Kind == VarLocal {
		return func(vm *VM) *float64 { return &vm.locals[s].f }
	}
	return func(vm *VM) *float64 {
		if s >= len(vm.env.Floats) {
			fail(fmt.Errorf("%w: double global %d", ErrBounds, s))
		}
		return &vm.env.Floats[s]
	}
}

// intField addresses a record's int field, its id.
func intField(Field) func(*Record) *int64 { return func(r *Record) *int64 { return &r.ID } }

// floatField addresses one of a record's double fields.
func floatField(f Field) func(*Record) *float64 {
	switch f {
	case FieldValue:
		return func(r *Record) *float64 { return &r.Value }
	case FieldLastSent:
		return func(r *Record) *float64 { return &r.LastSent }
	}
	return func(r *Record) *float64 { return &r.Timestamp }
}

func load[T num](at fn[*T]) fn[T] { return func(vm *VM) T { return *at(vm) } }

// field reads a record field.
func field[T num](e *Member, fieldOf func(Field) func(*Record) *T) fn[T] {
	arr, rec := recExpr(e.Rec)
	at := fieldOf(e.Field)
	return func(vm *VM) T { return *at(&vm.records(arr)[rec(vm)]) }
}

func incDec[T num](e *IncDec, at fn[*T]) fn[T] {
	d := T(1)
	if e.Op == Dec {
		d = -d
	}
	if e.Prefix {
		return func(vm *VM) T { p := at(vm); *p += d; return *p }
	}
	return func(vm *VM) T { p := at(vm); v := *p; *p = v + d; return v }
}

// assign stores r's value in a variable or a record field; op is nil for
// plain =. The order is the language's: a field target's record index
// first; then, for a compound form, the target's current value; then the
// right side; and last the store. A plain = addresses a global only after
// the right side, so an error there comes first.
func assign[T num](e *Assign2, r fn[T], op func(a, b T) T,
	varOf func(*Ident) fn[*T], fieldOf func(Field) func(*Record) *T) fn[T] {
	switch l := e.L.(type) {
	case *Ident:
		at := varOf(l)
		if op == nil {
			return func(vm *VM) T { v := r(vm); *at(vm) = v; return v }
		}
		return func(vm *VM) T { p := at(vm); cur := *p; v := op(cur, r(vm)); *p = v; return v }
	case *Member:
		arr, rec := recExpr(l.Rec)
		at := fieldOf(l.Field)
		if op == nil {
			return func(vm *VM) T {
				i := rec(vm)
				v := r(vm)
				*at(&vm.records(arr)[i]) = v
				vm.wrote(arr, i)
				return v
			}
		}
		return func(vm *VM) T {
			i := rec(vm)
			p := at(&vm.records(arr)[i])
			cur := *p
			v := op(cur, r(vm))
			*p = v
			vm.wrote(arr, i)
			return v
		}
	}
	panic(internal(e.L))
}
