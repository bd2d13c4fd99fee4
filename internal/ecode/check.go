package ecode

// The checker resolves identifiers against an EnvSpec, assigns local slots,
// enforces E-code's typing rules, and rewrites the AST in place: every
// expression gets a static type and implicit int<->double conversions are
// made explicit as Conv nodes. The code generator and the tree-walking
// interpreter both consume the checked AST.

type symbol struct {
	kind VarKind
	typ  Type
	slot int
	val  int64    // for consts
	arr  ArrayRef // for arrays
}

type scope struct {
	parent *scope
	names  map[string]symbol
}

func (s *scope) lookup(name string) (symbol, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if sym, ok := cur.names[name]; ok {
			return sym, true
		}
	}
	return symbol{}, false
}

// Builtin slots: which array's length a varBuiltin identifier reads.
const (
	builtinNInput  = 0 // ninput: number of input records
	builtinNOutput = 1 // noutput: output array capacity
)

type checker struct {
	spec     *EnvSpec
	globals  *scope
	cur      *scope
	nextSlot int
	maxSlot  int
	loops    int
}

func check(stmts []Stmt, spec *EnvSpec) (frameSize int, err error) {
	if spec == nil {
		spec = &EnvSpec{}
	}
	if err := spec.validate(); err != nil {
		return 0, err
	}
	g := &scope{names: map[string]symbol{}}
	for name, v := range spec.Consts {
		g.names[name] = symbol{kind: VarConst, typ: TypeInt, val: v}
	}
	for i, name := range spec.IntGlobals {
		g.names[name] = symbol{kind: VarGlobal, typ: TypeInt, slot: i}
	}
	for i, name := range spec.FloatGlobals {
		g.names[name] = symbol{kind: VarGlobal, typ: TypeFloat, slot: i}
	}
	g.names["input"] = symbol{kind: VarArray, typ: TypeRecord, arr: ArrInput}
	g.names["output"] = symbol{kind: VarArray, typ: TypeRecord, arr: ArrOutput}
	// ninput/noutput are runtime values, not true consts; the internal
	// builtin kind makes the code generator read the array's length.
	g.names["ninput"] = symbol{kind: varBuiltin, typ: TypeInt, slot: builtinNInput}
	g.names["noutput"] = symbol{kind: varBuiltin, typ: TypeInt, slot: builtinNOutput}

	c := &checker{spec: spec, globals: g, cur: g}
	c.push()
	for _, s := range stmts {
		if err := c.stmt(s); err != nil {
			return 0, err
		}
	}
	return c.maxSlot, nil
}

// varBuiltin is an internal storage class for ninput/noutput; it is not part
// of the public VarKind set used by Ident nodes handed to external callers.
const varBuiltin VarKind = 99

func (c *checker) push() { c.cur = &scope{parent: c.cur, names: map[string]symbol{}} }

func (c *checker) pop() { c.cur = c.cur.parent }

func (c *checker) declareLocal(pos Pos, name string, typ Type) (int, error) {
	if _, exists := c.cur.names[name]; exists {
		return 0, errf(pos, "%q redeclared in this scope", name)
	}
	if _, isGlobal := c.globals.names[name]; isGlobal && c.cur == c.globals {
		return 0, errf(pos, "%q conflicts with an environment symbol", name)
	}
	slot := c.nextSlot
	c.nextSlot++
	if c.nextSlot > c.maxSlot {
		c.maxSlot = c.nextSlot
	}
	c.cur.names[name] = symbol{kind: VarLocal, typ: typ, slot: slot}
	return slot, nil
}

func (c *checker) stmt(s Stmt) error {
	switch st := s.(type) {
	case *DeclStmt:
		if st.Init != nil {
			if err := c.expr(st.Init); err != nil {
				return err
			}
			conv, err := c.convertTo(st.Init, st.Typ)
			if err != nil {
				return err
			}
			st.Init = conv
		}
		slot, err := c.declareLocal(st.Pos, st.Name, st.Typ)
		if err != nil {
			return err
		}
		st.Slot = slot
		return nil
	case *ExprStmt:
		return c.expr(st.X)
	case *IfStmt:
		if err := c.cond(st.Cond); err != nil {
			return err
		}
		c.push()
		if err := c.stmt(st.Then); err != nil {
			return err
		}
		c.pop()
		if st.Else != nil {
			c.push()
			if err := c.stmt(st.Else); err != nil {
				return err
			}
			c.pop()
		}
		return nil
	case *ForStmt:
		c.push()
		defer c.pop()
		for _, init := range st.Init {
			if err := c.stmt(init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := c.cond(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := c.expr(st.Post); err != nil {
				return err
			}
		}
		c.loops++
		defer func() { c.loops-- }()
		c.push()
		if err := c.stmt(st.Body); err != nil {
			return err
		}
		c.pop()
		return nil
	case *WhileStmt:
		if err := c.cond(st.Cond); err != nil {
			return err
		}
		c.loops++
		defer func() { c.loops-- }()
		c.push()
		if err := c.stmt(st.Body); err != nil {
			return err
		}
		c.pop()
		return nil
	case *ReturnStmt:
		if st.X == nil {
			return nil
		}
		if err := c.expr(st.X); err != nil {
			return err
		}
		if t := st.X.exprType(); t != TypeInt && t != TypeFloat {
			return errf(st.Pos, "cannot return a %s value", t)
		}
		return nil
	case *BreakStmt:
		if c.loops == 0 {
			return errf(st.Pos, "break outside a loop")
		}
		return nil
	case *ContinueStmt:
		if c.loops == 0 {
			return errf(st.Pos, "continue outside a loop")
		}
		return nil
	case *BlockStmt:
		if !st.NoScope {
			c.push()
			defer c.pop()
		}
		for _, inner := range st.List {
			if err := c.stmt(inner); err != nil {
				return err
			}
		}
		return nil
	}
	return errf(s.stmtPos(), "internal: unknown statement type %T", s)
}

// cond checks an expression used as a condition; it must be scalar.
func (c *checker) cond(x Expr) error {
	if err := c.expr(x); err != nil {
		return err
	}
	if t := x.exprType(); t != TypeInt && t != TypeFloat {
		return errf(x.exprPos(), "condition must be scalar, got %s", t)
	}
	return nil
}

// convertTo wraps x in a Conv node if its type differs from want.
func (c *checker) convertTo(x Expr, want Type) (Expr, error) {
	got := x.exprType()
	if got == want {
		return x, nil
	}
	if (got == TypeInt && want == TypeFloat) || (got == TypeFloat && want == TypeInt) {
		return &Conv{exprBase: exprBase{Pos: x.exprPos(), Typ: want}, X: x}, nil
	}
	return nil, errf(x.exprPos(), "cannot convert %s to %s", got, want)
}

// isLvalue reports whether x may be assigned to, after checking.
func isLvalue(x Expr) bool {
	switch e := x.(type) {
	case *Ident:
		return e.Kind == VarLocal || e.Kind == VarGlobal
	case *Index:
		return true // record slot
	case *Member:
		_, recIsRef := e.Rec.(*Index)
		return recIsRef
	}
	return false
}

func (c *checker) expr(x Expr) error {
	switch e := x.(type) {
	case *IntLit:
		e.Typ = TypeInt
		return nil
	case *FloatLit:
		e.Typ = TypeFloat
		return nil
	case *Ident:
		sym, ok := c.cur.lookup(e.Name)
		if !ok {
			return errf(e.Pos, "undefined symbol %q", e.Name)
		}
		e.Kind = sym.kind
		e.Slot = sym.slot
		e.Val = sym.val
		e.Arr = sym.arr
		e.Typ = sym.typ
		if sym.kind == VarArray {
			return errf(e.Pos, "%q must be indexed (use %s[i])", e.Name, e.Name)
		}
		return nil
	case *Index:
		sym, ok := c.cur.lookup(e.Name)
		if !ok {
			return errf(e.Pos, "undefined symbol %q", e.Name)
		}
		if sym.kind != VarArray {
			return errf(e.Pos, "%q is not an array", e.Name)
		}
		e.Arr = sym.arr
		if err := c.expr(e.Inner); err != nil {
			return err
		}
		if e.Inner.exprType() != TypeInt {
			return errf(e.Inner.exprPos(), "array index must be an integer, got %s", e.Inner.exprType())
		}
		e.Typ = TypeRecord
		return nil
	case *Member:
		if err := c.expr(e.Rec); err != nil {
			return err
		}
		if e.Rec.exprType() != TypeRecord {
			return errf(e.Pos, "field access on non-record %s", e.Rec.exprType())
		}
		e.Typ = fieldType(e.Field)
		return nil
	case *Unary:
		if err := c.expr(e.X); err != nil {
			return err
		}
		t := e.X.exprType()
		switch e.Op {
		case Minus:
			if t != TypeInt && t != TypeFloat {
				return errf(e.Pos, "unary - on %s", t)
			}
			e.Typ = t
		case Not:
			if t != TypeInt && t != TypeFloat {
				return errf(e.Pos, "! on %s", t)
			}
			e.Typ = TypeInt
		case Tilde:
			if t != TypeInt {
				return errf(e.Pos, "~ requires an integer, got %s", t)
			}
			e.Typ = TypeInt
		default:
			return errf(e.Pos, "internal: bad unary op %s", e.Op)
		}
		return nil
	case *IncDec:
		if err := c.expr(e.X); err != nil {
			return err
		}
		id, ok := e.X.(*Ident)
		if !ok || (id.Kind != VarLocal && id.Kind != VarGlobal) {
			return errf(e.Pos, "++/-- requires a scalar variable")
		}
		t := id.exprType()
		if t != TypeInt && t != TypeFloat {
			return errf(e.Pos, "++/-- on %s", t)
		}
		e.Typ = t
		return nil
	case *Binary:
		return c.binary(e)
	case *Cond:
		if err := c.cond(e.C); err != nil {
			return err
		}
		if err := c.expr(e.Then); err != nil {
			return err
		}
		if err := c.expr(e.Else); err != nil {
			return err
		}
		lt, rt := e.Then.exprType(), e.Else.exprType()
		if lt == TypeRecord || rt == TypeRecord {
			return errf(e.Pos, "?: branches must be scalar")
		}
		t := TypeInt
		if lt == TypeFloat || rt == TypeFloat {
			t = TypeFloat
		}
		var err error
		if e.Then, err = c.convertTo(e.Then, t); err != nil {
			return err
		}
		if e.Else, err = c.convertTo(e.Else, t); err != nil {
			return err
		}
		e.Typ = t
		return nil
	case *Assign2:
		return c.assign(e)
	case *Conv:
		return errf(e.Pos, "internal: Conv before checking")
	}
	return errf(x.exprPos(), "internal: unknown expression type %T", x)
}

func (c *checker) binary(e *Binary) error {
	if err := c.expr(e.L); err != nil {
		return err
	}
	if err := c.expr(e.R); err != nil {
		return err
	}
	lt, rt := e.L.exprType(), e.R.exprType()
	if lt == TypeRecord || rt == TypeRecord {
		return errf(e.Pos, "operator %s cannot be applied to records", e.Op)
	}
	intOnly := func() error {
		if lt != TypeInt || rt != TypeInt {
			return errf(e.Pos, "operator %s requires integer operands", e.Op)
		}
		e.Typ = TypeInt
		return nil
	}
	switch e.Op {
	case Percent, Amp, Pipe, Caret, Shl, Shr:
		return intOnly()
	case AndAnd, OrOr:
		// Operands may be int or double; result is int 0/1.
		e.Typ = TypeInt
		return nil
	case Eq, NotEq, Lt, LtEq, Gt, GtEq:
		t := TypeInt
		if lt == TypeFloat || rt == TypeFloat {
			t = TypeFloat
		}
		var err error
		if e.L, err = c.convertTo(e.L, t); err != nil {
			return err
		}
		if e.R, err = c.convertTo(e.R, t); err != nil {
			return err
		}
		e.Typ = TypeInt
		return nil
	case Plus, Minus, Star, Slash:
		t := TypeInt
		if lt == TypeFloat || rt == TypeFloat {
			t = TypeFloat
		}
		var err error
		if e.L, err = c.convertTo(e.L, t); err != nil {
			return err
		}
		if e.R, err = c.convertTo(e.R, t); err != nil {
			return err
		}
		e.Typ = t
		return nil
	}
	return errf(e.Pos, "internal: bad binary op %s", e.Op)
}

func (c *checker) assign(e *Assign2) error {
	if err := c.expr(e.L); err != nil {
		return err
	}
	if err := c.expr(e.R); err != nil {
		return err
	}
	if !isLvalue(e.L) {
		return errf(e.Pos, "left side of %s is not assignable", e.Op)
	}
	lt, rt := e.L.exprType(), e.R.exprType()
	if lt == TypeRecord || rt == TypeRecord {
		if e.Op != Assign {
			return errf(e.Pos, "records only support plain assignment")
		}
		if lt != TypeRecord || rt != TypeRecord {
			return errf(e.Pos, "cannot assign %s to %s", rt, lt)
		}
		e.Typ = TypeRecord
		return nil
	}
	if id, ok := e.L.(*Ident); ok && id.Kind != VarLocal && id.Kind != VarGlobal {
		return errf(e.Pos, "cannot assign to %q", id.Name)
	}
	switch e.Op {
	case PercentAssign:
		if lt != TypeInt || rt != TypeInt {
			return errf(e.Pos, "%%= requires integer operands")
		}
	case Assign, PlusAssign, MinusAssign, StarAssign, SlashAssign:
		// RHS converts to the target's type.
	default:
		return errf(e.Pos, "internal: bad assignment op %s", e.Op)
	}
	conv, err := c.convertTo(e.R, lt)
	if err != nil {
		return err
	}
	e.R = conv
	e.Typ = lt
	return nil
}
