package ecode

import "fmt"

// Opcode enumerates VM instructions. Arithmetic and comparison opcodes are
// typed (…I integer, …F double) because the checker makes all conversions
// explicit; the VM never dispatches on runtime value kinds, which is what
// makes the bytecode a faithful stand-in for the paper's generated native
// code.
type Opcode uint8

// Instruction set.
const (
	OpNop Opcode = iota

	// Constants and storage.
	OpConstI   // push I
	OpConstF   // push F
	OpLoadLoc  // push locals[A]
	OpStoreLoc // pop v; locals[A] = v; push v
	OpLoadGI   // push env.Ints[A]
	OpStoreGI  // pop v; env.Ints[A] = v; push v
	OpLoadGF   // push env.Floats[A]
	OpStoreGF  // pop v; env.Floats[A] = v; push v
	OpBuiltin  // push builtin A (ninput, noutput)

	// Record access.
	OpIndexIn   // pop i; push ref(input, i)
	OpIndexOut  // pop i; push ref(output, i)
	OpRecLoadF  // pop ref; push field A of the record
	OpRecStoreF // pop v, ref; set field A; push v
	OpRecCopy   // pop src, dst refs; *dst = *src; push dst

	// Integer arithmetic and logic.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI
	OpNotI  // pop x; push x==0 ? 1 : 0
	OpBNotI // pop x; push ^x
	OpAndI  // bitwise &
	OpOrI   // bitwise |
	OpXorI
	OpShlI
	OpShrI

	// Double arithmetic.
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF

	// Comparisons (push int 0/1).
	OpEqI
	OpNeI
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpEqF
	OpNeF
	OpLtF
	OpLeF
	OpGtF
	OpGeF

	// Conversions.
	OpI2F
	OpF2I
	OpBoolF // pop double; push int 0/1

	// Control flow.
	OpJump   // pc = A
	OpJumpZ  // pop int; if zero pc = A
	OpJumpNZ // pop int; if non-zero pc = A

	// Stack manipulation.
	OpDup
	OpPop

	// Termination.
	OpRetI    // pop int; finish with int result
	OpRetF    // pop double; finish with double result
	OpRetVoid // finish with void result
)

var opNames = map[Opcode]string{
	OpNop: "nop", OpConstI: "consti", OpConstF: "constf",
	OpLoadLoc: "loadloc", OpStoreLoc: "storeloc",
	OpLoadGI: "loadgi", OpStoreGI: "storegi", OpLoadGF: "loadgf", OpStoreGF: "storegf",
	OpBuiltin: "builtin",
	OpIndexIn: "indexin", OpIndexOut: "indexout",
	OpRecLoadF: "recload", OpRecStoreF: "recstore", OpRecCopy: "reccopy",
	OpAddI: "addi", OpSubI: "subi", OpMulI: "muli", OpDivI: "divi", OpModI: "modi",
	OpNegI: "negi", OpNotI: "noti", OpBNotI: "bnoti",
	OpAndI: "andi", OpOrI: "ori", OpXorI: "xori", OpShlI: "shli", OpShrI: "shri",
	OpAddF: "addf", OpSubF: "subf", OpMulF: "mulf", OpDivF: "divf", OpNegF: "negf",
	OpEqI: "eqi", OpNeI: "nei", OpLtI: "lti", OpLeI: "lei", OpGtI: "gti", OpGeI: "gei",
	OpEqF: "eqf", OpNeF: "nef", OpLtF: "ltf", OpLeF: "lef", OpGtF: "gtf", OpGeF: "gef",
	OpI2F: "i2f", OpF2I: "f2i", OpBoolF: "boolf",
	OpJump: "jump", OpJumpZ: "jumpz", OpJumpNZ: "jumpnz",
	OpDup: "dup", OpPop: "pop",
	OpRetI: "reti", OpRetF: "retf", OpRetVoid: "retvoid",
}

// String returns the opcode mnemonic.
func (op Opcode) String() string {
	if s, ok := opNames[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Instr is one VM instruction. A carries slot numbers, field ids and jump
// targets; I and F carry immediate constants.
type Instr struct {
	Op Opcode
	A  int32
	I  int64
	F  float64
}

// String disassembles one instruction.
func (in Instr) String() string {
	switch in.Op {
	case OpConstI:
		return fmt.Sprintf("%-9s %d", in.Op, in.I)
	case OpConstF:
		return fmt.Sprintf("%-9s %g", in.Op, in.F)
	case OpLoadLoc, OpStoreLoc, OpLoadGI, OpStoreGI, OpLoadGF, OpStoreGF,
		OpBuiltin, OpRecLoadF, OpRecStoreF, OpJump, OpJumpZ, OpJumpNZ:
		return fmt.Sprintf("%-9s %d", in.Op, in.A)
	default:
		return in.Op.String()
	}
}

// Program is a compiled filter: the bytecode, the local frame size, and the
// original source for redistribution over the control channel.
type Program struct {
	Code      []Instr
	FrameSize int
	Source    string
}

// Disassemble renders the program as one instruction per line, for tests and
// debugging.
func (p *Program) Disassemble() string {
	out := ""
	for i, in := range p.Code {
		out += fmt.Sprintf("%4d  %s\n", i, in)
	}
	return out
}
