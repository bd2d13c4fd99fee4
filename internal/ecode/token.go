// Package ecode implements the E-code dynamic filter language of the dproc
// paper: a small subset of C (the C operators, for loops, if statements and
// return statements) whose source is shipped as a string over the control
// channel and compiled at the executing host. This reproduction compiles
// each checked AST node to a Go closure, run under a step budget: the
// pure-Go form of the paper's dynamic native code generation. A
// tree-walking interpreter in the tests is the compiled filters' parity
// oracle and the compiled-vs-interpreted ablation's other side.
//
// A filter runs against an Env holding the input[] and output[] record
// arrays (fields: value, last_value_sent, id, timestamp), integer constants
// such as LOADAVG naming the input indices, and optional scalar globals.
package ecode

import "fmt"

// Kind enumerates lexical token kinds.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT

	// Keywords.
	KwInt
	KwLong
	KwFloat
	KwDouble
	KwIf
	KwElse
	KwFor
	KwWhile
	KwReturn
	KwBreak
	KwContinue

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Question // ?
	Colon    // :

	Assign     // =
	PlusAssign // +=
	MinusAssign
	StarAssign
	SlashAssign
	PercentAssign

	OrOr   // ||
	AndAnd // &&
	Pipe   // |
	Caret  // ^
	Amp    // &
	Eq     // ==
	NotEq  // !=
	Lt     // <
	LtEq   // <=
	Gt     // >
	GtEq   // >=
	Shl    // <<
	Shr    // >>
	Plus   // +
	Minus  // -
	Star   // *
	Slash  // /
	Percent
	Not   // !
	Tilde // ~
	Inc   // ++
	Dec   // --
)

var kindNames = map[Kind]string{
	EOF: "end of input", IDENT: "identifier", INTLIT: "integer literal", FLOATLIT: "float literal",
	KwInt: "'int'", KwLong: "'long'", KwFloat: "'float'", KwDouble: "'double'",
	KwIf: "'if'", KwElse: "'else'", KwFor: "'for'", KwWhile: "'while'",
	KwReturn: "'return'", KwBreak: "'break'", KwContinue: "'continue'",
	LParen: "'('", RParen: "')'", LBrace: "'{'", RBrace: "'}'",
	LBracket: "'['", RBracket: "']'", Semi: "';'", Comma: "','", Dot: "'.'",
	Question: "'?'", Colon: "':'",
	Assign: "'='", PlusAssign: "'+='", MinusAssign: "'-='", StarAssign: "'*='",
	SlashAssign: "'/='", PercentAssign: "'%='",
	OrOr: "'||'", AndAnd: "'&&'", Pipe: "'|'", Caret: "'^'", Amp: "'&'",
	Eq: "'=='", NotEq: "'!='", Lt: "'<'", LtEq: "'<='", Gt: "'>'", GtEq: "'>='",
	Shl: "'<<'", Shr: "'>>'", Plus: "'+'", Minus: "'-'", Star: "'*'", Slash: "'/'",
	Percent: "'%'", Not: "'!'", Tilde: "'~'", Inc: "'++'", Dec: "'--'",
}

// String returns a human-readable token-kind name for diagnostics.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("token(%d)", int(k))
}

var keywords = map[string]Kind{
	"int": KwInt, "long": KwLong, "float": KwFloat, "double": KwDouble,
	"if": KwIf, "else": KwElse, "for": KwFor, "while": KwWhile,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
}

// Pos is a source position, 1-based.
type Pos struct {
	Line, Col int
}

// String formats the position as line:col.
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string  // raw text for IDENT and literals
	Int  int64   // value for INTLIT
	F    float64 // value for FLOATLIT
}

// Error is a compile-time diagnostic carrying a source position.
type Error struct {
	Pos Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("ecode:%s: %s", e.Pos, e.Msg) }

func errf(pos Pos, format string, args ...any) *Error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
