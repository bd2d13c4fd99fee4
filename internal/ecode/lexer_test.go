package ecode

import (
	"strings"
	"testing"
)

func kinds(toks []Token) []Kind {
	out := make([]Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := lexAll("int i = 0; if (i < 2) { i = i + 1; }")
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{
		KwInt, IDENT, Assign, INTLIT, Semi,
		KwIf, LParen, IDENT, Lt, INTLIT, RParen,
		LBrace, IDENT, Assign, IDENT, Plus, INTLIT, Semi, RBrace, EOF,
	}
	got := kinds(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexOperators(t *testing.T) {
	src := "== != <= >= << >> && || += -= *= /= %= ++ -- ? : ~ ^ & | ! ."
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{Eq, NotEq, LtEq, GtEq, Shl, Shr, AndAnd, OrOr,
		PlusAssign, MinusAssign, StarAssign, SlashAssign, PercentAssign,
		Inc, Dec, Question, Colon, Tilde, Caret, Amp, Pipe, Not, Dot, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexNumbers(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
		ival int64
		fval float64
	}{
		{"0", INTLIT, 0, 0},
		{"12345", INTLIT, 12345, 0},
		{"0x10", INTLIT, 16, 0},
		{"0XfF", INTLIT, 255, 0},
		{"1.5", FLOATLIT, 0, 1.5},
		{"50e6", FLOATLIT, 0, 50e6},
		{"1e-3", FLOATLIT, 0, 1e-3},
		{"2.5E+2", FLOATLIT, 0, 250},
		{".5", FLOATLIT, 0, 0.5},
	}
	for _, c := range cases {
		toks, err := lexAll(c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		tok := toks[0]
		if tok.Kind != c.kind {
			t.Errorf("%q: kind = %v, want %v", c.src, tok.Kind, c.kind)
		}
		if c.kind == INTLIT && tok.Int != c.ival {
			t.Errorf("%q: int = %d, want %d", c.src, tok.Int, c.ival)
		}
		if c.kind == FLOATLIT && tok.F != c.fval {
			t.Errorf("%q: float = %g, want %g", c.src, tok.F, c.fval)
		}
	}
}

func TestLexNumberNotExponent(t *testing.T) {
	// "2e" followed by a non-digit is the int 2 then an identifier.
	toks, err := lexAll("2e x")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != INTLIT || toks[0].Int != 2 {
		t.Fatalf("first token = %v %d", toks[0].Kind, toks[0].Int)
	}
	if toks[1].Kind != IDENT || toks[1].Text != "e" {
		t.Fatalf("second token = %v %q", toks[1].Kind, toks[1].Text)
	}
}

func TestLexComments(t *testing.T) {
	src := "// line comment\nint x; /* block\n comment */ x = 1;"
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Kind{KwInt, IDENT, Semi, IDENT, Assign, INTLIT, Semi, EOF}
	got := kinds(toks)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	if _, err := lexAll("/* never closed"); err == nil {
		t.Fatal("unterminated comment not rejected")
	}
}

func TestLexUnexpectedCharacter(t *testing.T) {
	_, err := lexAll("int x = @;")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := lexAll("int x;\n  x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	// "x" on line 2 starts at column 3.
	var assignTok Token
	for _, tok := range toks {
		if tok.Kind == Assign {
			assignTok = tok
		}
	}
	if assignTok.Pos.Line != 2 || assignTok.Pos.Col != 5 {
		t.Fatalf("assign at %v, want 2:5", assignTok.Pos)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	toks, err := lexAll("interval form whilex iff return1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if toks[i].Kind != IDENT {
			t.Fatalf("token %d (%q) lexed as %v, want IDENT", i, toks[i].Text, toks[i].Kind)
		}
	}
}

func TestLexBOMStripped(t *testing.T) {
	if _, err := parse("\uFEFF" + "int x = 1;"); err != nil {
		t.Fatalf("BOM-prefixed source rejected: %v", err)
	}
}

func TestLexPaperFilterSource(t *testing.T) {
	// The complete filter from Figure 3 of the paper must lex cleanly.
	toks, err := lexAll(paperFigure3)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) < 50 {
		t.Fatalf("suspiciously few tokens: %d", len(toks))
	}
}

// paperFigure3 is the filter code example from Figure 3 of the paper,
// verbatim (modulo whitespace).
const paperFigure3 = `
{
  int i = 0;
  if(input[LOADAVG].value > 2){
    output[i] = input[LOADAVG];
    i = i + 1;
  }
  if(input[DISKUSAGE].value > 10000 &&
     input[FREEMEM].value < 50e6){
    output[i] = input[DISKUSAGE];
    i = i + 1;
    output[i] = input[FREEMEM];
    i = i + 1;
  }
  if(input[CACHE_MISS].value >
     input[CACHE_MISS].last_value_sent){
    output[i] = input[CACHE_MISS];
    i = i + 1;
  }
}
`
