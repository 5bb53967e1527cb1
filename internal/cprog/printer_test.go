package cprog

import (
	"fmt"
	"strings"
	"testing"
)

// Print renders a parsed File back to mini-C source. The output
// re-parses to an equivalent AST, which is the parser's round-trip check
// in TestPrintRoundTrip and FuzzParse.
func Print(f *File) string {
	var b strings.Builder
	for _, g := range f.Globals {
		b.WriteString(printVarDecl(g, ""))
	}
	if len(f.Globals) > 0 && len(f.Funcs) > 0 {
		b.WriteString("\n")
	}
	for i, fn := range f.Funcs {
		if i > 0 {
			b.WriteString("\n")
		}
		printFunc(&b, fn)
	}
	return b.String()
}

func bankPrefix(bank Bank) string {
	switch bank {
	case BankX:
		return "xmem "
	case BankY:
		return "ymem "
	}
	return ""
}

func printVarDecl(d *VarDecl, indent string) string {
	var b strings.Builder
	b.WriteString(indent)
	b.WriteString(bankPrefix(d.Bank))
	b.WriteString("int ")
	b.WriteString(d.Name)
	if d.Size > 0 {
		fmt.Fprintf(&b, "[%d]", d.Size)
		if len(d.Init) > 0 {
			vals := make([]string, len(d.Init))
			for i, v := range d.Init {
				vals[i] = fmt.Sprintf("%d", v)
			}
			fmt.Fprintf(&b, " = {%s}", strings.Join(vals, ", "))
		}
	} else if len(d.Init) == 1 {
		fmt.Fprintf(&b, " = %d", d.Init[0])
	}
	b.WriteString(";\n")
	return b.String()
}

func printFunc(b *strings.Builder, fn *FuncDecl) {
	ret := "int"
	if fn.Void {
		ret = "void"
	}
	params := make([]string, len(fn.Params))
	for i, p := range fn.Params {
		s := bankPrefix(p.Bank) + "int " + p.Name
		if p.IsArray {
			s += "[]"
		}
		params[i] = s
	}
	fmt.Fprintf(b, "%s %s(%s) ", ret, fn.Name, strings.Join(params, ", "))
	printBlock(b, fn.Body, "")
	b.WriteString("\n")
}

func printBlock(b *strings.Builder, blk *BlockStmt, indent string) {
	b.WriteString("{\n")
	inner := indent + "\t"
	for _, s := range blk.Stmts {
		printStmt(b, s, inner)
	}
	b.WriteString(indent)
	b.WriteString("}")
}

func printStmt(b *strings.Builder, s Stmt, indent string) {
	switch st := s.(type) {
	case *BlockStmt:
		b.WriteString(indent)
		printBlock(b, st, indent)
		b.WriteString("\n")
	case *DeclStmt:
		b.WriteString(printVarDecl(st.Decl, indent))
	case *AssignStmt:
		fmt.Fprintf(b, "%s%s = %s;\n", indent, ExprString(st.LHS), ExprString(st.RHS))
	case *ExprStmt:
		fmt.Fprintf(b, "%s%s;\n", indent, ExprString(st.X))
	case *IfStmt:
		fmt.Fprintf(b, "%sif (%s) ", indent, ExprString(st.Cond))
		printBlock(b, st.Then, indent)
		if st.Else != nil {
			b.WriteString(" else ")
			printBlock(b, st.Else, indent)
		}
		b.WriteString("\n")
	case *WhileStmt:
		fmt.Fprintf(b, "%swhile (%s) ", indent, ExprString(st.Cond))
		printBlock(b, st.Body, indent)
		b.WriteString("\n")
	case *ForStmt:
		init, post := "", ""
		if st.Init != nil {
			init = fmt.Sprintf("%s = %s", ExprString(st.Init.LHS), ExprString(st.Init.RHS))
		}
		cond := ""
		if st.Cond != nil {
			cond = ExprString(st.Cond)
		}
		if st.Post != nil {
			post = fmt.Sprintf("%s = %s", ExprString(st.Post.LHS), ExprString(st.Post.RHS))
		}
		fmt.Fprintf(b, "%sfor (%s; %s; %s) ", indent, init, cond, post)
		printBlock(b, st.Body, indent)
		b.WriteString("\n")
	case *ReturnStmt:
		if st.Value != nil {
			fmt.Fprintf(b, "%sreturn %s;\n", indent, ExprString(st.Value))
		} else {
			fmt.Fprintf(b, "%sreturn;\n", indent)
		}
	case *BreakStmt:
		fmt.Fprintf(b, "%sbreak;\n", indent)
	case *ContinueStmt:
		fmt.Fprintf(b, "%scontinue;\n", indent)
	}
}

func TestPrintRoundTrip(t *testing.T) {
	sources := []string{
		firSrc,
		`int g = -5;
xmem int table[3] = {1, -2, 3};
void clear(int n) { int i; for (i = 0; i < n; i = i + 1) { table[0] = 0; } }
int f(int a, ymem int b[]) {
	int x;
	x = 0;
	if (a > 0 && b[0] != 0) { x = a << 2; } else { x = ~a; }
	while (x > 0) { x = x - 1; if (x == 2) { break; } }
	for (x = 0; x < 9; x = x + 1) { if (x == 1) { continue; } }
	return x % 3;
}
int main() { clear(2); return f(g, table); }
`,
	}
	for i, src := range sources {
		f1, err := Parse(src)
		if err != nil {
			t.Fatalf("source %d: parse: %v", i, err)
		}
		printed := Print(f1)
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("source %d: re-parse failed: %v\nprinted:\n%s", i, err, printed)
		}
		// Printing the re-parsed AST must be a fixed point.
		printed2 := Print(f2)
		if printed != printed2 {
			t.Errorf("source %d: printing not idempotent:\n--- first ---\n%s\n--- second ---\n%s",
				i, printed, printed2)
		}
		// Both ASTs must pass semantic analysis identically.
		if _, err := Analyze(f2); err != nil {
			t.Errorf("source %d: printed program fails analysis: %v", i, err)
		}
	}
}

func TestPrintPreservesBanks(t *testing.T) {
	src := `xmem int a[2];
ymem int b[2];
int f(xmem int p[], ymem int q[]) { return p[0] + q[0]; }
int main() { return f(a, b); }
`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(f)
	f2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, printed)
	}
	if f2.Globals[0].Bank != BankX || f2.Globals[1].Bank != BankY {
		t.Errorf("banks lost in printing:\n%s", printed)
	}
	if f2.Funcs[0].Params[0].Bank != BankX || f2.Funcs[0].Params[1].Bank != BankY {
		t.Errorf("param banks lost in printing:\n%s", printed)
	}
}
