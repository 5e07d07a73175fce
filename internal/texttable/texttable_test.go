package texttable

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
	"unicode/utf8"
)

func TestBasicRender(t *testing.T) {
	tb := New("Name", "Value")
	tb.AddRow("alpha", 1)
	tb.AddRow("beta", 22)
	out := tb.String()
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "22") {
		t.Fatalf("render missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 3 separators + header + 2 rows = 6 lines.
	if len(lines) != 6 {
		t.Fatalf("expected 6 lines, got %d:\n%s", len(lines), out)
	}
	width := utf8.RuneCountInString(lines[0])
	for i, ln := range lines {
		if utf8.RuneCountInString(ln) != width {
			t.Fatalf("line %d width %d != %d:\n%s", i, utf8.RuneCountInString(ln), width, out)
		}
	}
}

func TestTitle(t *testing.T) {
	tb := New("A")
	tb.Title = "Table 1. Outreach"
	tb.AddRow("x")
	if !strings.HasPrefix(tb.String(), "Table 1. Outreach\n") {
		t.Fatal("title not rendered first")
	}
}

func TestRightAlign(t *testing.T) {
	tb := New("N", "Count")
	tb.SetAlign(1, Right)
	tb.AddRow("a", 5)
	tb.AddRow("b", 12345)
	out := tb.String()
	if !strings.Contains(out, "|     5 |") {
		t.Fatalf("right alignment not applied:\n%s", out)
	}
}

func TestCenterAlign(t *testing.T) {
	tb := New("Wide Header", "X")
	tb.SetAlign(0, Center)
	tb.AddRow("m", "y")
	out := tb.String()
	if !strings.Contains(out, "|      m      |") {
		t.Fatalf("center alignment not applied:\n%s", out)
	}
}

func TestMissingAndExtraCells(t *testing.T) {
	tb := New("A", "B")
	tb.AddRow("only")
	tb.AddRow("x", "y", "z")
	out := tb.String()
	if !strings.Contains(out, "z") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

func TestWrapping(t *testing.T) {
	tb := New("Feature", "Detail")
	tb.MaxCellWidth = 10
	tb.AddRow("fmt", "a very long description that must wrap across lines")
	out := tb.String()
	for _, ln := range strings.Split(out, "\n") {
		if utf8.RuneCountInString(ln) > 40 {
			t.Fatalf("line too long after wrap: %q", ln)
		}
	}
	if !strings.Contains(out, "very") || !strings.Contains(out, "lines") {
		t.Fatalf("wrapped content lost:\n%s", out)
	}
}

func TestWrapHardBreak(t *testing.T) {
	lines := wrap("abcdefghijklmnop", 5)
	for _, ln := range lines {
		if utf8.RuneCountInString(ln) > 5 {
			t.Fatalf("hard break failed: %q", ln)
		}
	}
	if strings.Join(lines, "") != "abcdefghijklmnop" {
		t.Fatalf("hard break lost content: %v", lines)
	}
}

func TestWrapPreservesContent(t *testing.T) {
	// Property: wrapping never loses or reorders non-space characters.
	strip := func(s string) string {
		return strings.Map(func(r rune) rune {
			if unicode.IsSpace(r) {
				return -1
			}
			return r
		}, s)
	}
	if err := quick.Check(func(words []string, width uint8) bool {
		var clean []string
		for _, w := range words {
			if sw := strip(w); sw != "" {
				clean = append(clean, sw)
			}
		}
		s := strings.Join(clean, " ")
		w := int(width%40) + 1
		return strip(strings.Join(wrap(s, w), "")) == strip(s)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTable(t *testing.T) {
	var tb Table
	if tb.String() != "" {
		t.Fatal("empty table should render empty")
	}
}

func TestNumRows(t *testing.T) {
	tb := New("A")
	if tb.NumRows() != 0 {
		t.Fatal("fresh table has rows")
	}
	tb.AddRow(1).AddRow(2)
	if tb.NumRows() != 2 {
		t.Fatalf("NumRows=%d", tb.NumRows())
	}
}
