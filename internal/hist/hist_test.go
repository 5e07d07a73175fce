package hist

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"daspos/internal/xrand"
)

func TestFillBasics(t *testing.T) {
	h := NewH1D("m", 10, 0, 100)
	h.Fill(5)
	h.Fill(15)
	h.Fill(15)
	h.Fill(-1)
	h.Fill(100) // hi edge is exclusive
	h.Fill(250)
	if h.SumW[0] != 1 || h.SumW[1] != 2 {
		t.Fatalf("bins: %v", h.SumW)
	}
	if h.Under != 1 {
		t.Fatalf("under %v", h.Under)
	}
	if h.Over != 2 {
		t.Fatalf("over %v", h.Over)
	}
	if h.Entries != 6 {
		t.Fatalf("entries %d", h.Entries)
	}
	if h.Integral() != 3 {
		t.Fatalf("integral %v", h.Integral())
	}
}

func TestNaNGoesToOverflow(t *testing.T) {
	h := NewH1D("x", 4, 0, 1)
	h.Fill(math.NaN())
	if h.Over != 1 || h.Integral() != 0 {
		t.Fatalf("NaN handling: over=%v integral=%v", h.Over, h.Integral())
	}
}

func TestInvalidBinningPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid binning did not panic")
		}
	}()
	NewH1D("bad", 0, 0, 1)
}

func TestBinGeometry(t *testing.T) {
	h := NewH1D("x", 4, 0, 8)
	if h.BinWidth() != 2 {
		t.Fatalf("width %v", h.BinWidth())
	}
	if h.BinCenter(0) != 1 || h.BinCenter(3) != 7 {
		t.Fatalf("centers %v %v", h.BinCenter(0), h.BinCenter(3))
	}
	if h.BinIndex(0) != 0 || h.BinIndex(7.999) != 3 {
		t.Fatalf("indices %d %d", h.BinIndex(0), h.BinIndex(7.999))
	}
}

func TestBinIndexNeverOutOfRange(t *testing.T) {
	h := NewH1D("x", 7, -3, 11)
	if err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		x = math.Mod(x, 100)
		i := h.BinIndex(x)
		return i >= 0 && i < h.NBins
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMoments(t *testing.T) {
	h := NewH1D("x", 100, 0, 10)
	h.FillW(2, 1)
	h.FillW(4, 3)
	// mean = (2 + 12)/4 = 3.5
	if math.Abs(h.Mean()-3.5) > 1e-12 {
		t.Fatalf("mean %v", h.Mean())
	}
}

func TestScaleAndNormalize(t *testing.T) {
	h := NewH1D("x", 2, 0, 2)
	h.Fill(0.5)
	h.Fill(1.5)
	h.Fill(1.5)
	h.Scale(2)
	if h.Integral() != 6 {
		t.Fatalf("scaled integral %v", h.Integral())
	}
	if h.BinError(1) != math.Sqrt(8) {
		t.Fatalf("scaled error %v", h.BinError(1))
	}
	h.Normalize(1)
	if math.Abs(h.Integral()-1) > 1e-12 {
		t.Fatalf("normalized integral %v", h.Integral())
	}
	empty := NewH1D("e", 2, 0, 1)
	empty.Normalize(5) // must not panic or produce NaN
	if empty.Integral() != 0 {
		t.Fatal("empty normalize changed contents")
	}
}

func TestCloneIsDeep(t *testing.T) {
	h := NewH1D("x", 3, 0, 3)
	h.Fill(1.5)
	c := h.Clone()
	c.Fill(1.5)
	if h.SumW[1] != 1 || c.SumW[1] != 2 {
		t.Fatal("clone shares storage")
	}
}

func TestMaxBin(t *testing.T) {
	h := NewH1D("x", 5, 0, 5)
	h.Fill(2.5)
	h.Fill(2.5)
	h.Fill(4.5)
	if h.MaxBin() != 2 {
		t.Fatalf("maxbin %d", h.MaxBin())
	}
}

func TestYodaRoundTrip(t *testing.T) {
	r := xrand.New(9)
	h := NewH1D("mass_mumu", 60, 60, 120)
	h.Title = "Dimuon mass\nwith newline"
	for i := 0; i < 10000; i++ {
		h.FillW(r.BreitWigner(91.2, 2.5), r.Range(0.9, 1.1))
	}
	var buf bytes.Buffer
	if err := WriteH1D(&buf, h); err != nil {
		t.Fatal(err)
	}
	hs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 1 {
		t.Fatalf("got %d histograms", len(hs))
	}
	g := hs[0]
	if g.Name != h.Name || g.Title != h.Title || g.NBins != h.NBins {
		t.Fatalf("metadata mismatch: %+v", g)
	}
	if g.Entries != h.Entries || g.Under != h.Under || g.Over != h.Over {
		t.Fatalf("totals mismatch")
	}
	for i := range h.SumW {
		if g.SumW[i] != h.SumW[i] || g.SumW2[i] != h.SumW2[i] {
			t.Fatalf("bin %d not bit-exact: %v vs %v", i, g.SumW[i], h.SumW[i])
		}
	}
	if g.Mean() != h.Mean() || g.sumWX2 != h.sumWX2 {
		t.Fatalf("moments not preserved: %v/%v vs %v/%v", g.Mean(), g.sumWX2, h.Mean(), h.sumWX2)
	}
}

func TestYodaMultipleBlocks(t *testing.T) {
	a := NewH1D("a", 2, 0, 1)
	b := NewH1D("b", 3, -1, 1)
	a.Fill(0.2)
	b.Fill(0)
	var buf bytes.Buffer
	if err := WriteAll(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("\n# trailing comment\n")
	hs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs) != 2 || hs[0].Name != "a" || hs[1].Name != "b" {
		t.Fatalf("blocks: %d", len(hs))
	}
}

func TestYodaRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"unterminated": "BEGIN DASPOS_H1D /x\nNBins=1 Lo=0 Hi=1\n0 0\n",
		"row count":    "BEGIN DASPOS_H1D /x\nNBins=2 Lo=0 Hi=1\n0 0\nEND DASPOS_H1D\n",
		"bad number":   "BEGIN DASPOS_H1D /x\nNBins=1 Lo=0 Hi=1\nzz 0\nEND DASPOS_H1D\n",
		"bad binning":  "BEGIN DASPOS_H1D /x\nNBins=1 Lo=5 Hi=1\nEND DASPOS_H1D\n",
		"data early":   "BEGIN DASPOS_H1D /x\n0 0\nEND DASPOS_H1D\n",
		"no binning":   "BEGIN DASPOS_H1D /x\nEND DASPOS_H1D\n",
		"extra rows":   "BEGIN DASPOS_H1D /x\nNBins=1 Lo=0 Hi=1\n0 0\n1 1\nEND DASPOS_H1D\n",
		"bad row":      "BEGIN DASPOS_H1D /x\nNBins=1 Lo=0 Hi=1\n0 0 0\nEND DASPOS_H1D\n",
	}
	for name, in := range cases {
		if _, err := ReadAll(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt input accepted", name)
		}
	}
}

func BenchmarkFill(b *testing.B) {
	h := NewH1D("x", 100, 0, 100)
	for i := 0; i < b.N; i++ {
		h.Fill(float64(i % 100))
	}
}

func BenchmarkYodaWrite(b *testing.B) {
	h := NewH1D("x", 100, 0, 100)
	for i := 0; i < 100; i++ {
		h.Fill(float64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = WriteH1D(&buf, h)
	}
}
