package hist

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// binsBomb is a 60-byte block whose binning line claims ten million bins
// and which holds no row.
const binsBomb = "BEGIN DASPOS_H1D /x\nNBins=10000000 Lo=0 Hi=1\nEND DASPOS_H1D\n"

// readAllocates parses an input and reports the bytes the parse
// allocated, with its error.
func readAllocates(in []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadAll(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// allocBound is what parsing n bytes may allocate: the scanner's buffer,
// and a few times the bytes for the rows they hold.
func allocBound(n int) uint64 { return 128<<10 + 64*uint64(n) }

// TestBinCountReservesNothing: NBins is a claim, and the parse reserves
// nothing for it; the bins come as rows are read.
func TestBinCountReservesNothing(t *testing.T) {
	grew, err := readAllocates([]byte(binsBomb))
	if err == nil || !strings.Contains(err.Error(), "has 0 rows, header says 10000000") {
		t.Fatalf("got %v, want the row count refused", err)
	}
	if grew > allocBound(len(binsBomb)) {
		t.Fatalf("parsing %d bytes allocated %d", len(binsBomb), grew)
	}
}

// FuzzReadYODA parses arbitrary text: allocation stays within allocBound,
// and what it accepts WriteAll writes back to bytes that parse to the same
// histograms, written again byte for byte.
func FuzzReadYODA(f *testing.F) {
	h := NewH1D("mll", 40, 60, 120)
	h.Title = "m_{ll} \\ with a\nnewline"
	for i := 0; i < 500; i++ {
		h.FillW(55+float64(i%80), 0.5+float64(i%3))
	}
	var seed bytes.Buffer
	if err := WriteAll(&seed, h, NewH1D("empty", 3, -1, 1)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(binsBomb))
	f.Fuzz(func(t *testing.T, in []byte) {
		grew, err := readAllocates(in)
		if grew > allocBound(len(in)) {
			t.Fatalf("parsing %d bytes allocated %d (%v)", len(in), grew, err)
		}
		if err != nil {
			return
		}
		hs, _ := ReadAll(bytes.NewReader(in))
		var once, twice bytes.Buffer
		if err := WriteAll(&once, hs...); err != nil {
			t.Fatal(err)
		}
		back, err := ReadAll(bytes.NewReader(once.Bytes()))
		if err != nil || len(back) != len(hs) {
			t.Fatalf("written back, %d of %d histograms parse: %v", len(back), len(hs), err)
		}
		if err := WriteAll(&twice, back...); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("written back, the histograms do not parse equal (%v)", err)
		}
	})
}
