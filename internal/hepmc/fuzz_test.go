package hepmc_test

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"daspos/internal/generator"
	"daspos/internal/hepmc"
)

// headerBomb is an E record claiming 2^20 vertices and 2^20 particles,
// with nothing behind it.
const headerBomb = "HEPMC-DASPOS 1\nE 0 0 1 1048576 1048576\n"

// What reading a stream may allocate: a fixed base (the scanner's buffer,
// the first reservations) and a constant per byte read (each line's text,
// its fields and the record it becomes).
const (
	allocBase    = 256 << 10
	allocPerByte = 64
)

// readAllocating reads every event of in and reports the bytes allocated.
func readAllocating(in []byte) ([]*hepmc.Event, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	events, err := hepmc.NewReader(bytes.NewReader(in)).ReadAll()
	runtime.ReadMemStats(&after)
	return events, after.TotalAlloc - before.TotalAlloc, err
}

// TestReadReservesNothingOnTheHeadersWord: the 39-byte header bomb used to
// reserve 117 MB of vertex and particle slices before the read failed on
// the missing vertex block.
func TestReadReservesNothingOnTheHeadersWord(t *testing.T) {
	_, grew, err := readAllocating([]byte(headerBomb))
	if !errors.Is(err, hepmc.ErrBadFormat) {
		t.Fatalf("header bomb: %v, want a format error", err)
	}
	if limit := uint64(allocBase + allocPerByte*len(headerBomb)); grew > limit {
		t.Fatalf("reading %d bytes allocated %d bytes, limit %d", len(headerBomb), grew, limit)
	}
}

// generatorRun is what a generator run writes: the fuzz target's seed.
func generatorRun(t testing.TB, process, events int) []byte {
	gen, err := generator.New(process, generator.DefaultConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := hepmc.NewWriter(&buf)
	for _, e := range generator.GenerateN(gen, events) {
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameEvents compares two event lists field by field, floats by their
// bits (a NaN read is a NaN written), and a list of no vertices or
// particles equal to an empty one.
func sameEvents(a, b []*hepmc.Event) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, e := range a {
		f := b[i]
		if e.Number != f.Number || e.ProcessID != f.ProcessID || !same(e.Weight, f.Weight) ||
			len(e.Vertices) != len(f.Vertices) || len(e.Particles) != len(f.Particles) {
			return false
		}
		for j, v := range e.Vertices {
			w := f.Vertices[j]
			if v.Barcode != w.Barcode || !same(v.X, w.X) || !same(v.Y, w.Y) || !same(v.Z, w.Z) || !same(v.T, w.T) {
				return false
			}
		}
		for j, p := range e.Particles {
			q := f.Particles[j]
			if p.Barcode != q.Barcode || p.PDG != q.PDG || p.Status != q.Status ||
				p.ProdVertex != q.ProdVertex || p.EndVertex != q.EndVertex ||
				!same(p.P.Px, q.P.Px) || !same(p.P.Py, q.P.Py) || !same(p.P.Pz, q.P.Pz) || !same(p.P.E, q.P.E) {
				return false
			}
		}
	}
	return true
}

// FuzzHepMCReader: a stream the Reader accepts re-encodes through the
// Writer to bytes that read back to equal events, and reading any stream
// allocates in proportion to its length.
func FuzzHepMCReader(f *testing.F) {
	f.Add(generatorRun(f, generator.ProcDrellYanZ, 3))
	f.Add(generatorRun(f, generator.ProcV0, 2))
	f.Add([]byte(headerBomb))
	f.Add([]byte("HEPMC-DASPOS 1\nE 1 1 NaN 1 1\nV -1 -0 Inf 0 0\nP 1 13 1 0 0 0 1 -1 0\nEND\n"))
	f.Add([]byte(strings.Repeat("HEPMC-DASPOS 1\n", 2)))

	f.Fuzz(func(t *testing.T, in []byte) {
		events, grew, err := readAllocating(in)
		if limit := uint64(allocBase + allocPerByte*len(in)); grew > limit {
			t.Fatalf("reading %d bytes allocated %d bytes, limit %d", len(in), grew, limit)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		w := hepmc.NewWriter(&out)
		for _, e := range events {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		back, err := hepmc.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatalf("re-encoded stream refused: %v\n%s", err, out.Bytes())
		}
		if !sameEvents(events, back) {
			t.Fatalf("re-encoded stream reads back different events:\n%s", out.Bytes())
		}
	})
}
