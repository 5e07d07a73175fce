package fourvec

import (
	"math"
	"math/rand"
	"testing"
)

func randomVecs(rng *rand.Rand, n int) []Vec {
	vs := make([]Vec, n)
	for i := range vs {
		pt := math.Exp(rng.Float64()*6 - 1) // 0.37 .. 150 GeV, log-flat
		eta := rng.Float64()*6 - 3
		phi := rng.Float64()*2*math.Pi - math.Pi
		m := rng.Float64() * 5
		vs[i] = PtEtaPhiM(pt, eta, phi, m)
	}
	return vs
}

// TestSlabDeriveBitIdentical pins the slab contract: every cached column
// is bit-for-bit what the scalar Vec methods produce, so swapping a
// scalar loop for a slab can never change a downstream decision.
func TestSlabDeriveBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	vs := randomVecs(rng, 257)
	s := new(Slab)
	for _, v := range vs {
		s.Append(v)
	}
	s.Derive()
	for i, v := range vs {
		if got := s.At(i); got != v {
			t.Fatalf("At(%d) = %v, want %v", i, got, v)
		}
		if s.Pt(i) != v.Pt() || s.Eta(i) != v.Eta() || s.Phi(i) != v.Phi() {
			t.Fatalf("derived columns at %d differ from Vec: (%v,%v,%v) vs (%v,%v,%v)",
				i, s.Pt(i), s.Eta(i), s.Phi(i), v.Pt(), v.Eta(), v.Phi())
		}
	}
}

// TestSlabDeltaRBitIdentical checks the cached-column cone metric against
// the scalar DeltaR for every pair, including the φ wrap-around region.
func TestSlabDeltaRBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	vs := randomVecs(rng, 64)
	// Stress the ±π seam explicitly.
	vs = append(vs, PtEtaPhiM(10, 0.5, math.Pi-1e-9, 0), PtEtaPhiM(10, 0.5, -math.Pi+1e-9, 0))
	s := new(Slab)
	for _, v := range vs {
		s.Append(v)
	}
	s.Derive()
	for i := range vs {
		for j := range vs {
			if got, want := s.DeltaR(i, j), DeltaR(vs[i], vs[j]); got != want {
				t.Fatalf("DeltaR(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
}

// TestSlabMutationInvalidatesDerived: an Append after Derive must force a
// re-derive, and the re-derived columns match scalar recomputation.
func TestSlabMutationInvalidatesDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	vs := randomVecs(rng, 16)
	s := new(Slab)
	for _, v := range vs {
		s.Append(v)
	}
	s.Derive()

	added := PtEtaPhiM(42, -1.2, 0.3, 0.105)
	s.Append(added)
	s.Derive()
	if i := len(vs); s.Pt(i) != added.Pt() || s.Eta(i) != added.Eta() || s.Phi(i) != added.Phi() {
		t.Fatal("Append did not invalidate derived columns")
	}
}

// TestSlabResetKeepsZeroAlloc: a slab reused across events settles to zero
// steady-state allocations once every column has grown to working size.
func TestSlabResetKeepsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	vs := randomVecs(rng, 128)
	s := new(Slab)
	fill := func() {
		s.Reset()
		for _, v := range vs {
			s.Append(v)
		}
		s.Derive()
	}
	fill() // warm up capacity
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Fatalf("warm slab refill allocates %v per run", allocs)
	}
}
