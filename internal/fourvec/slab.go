package fourvec

import "math"

// Slab is a struct-of-arrays batch of four-vectors: columnar Px/Py/Pz/E
// plus optionally derived pt/η/φ columns. It is the batch-processing
// counterpart of Vec for the hot kinematics loops in simulation and
// reconstruction — the O(n²) cone and matching loops there spend their
// time in Pt/Eta/Phi transcendentals recomputed per *pair*; a slab
// computes each column once per *object* and the pair loops read cached
// columns.
//
// Bit-compatibility is a contract, not an accident: every derived column
// is computed by exactly the code Vec uses (Pt = math.Hypot, Eta =
// math.Asinh(pz/pt), Phi = math.Atan2), so replacing a scalar loop with a
// slab never changes a single output bit — the determinism e2e relies on
// that.
//
// A slab is scratch memory: Reset keeps capacity, so a per-worker slab
// reused across events reaches zero steady-state allocations.
type Slab struct {
	Px, Py, Pz, E []float64

	pt, eta, phi []float64
	derived      bool
}

// Len returns the number of vectors in the slab.
func (s *Slab) Len() int { return len(s.Px) }

// Reset empties the slab, keeping its capacity.
func (s *Slab) Reset() {
	s.Px, s.Py, s.Pz, s.E = s.Px[:0], s.Py[:0], s.Pz[:0], s.E[:0]
	s.pt, s.eta, s.phi = s.pt[:0], s.eta[:0], s.phi[:0]
	s.derived = false
}

// Append adds one vector. Derived columns are invalidated.
func (s *Slab) Append(v Vec) {
	s.Px = append(s.Px, v.Px)
	s.Py = append(s.Py, v.Py)
	s.Pz = append(s.Pz, v.Pz)
	s.E = append(s.E, v.E)
	s.derived = false
}

// At returns the i-th vector.
func (s *Slab) At(i int) Vec { return Vec{s.Px[i], s.Py[i], s.Pz[i], s.E[i]} }

// Derive computes the pt/η/φ columns, one transcendental pass over the
// slab, using exactly Vec's formulas. It is idempotent until the slab is
// mutated.
func (s *Slab) Derive() {
	if s.derived {
		return
	}
	n := s.Len()
	s.pt = grow(s.pt, n)
	s.eta = grow(s.eta, n)
	s.phi = grow(s.phi, n)
	for i := 0; i < n; i++ {
		v := Vec{s.Px[i], s.Py[i], s.Pz[i], s.E[i]}
		s.pt[i] = v.Pt()
		s.eta[i] = v.Eta()
		s.phi[i] = v.Phi()
	}
	s.derived = true
}

func grow(col []float64, n int) []float64 {
	if cap(col) < n {
		return make([]float64, n)
	}
	return col[:n]
}

// Pt returns the cached transverse momentum of vector i (Derive first).
func (s *Slab) Pt(i int) float64 { return s.pt[i] }

// Eta returns the cached pseudorapidity of vector i (Derive first).
func (s *Slab) Eta(i int) float64 { return s.eta[i] }

// Phi returns the cached azimuth of vector i (Derive first).
func (s *Slab) Phi(i int) float64 { return s.phi[i] }

// DeltaR returns the cone metric between vectors i and j from the cached
// columns: bit-identical to DeltaR(s.At(i), s.At(j)), without the four
// transcendentals per pair.
func (s *Slab) DeltaR(i, j int) float64 {
	return DeltaREtaPhi(s.eta[i], s.phi[i], s.eta[j], s.phi[j])
}

// DeltaREtaPhi is DeltaR over pre-computed (η, φ) pairs: exactly the same
// arithmetic as DeltaR(a, b) once a and b's angles are known. It exists so
// batch code caching angle columns gets bit-identical cone decisions.
func DeltaREtaPhi(eta1, phi1, eta2, phi2 float64) float64 {
	dEta := eta1 - eta2
	dPhi := DeltaPhi(phi1, phi2)
	return math.Sqrt(dEta*dEta + dPhi*dPhi)
}
