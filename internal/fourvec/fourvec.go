// Package fourvec implements relativistic four-vector kinematics: the
// Lorentz-vector algebra that every layer of the DASPOS substrate — event
// generation, detector simulation, reconstruction, and preserved analyses —
// shares for describing particle momenta and positions.
//
// Conventions follow standard collider practice: the z axis is the beam
// axis, pT is the transverse momentum, η the pseudorapidity, φ the azimuth
// in (-π, π], and the metric signature is (+,-,-,-) so that M² = E² - |p|².
// Energies and momenta are in GeV, distances in millimetres.
package fourvec

import (
	"fmt"
	"math"
)

// Vec is a four-vector (Px, Py, Pz, E) in GeV. The zero value is the null
// vector and is ready to use.
type Vec struct {
	Px, Py, Pz, E float64
}

// PxPyPzE builds a four-vector from its Cartesian components.
func PxPyPzE(px, py, pz, e float64) Vec { return Vec{px, py, pz, e} }

// PtEtaPhiM builds a four-vector from collider coordinates: transverse
// momentum, pseudorapidity, azimuth, and invariant mass.
func PtEtaPhiM(pt, eta, phi, m float64) Vec {
	px := pt * math.Cos(phi)
	py := pt * math.Sin(phi)
	pz := pt * math.Sinh(eta)
	e := math.Sqrt(pt*pt + pz*pz + m*m)
	return Vec{px, py, pz, e}
}

// PtEtaPhiE builds a four-vector from transverse momentum, pseudorapidity,
// azimuth, and energy.
func PtEtaPhiE(pt, eta, phi, e float64) Vec {
	px := pt * math.Cos(phi)
	py := pt * math.Sin(phi)
	pz := pt * math.Sinh(eta)
	return Vec{px, py, pz, e}
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec {
	return Vec{v.Px + w.Px, v.Py + w.Py, v.Pz + w.Pz, v.E + w.E}
}

// Scale returns the four-vector with all components multiplied by k.
func (v Vec) Scale(k float64) Vec {
	return Vec{k * v.Px, k * v.Py, k * v.Pz, k * v.E}
}

// Neg returns the spatial reflection (-p, E). It is the momentum an
// object must carry to balance v transversely and longitudinally.
func (v Vec) Neg() Vec { return Vec{-v.Px, -v.Py, -v.Pz, v.E} }

// Pt returns the transverse momentum sqrt(px²+py²).
func (v Vec) Pt() float64 { return math.Hypot(v.Px, v.Py) }

// P returns the magnitude of the three-momentum.
func (v Vec) P() float64 {
	return math.Sqrt(v.Px*v.Px + v.Py*v.Py + v.Pz*v.Pz)
}

// M2 returns the invariant mass squared E² - |p|². It may be (slightly)
// negative for spacelike vectors or through floating-point cancellation.
func (v Vec) M2() float64 {
	return v.E*v.E - v.Px*v.Px - v.Py*v.Py - v.Pz*v.Pz
}

// M returns the invariant mass, with negative M² clamped to zero.
func (v Vec) M() float64 {
	m2 := v.M2()
	if m2 <= 0 {
		return 0
	}
	return math.Sqrt(m2)
}

// Eta returns the pseudorapidity. For a vector along the beam axis it
// returns ±Inf with the sign of pz.
func (v Vec) Eta() float64 {
	pt := v.Pt()
	if pt == 0 {
		if v.Pz == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, v.Pz)))
	}
	return math.Asinh(v.Pz / pt)
}

// Phi returns the azimuthal angle in (-π, π].
func (v Vec) Phi() float64 {
	if v.Px == 0 && v.Py == 0 {
		return 0
	}
	return math.Atan2(v.Py, v.Px)
}

// Beta returns |p|/E, the particle's speed in units of c.
func (v Vec) Beta() float64 {
	if v.E == 0 {
		return 0
	}
	return v.P() / v.E
}

// Gamma returns the Lorentz factor E/M. For massless vectors it returns +Inf.
func (v Vec) Gamma() float64 {
	m := v.M()
	if m == 0 {
		return math.Inf(1)
	}
	return v.E / m
}

// BoostVector returns the velocity three-vector (βx, βy, βz) of the frame in
// which v is at rest.
func (v Vec) BoostVector() (bx, by, bz float64) {
	if v.E == 0 {
		return 0, 0, 0
	}
	return v.Px / v.E, v.Py / v.E, v.Pz / v.E
}

// Boost applies a Lorentz boost with velocity (bx, by, bz). Boosting a
// rest-frame vector by p.BoostVector() transports it to the lab frame.
func (v Vec) Boost(bx, by, bz float64) Vec {
	b2 := bx*bx + by*by + bz*bz
	if b2 >= 1 {
		panic(fmt.Sprintf("fourvec: superluminal boost β²=%v", b2))
	}
	gamma := 1 / math.Sqrt(1-b2)
	bp := bx*v.Px + by*v.Py + bz*v.Pz
	var gamma2 float64
	if b2 > 0 {
		gamma2 = (gamma - 1) / b2
	}
	return Vec{
		Px: v.Px + gamma2*bp*bx + gamma*bx*v.E,
		Py: v.Py + gamma2*bp*by + gamma*by*v.E,
		Pz: v.Pz + gamma2*bp*bz + gamma*bz*v.E,
		E:  gamma * (v.E + bp),
	}
}

// String renders the vector in collider coordinates for diagnostics.
func (v Vec) String() string {
	return fmt.Sprintf("(pt=%.3f eta=%.3f phi=%.3f m=%.3f)", v.Pt(), v.Eta(), v.Phi(), v.M())
}

// DeltaPhi returns the signed azimuthal separation φ1-φ2 wrapped to (-π, π].
func DeltaPhi(phi1, phi2 float64) float64 {
	d := math.Mod(phi1-phi2, 2*math.Pi)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return d
}

// DeltaR returns the angular separation sqrt(Δη² + Δφ²) between two vectors,
// the standard cone metric for jet clustering and object matching.
func DeltaR(a, b Vec) float64 {
	dEta := a.Eta() - b.Eta()
	dPhi := DeltaPhi(a.Phi(), b.Phi())
	return math.Sqrt(dEta*dEta + dPhi*dPhi)
}

// InvariantMass returns the invariant mass of the system formed by the given
// vectors. With no arguments it returns 0.
func InvariantMass(vs ...Vec) float64 {
	var sum Vec
	for _, v := range vs {
		sum = sum.Add(v)
	}
	return sum.M()
}

// TransverseMass returns the transverse mass of a visible particle and a
// missing transverse momentum vector: the W-mass estimator
// sqrt(2 pT^l pT^miss (1 - cos Δφ)).
func TransverseMass(lepton, missing Vec) float64 {
	dphi := DeltaPhi(lepton.Phi(), missing.Phi())
	mt2 := 2 * lepton.Pt() * missing.Pt() * (1 - math.Cos(dphi))
	if mt2 <= 0 {
		return 0
	}
	return math.Sqrt(mt2)
}
