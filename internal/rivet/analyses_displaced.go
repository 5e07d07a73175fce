package rivet

import (
	"math"

	"daspos/internal/fourvec"
	"daspos/internal/hepmc"
	"daspos/internal/hist"
	"daspos/internal/units"
)

// Displaced-decay analyses: the ALICE V0-finder and LHCb D-lifetime
// physics from Table 1's master-class column, preserved as framework
// analyses. Both depend on the event record keeping decay-vertex
// positions — the property the HepMC-style record guarantees and
// simplified outreach formats usually drop.

func init() {
	Register("DASPOS_2013_V0MASS", func() Analysis { return &v0Mass{} })
	Register("DASPOS_2013_DLIFETIME", func() Analysis { return &dLifetime{} })
}

// v0Mass reconstructs K_S → π⁺π⁻ and Λ → pπ⁻ invariant masses from decay
// products of displaced vertices.
type v0Mass struct {
	ksMass, lambdaMass, flightKS *hist.H1D
}

func (*v0Mass) Metadata() Metadata {
	return Metadata{
		Name: "DASPOS_2013_V0MASS", Experiment: "DASPOS-GPD", Year: 2013,
		InspireID: "1200006",
		Summary:   "V0 reconstruction: K_S and Lambda invariant masses and the K_S flight distance",
	}
}

func (a *v0Mass) Init(ctx *Context) {
	a.ksMass = ctx.BookH1D("m_ks", 50, 0.42, 0.58)
	a.lambdaMass = ctx.BookH1D("m_lambda", 50, 1.08, 1.16)
	a.flightKS = ctx.BookH1D("flight_ks", 40, 0, 200)
}

func (a *v0Mass) Analyze(ctx *Context, ev *hepmc.Event) {
	for _, p := range ev.Particles {
		if p.Status != hepmc.StatusDecayed {
			continue
		}
		isKS := abs(p.PDG) == units.PDGKZeroShort
		isLambda := abs(p.PDG) == units.PDGLambda
		if !isKS && !isLambda {
			continue
		}
		kids := ev.Children(p.Barcode)
		if len(kids) != 2 {
			continue
		}
		m := fourvec.InvariantMass(kids[0].P, kids[1].P)
		if isKS {
			a.ksMass.FillW(m, ctx.Weight)
			if prod, dec := ev.Vertex(p.ProdVertex), ev.Vertex(p.EndVertex); prod != nil && dec != nil {
				dx, dy, dz := dec.X-prod.X, dec.Y-prod.Y, dec.Z-prod.Z
				a.flightKS.FillW(math.Sqrt(dx*dx+dy*dy+dz*dz), ctx.Weight)
			}
		} else {
			a.lambdaMass.FillW(m, ctx.Weight)
		}
	}
}

func (a *v0Mass) Finalize(ctx *Context) {
	if sw := ctx.SumW(); sw > 0 {
		a.ksMass.Scale(1 / sw)
		a.lambdaMass.Scale(1 / sw)
		a.flightKS.Scale(1 / sw)
	}
}

// dLifetime measures the D⁰ proper decay time from the flight vector and
// momentum: t = m·L/(p·c), the LHCb master-class measurement.
type dLifetime struct {
	properTime, mass *hist.H1D
}

func (*dLifetime) Metadata() Metadata {
	return Metadata{
		Name: "DASPOS_2013_DLIFETIME", Experiment: "DASPOS-GPD", Year: 2013,
		InspireID: "1200007",
		Summary:   "D0 proper decay time from displaced K pi vertices, and the K pi invariant mass",
	}
}

func (a *dLifetime) Init(ctx *Context) {
	// Proper time in picoseconds; tau(D0) ~ 0.41 ps.
	a.properTime = ctx.BookH1D("t_proper_ps", 50, 0, 3)
	a.mass = ctx.BookH1D("m_kpi", 50, 1.7, 2.05)
}

func (a *dLifetime) Analyze(ctx *Context, ev *hepmc.Event) {
	for _, p := range ev.Particles {
		if p.Status != hepmc.StatusDecayed || abs(p.PDG) != units.PDGDZero {
			continue
		}
		prod, dec := ev.Vertex(p.ProdVertex), ev.Vertex(p.EndVertex)
		if prod == nil || dec == nil {
			continue
		}
		dx, dy, dz := dec.X-prod.X, dec.Y-prod.Y, dec.Z-prod.Z
		flight := math.Sqrt(dx*dx + dy*dy + dz*dz) // mm
		mom := p.P.P()
		if mom <= 0 {
			continue
		}
		// t_proper = m L / (p c); c in mm/ns, result converted to ps.
		tNs := p.P.M() * flight / (mom * units.SpeedOfLight)
		a.properTime.FillW(tNs*1e3, ctx.Weight)
		kids := ev.Children(p.Barcode)
		if len(kids) == 2 {
			a.mass.FillW(fourvec.InvariantMass(kids[0].P, kids[1].P), ctx.Weight)
		}
	}
}

func (a *dLifetime) Finalize(ctx *Context) {
	if sw := ctx.SumW(); sw > 0 {
		a.properTime.Scale(1 / sw)
		a.mass.Scale(1 / sw)
	}
}
