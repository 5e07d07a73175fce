package trigger

import (
	"strings"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/sim"
)

func simulate(t testing.TB, seed uint64, mk func(generator.Config) generator.Generator, n int) []*sim.Event {
	t.Helper()
	det := detector.Standard()
	fs := sim.NewFullSim(det, seed)
	g := mk(generator.DefaultConfig(seed))
	out := make([]*sim.Event, n)
	for i := range out {
		out[i] = fs.Simulate(g.Generate())
	}
	return out
}

// itemIndex returns the bit position of the named item, or -1.
func itemIndex(m *Menu, name string) int {
	for i, it := range m.Items {
		if it.Name == name {
			return i
		}
	}
	return -1
}

// fired reports whether the named item passed (after prescale).
func fired(d Decision, m *Menu, name string) bool {
	i := itemIndex(m, name)
	return i >= 0 && d.Bits&(1<<uint(i)) != 0
}

func TestMenuValidate(t *testing.T) {
	if err := StandardMenu().Validate(); err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(*Menu)) error {
		m := StandardMenu()
		f(m)
		return m.Validate()
	}
	if err := mutate(func(m *Menu) { m.Name = "" }); err == nil {
		t.Error("nameless menu validated")
	}
	if err := mutate(func(m *Menu) { m.Items = nil }); err == nil {
		t.Error("empty menu validated")
	}
	if err := mutate(func(m *Menu) { m.Items[0].Name = m.Items[1].Name }); err == nil {
		t.Error("duplicate item validated")
	}
	if err := mutate(func(m *Menu) { m.Items[0].Kind = "warp" }); err == nil {
		t.Error("unknown kind validated")
	}
	if err := mutate(func(m *Menu) { m.Items[0].Prescale = 0 }); err == nil {
		t.Error("zero prescale validated")
	}
	if err := mutate(func(m *Menu) { m.Items[0].Threshold = -5 }); err == nil {
		t.Error("negative threshold validated")
	}
	if err := mutate(func(m *Menu) {
		for i := 0; i < 70; i++ {
			m.Items = append(m.Items, Item{Name: strings.Repeat("x", i+1), Kind: KindJet, Prescale: 1})
		}
	}); err == nil {
		t.Error("65+ item menu validated")
	}
}

func TestMenuJSONRoundTrip(t *testing.T) {
	m := StandardMenu()
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMenu(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != m.Name || len(got.Items) != len(m.Items) {
		t.Fatal("round trip changed menu")
	}
	if _, err := DecodeMenu([]byte("{bad")); err == nil {
		t.Fatal("garbage menu decoded")
	}
	if _, err := DecodeMenu([]byte(`{"name":"x","items":[{"name":"a","kind":"warp","prescale":1}]}`)); err == nil {
		t.Fatal("invalid menu decoded")
	}
}

func TestMuonTriggerFiresOnZEvents(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(t, 1, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) }, 120)
	mu20, dimu := 0, 0
	for _, se := range events {
		d := trg.Evaluate(se)
		if fired(d, trg.Menu(), "L1_MU20") {
			mu20++
		}
		if fired(d, trg.Menu(), "L1_2MU5") {
			dimu++
		}
	}
	// Half the Z decays are dimuon with hard muons; both muon triggers
	// must fire often.
	if mu20 < 25 {
		t.Fatalf("L1_MU20 fired %d/120 on Z events", mu20)
	}
	if dimu < 20 {
		t.Fatalf("L1_2MU5 fired %d/120 on Z events", dimu)
	}
}

func TestEMTriggerFiresOnDiphoton(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(t, 2, func(c generator.Config) generator.Generator { return generator.NewHiggsDiphoton(c) }, 80)
	em := 0
	for _, se := range events {
		if fired(trg.Evaluate(se), trg.Menu(), "L1_EM25") {
			em++
		}
	}
	if em < 30 {
		t.Fatalf("L1_EM25 fired %d/80 on diphoton events", em)
	}
}

func TestMinBiasMostlyRejected(t *testing.T) {
	// The whole point of a trigger: soft events do not read out through
	// the unprescaled primaries.
	det := detector.Standard()
	menu := StandardMenu()
	// Drop the prescaled monitor so only primaries count.
	menu.Items = menu.Items[:5]
	trg := New(menu, det)
	events := simulate(t, 3, func(c generator.Config) generator.Generator { return generator.NewMinBias(c) }, 150)
	accepted := 0
	for _, se := range events {
		if trg.Evaluate(se).Accepted {
			accepted++
		}
	}
	if frac := float64(accepted) / 150; frac > 0.25 {
		t.Fatalf("min-bias accept fraction %v", frac)
	}
}

func TestJetTriggerFiresOnDijets(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(t, 4, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) }, 100)
	jet := 0
	for _, se := range events {
		if fired(trg.Evaluate(se), trg.Menu(), "L1_J80") {
			jet++
		}
	}
	if jet == 0 {
		t.Fatal("L1_J80 never fired on dijets")
	}
}

func TestPrescaleDeterministic(t *testing.T) {
	det := detector.Standard()
	run := func() []int {
		trg := New(StandardMenu(), det)
		events := simulate(t, 5, func(c generator.Config) generator.Generator { return generator.NewMinBias(c) }, 200)
		for _, se := range events {
			trg.Evaluate(se)
		}
		counts := make([]int, 0)
		for _, r := range trg.Rates() {
			counts = append(counts, r.Accepts)
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prescale counters not deterministic at item %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPrescaleReducesRate(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(t, 6, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) }, 200)
	var rawSoft, keptSoft int
	idx := itemIndex(trg.Menu(), "L1_MU3_PS")
	for _, se := range events {
		d := trg.Evaluate(se)
		if d.RawBits&(1<<uint(idx)) != 0 {
			rawSoft++
		}
		if d.Bits&(1<<uint(idx)) != 0 {
			keptSoft++
		}
	}
	if rawSoft == 0 {
		t.Fatal("soft muon item never fired raw")
	}
	// Prescale 50: the kept count must be close to raw/50.
	if keptSoft > rawSoft/25 {
		t.Fatalf("prescale ineffective: raw=%d kept=%d", rawSoft, keptSoft)
	}
}

func TestRatesTable(t *testing.T) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(t, 7, func(c generator.Config) generator.Generator { return generator.NewDrellYanZ(c) }, 50)
	for _, se := range events {
		trg.Evaluate(se)
	}
	rates := trg.Rates()
	if len(rates) != len(trg.Menu().Items) {
		t.Fatalf("rate rows: %d", len(rates))
	}
	if trg.Evaluated() != 50 {
		t.Fatalf("evaluated: %d", trg.Evaluated())
	}
	for _, r := range rates {
		if r.Fraction < 0 || r.Fraction > 1 {
			t.Fatalf("fraction %v for %s", r.Fraction, r.Item)
		}
	}
}

func TestNewPanicsOnInvalidMenu(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid menu accepted")
		}
	}()
	New(&Menu{}, detector.Standard())
}

func TestDecisionFiredUnknownItem(t *testing.T) {
	menu := StandardMenu()
	d := Decision{Bits: ^uint64(0)}
	if fired(d, menu, "NOPE") {
		t.Fatal("unknown item fired")
	}
}

func BenchmarkEvaluate(b *testing.B) {
	det := detector.Standard()
	trg := New(StandardMenu(), det)
	events := simulate(b, 1, func(c generator.Config) generator.Generator { return generator.NewQCDDijet(c) }, 32)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = trg.Evaluate(events[i%len(events)])
	}
}
