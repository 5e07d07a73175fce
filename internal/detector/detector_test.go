package detector

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestStandardIsValid(t *testing.T) {
	d := Standard()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.TrackerLayers()) != 9 {
		t.Fatalf("tracker layers: %d", len(d.TrackerLayers()))
	}
	if len(d.LayersOf(KindMuon)) != 2 {
		t.Fatalf("muon layers: %d", len(d.LayersOf(KindMuon)))
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	base := Standard()
	mutate := func(f func(*Detector)) error {
		d := Standard()
		f(d)
		return d.Validate()
	}
	if err := mutate(func(d *Detector) { d.Name = "" }); err == nil {
		t.Error("empty name accepted")
	}
	if err := mutate(func(d *Detector) { d.Layers[3].Radius = 1 }); err == nil {
		t.Error("unordered radii accepted")
	}
	if err := mutate(func(d *Detector) { d.Layers[2].Name = base.Layers[1].Name }); err == nil {
		t.Error("duplicate names accepted")
	}
	if err := mutate(func(d *Detector) { d.Layers[1].NPhi = 0 }); err == nil {
		t.Error("channel-less sensitive layer accepted")
	}
	if err := mutate(func(d *Detector) { d.Layers[1].Efficiency = 1.5 }); err == nil {
		t.Error("efficiency > 1 accepted")
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindBeamPipe; k <= KindMuon; k++ {
		got, err := parseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("kind %v round trip: %v %v", k, got, err)
		}
	}
	if _, err := parseKind("warpcore"); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestCellOfRoundTrip(t *testing.T) {
	l := &Standard().Layers[1] // pix1
	if err := quick.Check(func(rawPhi, rawZ float64) bool {
		phi := math.Mod(rawPhi, math.Pi)
		z := math.Mod(rawZ, l.HalfLengthZ)
		if math.IsNaN(phi) || math.IsNaN(z) {
			return true
		}
		iphi, iz, ok := l.CellOf(phi, z)
		if !ok {
			return false
		}
		cphi, cz := l.CellCenter(iphi, iz)
		// The cell centre must re-locate to the same cell.
		jphi, jz, ok := l.CellOf(cphi, cz)
		return ok && jphi == iphi && jz == iz
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCellOfOutsideAcceptance(t *testing.T) {
	l := &Standard().Layers[1]
	if _, _, ok := l.CellOf(0, l.HalfLengthZ+1); ok {
		t.Fatal("z beyond half-length accepted")
	}
	if _, _, ok := l.CellOf(0, -l.HalfLengthZ-1); ok {
		t.Fatal("negative z beyond half-length accepted")
	}
}

func TestCellCenterAccuracy(t *testing.T) {
	l := &Standard().Layers[10] // ecal
	phi, z := l.CellCenter(0, 0)
	iphi, iz, ok := l.CellOf(phi, z)
	if !ok || iphi != 0 || iz != 0 {
		t.Fatalf("cell (0,0) centre maps to (%d,%d)", iphi, iz)
	}
	dphi := 2 * math.Pi / float64(l.NPhi)
	if math.Abs(phi-dphi/2) > 1e-9 {
		t.Fatalf("phi centre %v want %v", phi, dphi/2)
	}
}

func TestChannelIDPacking(t *testing.T) {
	cases := []struct{ layer, iphi, iz int }{
		{0, 0, 0},
		{13, 1023, 255},
		{5, 4095, 511},
		{63, 16383, 4095},
	}
	for _, c := range cases {
		id := MakeChannelID(c.layer, c.iphi, c.iz)
		if id.Layer() != c.layer || id.IPhi() != c.iphi || id.IZ() != c.iz {
			t.Fatalf("pack/unpack %v -> (%d,%d,%d)", c, id.Layer(), id.IPhi(), id.IZ())
		}
	}
}

func TestChannelIDUniqueAcrossGeometry(t *testing.T) {
	// Property: packing is injective over every valid channel of a layer
	// (sampled sparsely to stay fast).
	d := Standard()
	seen := make(map[ChannelID]bool)
	for li := range d.Layers {
		l := &d.Layers[li]
		if !l.Sensitive() {
			continue
		}
		for iphi := 0; iphi < l.NPhi; iphi += 97 {
			for iz := 0; iz < l.NZ; iz += 31 {
				id := MakeChannelID(li, iphi, iz)
				if seen[id] {
					t.Fatalf("duplicate channel id %v", id)
				}
				seen[id] = true
			}
		}
	}
}

func TestChannelIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range address did not panic")
		}
	}()
	MakeChannelID(64, 0, 0)
}

func TestJSONRoundTrip(t *testing.T) {
	d := Standard()
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"radius_mm"`) {
		t.Fatal("JSON missing expected fields")
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGeometry(t, d, got)
}

func assertSameGeometry(t *testing.T, want, got *Detector) {
	t.Helper()
	if got.Name != want.Name || got.Version != want.Version ||
		got.BField != want.BField || got.EtaMax != want.EtaMax {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("layer count %d != %d", len(got.Layers), len(want.Layers))
	}
	for i := range got.Layers {
		if got.Layers[i] != want.Layers[i] {
			t.Fatalf("layer %d mismatch:\n got %+v\nwant %+v", i, got.Layers[i], want.Layers[i])
		}
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"layers":[{"kind":"warp"}]}`)); err == nil {
		t.Fatal("bad JSON kind accepted")
	}
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Fatal("garbage JSON accepted")
	}
	// Structurally valid but physically invalid geometry must be rejected.
	if _, err := ReadJSON(strings.NewReader(`{"name":"x","layers":[{"kind":"pixel","name":"a","radius_mm":5},{"kind":"pixel","name":"b","radius_mm":5}]}`)); err == nil {
		t.Fatal("non-increasing radii accepted")
	}
}

func BenchmarkCellOf(b *testing.B) {
	l := &Standard().Layers[1]
	for i := 0; i < b.N; i++ {
		_, _, _ = l.CellOf(1.2, 100)
	}
}

func TestLayerListsDoNotAllocate(t *testing.T) {
	d := Standard()
	n := 0
	if got := testing.AllocsPerRun(100, func() {
		n += len(d.TrackerLayers()) + len(d.LayersOf(KindMuon)) + len(d.LayersOf(KindECal))
	}); got != 0 {
		t.Fatalf("layer lists: %v allocations per call, want 0", got)
	}
	if n == 0 {
		t.Fatal("layer lists empty")
	}
}

func TestLayerListViewsAreCapped(t *testing.T) {
	d := Standard()
	// Appending to a view must reallocate, not grow into memory the
	// detector still owns.
	for k := KindBeamPipe; k <= KindMuon; k++ {
		_ = append(d.LayersOf(k), -1)
	}
	_ = append(d.TrackerLayers(), -1)
	if v := d.TrackerLayers(); cap(v) != len(v) {
		t.Errorf("TrackerLayers() has %d spare slots a caller could write into", cap(v)-len(v))
	}
	want := map[LayerKind][]int{
		KindBeamPipe: {0}, KindPixel: {1, 2, 3}, KindStrip: {4, 5, 6, 7, 8, 9},
		KindECal: {10}, KindHCal: {11}, KindMuon: {12, 13},
	}
	for k, w := range want {
		if got := d.LayersOf(k); !equalInts(got, w) {
			t.Errorf("LayersOf(%v) = %v after appends to the views, want %v", k, got, w)
		}
	}
	if got := d.TrackerLayers(); !equalInts(got, []int{1, 2, 3, 4, 5, 6, 7, 8, 9}) {
		t.Errorf("TrackerLayers() = %v after appends to the views", got)
	}
	if d.LayersOf(LayerKind(99)) != nil || d.LayersOf(LayerKind(-1)) != nil {
		t.Error("an unknown kind has layers")
	}
}

func TestValidateRebuildsLayerLists(t *testing.T) {
	d := Standard()
	d.Layers = d.Layers[:5]
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.TrackerLayers(); !equalInts(got, []int{1, 2, 3, 4}) {
		t.Fatalf("TrackerLayers() = %v after truncating to five layers", got)
	}
	if len(d.LayersOf(KindMuon)) != 0 {
		t.Fatal("muon layers survived their removal")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unvalidated detector handed out layer lists")
		}
	}()
	(&Detector{Name: "bare", Layers: d.Layers}).TrackerLayers()
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestValidateRefusesUnaddressableChannels(t *testing.T) {
	// strip1 with 20000 azimuthal channels used to pass, and the first hit
	// past channel 16383 then panicked in MakeChannelID.
	d := Standard()
	d.Layers[4].NPhi = 20000
	if err := d.Validate(); err == nil {
		iphi, _, _ := d.Layers[4].CellOf(6.0, 0)
		t.Fatalf("strip1 with 20000 φ channels accepted; its channel %d has no address", iphi)
	}
	for name, mutate := range map[string]func(*Detector){
		"nz":     func(d *Detector) { d.Layers[1].NZ = 1<<12 + 1 },
		"layers": func(d *Detector) { d.Layers = append(d.Layers, extraLayers(d, 70)...) },
	} {
		d := Standard()
		mutate(d)
		if err := d.Validate(); err == nil {
			t.Errorf("%s: a geometry the channel address cannot hold was accepted", name)
		}
	}
	// The widest geometry that fits is accepted, and every one of its
	// channels has an address.
	d = Standard()
	d.Layers[4].NPhi, d.Layers[4].NZ = 1<<14, 1<<12
	d.Layers = append(d.Layers, extraLayers(d, 64)...)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	last := len(d.Layers) - 1
	MakeChannelID(last, d.Layers[last].NPhi-1, d.Layers[last].NZ-1)
	MakeChannelID(4, 1<<14-1, 1<<12-1)
}

// extraLayers returns muon layers outside d's outermost, enough to bring it
// to n layers.
func extraLayers(d *Detector, n int) []Layer {
	var out []Layer
	outer := d.Layers[len(d.Layers)-1]
	for i := len(d.Layers); i < n; i++ {
		l := outer
		l.Name = fmt.Sprintf("muon-extra-%d", i)
		l.Radius = outer.Radius + float64(i)
		out = append(out, l)
	}
	return out
}
