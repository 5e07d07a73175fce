package envcapture

import (
	"bytes"
	"strings"
	"testing"
)

func TestClosureResolvesTransitively(t *testing.T) {
	reg := StandardRegistry()
	closure, err := reg.Closure(PkgRef{"recast-backend", "0.7"})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]string{}
	for _, p := range closure {
		names[p.Name] = p.Version
	}
	for _, want := range []string{"recast-backend", "daspos-generator", "daspos-fullsim", "daspos-reco", "cond-client", "histlib", "hepmc-io"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("closure missing %s: %v", want, names)
		}
	}
	// Deterministic: re-running yields the same sorted order.
	again, _ := reg.Closure(PkgRef{"recast-backend", "0.7"})
	for i := range closure {
		if closure[i].PkgRef != again[i].PkgRef {
			t.Fatal("closure not deterministic")
		}
	}
}

func TestClosureUnknownPackage(t *testing.T) {
	reg := StandardRegistry()
	if _, err := reg.Closure(PkgRef{"warp-drive", "1.0"}); err == nil {
		t.Fatal("unknown package resolved")
	}
	if _, err := reg.Closure(PkgRef{"histlib", "9.99"}); err == nil {
		t.Fatal("unknown version resolved")
	}
}

func TestClosureDetectsCycle(t *testing.T) {
	reg := NewRegistry()
	reg.Add(Package{PkgRef: PkgRef{"a", "1"}, Deps: []PkgRef{{"b", "1"}}, Platforms: nil})
	reg.Add(Package{PkgRef: PkgRef{"b", "1"}, Deps: []PkgRef{{"a", "1"}}, Platforms: nil})
	if _, err := reg.Closure(PkgRef{"a", "1"}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}

func TestCaptureVerifiesPlatformSupport(t *testing.T) {
	reg := StandardRegistry()
	_, cur, next := StandardPlatforms()
	m, err := Capture(reg, "reco-pass", cur, PkgRef{"daspos-reco", "3.2.1"})
	if err != nil {
		t.Fatal(err)
	}
	if m.PackageCount() < 3 {
		t.Fatalf("closure too small: %d", m.PackageCount())
	}
	// reco 3.2.1 was never ported to the next platform generation.
	if _, err := Capture(reg, "reco-pass", next, PkgRef{"daspos-reco", "3.2.1"}); err == nil {
		t.Fatal("capture on unsupported platform succeeded")
	}
}

func TestManifestEncodeDecode(t *testing.T) {
	reg := StandardRegistry()
	_, cur, _ := StandardPlatforms()
	m, _ := Capture(reg, "w", cur, PkgRef{"rivet-lite", "1.2"})
	data, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workflow != m.Workflow || got.PackageCount() != m.PackageCount() {
		t.Fatal("round trip lost content")
	}
	if again, _ := got.Encode(); !bytes.Equal(again, data) {
		t.Fatal("manifest changed through serialization")
	}
	if _, err := Decode([]byte("{bad")); err == nil {
		t.Fatal("garbage decoded")
	}
}

func TestPlanMigrationUpgrades(t *testing.T) {
	reg := StandardRegistry()
	_, cur, next := StandardPlatforms()
	m, err := Capture(reg, "recast-capsule", cur, PkgRef{"recast-backend", "0.7"})
	if err != nil {
		t.Fatal(err)
	}
	rep := PlanMigration(reg, m, next)
	if !rep.OK() {
		t.Fatalf("migration blocked: %+v", rep.Blocked)
	}
	if len(rep.Upgrades) == 0 {
		t.Fatal("no upgrades planned although pinned versions are unsupported")
	}
	upgraded := map[string]string{}
	for _, u := range rep.Upgrades {
		upgraded[u.Package.Name] = u.NewVersion
	}
	if upgraded["daspos-reco"] != "3.3.0" {
		t.Fatalf("reco upgrade: %v", upgraded)
	}
	if upgraded["recast-backend"] != "0.8" {
		t.Fatalf("backend upgrade: %v", upgraded)
	}
}

func TestPlanMigrationBlocked(t *testing.T) {
	reg := NewRegistry()
	old, cur, _ := StandardPlatforms()
	reg.Add(Package{PkgRef: PkgRef{"legacy", "1.0"}, Platforms: []Platform{old}})
	m, err := Capture(reg, "w", old, PkgRef{"legacy", "1.0"})
	if err != nil {
		t.Fatal(err)
	}
	rep := PlanMigration(reg, m, cur)
	if rep.OK() || len(rep.Blocked) != 1 {
		t.Fatalf("blocked migration not detected: %+v", rep)
	}
	if _, err := ApplyMigration(reg, m, rep); err == nil {
		t.Fatal("blocked migration applied")
	}
}

func TestApplyMigrationProducesRunnableManifest(t *testing.T) {
	reg := StandardRegistry()
	_, cur, next := StandardPlatforms()
	m, _ := Capture(reg, "recast-capsule", cur, PkgRef{"recast-backend", "0.7"})
	rep := PlanMigration(reg, m, next)
	migrated, err := ApplyMigration(reg, m, rep)
	if err != nil {
		t.Fatal(err)
	}
	if migrated.Platform != next {
		t.Fatalf("platform %v", migrated.Platform)
	}
	for _, p := range migrated.Packages {
		if !p.SupportsPlatform(next) {
			t.Fatalf("migrated manifest contains unsupported %s", p.PkgRef)
		}
	}
	// The light capsule needs no upgrades at all — the paper's RIVET
	// portability claim.
	light, _ := Capture(reg, "rivet-capsule", cur, PkgRef{"rivet-lite", "1.2"})
	lightRep := PlanMigration(reg, light, next)
	if len(lightRep.Upgrades) != 0 || !lightRep.OK() {
		t.Fatalf("light capsule migration not free: %+v", lightRep)
	}
}

func TestLightVsHeavyFootprint(t *testing.T) {
	// Experiment R1's environment half: the RECAST capsule's closure is
	// strictly larger than the RIVET capsule's.
	reg := StandardRegistry()
	_, cur, _ := StandardPlatforms()
	heavy, _ := Capture(reg, "recast", cur, PkgRef{"recast-backend", "0.7"})
	light, _ := Capture(reg, "rivet", cur, PkgRef{"rivet-lite", "1.2"})
	if heavy.PackageCount() <= light.PackageCount() {
		t.Fatalf("heavy (%d) not larger than light (%d)", heavy.PackageCount(), light.PackageCount())
	}
}

func TestRegistryVersions(t *testing.T) {
	reg := StandardRegistry()
	vs := reg.Versions("daspos-reco")
	if len(vs) != 2 || vs[0] != "3.2.1" || vs[1] != "3.3.0" {
		t.Fatalf("versions: %v", vs)
	}
	if len(reg.Versions("nope")) != 0 {
		t.Fatal("phantom versions")
	}
}
