// Package envcapture captures and reasons about the software environment
// of a preserved workflow. The paper identifies environment rot as the
// central RECAST-class risk: "the full experimental code base must be
// migrated to new computing platforms when such transitions become
// necessary. The entire set of processes must be kept functioning."
//
// A Manifest records the platform and the transitive closure of packages a
// workflow needs. A Registry models the available package universe
// (versions and their platform support), so the archive can answer the
// question that matters decades later: does this capsule still run here,
// and if not, what is the smallest upgrade plan that makes it run?
package envcapture

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Platform identifies an execution environment generation.
type Platform struct {
	OS      string `json:"os"`
	Arch    string `json:"arch"`
	Runtime string `json:"runtime"`
}

// String renders the platform triple.
func (p Platform) String() string { return p.OS + "/" + p.Arch + "/" + p.Runtime }

// PkgRef names one package at one version.
type PkgRef struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

// String renders name@version.
func (r PkgRef) String() string { return r.Name + "@" + r.Version }

// Package is one entry of the package universe.
type Package struct {
	PkgRef
	// Deps are the package's direct dependencies.
	Deps []PkgRef `json:"deps,omitempty"`
	// Platforms lists the platforms this exact version runs on.
	Platforms []Platform `json:"platforms"`
}

// SupportsPlatform reports whether the package runs on p.
func (pkg Package) SupportsPlatform(p Platform) bool {
	for _, q := range pkg.Platforms {
		if q == p {
			return true
		}
	}
	return false
}

// Registry is the package universe: every known (name, version) with its
// dependencies and platform support.
type Registry struct {
	pkgs map[string]map[string]Package // name -> version -> package
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{pkgs: make(map[string]map[string]Package)}
}

// Add registers a package version. Re-adding the same version replaces it.
func (r *Registry) Add(p Package) {
	byVersion, ok := r.pkgs[p.Name]
	if !ok {
		byVersion = make(map[string]Package)
		r.pkgs[p.Name] = byVersion
	}
	byVersion[p.Version] = p
}

// Get resolves a package version.
func (r *Registry) Get(ref PkgRef) (Package, bool) {
	p, ok := r.pkgs[ref.Name][ref.Version]
	return p, ok
}

// Versions returns the sorted versions known for a package name.
func (r *Registry) Versions(name string) []string {
	var out []string
	for v := range r.pkgs[name] {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Closure computes the transitive dependency closure of the roots,
// deterministic (sorted by name then version). Unknown packages are an
// error: an unresolvable dependency means the environment cannot be
// captured faithfully.
func (r *Registry) Closure(roots ...PkgRef) ([]Package, error) {
	const (
		visiting = 1
		done     = 2
	)
	state := make(map[PkgRef]int)
	var out []Package
	var walk func(ref PkgRef) error
	walk = func(ref PkgRef) error {
		switch state[ref] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("envcapture: dependency cycle through %s", ref)
		}
		pkg, ok := r.Get(ref)
		if !ok {
			return fmt.Errorf("envcapture: unknown package %s", ref)
		}
		state[ref] = visiting
		for _, dep := range pkg.Deps {
			if err := walk(dep); err != nil {
				return err
			}
		}
		state[ref] = done
		out = append(out, pkg)
		return nil
	}
	for _, root := range roots {
		if err := walk(root); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out, nil
}

// Manifest is the captured environment of one preserved workflow.
type Manifest struct {
	// Workflow names what this environment serves.
	Workflow string   `json:"workflow"`
	Platform Platform `json:"platform"`
	// Roots are the directly required packages; Packages is their full
	// closure.
	Roots    []PkgRef  `json:"roots"`
	Packages []Package `json:"packages"`
}

// Capture builds a manifest for the given roots on a platform, verifying
// that every package in the closure supports the platform.
func Capture(reg *Registry, workflow string, platform Platform, roots ...PkgRef) (*Manifest, error) {
	closure, err := reg.Closure(roots...)
	if err != nil {
		return nil, err
	}
	for _, p := range closure {
		if !p.SupportsPlatform(platform) {
			return nil, fmt.Errorf("envcapture: %s does not support %s", p.PkgRef, platform)
		}
	}
	return &Manifest{Workflow: workflow, Platform: platform, Roots: roots, Packages: closure}, nil
}

// Encode serializes the manifest for archiving.
func (m *Manifest) Encode() ([]byte, error) { return json.MarshalIndent(m, "", "  ") }

// Decode parses an archived manifest.
func Decode(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("envcapture: parsing manifest: %w", err)
	}
	return &m, nil
}

// PackageBytes estimates the capsule footprint: total declared package
// count (the RIVET-vs-RECAST "light vs heavy" proxy before payload sizes).
func (m *Manifest) PackageCount() int { return len(m.Packages) }

// MigrationAction describes one step of a migration plan.
type MigrationAction struct {
	Package PkgRef `json:"package"`
	// NewVersion is the version to upgrade to; empty means the package
	// already supports the target platform unchanged.
	NewVersion string `json:"new_version,omitempty"`
}

// MigrationReport is the outcome of planning a platform migration.
type MigrationReport struct {
	Target Platform `json:"target"`
	// Unchanged packages run on the target as-is.
	Unchanged []PkgRef `json:"unchanged,omitempty"`
	// Upgrades lists required version changes.
	Upgrades []MigrationAction `json:"upgrades,omitempty"`
	// Blocked lists packages with no version supporting the target: the
	// capsule cannot be migrated without them being ported.
	Blocked []PkgRef `json:"blocked,omitempty"`
}

// OK reports whether the migration can proceed.
func (r MigrationReport) OK() bool { return len(r.Blocked) == 0 }

// PlanMigration computes what it takes to move a manifest to a new
// platform: for each package, keep it if the pinned version supports the
// target, otherwise pick the lowest newer-sorting version that does, and
// flag it blocked when none exists. This is the maintenance cost the paper
// attributes to "closed" full-stack preservation.
func PlanMigration(reg *Registry, m *Manifest, target Platform) MigrationReport {
	rep := MigrationReport{Target: target}
	for _, pkg := range m.Packages {
		if pkg.SupportsPlatform(target) {
			rep.Unchanged = append(rep.Unchanged, pkg.PkgRef)
			continue
		}
		upgraded := false
		for _, v := range reg.Versions(pkg.Name) {
			cand, _ := reg.Get(PkgRef{Name: pkg.Name, Version: v})
			if v > pkg.Version && cand.SupportsPlatform(target) {
				rep.Upgrades = append(rep.Upgrades, MigrationAction{Package: pkg.PkgRef, NewVersion: v})
				upgraded = true
				break
			}
		}
		if !upgraded {
			rep.Blocked = append(rep.Blocked, pkg.PkgRef)
		}
	}
	return rep
}

// ApplyMigration produces the migrated manifest from a plan. It fails if
// the plan is blocked.
func ApplyMigration(reg *Registry, m *Manifest, rep MigrationReport) (*Manifest, error) {
	if !rep.OK() {
		return nil, fmt.Errorf("envcapture: migration to %s blocked by %d packages", rep.Target, len(rep.Blocked))
	}
	upgrade := make(map[PkgRef]string, len(rep.Upgrades))
	for _, u := range rep.Upgrades {
		upgrade[u.Package] = u.NewVersion
	}
	roots := make([]PkgRef, len(m.Roots))
	for i, root := range m.Roots {
		if v, ok := upgrade[root]; ok {
			roots[i] = PkgRef{Name: root.Name, Version: v}
		} else {
			roots[i] = root
		}
	}
	// Re-capture on the target platform: upgraded roots may pull new
	// dependency versions, and the capture re-verifies support.
	return Capture(reg, m.Workflow, rep.Target, roots...)
}
