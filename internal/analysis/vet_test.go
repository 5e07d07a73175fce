package analysis

import "testing"

func TestDeterminism(t *testing.T) {
	runAnalyzerTest(t, Determinism, "determinism", "daspos/internal/sim")
}

func TestDurability(t *testing.T) {
	runAnalyzerTest(t, Durability, "durability", "daspos/internal/cas")
}

func TestErrClass(t *testing.T) {
	runAnalyzerTest(t, ErrClass, "errclass", "daspos/internal/archive")
}

func TestCtxProp(t *testing.T) {
	runAnalyzerTest(t, CtxProp, "ctxprop", "daspos/internal/recast")
}

func TestCloseCheck(t *testing.T) {
	runAnalyzerTest(t, CloseCheck, "closecheck", "daspos/internal/datamodel")
}

func TestLockCheck(t *testing.T) {
	runAnalyzerTest(t, LockCheck, "lockcheck", "daspos/internal/queryserve")
}

func TestLeakCheck(t *testing.T) {
	runAnalyzerTest(t, LeakCheck, "leakcheck", "daspos/internal/cluster")
}

func TestAtomicCheck(t *testing.T) {
	runAnalyzerTest(t, AtomicCheck, "atomiccheck", "daspos/internal/node")
}

// TestMultiAnalyzer pins the harness's multi-analyzer mode: one testdata
// package audited by several analyzers at once, with expectations that
// anchor on the analyzer name and pin exact finding columns.
func TestMultiAnalyzer(t *testing.T) {
	runAnalyzersTest(t, []*Analyzer{LockCheck, LeakCheck, AtomicCheck}, "multi", "daspos/internal/recast")
}

// TestUnusedSuppression pins the suppression-inventory audit: a
// //daspos:<token> comment that no longer suppresses a finding is itself
// a finding, as is a token no analyzer owns.
func TestUnusedSuppression(t *testing.T) {
	runAnalyzerTest(t, LockCheck, "unusedsuppress", "daspos/internal/catalog")
}

// TestRepoIsClean pins the acceptance criterion that daspos-vet exits 0 on
// the tree it ships with: every finding is either fixed or carries an
// explicit suppression directive.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	l, err := loadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings, _ := RunTimed(l.fset, l.pkgs, Analyzers())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
