package catalog

import (
	"errors"
	"strings"
	"testing"
)

// buildChain registers RAW → AOD → SKIM datasets with files.
func buildChain(t *testing.T) *Catalog {
	t.Helper()
	c := New()
	mk := func(name, tier, parent string, meta map[string]string) {
		if err := c.Create(Dataset{Name: name, Tier: tier, ProcessingVersion: "v1", Parent: parent, Metadata: meta}); err != nil {
			t.Fatal(err)
		}
	}
	mk("/data/run2013/RAW", "RAW", "", map[string]string{"year": "2013"})
	mk("/data/run2013/AOD/v1", "AOD", "/data/run2013/RAW", map[string]string{"year": "2013"})
	mk("/data/run2013/SKIM-MU/v1", "DERIVED", "/data/run2013/AOD/v1", map[string]string{"group": "muon"})
	for i, name := range []string{"/data/run2013/RAW", "/data/run2013/AOD/v1", "/data/run2013/SKIM-MU/v1"} {
		if err := c.AddFile(name, FileEntry{LFN: "f1", Digest: "d", Bytes: int64(1000 >> i), Events: 100 >> i}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestCreateValidation(t *testing.T) {
	c := New()
	if err := c.Create(Dataset{Name: "noslash", Tier: "RAW"}); err == nil {
		t.Error("non-path name accepted")
	}
	if err := c.Create(Dataset{Name: "/x"}); err == nil {
		t.Error("tierless dataset accepted")
	}
	if err := c.Create(Dataset{Name: "/x", Tier: "RAW", Parent: "/ghost"}); err == nil {
		t.Error("dangling parent accepted")
	}
	if err := c.Create(Dataset{Name: "/x", Tier: "RAW", Files: []FileEntry{{LFN: "f"}}}); err == nil {
		t.Error("pre-populated dataset accepted")
	}
	if err := c.Create(Dataset{Name: "/x", Tier: "RAW"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Create(Dataset{Name: "/x", Tier: "RAW"}); err == nil {
		t.Error("duplicate accepted")
	}
}

func TestAddFileAndClose(t *testing.T) {
	c := buildChain(t)
	if err := c.AddFile("/ghost", FileEntry{LFN: "f"}); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("err: %v", err)
	}
	if err := c.AddFile("/data/run2013/RAW", FileEntry{LFN: ""}); err == nil {
		t.Fatal("empty LFN accepted")
	}
	if err := c.AddFile("/data/run2013/RAW", FileEntry{LFN: "f1"}); err == nil {
		t.Fatal("duplicate LFN accepted")
	}
	if err := c.Close("/data/run2013/RAW"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddFile("/data/run2013/RAW", FileEntry{LFN: "f2"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed dataset mutable: %v", err)
	}
	if err := c.Close("/ghost"); !errors.Is(err, ErrNoDataset) {
		t.Fatalf("err: %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	c := buildChain(t)
	d, _ := c.Get("/data/run2013/RAW")
	d.Files[0].Events = 999999
	d2, _ := c.Get("/data/run2013/RAW")
	if d2.Files[0].Events == 999999 {
		t.Fatal("Get aliases internal storage")
	}
}

func TestLineage(t *testing.T) {
	c := buildChain(t)
	chain, err := c.Lineage("/data/run2013/SKIM-MU/v1")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0].Tier != "DERIVED" || chain[2].Tier != "RAW" {
		t.Fatalf("lineage: %d", len(chain))
	}
	if _, err := c.Lineage("/ghost"); err == nil {
		t.Fatal("ghost lineage resolved")
	}
}

func TestLineageCycleDetected(t *testing.T) {
	c := buildChain(t)
	// Force a cycle directly in storage (cannot be built via the API).
	c.datasets["/data/run2013/RAW"].Parent = "/data/run2013/SKIM-MU/v1"
	if _, err := c.Lineage("/data/run2013/SKIM-MU/v1"); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("cycle not detected: %v", err)
	}
}
