package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/datamodel"
)

func sampleFiles() map[string][]byte {
	return map[string][]byte{
		"events/aod.edm":     bytes.Repeat([]byte("event-data "), 1000),
		"analysis/cuts.json": []byte(`{"cuts":[{"variable":"met","op":">","value":25}]}`),
		"env/manifest.json":  []byte(`{"workflow":"w"}`),
		"prov/chain.json":    []byte(`[]`),
		"docs/README.md":     []byte("# Preserved search analysis\n"),
	}
}

func sampleMeta() Metadata {
	return Metadata{
		Title:         "W+MET search 2013",
		Creator:       "DASPOS",
		Description:   "Preserved W to lepton+MET selection with reference data",
		Level:         datamodel.DPHEPLevel3,
		ConditionsTag: "data-v3",
		EnvManifest:   "env/manifest.json",
		Provenance:    "prov/chain.json",
		Keywords:      []string{"w-boson", "met", "search"},
	}
}

func TestIngestAndFetch(t *testing.T) {
	a := New()
	id, err := a.Ingest(sampleMeta(), sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := a.Get(id)
	if !ok {
		t.Fatal("package missing after ingest")
	}
	if pkg.Metadata.ID != id || len(pkg.Files) != 5 {
		t.Fatalf("package: %+v", pkg.Metadata)
	}
	data, err := a.Fetch(id, "docs/README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "# Preserved") {
		t.Fatal("fetched wrong content")
	}
	if pkg.TotalBytes() <= 0 {
		t.Fatal("total bytes")
	}
}

func TestIngestValidation(t *testing.T) {
	a := New()
	if _, err := a.Ingest(Metadata{}, sampleFiles()); err == nil {
		t.Fatal("untitled package ingested")
	}
	if _, err := a.Ingest(sampleMeta(), nil); err == nil {
		t.Fatal("empty package ingested")
	}
	m := sampleMeta()
	m.ID = "preset"
	if _, err := a.Ingest(m, sampleFiles()); err == nil {
		t.Fatal("preset ID accepted")
	}
	m2 := sampleMeta()
	m2.EnvManifest = "not/there.json"
	if _, err := a.Ingest(m2, sampleFiles()); err == nil {
		t.Fatal("dangling env manifest reference accepted")
	}
	for _, bad := range []string{"", "/abs/path", "a/../b"} {
		if _, err := a.Ingest(sampleMeta(), map[string][]byte{bad: []byte("x")}); err == nil {
			t.Fatalf("path %q accepted", bad)
		}
	}
}

func TestDuplicateIngestRejected(t *testing.T) {
	a := New()
	if _, err := a.Ingest(sampleMeta(), sampleFiles()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Ingest(sampleMeta(), sampleFiles()); err == nil {
		t.Fatal("identical package ingested twice")
	}
}

func TestFetchErrors(t *testing.T) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	if _, err := a.Fetch("nope", "x"); !errors.Is(err, ErrNoPackage) {
		t.Fatalf("err: %v", err)
	}
	if _, err := a.Fetch(id, "nope"); !errors.Is(err, ErrNoFile) {
		t.Fatalf("err: %v", err)
	}
}

func TestVerifyDetectsBitRot(t *testing.T) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	if err := a.VerifyPackage(id); err != nil {
		t.Fatal(err)
	}
	pkg, _ := a.Get(id)
	if err := a.CorruptBlob(pkg.File("events/aod.edm").Digest); err != nil {
		t.Fatal(err)
	}
	if err := a.VerifyPackage(id); err == nil {
		t.Fatal("bit rot not detected")
	}
	rep := a.VerifyAll()
	if rep.Healthy != 0 || len(rep.Damaged) != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestVerifyReportsSizeDriftAndBitRot pins what the audit checks now that
// it asks the store for a verdict instead of the payload: a manifest whose
// recorded size no longer matches the blob, and a blob that no longer
// matches its digest, are two different findings and both are reported.
func TestVerifyReportsSizeDriftAndBitRot(t *testing.T) {
	a, ids := manyPackageArchive(t, 3)
	drifted, _ := a.Get(ids[0])
	drifted.Files[0].Size++
	rotted, _ := a.Get(ids[1])
	if err := a.CorruptBlob(rotted.Files[0].Digest); err != nil {
		t.Fatal(err)
	}
	rep := a.VerifyAll()
	if rep.Healthy != 1 || len(rep.Damaged) != 2 {
		t.Fatalf("report: %+v", rep)
	}
	if got := rep.Damaged[ids[0]]; !strings.Contains(got, "size drift") {
		t.Fatalf("size-drifted manifest reported as %q", got)
	}
	if err := a.VerifyPackage(ids[1]); !errors.Is(err, cas.ErrCorrupt) {
		t.Fatalf("bit-rotted blob reported as %v", err)
	}
}

func manyPackageArchive(t *testing.T, n int) (*Archive, []string) {
	t.Helper()
	a := New()
	var ids []string
	for i := 0; i < n; i++ {
		m := sampleMeta()
		m.Title = fmt.Sprintf("capsule %02d", i)
		m.EnvManifest, m.Provenance = "", ""
		id, err := a.Ingest(m, map[string][]byte{
			"events.json": bytes.Repeat([]byte(fmt.Sprintf("evt-%02d ", i)), 2000),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return a, ids
}

func TestParallelVerifyAllFindsDamage(t *testing.T) {
	a, ids := manyPackageArchive(t, 10)
	victim := ids[4]
	pkg, _ := a.Get(victim)
	if err := a.CorruptBlob(pkg.Files[0].Digest); err != nil {
		t.Fatal(err)
	}
	rep := a.VerifyAllWorkers(context.Background(), 8)
	if rep.Packages != 10 || rep.Healthy != 9 {
		t.Fatalf("report: %+v", rep)
	}
	if _, ok := rep.Damaged[victim]; !ok {
		t.Fatalf("damaged map %v missing %s", rep.Damaged, victim)
	}
}

func TestDeduplicationAcrossPackages(t *testing.T) {
	a := New()
	if _, err := a.Ingest(sampleMeta(), sampleFiles()); err != nil {
		t.Fatal(err)
	}
	m := sampleMeta()
	m.Title = "Second package sharing payload"
	if _, err := a.Ingest(m, sampleFiles()); err != nil {
		t.Fatal(err)
	}
	// Five distinct blobs even though ten files are registered.
	if a.Stats().Blobs != 5 {
		t.Fatalf("blobs: %d", a.Stats().Blobs)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	var buf bytes.Buffer
	if err := a.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs()) != 1 || got.IDs()[0] != id {
		t.Fatalf("ids: %v", got.IDs())
	}
	data, err := got.Fetch(id, "analysis/cuts.json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "met") {
		t.Fatal("content lost through persistence")
	}
}

func TestReadFromRejectsDamage(t *testing.T) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	pkg, _ := a.Get(id)
	_ = a.CorruptBlob(pkg.Files[0].Digest)
	var buf bytes.Buffer
	_ = a.Persist(&buf)
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("damaged archive loaded")
	}
	if _, err := ReadFrom(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage loaded")
	}
	if _, err := ReadFrom(strings.NewReader("5\n{bad}")); err == nil {
		t.Fatal("bad index loaded")
	}
}

// TestReadFromRejectsAlteredMetadata: blob fixity says nothing about the
// index, so a byte flipped in a title, tag or keyword is caught by
// recomputing the package ID the way Ingest assigned it.
func TestReadFromRejectsAlteredMetadata(t *testing.T) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	var buf bytes.Buffer
	if err := a.Persist(&buf); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"W+MET search", "data-v3", "w-boson"} {
		edited := bytes.Replace(buf.Bytes(), []byte(field), []byte("X"+field[1:]), 1)
		if bytes.Equal(edited, buf.Bytes()) {
			t.Fatalf("%q not found in the persisted index", field)
		}
		_, err := ReadFrom(bytes.NewReader(edited))
		if err == nil || !strings.Contains(err.Error(), id) {
			t.Fatalf("index with %q altered: err = %v, want one naming %s", field, err, id)
		}
	}
}

// TestReadFromLengthFieldReservesNoMemory: the index length is read from
// the file before any of the index arrives.
func TestReadFromLengthFieldReservesNoMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(strings.NewReader("1073741824\n{\"packages\":["))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated index loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("a 26-byte file allocated %d bytes", grew)
	}
}

func BenchmarkIngest(b *testing.B) {
	files := sampleFiles()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := New()
		m := sampleMeta()
		if _, err := a.Ingest(m, files); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyPackage(b *testing.B) {
	a := New()
	id, _ := a.Ingest(sampleMeta(), sampleFiles())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.VerifyPackage(id); err != nil {
			b.Fatal(err)
		}
	}
}
