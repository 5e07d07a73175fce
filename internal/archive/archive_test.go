package archive

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"daspos/internal/cas"
	"daspos/internal/datamodel"
	"daspos/internal/faults"
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
	backend := cas.NewShardedBackend(0)
	a := NewWithStore(cas.NewStoreWith(backend))
	if _, err := a.Ingest(sampleMeta(), sampleFiles()); err != nil {
		t.Fatal(err)
	}
	m := sampleMeta()
	m.Title = "Second package sharing payload"
	if _, err := a.Ingest(m, sampleFiles()); err != nil {
		t.Fatal(err)
	}
	// Five distinct blobs even though ten files are registered.
	if n := len(backend.Digests()); n != 5 {
		t.Fatalf("blobs: %d", n)
	}
}

func openArchive(t *testing.T, dir string) *Archive {
	t.Helper()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// openBlobs opens a second view of a directory archive's blob directory;
// a DiskBackend keeps no state beyond the directory.
func openBlobs(t *testing.T, dir string) *cas.DiskBackend {
	t.Helper()
	disk, err := cas.OpenDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	return disk
}

// TestPersistRoundTrip: a package ingested into a directory archive is
// there, whole, after a reopen, and a second package is added beside it
// without rewriting the first's line.
func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := openArchive(t, dir)
	id, err := a.Ingest(sampleMeta(), sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(filepath.Join(dir, "packages.log"))
	if err != nil {
		t.Fatal(err)
	}

	got := openArchive(t, dir)
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
	m := sampleMeta()
	m.Title = "Second package sharing payload"
	if _, err := got.Ingest(m, sampleFiles()); err != nil {
		t.Fatal(err)
	}
	if _, err := got.Ingest(m, sampleFiles()); err == nil {
		t.Fatal("identical package ingested twice into a directory archive")
	}
	log, err := os.ReadFile(filepath.Join(dir, "packages.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(log, first) || bytes.Count(log, []byte("\n")) != 2 {
		t.Fatalf("packages.log after a second ingest:\n%s", log)
	}
	if rep := got.VerifyAll(); rep.Healthy != 2 || len(openBlobs(t, dir).Digests()) != 5 {
		t.Fatalf("report %+v over %d blobs", rep, len(openBlobs(t, dir).Digests()))
	}
}

// TestOpenRejectsAlteredMetadata: blob fixity says nothing about the
// index, so a byte changed in a title, tag or keyword of a packages.log
// line fails Open, naming the line and the package.
func TestOpenRejectsAlteredMetadata(t *testing.T) {
	dir := t.TempDir()
	a := openArchive(t, dir)
	if _, err := a.Ingest(sampleMeta(), sampleFiles()); err != nil {
		t.Fatal(err)
	}
	m := sampleMeta()
	m.Title = "W+MET search 2013, second look"
	id, err := a.Ingest(m, sampleFiles())
	if err != nil {
		t.Fatal(err)
	}
	a.Close()
	path := filepath.Join(dir, "packages.log")
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n"))
	for _, field := range []string{"W+MET search", "data-v3", "w-boson"} {
		edited := bytes.Replace(lines[1], []byte(field), []byte("X"+field[1:]), 1)
		if bytes.Equal(edited, lines[1]) {
			t.Fatalf("%q not found in the second line", field)
		}
		if err := os.WriteFile(path, slices.Concat(lines[0], edited), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), id) {
			t.Fatalf("index with %q altered: err = %v, want one naming line 2 and %s", field, err, id)
		}
	}
}

// TestKilledIngestKeepsThePreviousArchive sweeps a second ingest into an
// existing directory archive, killed at each of its object.* and journal.*
// points in turn. After every kill the archive reopens with the first
// package, the audit is clean, the second package is either whole or
// absent, and ingesting it again completes it.
func TestKilledIngestKeepsThePreviousArchive(t *testing.T) {
	second := sampleMeta()
	second.Title = "W+MET search 2013, second look"
	secondFiles := sampleFiles()
	secondFiles["events/extra.edm"] = bytes.Repeat([]byte("more-data "), 40000) // chunked
	secondFiles["docs/README.md"] = []byte("# A second look\n")

	// run builds the first package into a fresh directory and then ingests
	// the second with hook armed.
	run := func(hook func(point string)) (dir, id1, id2 string, killed *faults.Kill) {
		dir = t.TempDir()
		a := openArchive(t, dir)
		var err error
		if id1, err = a.Ingest(sampleMeta(), sampleFiles()); err != nil {
			t.Fatal(err)
		}
		disk := openBlobs(t, dir)
		disk.SetKill(hook)
		a.blobs = cas.NewStoreWith(disk)
		a.index.SetKill(hook)
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if killed, ok = faults.AsKill(r); !ok {
					panic(r)
				}
			}
			a.Close()
		}()
		if id2, err = a.Ingest(second, secondFiles); err != nil {
			t.Fatal(err)
		}
		return dir, id1, id2, nil
	}

	seen := make(map[string]bool)
	_, id1, id2, _ := run(func(point string) { seen[point] = true })
	for _, p := range []string{"object.create", "object.torn", "object.sync", "object.rename", "object.durable", "journal.append", "journal.torn", "journal.sync"} {
		if !seen[p] {
			t.Fatalf("a second ingest never passes %s (saw %v)", p, seen)
		}
	}
	probe := faults.NewKiller()
	run(probe.Hit)
	total := probe.Hits()

	for n := 1; n <= total; n++ {
		kill := faults.NewKiller()
		kill.CrashAfterN(n)
		dir, _, _, killed := run(kill.Hit)
		if killed == nil {
			t.Fatalf("kill %d/%d did not fire", n, total)
		}
		re := openArchive(t, dir)
		ids := re.IDs()
		if !slices.Contains(ids, id1) {
			t.Fatalf("kill at %s (%d): the first package is gone: %v", killed.Point, n, ids)
		}
		if rep := re.VerifyAll(); len(rep.Damaged) != 0 {
			t.Fatalf("kill at %s (%d): audit %+v", killed.Point, n, rep)
		}
		switch {
		case slices.Contains(ids, id2):
			for path, want := range secondFiles {
				if got, err := re.Fetch(id2, path); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("kill at %s (%d): second package file %s: %v", killed.Point, n, path, err)
				}
			}
		case len(ids) != 1:
			t.Fatalf("kill at %s (%d): packages %v", killed.Point, n, ids)
		default:
			if id, err := re.Ingest(second, secondFiles); err != nil || id != id2 {
				t.Fatalf("kill at %s (%d): re-ingest: %s, %v", killed.Point, n, id, err)
			}
		}
	}
}

// TestReadImageRejectsGarbage: the image reader refuses what is not an
// image, and an index entry whose ID does not recompute.
func TestReadImageRejectsGarbage(t *testing.T) {
	image := func(index string) string { return fmt.Sprintf("%d\n%s", len(index), index) }
	for name, in := range map[string]string{
		"garbage":         "garbage",
		"bad index":       "5\n{bad}",
		"short index":     "100\n{}",
		"null package":    image(`{"packages":[null]}`),
		"altered ID":      image(`{"packages":[{"metadata":{"id":"feed","title":"t"},"files":[]}]}`),
		"bad blob stream": image(`{"packages":[]}`) + "\x01",
	} {
		if _, err := ReadImage([]byte(in)); err == nil {
			t.Errorf("%s: image read", name)
		}
	}
	if a, err := ReadImage([]byte(image(`{"packages":[]}`))); err != nil || len(a.IDs()) != 0 {
		t.Fatalf("empty image: %v", err)
	}
}

// TestReadImageLengthFieldReservesNoMemory: the index length is read from
// the file before any of the index arrives.
func TestReadImageLengthFieldReservesNoMemory(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadImage([]byte("1073741824\n{\"packages\":["))
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
