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

// TestIngestValidation: every rejected ingest is refused before its first
// write, so the store holds no blob afterwards.
func TestIngestValidation(t *testing.T) {
	backend := cas.NewShardedBackend(0)
	a := NewWithStore(cas.NewStoreWith(backend))
	rejected := func(what string, meta Metadata, files map[string][]byte) {
		t.Helper()
		if _, err := a.Ingest(meta, files); err == nil {
			t.Fatalf("%s accepted", what)
		}
		if n := len(backend.Digests()); n != 0 {
			t.Fatalf("%s rejected, but %d blobs were written", what, n)
		}
	}
	rejected("untitled package", Metadata{}, sampleFiles())
	rejected("empty package", sampleMeta(), nil)
	m := sampleMeta()
	m.ID = "preset"
	rejected("preset ID", m, sampleFiles())
	m2 := sampleMeta()
	m2.EnvManifest = "not/there.json"
	rejected("dangling env manifest reference", m2, sampleFiles())
	m3 := sampleMeta()
	m3.Provenance = "not/there.json"
	rejected("dangling provenance reference", m3, sampleFiles())
	for _, bad := range []string{"", "/abs/path", "a/../b"} {
		files := sampleFiles()
		files[bad] = []byte("x")
		rejected(fmt.Sprintf("path %q", bad), sampleMeta(), files)
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
	// Five distinct payload blobs even though ten files are registered,
	// and one manifest per package.
	if n := len(backend.Digests()); n != 7 {
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
// without rewriting the first's line. Each line is the package ID as one
// JSON string; the package itself is its manifest blob.
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
	if want := fmt.Sprintf("%q\n", id); string(first) != want {
		t.Fatalf("packages.log line %q, want %q", first, want)
	}
	if rep := got.VerifyAll(); rep.Healthy != 2 || len(openBlobs(t, dir).Digests()) != 7 {
		t.Fatalf("report %+v over %d blobs", rep, len(openBlobs(t, dir).Digests()))
	}
}

// copyArchive copies a directory archive into a temp dir, so a test can
// reopen or damage it without touching the original.
func copyArchive(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	blobs, err := filepath.Glob(filepath.Join(src, "blobs", "*"))
	if err != nil || len(blobs) == 0 {
		t.Fatalf("no blobs under %s: %v", src, err)
	}
	for _, p := range append(blobs, filepath.Join(src, "packages.log")) {
		rel, _ := filepath.Rel(src, p)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, rel), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// parentDir is the directory archive the last build before the roots log
// wrote: two packages, one whole Package per packages.log line.
const parentDir = "../../cmd/daspos-archive/testdata/parent-dir"

// TestOpenRejectsAlteredMetadata: a byte changed in a title, tag or keyword
// of a pre-roots packages.log line fails Open, naming the line and the
// package — adopting a record holds it to its ID.
func TestOpenRejectsAlteredMetadata(t *testing.T) {
	dir := copyArchive(t, parentDir)
	path := filepath.Join(dir, "packages.log")
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const id = "cd4ffd46f8131e7d21409b36e995c8a00ab85f36c815b6828790ea4ef0d1d0ae"
	lines := bytes.SplitAfter(log, []byte("\n"))
	for _, field := range []string{"Z lineshape capsule", "mc-v1", "daspos-capsule"} {
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

// TestOpenRejectsADamagedRoot is the roots log's twin: a flipped byte in
// the second package's manifest, a changed character of its ID, and a line
// that is no digest at all each fail Open, naming line 2.
func TestOpenRejectsADamagedRoot(t *testing.T) {
	dir, id1, id2 := twoPackageArchive(t)
	path := filepath.Join(dir, "packages.log")
	manifest := filepath.Join(dir, "blobs", id2)
	stored, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(stored)
	flipped[len(flipped)-1] ^= 0x01
	last := byte('0')
	if id2[63] == '0' {
		last = '1'
	}
	changed := id2[:63] + string(last)
	for _, c := range []struct {
		name, line, want string
		blob             []byte
	}{
		{"a flipped manifest byte", id2, id2, flipped},
		{"a changed ID character", changed, changed, stored},
		{"a line that is not hex", "../../etc/passwd", "not a package ID", stored},
	} {
		if err := os.WriteFile(manifest, c.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(fmt.Sprintf("%q\n%q\n", id1, c.line)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir)
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one naming line 2 and %s", c.name, err, c.want)
		}
	}
}

// twoPackageArchive builds a directory archive of the sample package and a
// second one, and closes it.
func twoPackageArchive(t *testing.T) (dir, id1, id2 string) {
	t.Helper()
	dir = t.TempDir()
	a, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if id1, err = a.Ingest(sampleMeta(), sampleFiles()); err != nil {
		t.Fatal(err)
	}
	m := sampleMeta()
	m.Title = "W+MET search 2013, second look"
	files := sampleFiles()
	files["docs/README.md"] = []byte("# A second look\n")
	if id2, err = a.Ingest(m, files); err != nil {
		t.Fatal(err)
	}
	return dir, id1, id2
}

// TestOpenRebuildsALostIndex: with packages.log deleted, Open recovers
// every package from the blobs with the same IDs and files, and writes the
// roots log back; a payload blob that fails its check fails the rebuild,
// naming it, and no log is written.
func TestOpenRebuildsALostIndex(t *testing.T) {
	dir, id1, id2 := twoPackageArchive(t)
	path := filepath.Join(dir, "packages.log")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	re := openArchive(t, dir)
	want := []string{id1, id2}
	slices.Sort(want)
	if got := re.IDs(); !slices.Equal(got, want) {
		t.Fatalf("rebuilt IDs %v, want %v", got, want)
	}
	for path, data := range sampleFiles() {
		if got, err := re.Fetch(id1, path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("rebuilt %s: %v", path, err)
		}
	}
	if log, err := os.ReadFile(path); err != nil || string(log) != fmt.Sprintf("%q\n%q\n", want[0], want[1]) {
		t.Fatalf("rebuilt packages.log %q: %v", log, err)
	}
	if got, err := Recover(openBlobs(t, dir)); err != nil || !slices.Equal(got.IDs(), want) {
		t.Fatalf("Recover over blobs/: %v", err)
	}
	re.Close()

	pkg, _ := re.Get(id1)
	victim := pkg.File("docs/README.md").Digest
	b, err := os.ReadFile(filepath.Join(dir, "blobs", victim))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, "blobs", victim), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), victim) {
		t.Fatalf("rebuild over a damaged blob: err = %v, want one naming %s", err, victim)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed rebuild left a packages.log: %v", err)
	}
}

// TestKilledRebuildLosesNothing kills the rebuild of a lost packages.log at
// each of its Write's object.* points. After every kill the next Open
// yields both packages.
func TestKilledRebuildLosesNothing(t *testing.T) {
	run := func(hook func(point string)) (dir string, want []string, killed *faults.Kill) {
		dir, id1, id2 := twoPackageArchive(t)
		want = []string{id1, id2}
		slices.Sort(want)
		if err := os.Remove(filepath.Join(dir, "packages.log")); err != nil {
			t.Fatal(err)
		}
		root, err := cas.OpenDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		root.SetKill(hook)
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if killed, ok = faults.AsKill(r); !ok {
					panic(r)
				}
			}
		}()
		a, err := open(root, nil)
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
		return dir, want, nil
	}

	seen := make(map[string]bool)
	run(func(point string) { seen[point] = true })
	for _, p := range []string{"object.create", "object.torn", "object.sync", "object.rename", "object.durable"} {
		if !seen[p] {
			t.Fatalf("a rebuild never passes %s (saw %v)", p, seen)
		}
	}
	probe := faults.NewKiller()
	run(probe.Hit)
	total := probe.Hits()
	for n := 1; n <= total; n++ {
		kill := faults.NewKiller()
		kill.CrashAfterN(n)
		dir, want, killed := run(kill.Hit)
		if killed == nil {
			t.Fatalf("kill %d/%d did not fire", n, total)
		}
		if got := openArchive(t, dir).IDs(); !slices.Equal(got, want) {
			t.Fatalf("kill at %s (%d): packages %v, want %v", killed.Point, n, got, want)
		}
	}
}

// TestKilledIngestKeepsThePreviousArchive sweeps a second ingest into an
// existing directory archive, killed at each of its object.* points (the
// payload's, then the manifest's) and journal.* points in turn. After every kill the archive reopens with the first
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

	seen := make(map[string]int)
	_, id1, id2, _ := run(func(point string) { seen[point]++ })
	for _, p := range []string{"object.create", "object.torn", "object.sync", "object.rename", "object.durable", "journal.append", "journal.torn", "journal.sync"} {
		if seen[p] == 0 {
			t.Fatalf("a second ingest never passes %s (saw %v)", p, seen)
		}
	}
	// Two new payload blobs (the rest are the first package's) and the
	// manifest.
	if n := seen["object.durable"]; n != 3 {
		t.Fatalf("a second ingest makes %d blobs durable, want 3", n)
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

// TestIngestStagedMatchesIngest: a package whose large file Stage stored
// raw gets the ID, manifest and checked reads Ingest gives it, and a staged
// path is held to Ingest's rules — a path also among the files, or one
// leaving the package, stores nothing.
func TestIngestStagedMatchesIngest(t *testing.T) {
	files := sampleFiles()
	want, err := New().Ingest(sampleMeta(), files)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	a := openArchive(t, dir)
	aod := files["events/aod.edm"]
	delete(files, "events/aod.edm")
	staged := File{Path: "events/aod.edm", Digest: cas.Digest(aod), Size: int64(len(aod))}
	for _, bad := range []File{
		{Path: "docs/README.md", Digest: staged.Digest, Size: staged.Size},
		{Path: "../aod.edm", Digest: staged.Digest, Size: staged.Size},
	} {
		if _, err := a.IngestStaged(sampleMeta(), files, []File{bad}); err == nil || len(openBlobs(t, dir).Digests()) != 0 {
			t.Fatalf("staged %q: err = %v, blobs %v", bad.Path, err, openBlobs(t, dir).Digests())
		}
	}
	if err := a.Stage(staged.Digest, aod); err != nil {
		t.Fatal(err)
	}
	id, err := a.IngestStaged(sampleMeta(), files, []File{staged})
	if err != nil || id != want {
		t.Fatalf("IngestStaged: %s, %v; Ingest gave %s", id, err, want)
	}
	if got, err := a.Fetch(id, "events/aod.edm"); err != nil || !bytes.Equal(got, aod) {
		t.Fatalf("staged file reads back: %v", err)
	}
	if err := a.VerifyPackage(id); err != nil {
		t.Fatal(err)
	}
}
