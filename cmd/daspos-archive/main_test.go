package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"daspos/internal/archive"
	"daspos/internal/cas"
)

// createIn runs `create -out dir -seed seed -events 50` and returns the
// package it added and what it printed.
func createIn(t *testing.T, dir, seed string) (id, printed string) {
	t.Helper()
	var before []string
	if _, err := os.Stat(dir); err == nil {
		before = loadT(t, dir).IDs()
	}
	var out bytes.Buffer
	create(&out, []string{"-out", dir, "-seed", seed, "-events", "50"})
	for _, id := range loadT(t, dir).IDs() {
		if !slices.Contains(before, id) {
			return id, out.String()
		}
	}
	t.Fatalf("create -seed %s added no package to %s", seed, dir)
	return "", ""
}

func loadT(t *testing.T, path string) *archive.Archive {
	t.Helper()
	a, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestParentImageReadsUnchanged: testdata/parent.daspos is the image the
// last single-file build wrote (`create -events 50`), and parent.list and
// parent.flipped.verify are what that build printed for it. verify and list
// print the same for it here, and with its last byte flipped verify names
// the same package, file and blob.
func TestParentImageReadsUnchanged(t *testing.T) {
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	image := filepath.Join("testdata", "parent.daspos")
	var out bytes.Buffer
	if !audit(&out, loadT(t, image)) || out.String() != "packages: 1, healthy: 1\n" {
		t.Fatalf("verify printed\n%s", out.String())
	}
	out.Reset()
	if err := catalogue(&out, loadT(t, image)); err != nil || out.String() != golden("parent.list") {
		t.Fatalf("list printed (%v)\n%swant\n%s", err, out.String(), golden("parent.list"))
	}

	flipped := []byte(golden("parent.daspos"))
	flipped[len(flipped)-1] ^= 0x01
	path := filepath.Join(t.TempDir(), "flipped.daspos")
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := loadT(t, path)
	out.Reset()
	if audit(&out, damaged) || out.String() != golden("parent.flipped.verify") {
		t.Fatalf("verify of the flipped image printed\n%swant\n%s", out.String(), golden("parent.flipped.verify"))
	}
	if err := catalogue(&out, damaged); err == nil {
		t.Fatal("list accepted the flipped image")
	}
}

// copyArchive copies a directory archive into a temp dir, so a test reopens
// it without touching testdata.
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

// TestParentDirectoryReadsUnchanged: testdata/parent-dir is the directory
// the last build before the roots log wrote (`create -events 50` at seeds 7
// and 8), one whole Package per packages.log line, and parent-dir.list is
// what that build's list printed. list prints the same for a copy, verify
// passes, the copy's packages.log is not rewritten, and the manifests the
// reopen adopted into blobs/ recover the same packages on their own.
func TestParentDirectoryReadsUnchanged(t *testing.T) {
	dir := copyArchive(t, filepath.Join("testdata", "parent-dir"))
	log := filepath.Join(dir, "packages.log")
	before, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent-dir.list"))
	if err != nil {
		t.Fatal(err)
	}
	a := loadT(t, dir)
	var out bytes.Buffer
	if err := catalogue(&out, a); err != nil || out.String() != string(want) {
		t.Fatalf("list printed (%v)\n%swant\n%s", err, out.String(), want)
	}
	out.Reset()
	if !audit(&out, a) || out.String() != "packages: 2, healthy: 2\n" {
		t.Fatalf("verify printed\n%s", out.String())
	}
	if after, err := os.ReadFile(log); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("reopening rewrote packages.log (%v)", err)
	}
	disk, err := cas.OpenDisk(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if r, err := archive.Recover(disk); err != nil || !slices.Equal(r.IDs(), a.IDs()) {
		t.Fatalf("Recover over the reopened copy's blobs: %v, want %v (%v)", r, a.IDs(), err)
	}
}

// TestLostIndexIsRebuilt: with packages.log moved away, verify and list
// rebuild it from the blobs and print what they printed before.
func TestLostIndexIsRebuilt(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	createIn(t, dir, "7")
	createIn(t, dir, "8")
	var before bytes.Buffer
	if err := catalogue(&before, loadT(t, dir)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "packages.log"), filepath.Join(dir, "..", "packages.log")); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if !audit(&out, loadT(t, dir)) || out.String() != "packages: 2, healthy: 2\n" {
		t.Fatalf("verify after losing packages.log printed\n%s", out.String())
	}
	out.Reset()
	if err := catalogue(&out, loadT(t, dir)); err != nil || out.String() != before.String() {
		t.Fatalf("list after losing packages.log printed (%v)\n%swant\n%s", err, out.String(), before.String())
	}
}

// TestCreateAddsAPackage: a second create into an archive directory adds
// its package beside the first without rewriting it, and both reload
// whole. Each create's summary is the package it added, not the archive.
func TestCreateAddsAPackage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a")
	first, printed := createIn(t, dir, "7")
	if want := "created " + dir + ": package 837fea1557a20f04d0452761f8fa829595265fc9363e8dea17240aea122d519c\n" +
		"payload 4.2 KiB in 5 files\n"; printed != want {
		t.Fatalf("create printed\n%swant\n%s", printed, want)
	}
	index := filepath.Join(dir, "packages.log")
	before, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	second, printed := createIn(t, dir, "8")
	if want := "created " + dir + ": package " + second + "\npayload 4.2 KiB in 5 files\n"; printed != want {
		t.Fatalf("the second create printed\n%swant\n%s", printed, want)
	}
	after, err := os.ReadFile(index)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) || len(after) == len(before) {
		t.Fatal("the second create rewrote packages.log instead of appending to it")
	}
	a := loadT(t, dir)
	if got := a.IDs(); len(got) != 2 || !slices.Contains(got, first) || !slices.Contains(got, second) {
		t.Fatalf("reloaded packages %v, want %s and %s", got, first, second)
	}
	var out bytes.Buffer
	if !audit(&out, a) || out.String() != "packages: 2, healthy: 2\n" {
		t.Fatalf("audit printed\n%s", out.String())
	}
}

// damageOne creates an archive and hands the file of one of its package's
// blobs to damage, returning the line verify must print for it, up to the
// error's detail.
func damageOne(t *testing.T, damage func(path string)) (dir, want string) {
	t.Helper()
	dir = t.TempDir()
	id, _ := createIn(t, dir, "7")
	pkg, _ := loadT(t, dir).Get(id)
	hit := pkg.Files[len(pkg.Files)-1]
	damage(filepath.Join(dir, "blobs", hit.Digest))
	return dir, "DAMAGED " + id + ": archive: package " + id + " file " + hit.Path + ": cas: blob "
}

// TestVerifyNamesTheDamagedFile: one flipped byte in a blob's file comes out
// of the audit as the package and the file it hit, as it does for an image,
// and list refuses the archive.
func TestVerifyNamesTheDamagedFile(t *testing.T) {
	var digest string
	dir, want := damageOne(t, func(path string) {
		digest = filepath.Base(path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)-1] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	a := loadT(t, dir)
	var out bytes.Buffer
	want += "corrupt: " + digest
	if audit(&out, a) || !strings.Contains(out.String(), "packages: 1, healthy: 0\n"+want) {
		t.Errorf("audit printed\n%swant a line starting\n%s", out.String(), want)
	}
	if err := catalogue(&out, a); err == nil {
		t.Error("list accepted a damaged archive")
	}
}

// TestVerifyNamesAMissingBlob: a blob file deleted from under an archive is
// named by the audit as not found.
func TestVerifyNamesAMissingBlob(t *testing.T) {
	var digest string
	dir, want := damageOne(t, func(path string) {
		digest = filepath.Base(path)
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
	var out bytes.Buffer
	want += "not found: " + digest + "\n"
	if audit(&out, loadT(t, dir)) || !strings.HasSuffix(out.String(), want) {
		t.Errorf("audit printed\n%swant a line\n%s", out.String(), want)
	}
}
