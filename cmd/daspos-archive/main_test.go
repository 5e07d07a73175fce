package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"daspos/internal/archive"
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
