package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"daspos/internal/archive"
)

func demoArchive(t *testing.T) *archive.Archive {
	t.Helper()
	a := archive.New()
	if _, err := buildDemoCapsule(7, 50).Ingest(a); err != nil {
		t.Fatal(err)
	}
	return a
}

// TestSaveSurfacesAFullDisk: a device with no room must fail the save —
// "created" is printed only after save returned nil. The image is teed to
// /dev/full, so the write fails part-way the way a filling disk fails it.
func TestSaveSurfacesAFullDisk(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full on this platform")
	}
	defer full.Close()
	a := demoArchive(t)
	path := filepath.Join(t.TempDir(), "a.daspos")
	err = save(func(w io.Writer) error { return a.Persist(io.MultiWriter(w, full)) }, path)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save onto a full device returned %v, want ENOSPC", err)
	}
}

// TestFailedSaveKeepsThePreviousArchive: a save that dies part-way — a
// write error here; a kill leaves the same bytes — must not cost the
// archive it was replacing. The file at the path is byte-identical and
// still passes its audit, and no temporary file is left beside it.
func TestFailedSaveKeepsThePreviousArchive(t *testing.T) {
	a := demoArchive(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.daspos")
	if err := save(a.Persist, path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk gone")
	err = save(func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return boom
	}, path)
	if !errors.Is(err, boom) {
		t.Fatalf("failed save returned %v, want the write error", err)
	}

	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("the previous archive is gone: %v", err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the previous archive changed: %d bytes, was %d", len(after), len(before))
	}
	b, err := archive.ReadFrom(bytes.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	if rep := b.VerifyAll(); rep.Healthy != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("the previous archive fails its audit: %+v", rep)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "a.daspos" {
		t.Fatalf("the failed save left files behind: %v", entries)
	}
}

// TestSaveRoundTrips: what save wrote, closed and reported nil for loads
// back — every package verified — as the archive that was saved.
func TestSaveRoundTrips(t *testing.T) {
	a := demoArchive(t)
	path := filepath.Join(t.TempDir(), "a.daspos")
	if err := save(a.Persist, path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err := archive.ReadFrom(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.IDs(), a.IDs()) || len(a.IDs()) != 1 {
		t.Fatalf("reloaded packages %v, saved %v", b.IDs(), a.IDs())
	}
	if rep := b.VerifyAll(); rep.Healthy != 1 || len(rep.Damaged) != 0 {
		t.Fatalf("reloaded archive fails its audit: %+v", rep)
	}
}

// TestVerifyNamesTheDamagedFile: one flipped byte in a saved archive must
// come out of the audit as the package and the file it hit. The load the
// other subcommands use refuses the same image without saying where.
func TestVerifyNamesTheDamagedFile(t *testing.T) {
	a := demoArchive(t)
	path := filepath.Join(t.TempDir(), "a.daspos")
	if err := save(a.Persist, path); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Persist writes the blobs in digest order: the last byte of the image
	// belongs to the file with the largest digest.
	id := a.IDs()[0]
	pkg, _ := a.Get(id)
	hit := pkg.Files[0]
	for _, f := range pkg.Files {
		if f.Digest > hit.Digest {
			hit = f
		}
	}
	image[len(image)-1] ^= 0x01

	if _, err := archive.ReadFrom(bytes.NewReader(image)); err == nil {
		t.Fatal("ReadFrom accepted a damaged image")
	}
	damaged, err := archive.ReadUnverified(bytes.NewReader(image))
	if err != nil {
		t.Fatalf("the audit's load refused the image: %v", err)
	}
	var out bytes.Buffer
	if audit(&out, damaged) {
		t.Errorf("audit called a damaged archive whole:\n%s", out.String())
	}
	want := "DAMAGED " + id + ": archive: package " + id + " file " + hit.Path + ": cas: blob corrupt: " + hit.Digest
	if !strings.Contains(out.String(), "packages: 1, healthy: 0\n") || !strings.Contains(out.String(), want) {
		t.Errorf("audit printed\n%swant a line starting\n%s", out.String(), want)
	}

	image[len(image)-1] ^= 0x01
	whole, err := archive.ReadUnverified(bytes.NewReader(image))
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if !audit(&out, whole) || out.String() != "packages: 1, healthy: 1\n" {
		t.Errorf("audit of the undamaged image printed\n%s", out.String())
	}
}
