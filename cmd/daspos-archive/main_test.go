package main

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
// "created" is printed only after save returned nil.
func TestSaveSurfacesAFullDisk(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	if err := save(demoArchive(t), "/dev/full"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("save onto a full device returned %v, want ENOSPC", err)
	}
}

// TestSaveRoundTrips: what save wrote, closed and reported nil for loads
// back — every package verified — as the archive that was saved.
func TestSaveRoundTrips(t *testing.T) {
	a := demoArchive(t)
	path := filepath.Join(t.TempDir(), "a.daspos")
	if err := save(a, path); err != nil {
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
