package archive

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"daspos/internal/cas"
)

// FuzzReadImage feeds ReadImage arbitrary images, seeded with the one the
// last single-file build wrote. An image it accepts must audit without
// panicking, and every package it indexes must be a stored manifest whose
// digest is the ID — unless the audit names that package damaged, since
// an image's blobs are loaded unchecked.
func FuzzReadImage(f *testing.F) {
	image, err := os.ReadFile("../../cmd/daspos-archive/testdata/parent.daspos")
	if err != nil {
		f.Fatal(err)
	}
	index := `{"packages":[]}`
	f.Add(image)
	f.Add(image[:len(image)/2])
	f.Add([]byte(fmt.Sprintf("%d\n%s", len(index), index)))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadImage(data)
		if err != nil {
			return
		}
		rep := a.VerifyAll()
		for _, id := range a.IDs() {
			if _, err := a.manifest(id); err != nil && rep.Damaged[id] == "" {
				t.Fatalf("package %s is indexed, audits clean, and is no stored manifest: %v", id, err)
			}
		}
	})
}

// FuzzManifest stores arbitrary bytes as the one blob of a store and
// recovers an index from it. Bytes Recover takes for a manifest must
// re-encode to themselves, and storing them must return the ID it indexes.
func FuzzManifest(f *testing.F) {
	a := New()
	id, err := a.Ingest(sampleMeta(), sampleFiles())
	if err != nil {
		f.Fatal(err)
	}
	manifest, err := a.blobs.Get(id)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(manifest)
	f.Add(bytes.Replace(manifest, []byte(`"id":""`), []byte(`"id":"x"`), 1))
	f.Add(bytes.Replace(manifest, []byte(`,"files"`), []byte(` ,"files"`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		backend := cas.NewShardedBackend(1)
		if _, err := cas.NewStoreWith(backend).Put(data); err != nil {
			t.Fatal(err)
		}
		r, err := Recover(backend)
		if err != nil {
			t.Fatalf("recovering from a store of one sound blob: %v", err)
		}
		for _, id := range r.IDs() {
			pkg, _ := r.Get(id)
			unsigned := *pkg
			unsigned.Metadata.ID = ""
			again, err := json.Marshal(&unsigned)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("a recovered manifest re-encodes to other bytes: %v\n%s\n%s", err, data, again)
			}
			if got, err := r.blobs.Put(again); err != nil || got != id {
				t.Fatalf("storing a recovered manifest returns %s, not its ID %s: %v", got, id, err)
			}
		}
	})
}
