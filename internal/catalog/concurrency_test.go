package catalog

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestCatalogConcurrentAccess hammers the catalog from writers and
// readers at once; run with -race. Readers must always see sorted
// listings and copied datasets, never the catalog's own maps.
func TestCatalogConcurrentAccess(t *testing.T) {
	c := New()
	const writers, perWriter = 4, 20
	var wg, writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("/mc/conc%d-%02d/AOD/v1", w, i)
				err := c.Create(Dataset{
					Name: name, Tier: "AOD", ProcessingVersion: "v1",
					Metadata: map[string]string{"writer": fmt.Sprint(w)},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.AddFile(name, FileEntry{LFN: name + "/f0", Bytes: 10, Digest: "d", Events: 1}); err != nil {
					t.Error(err)
					return
				}
				if err := c.Close(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			names := c.NamesAfter("", 1000)
			if !sort.StringsAreSorted(names) {
				t.Error("listing unsorted under concurrent writes")
				return
			}
			if len(names) > 0 {
				c.Get(names[0])
			}
		}
	}()
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if c.Len() != writers*perWriter {
		t.Fatalf("catalog has %d datasets", c.Len())
	}
	// Reads are copies: mutating a returned dataset's maps and slices
	// must not reach the catalog.
	name := "/mc/conc0-00/AOD/v1"
	d, ok := c.Get(name)
	if !ok {
		t.Fatal("dataset missing")
	}
	d.Metadata["writer"] = "tampered"
	d.Files[0].Digest = "tampered"
	again, _ := c.Get(name)
	if again.Metadata["writer"] == "tampered" || again.Files[0].Digest == "tampered" {
		t.Fatal("Get returned shared memory")
	}
}

// TestListingDeterminism pins the ordering contract on every multi-result
// API: sorted by name, identical across repeated calls, insertion order
// irrelevant.
func TestListingDeterminism(t *testing.T) {
	mk := func(names []string) *Catalog {
		c := New()
		for _, n := range names {
			if err := c.Create(Dataset{Name: n, Tier: "AOD", ProcessingVersion: "v1"}); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	names := []string{"/d/c/AOD/v1", "/a/x/AOD/v1", "/b/m/AOD/v1", "/a/a/AOD/v1"}
	reversed := []string{"/a/a/AOD/v1", "/b/m/AOD/v1", "/a/x/AOD/v1", "/d/c/AOD/v1"}
	c1, c2 := mk(names), mk(reversed)
	want := []string{"/a/a/AOD/v1", "/a/x/AOD/v1", "/b/m/AOD/v1", "/d/c/AOD/v1"}
	for i, c := range []*Catalog{c1, c2} {
		got := c.NamesAfter("", 10)
		if len(got) != len(want) {
			t.Fatalf("catalog %d: %v", i, got)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("catalog %d listing: %v want %v", i, got, want)
			}
		}
	}
	// NamesAfter pages agree with the full listing.
	var paged []string
	after := ""
	for {
		page := c1.NamesAfter(after, 2)
		if len(page) == 0 {
			break
		}
		paged = append(paged, page...)
		after = page[len(page)-1]
	}
	if fmt.Sprint(paged) != fmt.Sprint(want) {
		t.Fatalf("paged walk %v want %v", paged, want)
	}
}
