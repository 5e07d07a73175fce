package cluster

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"daspos/internal/cas"
)

// TestStoreReadsMatchOverShardedAndCluster: a Store over the cluster
// client, whose replica check is the Store's only check, and one over a
// DiskBackend, which checks each file it reads once, read like a Store over
// a ShardedBackend, which checks for itself: the same payloads and sizes,
// flat and chunked; a missing blob as a bare *cas.NotFoundError; a blob
// with no good copy as ErrCorrupt under "cas: reading <digest>" from Get
// and ErrCorrupt from Verify.
func TestStoreReadsMatchOverShardedAndCluster(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	sharded := cas.NewStore()
	disk, err := cas.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := []struct {
		name   string
		store  *cas.Store
		rotAll func(digest string) error
	}{
		{"sharded", sharded, sharded.Corrupt},
		{"cluster", cas.NewStoreWith(c), func(digest string) error {
			for _, id := range c.Owners(digest) {
				if err := tc.nodeOf(t, id).Corrupt(digest); err != nil {
					return err
				}
			}
			return nil
		}},
		{"disk", cas.NewStoreWith(disk), func(digest string) error {
			file, err := os.ReadFile(disk.Path(digest))
			if err != nil {
				return err
			}
			file[len(file)/2] ^= 0xFF
			return os.WriteFile(disk.Path(digest), file, 0o644)
		}},
	}
	payloads := map[string][]byte{
		"flat":    bytes.Repeat([]byte("flat payload "), 200),
		"chunked": bytes.Repeat([]byte("chunked payload "), 30<<10),
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			for kind, payload := range payloads {
				digest, err := st.store.Put(payload)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := st.store.Get(digest); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("%s: Get: %d bytes, %v", kind, len(got), err)
				}
				if n, err := st.store.Verify(digest); err != nil || n != int64(len(payload)) {
					t.Fatalf("%s: Verify: %d, %v; want %d", kind, n, err, len(payload))
				}

				if err := st.rotAll(digest); err != nil {
					t.Fatal(err)
				}
				_, err = st.store.Get(digest)
				if !errors.Is(err, cas.ErrCorrupt) || !strings.HasPrefix(err.Error(), "cas: reading "+digest+": ") {
					t.Fatalf("%s: Get with no good copy: %v, want ErrCorrupt under cas: reading %s", kind, err, digest)
				}
				if _, err := st.store.Verify(digest); !errors.Is(err, cas.ErrCorrupt) {
					t.Fatalf("%s: Verify with no good copy: %v, want ErrCorrupt", kind, err)
				}
			}

			missing := cas.Digest([]byte("never stored"))
			_, getErr := st.store.Get(missing)
			_, verifyErr := st.store.Verify(missing)
			for op, err := range map[string]error{"Get": getErr, "Verify": verifyErr} {
				if nf, ok := err.(*cas.NotFoundError); !ok || nf.Digest != missing {
					t.Fatalf("%s of a missing blob: %T %v, want a bare *cas.NotFoundError", op, err, err)
				}
			}
		})
	}
}

// TestOneCorruptReplicaIsServedAroundAndRepaired: with the first owner's
// copy rotten, Get and Verify are answered from the next owner, and the
// rotten copy is overwritten with the good one — on the payload-keeping
// read and on the verdict-only one alike.
func TestOneCorruptReplicaIsServedAroundAndRepaired(t *testing.T) {
	tc := startCluster(t, 5)
	c := newClient(t, tc, Config{ReplicationFactor: 3})
	store := cas.NewStoreWith(c)
	payload := bytes.Repeat([]byte("served around "), 30<<10)
	digest, err := store.Put(payload)
	if err != nil {
		t.Fatal(err)
	}
	first := tc.nodeOf(t, c.Owners(digest)[0])
	for op, read := range map[string]func() (int64, error){
		"Get": func() (int64, error) {
			data, err := store.Get(digest)
			if err == nil && !bytes.Equal(data, payload) {
				t.Fatal("Get served the wrong bytes")
			}
			return int64(len(data)), err
		},
		"Verify": func() (int64, error) { return store.Verify(digest) },
	} {
		if err := first.Corrupt(digest); err != nil {
			t.Fatal(err)
		}
		if n, err := read(); err != nil || n != int64(len(payload)) {
			t.Fatalf("%s with the first owner's copy rotten: %d, %v", op, n, err)
		}
		comp, _, err := first.Backend().GetBlob(digest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cas.VerifyBlob(digest, comp); err != nil {
			t.Fatalf("%s did not repair the rotten copy: %v", op, err)
		}
	}
}
