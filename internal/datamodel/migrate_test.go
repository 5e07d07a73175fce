package datamodel

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeV2Events authors a version-2 gob stream: the exact byte sequence
// the pre-v3 FileWriter produced (header, one record per event, counted
// end trailer), so tests can author v2 streams at will.
func writeV2Events(w io.Writer, tier Tier, events []*Event) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(fileHeader{Magic: fileMagic, Version: fileVersion, Tier: tier}); err != nil {
		return err
	}
	for _, e := range events {
		if err := enc.Encode(record{Event: e}); err != nil {
			return err
		}
	}
	return enc.Encode(record{End: true, Count: len(events)})
}

// goldenPath is the committed v2 stream a pre-v3 build wrote: five RECO
// events of goldenFixture.
func goldenPath() string { return filepath.Join("testdata", "v2_golden.edm") }

// migratedGoldenSHA256 is the digest of the v3 stream MigrateV2 makes of
// testdata/v2_golden.edm. Decoding is exact and the v3 encoding
// deterministic, so it is the same on every CPU.
const migratedGoldenSHA256 = "8e1fe72c0fb12bd09db22cc09fc7a7f965038a632dd282806d09f70aad91ee12"

// TestMigrateV2Golden: the committed v2 golden migrates to its five RECO
// events in a v3 stream pinned by digest.
func TestMigrateV2Golden(t *testing.T) {
	golden, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	v3, n, err := MigrateV2(golden)
	if err != nil || n != goldenEvents {
		t.Fatalf("migrated %d events, want %d (%v)", n, goldenEvents, err)
	}
	sum := sha256.Sum256(v3)
	if got := hex.EncodeToString(sum[:]); got != migratedGoldenSHA256 {
		t.Fatalf("the migrated golden's SHA-256 is %s, want %s", got, migratedGoldenSHA256)
	}
	tier, events, err := ReadEvents(bytes.NewReader(v3))
	if err != nil || tier != TierRECO || len(events) != goldenEvents {
		t.Fatalf("the migrated golden reads as %d %v events (%v)", len(events), tier, err)
	}
}

// TestMigrateV2RefusesWhatIsNotWhole: a v2 stream that is cut short, whose
// trailer miscounts, that has bytes after its trailer or holds an event of
// another tier migrates nothing; bytes that are no v2 stream at all — a v3
// one among them — are ErrNotV2.
func TestMigrateV2RefusesWhatIsNotWhole(t *testing.T) {
	events := goldenFixture()[:2]
	stream := func(records ...record) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(fileHeader{Magic: fileMagic, Version: fileVersion, Tier: TierRECO}); err != nil {
			t.Fatal(err)
		}
		for _, rec := range records {
			if err := enc.Encode(rec); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	whole := stream(record{Event: events[0]}, record{Event: events[1]}, record{End: true, Count: 2})
	if _, n, err := MigrateV2(whole); err != nil || n != 2 {
		t.Fatalf("the whole stream: %d events, %v", n, err)
	}
	aod := *events[1]
	aod.Tier = TierAOD
	for name, data := range map[string][]byte{
		"cut":            whole[:len(whole)-3],
		"miscounted":     stream(record{Event: events[0]}, record{Event: events[1]}, record{End: true, Count: 0}),
		"trailing-bytes": append(whole[:len(whole):len(whole)], 0),
		"other-tier":     stream(record{Event: events[0]}, record{Event: &aod}, record{End: true, Count: 2}),
	} {
		if _, _, err := MigrateV2(data); err == nil || errors.Is(err, ErrNotV2) {
			t.Errorf("%s: got %v, want a refusal of a damaged v2 stream", name, err)
		}
	}
	var v3 bytes.Buffer
	if _, err := WriteEvents(&v3, TierRECO, events); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v3": v3.Bytes(), "json": []byte(`{"format":"daspos-step/1"}`), "empty": nil} {
		if _, _, err := MigrateV2(data); !errors.Is(err, ErrNotV2) {
			t.Errorf("%s: got %v, want ErrNotV2", name, err)
		}
	}
}

// TestMigrateV2ProofRefusesWhatDoesNotReadBackEqual: an event the v3
// bytes cannot be shown to reproduce — an Aux value of NaN, which equals
// nothing — fails the proof, and nothing is migrated.
func TestMigrateV2ProofRefusesWhatDoesNotReadBackEqual(t *testing.T) {
	e := goldenFixture()[0]
	e.Aux = map[string]float64{"undefined": math.NaN()}
	var v2 bytes.Buffer
	if err := writeV2Events(&v2, TierRECO, []*Event{e}); err != nil {
		t.Fatal(err)
	}
	v3, n, err := MigrateV2(v2.Bytes())
	if err == nil || !strings.Contains(err.Error(), "migration proof: event 0 of 1") || v3 != nil || n != 0 {
		t.Fatalf("got %d events, %d bytes, %v; want the proof to fail on event 0", n, len(v3), err)
	}
}
