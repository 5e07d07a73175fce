package skim_test

import (
	"bytes"
	"testing"

	"daspos/internal/chain"
	"daspos/internal/conditions"
	"daspos/internal/skim"
)

// FuzzDecodeDerivation: any derivation DecodeDerivation accepts encodes,
// and its encoding decodes to one that encodes to the same bytes; no
// input panics it. The seeds are the production train's derivations.
func FuzzDecodeDerivation(f *testing.F) {
	spec := chain.Production(1, 0, 1, 1, conditions.NewDB().Snapshot("prod-v1", 1))
	for _, d := range spec.Train.Derivations {
		seed, err := d.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := skim.DecodeDerivation(data)
		if err != nil {
			return
		}
		enc, err := d.Encode()
		if err != nil {
			t.Fatalf("an accepted derivation does not encode: %v", err)
		}
		back, err := skim.DecodeDerivation(enc)
		if err != nil {
			t.Fatalf("an encoded derivation does not decode: %v\n%s", err, enc)
		}
		if again, err := back.Encode(); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("an encoded derivation decodes to another one: %v\n%s\n%s", err, enc, again)
		}
	})
}
