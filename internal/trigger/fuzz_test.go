package trigger

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeMenu: any menu DecodeMenu accepts encodes, and its encoding
// decodes to an equal menu that encodes to the same bytes; no input
// panics it. The seeds are the standard physics menu's archival form and
// a truncation of it.
func FuzzDecodeMenu(f *testing.F) {
	seed, err := StandardMenu().Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMenu(data)
		if err != nil {
			return
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("an accepted menu does not encode: %v", err)
		}
		back, err := DecodeMenu(enc)
		if err != nil {
			t.Fatalf("an encoded menu does not decode: %v\n%s", err, enc)
		}
		again, err := back.Encode()
		if err != nil || !bytes.Equal(again, enc) || !reflect.DeepEqual(back, m) {
			t.Fatalf("an encoded menu decodes to another one: %v\n%s\n%s", err, enc, again)
		}
	})
}
