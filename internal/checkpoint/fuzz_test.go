package checkpoint

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzStepRecord holds step.json's decoder, which reads disk bytes at every
// Open, to its contract: any input is refused or decodes to a record that
// encodes back to exactly those bytes, and never panics. Seeded from a
// real step and from each way a record can be refused.
func FuzzStepRecord(f *testing.F) {
	real := stepRecord{
		Format: stepFormat, Step: "derivation-train",
		Key:    StepKey("derivation-train", "cfg", []string{"33bcf6840aa0bc0443dd01e7d58640c9b1de179077781c719d8e6aae0b3dad44"}),
		Config: "cfg", Inputs: []string{"33bcf6840aa0bc0443dd01e7d58640c9b1de179077781c719d8e6aae0b3dad44"},
		External: []string{"conditions:beam/spot"},
		Artifacts: []ArtifactRecord{
			{Name: "skim.DIMUON", Tier: "DERIVED", Events: 3, Bytes: 461, Digest: "e5369286861466e4c9916ef3135821a5f66401f65e67c5e38f44b34106641fd5"},
			{Name: "skim.MET", Tier: "DERIVED", Bytes: 11, Digest: "44b050867ef2e9e63d6004695c9fe01a4c963ae125eb5474257e6df8a71e9152"},
		},
	}
	seed, err := json.Marshal(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(stepFormat), []byte("daspos-step/2"), 1))
	f.Add(bytes.Replace(seed, []byte("skim.MET"), []byte("skim.DIMUON"), 1))
	f.Add(bytes.Replace(seed, []byte("skim.MET"), []byte(stepFile), 1))
	f.Add(bytes.Replace(seed, []byte(`"digest":"44`), []byte(`"digest":"../`), 1))
	f.Add([]byte(`{"format":"daspos-step/1","step":"s","key":"` + real.Key + `","artifacts":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeStep(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(rec)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted %q re-encodes to %q (%v)", data, again, err)
		}
	})
}
