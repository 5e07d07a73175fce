package daspos

// Byte-identity pin for the event kernels (simulation, trigger,
// digitisation, reconstruction) and for the chain's assembly: every tier
// the chain internal/chain builds — the one daspos-pipeline runs — must
// hash to the digest commit c82eb08's code produced for the same sample.
// The digests under testdata/tier-digests/ were recorded there by that
// commit's hand-wired copy of the chain, with
//
//	go test -run 'TestTierDigestsMatchParent$' -record-tier-digests .
//
// The kernels and the builder may be rewritten freely; these files change
// only when the physics is meant to.

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"daspos/internal/generator"
)

var recordTierDigests = flag.Bool("record-tier-digests", false, "rewrite testdata/tier-digests from this checkout's code")

func tierDigestPath(proc int, pileup float64) string {
	return filepath.Join("testdata", "tier-digests",
		fmt.Sprintf("%s-pileup%g.sha256", generator.ProcessName(proc), pileup))
}

// readTierDigests parses a sha256sum-style file: "<hex digest>  <tier>".
func readTierDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		out[fields[1]] = fields[0]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func writeTierDigests(t *testing.T, path string, digests map[string]string) {
	t.Helper()
	tiers := make([]string, 0, len(digests))
	for tier := range digests {
		tiers = append(tiers, tier)
	}
	sort.Strings(tiers)
	var b strings.Builder
	for _, tier := range tiers {
		fmt.Fprintf(&b, "%s  %s\n", digests[tier], tier)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestTierDigestsMatchParent(t *testing.T) {
	const events, seed = 400, 20140714
	for _, proc := range []int{generator.ProcDrellYanZ, generator.ProcQCDDijet} {
		for _, pileup := range []float64{0, 20} {
			spec := streamSpec(t, seed, events)
			spec.Process, spec.Pileup = proc, pileup
			path := tierDigestPath(proc, pileup)
			if *recordTierDigests {
				tiers := runStreaming(t, spec, 1, 32)
				if len(tiers["raw"]) == 0 {
					t.Fatalf("%s: the trigger accepted nothing; the pin would be empty", path)
				}
				writeTierDigests(t, path, tierDigests(tiers))
				continue
			}
			want := readTierDigests(t, path)
			if len(want) != 5 {
				t.Fatalf("%s: %d tiers recorded, want 5", path, len(want))
			}
			for _, cfg := range []struct{ workers, batch int }{{1, 1}, {1, 32}, {4, 1}, {4, 32}} {
				got := tierDigests(runStreaming(t, spec, cfg.workers, cfg.batch))
				for tier, digest := range want {
					if got[tier] != digest {
						t.Errorf("%s pileup=%g workers=%d batch=%d: tier %s digest %s, parent wrote %s",
							generator.ProcessName(proc), pileup, cfg.workers, cfg.batch, tier, got[tier], digest)
					}
				}
			}
		}
	}
}
