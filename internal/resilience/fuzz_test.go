package resilience

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// FuzzDecodeBudget drives the deadline-budget header decoder, which takes
// its bytes from whoever sends a request. It must not panic or allocate
// beyond a small multiple of the input; a budget it accepts is never
// negative (an overflowing millisecond count would wrap into one and shed
// the request as already expired) and re-encodes to the bytes it was
// decoded from.
func FuzzDecodeBudget(f *testing.F) {
	valid := EncodeBudget(1500 * time.Millisecond)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])            // truncated
	f.Add(strings.Repeat("0", 4096) + "7") // over-long
	f.Add("9223372036854775807")           // fits int64, overflows as milliseconds
	f.Add("99999999999999999999999999")    // overflows int64
	f.Add("+15")                           // a second spelling of 15
	f.Add("-1")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d, err := DecodeBudget(s)
		runtime.ReadMemStats(&after)
		// TotalAlloc counts the whole process, the fuzz worker's own
		// goroutines included: the slack is theirs, the slope the decoder's.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+16*uint64(len(s)) {
			t.Fatalf("decoding %d bytes allocated %d", len(s), grew)
		}
		if err != nil {
			return
		}
		if d < 0 {
			t.Fatalf("accepted %q as the negative budget %v", s, d)
		}
		if got := EncodeBudget(d); got != s {
			t.Fatalf("accepted %.80q, which re-encodes to %q", s, got)
		}
	})
}
