package checkpoint

import (
	"fmt"
	"os"
	"testing"
)

// BenchmarkWriteObject commits fresh objects of the sizes the production
// tiers have — one piece, a payload whose halves sit below the large-write
// cliff objectPiece avoids and one whose halves sit above it — through the
// whole protocol: temp file, pieces, fsync, rename, directory fsync. MB/s
// is per payload byte made durable.
func BenchmarkWriteObject(b *testing.B) {
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			l, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			// A name of its own for each object, so no call takes the
			// already-there path; writeObject does not re-derive it.
			name := func(i int) string { return fmt.Sprintf("%064x", i) }
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := l.writeObject(name(i), data); err != nil {
					b.Fatal(err)
				}
				// Objects pile up as they do in a ledger — what a large
				// write costs depends on what the page cache already holds
				// — and are cleared in batches to bound the disk used.
				if i%64 == 63 {
					b.StopTimer()
					for j := i - 63; j <= i; j++ {
						os.Remove(l.ObjectPath(name(j)))
					}
					b.StartTimer()
				}
			}
		})
	}
}
