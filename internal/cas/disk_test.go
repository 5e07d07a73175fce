package cas

import (
	"fmt"
	"os"
	"testing"
)

// BenchmarkDirWrite makes fresh files of the sizes the production tiers
// have durable — one piece, a payload whose halves sit below the
// large-write cliff piece avoids and one whose halves sit above it —
// through the whole protocol: temp file, pieces, fsync, rename, directory
// fsync. MB/s is per payload byte made durable.
func BenchmarkDirWrite(b *testing.B) {
	for _, size := range []int{256 << 10, 1 << 20, 4 << 20} {
		b.Run(fmt.Sprintf("%dKiB", size>>10), func(b *testing.B) {
			d, err := OpenDir(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			// A name of its own for each file, so no call takes the
			// already-there path.
			name := func(i int) string { return fmt.Sprintf("%064x", i) }
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := d.Write(name(i), data); err != nil {
					b.Fatal(err)
				}
				// Files pile up as they do in a ledger — what a large write
				// costs depends on what the page cache already holds — and
				// are cleared in batches to bound the disk used.
				if i%64 == 63 {
					b.StopTimer()
					for j := i - 63; j <= i; j++ {
						os.Remove(d.Path(name(j)))
					}
					b.StartTimer()
				}
			}
		})
	}
}
