package cas

// SetChunkStarted installs the hook every chunk's check calls as it starts
// (nil removes it), for the external tests that count checks.
func SetChunkStarted(f func()) { chunkStarted = f }
