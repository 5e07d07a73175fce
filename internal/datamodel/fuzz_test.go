package datamodel

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// frameBomb is a version-3 stream of 15 bytes — magic, tier, one event
// marker — whose frame claims 2^30 bytes, the most maxFrameV3 allows, with
// none behind it.
func frameBomb() []byte {
	b := append([]byte(fileMagicV3), byte(TierRECO)<<1, recEventV3)
	return binary.AppendUvarint(b, maxFrameV3)
}

// readAllocates reads a whole stream and reports the bytes the read
// allocated, with its error.
func readAllocates(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readStream(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

func readStream(data []byte) ([]*Event, error) {
	r, err := NewFileReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return r.ReadAll()
}

// allocBound is what reading a stream may allocate: the reader's buffers,
// and a few times its bytes for the events they decode to and the scratch
// that grows with them.
func allocBound(data []byte) uint64 {
	return 256<<10 + 64*uint64(len(data))
}

// migrateAllocates migrates a v2 stream and reports the bytes the
// migration allocated, with its result.
func migrateAllocates(data []byte) (uint64, []byte, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	v3, _, err := MigrateV2(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, v3, err
}

// migrateAllocBound is what migrating a v2 stream may allocate: what
// reading a stream of its size may, and five gobChunks.
func migrateAllocBound(data []byte) uint64 {
	return allocBound(data) + 5*gobChunk
}

// gobChunk is what encoding/gob reserves up front, whatever bytes follow,
// for a message whose length prefix claims it (Decoder.readMessage reads
// through saferio.ReadData in chunks of that size) and for each slice whose
// count does (decodeSlice's saferio.SliceCapWithSize): up to 10 MiB each, so
// four bytes of input buy three megabytes, and an event record, with its
// four slices, five chunks. Only MigrateV2 hands a stream to gob.
const gobChunk = 10 << 20

// TestFrameLengthReservesNothing: a frame length is a claim, and reading
// it reserves nothing near it until its bytes arrive, whether none of them
// follow it or 100 KiB do.
func TestFrameLengthReservesNothing(t *testing.T) {
	for name, data := range map[string][]byte{
		"no-bytes":    frameBomb(),
		"100-KiB":     append(frameBomb(), make([]byte, 100<<10)...),
		"wrong-count": binary.AppendUvarint(append([]byte(fileMagicV3), byte(TierRECO)<<1, recEventV3), 40<<10),
	} {
		t.Run(name, func(t *testing.T) {
			grew, err := readAllocates(data)
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("got %v, want a truncated stream", err)
			}
			if grew > allocBound(data) {
				t.Fatalf("reading %d bytes allocated %d", len(data), grew)
			}
		})
	}
}

// TestMapCountReservesNothing: a version-2 event whose Aux map claims 2^22
// entries and holds one. gob sizes a nil map by the claim; the migration's
// decoder gives it a map that exists, which grows by the entries decoded.
func TestMapCountReservesNothing(t *testing.T) {
	e := goldenFixture()[0]
	e.Aux = map[string]float64{"claimed": 1}
	var buf bytes.Buffer
	if err := writeV2Events(&buf, TierRECO, []*Event{e}); err != nil {
		t.Fatal(err)
	}
	entry := []byte("\x01\x07claimed") // count 1, then the key
	var data []byte
	for rest := buf.Bytes(); len(rest) > 0; {
		size, n := gobUint(rest)
		msg := rest[n : n+int(size)]
		if i := bytes.Index(msg, entry); i >= 0 {
			msg = append(append(append([]byte(nil), msg[:i]...), 0xfd, 0x40, 0, 0), msg[i+1:]...)
		}
		data = append(appendGobUint(data, uint64(len(msg))), msg...)
		rest = rest[n+int(size):]
	}
	if len(data) != buf.Len()+3 {
		t.Fatal("no map count to change")
	}
	grew, _, err := migrateAllocates(data)
	if err == nil {
		t.Fatal("a map of 2^22 entries holding one accepted")
	}
	if grew > migrateAllocBound(data) {
		t.Fatalf("migrating %d bytes allocated %d (%v)", len(data), grew, err)
	}
}

// gobUint reads an unsigned integer as gob writes it: below 128 one byte,
// otherwise the negated byte count, then the bytes big-endian.
func gobUint(b []byte) (v uint64, n int) {
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n = int(-int8(b[0]))
	for _, c := range b[1 : 1+n] {
		v = v<<8 | uint64(c)
	}
	return v, 1 + n
}

func appendGobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], v)
	i := 0
	for be[i] == 0 {
		i++
	}
	return append(append(b, byte(-int8(8-i))), be[i:]...)
}

// TestLargeFrameIsNotKept: a frame past the pooled scratch reads whole,
// and the reader's scratch stays the size the pool gave it.
func TestLargeFrameIsNotKept(t *testing.T) {
	e := goldenFixture()[0]
	for len(appendEventV3(nil, e)) <= 64<<10 {
		e.Tracks = append(e.Tracks, e.Tracks...)
	}
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, TierRECO, []*Event{e}); err != nil {
		t.Fatal(err)
	}
	r, err := NewFileReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pooled := cap(r.payload)
	if got, err := r.Read(); err != nil || len(got.Tracks) != len(e.Tracks) {
		t.Fatalf("large frame: %v", err)
	}
	if cap(r.payload) != pooled {
		t.Fatalf("the %d-byte scratch grew to %d", pooled, cap(r.payload))
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after the frame: %v", err)
	}
}

// TestEventTierIsTheFiles: an event whose tier is not the file's is
// refused, as the writer refuses to write it.
func TestEventTierIsTheFiles(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, TierRECO, goldenFixture()[:1]); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(fileMagicV3)] = byte(TierAOD) << 1
	if _, err := readStream(data); err == nil {
		t.Fatal("a RECO event accepted in an AOD file")
	}
}

// TestOtherFormatsAreRefusedAtTheMagic: a v2 stream, whole or its first
// four bytes, is refused before any byte past the magic is read, with an
// error naming the one reader of v2, and reading it allocates no more than
// any stream of its size may.
func TestOtherFormatsAreRefusedAtTheMagic(t *testing.T) {
	golden, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"v2-golden": golden, "claims-3-MB": []byte("\xfd000")} {
		grew, err := readAllocates(data)
		t.Logf("%s: reading %d bytes allocated %d", name, len(data), grew)
		if err == nil || !strings.Contains(err.Error(), "daspos-archive migrate") {
			t.Errorf("%s: got %v, want a refusal naming daspos-archive migrate", name, err)
		}
		if grew > allocBound(data) {
			t.Errorf("%s: reading %d bytes allocated %d, want at most %d", name, len(data), grew, allocBound(data))
		}
	}
}

// FuzzFileReader reads arbitrary streams: allocation stays within
// allocBound, and a stream accepted re-encodes through FileWriter to one
// that reads back to the same events, byte for byte when written again.
// The v2 seeds, the golden and the 4-byte \xfd000, must be refused at the
// magic within that bound.
func FuzzFileReader(f *testing.F) {
	golden, err := os.ReadFile(goldenPath())
	if err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if _, err := WriteEvents(&v3, TierRECO, goldenFixture()); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(v3.Bytes()[:v3.Len()/2])
	f.Add(golden)
	f.Add(frameBomb())
	f.Add([]byte("\xfd000"))
	f.Fuzz(checkFileReader)
}

// checkFileReader is FuzzFileReader's property on one input.
func checkFileReader(t *testing.T, data []byte) {
	grew, err := readAllocates(data)
	if grew > allocBound(data) {
		t.Fatalf("reading %d bytes allocated %d (%v)", len(data), grew, err)
	}
	if err != nil {
		return
	}
	r, _ := NewFileReader(bytes.NewReader(data))
	events, _ := r.ReadAll()
	var once, twice bytes.Buffer
	if _, err := WriteEvents(&once, r.Tier(), events); err != nil {
		t.Fatalf("accepted events do not write: %v", err)
	}
	back, err := readStream(once.Bytes())
	if err != nil || len(back) != len(events) {
		t.Fatalf("re-encoded stream reads back %d of %d events: %v", len(back), len(events), err)
	}
	if _, err := WriteEvents(&twice, r.Tier(), back); err != nil || !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatalf("re-encoded stream does not read back equal (%v)", err)
	}
}

// FuzzMigrateV2 migrates arbitrary streams: allocation stays within
// migrateAllocBound, and a stream accepted yields v3 bytes that FileReader
// reads back to the stream's own v2 decode, event for event.
func FuzzMigrateV2(f *testing.F) {
	golden, err := os.ReadFile(goldenPath())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add([]byte("\xfd000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		grew, v3, err := migrateAllocates(data)
		if grew > migrateAllocBound(data) {
			t.Fatalf("migrating %d bytes allocated %d (%v)", len(data), grew, err)
		}
		if err != nil {
			return
		}
		tier, want, err := readV2(data)
		if err != nil {
			t.Fatalf("an accepted stream does not decode again: %v", err)
		}
		got, err := readStream(v3)
		r, _ := NewFileReader(bytes.NewReader(v3))
		if err != nil || r.Tier() != tier || !reflect.DeepEqual(got, want) {
			t.Fatalf("the v3 output does not read back equal to the v2 decode (%v)", err)
		}
	})
}
