package datamodel

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"daspos/internal/fourvec"
	"daspos/internal/xrand"
)

// goldenSeed and goldenEvents pin the sample testdata/v2_golden.edm was
// written from. The sample's events go through math.Exp, whose last bit
// depends on the CPU, so a test that needs the golden's exact events reads
// the golden itself.
const (
	goldenSeed   = 20140604
	goldenEvents = 5
)

func goldenFixture() []*Event {
	rng := xrand.New(goldenSeed)
	events := make([]*Event, 0, goldenEvents)
	for i := 0; i < goldenEvents; i++ {
		events = append(events, fakeRecoEvent(rng, uint64(i)))
	}
	return events
}

// TestV2AndV3DecodeIdentically: the same events written as a v2 stream and
// as a v3 one decode to equal events, through the migration's decoder and
// through FileReader.
func TestV2AndV3DecodeIdentically(t *testing.T) {
	events := goldenFixture()
	var v2, v3 bytes.Buffer
	if err := writeV2Events(&v2, TierRECO, events); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteEvents(&v3, TierRECO, events); err != nil {
		t.Fatal(err)
	}
	_, fromV2, err := readV2(v2.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	_, fromV3, err := ReadEvents(bytes.NewReader(v3.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromV2, fromV3) {
		t.Fatal("v2 and v3 streams of the same events decode differently")
	}
}

func TestV3TruncationSurfacesUnexpectedEOF(t *testing.T) {
	events := goldenFixture()
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, TierRECO, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail loudly: header cuts are rejected at
	// open, everything past the header maps to io.ErrUnexpectedEOF.
	for cut := 1; cut < len(full); cut++ {
		fr, err := NewFileReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // cut inside the header: rejected at open
		}
		if _, err := fr.ReadAll(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: %v", cut, len(full), err)
		}
	}
	fr, err := NewFileReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fr.ReadAll(); err != nil || len(got) != len(events) {
		t.Fatalf("intact stream: %d events, %v", len(got), err)
	}
}

func TestV3DeterministicAuxOrdering(t *testing.T) {
	// gob walks maps in random order; v3 must not. Encoding an event with
	// a many-keyed Aux twice must produce identical bytes.
	e := fakeRecoEvent(xrand.New(3), 1)
	e.Aux = map[string]float64{"ht": 1, "met_sig": 2, "aplanarity": 3, "sphericity": 4, "mT": 5}
	enc := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteEvents(&buf, TierRECO, []*Event{e}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := enc()
	for i := 0; i < 16; i++ {
		if !bytes.Equal(a, enc()) {
			t.Fatal("v3 encoding of a map-carrying event is not deterministic")
		}
	}
}

func TestV3RejectsCorruptFrames(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, TierRECO, goldenFixture()[:1]); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	headerLen := len(fileMagicV3) + 1
	// Flip the structural bytes the codec itself guards — the frame marker
	// and the trailer count. (Flips inside a float payload are legitimately
	// invisible to the codec; bit-level fixity is the CAS layer's job.)
	for _, off := range []int{headerLen, len(full) - 1} {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xFF
		fr, err := NewFileReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if _, err := fr.ReadAll(); err == nil {
			t.Fatalf("corruption at offset %d read back cleanly", off)
		}
	}
}

// randomEvent builds an event with randomized shape: occasionally empty
// collections, empty and multi-key Aux, negative integers, extreme floats.
func randomEvent(rng *xrand.Rand, number uint64) *Event {
	e := &Event{
		Run:       uint32(rng.Uint64()),
		Number:    number,
		Tier:      TierRECO,
		ProcessID: rng.Intn(10) - 3,
	}
	for i := 0; i < rng.Intn(8); i++ {
		e.Tracks = append(e.Tracks, Track{
			P:      fourvecFromRng(rng),
			Charge: float64(1 - 2*rng.Intn(2)),
			D0:     rng.Gauss(0, 1),
			Z0:     rng.Gauss(0, 50),
			NHits:  rng.Intn(20) - 2,
			Chi2:   rng.Exp(1),
		})
	}
	for i := 0; i < rng.Intn(4); i++ {
		e.Vertices = append(e.Vertices, VertexFit{X: rng.Gauss(0, 1), Y: rng.Gauss(0, 1), Z: rng.Gauss(0, 40), NTracks: rng.Intn(30), Chi2: rng.Exp(1)})
	}
	for i := 0; i < rng.Intn(6); i++ {
		e.Clusters = append(e.Clusters, Cluster{E: rng.Exp(20), Eta: rng.Range(-5, 5), Phi: rng.Range(-3, 3), EM: rng.Bool(0.5), NCells: rng.Intn(12)})
	}
	for i := 0; i < rng.Intn(5); i++ {
		e.Candidates = append(e.Candidates, Candidate{
			Type: ObjectType(1 + rng.Intn(5)), P: fourvecFromRng(rng),
			Charge: float64(rng.Intn(3) - 1), Quality: rng.Range(0, 1), Isolation: rng.Exp(2),
		})
	}
	e.Missing = MET{Pt: rng.Exp(15), Phi: rng.Range(-3, 3), SumEt: rng.Exp(200)}
	if n := rng.Intn(4); n > 0 {
		e.Aux = make(map[string]float64, n)
		for i := 0; i < n; i++ {
			e.Aux[string(rune('a'+i))+"_var"] = rng.Gauss(0, 100)
		}
	}
	return e
}

func fourvecFromRng(rng *xrand.Rand) fourvec.Vec {
	return fourvec.PxPyPzE(rng.Gauss(0, 30), rng.Gauss(0, 30), rng.Gauss(0, 80), rng.Exp(50))
}

func TestV3RoundTripRandomizedEvents(t *testing.T) {
	rng := xrand.New(271828)
	for trial := 0; trial < 50; trial++ {
		var events []*Event
		for i := 0; i < 1+rng.Intn(6); i++ {
			re := randomEvent(rng, uint64(i))
			events = append(events, re)
		}
		var buf bytes.Buffer
		if _, err := WriteEvents(&buf, TierRECO, events); err != nil {
			t.Fatal(err)
		}
		tier, got, err := ReadEvents(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tier != TierRECO {
			t.Fatalf("trial %d: tier %v", trial, tier)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("trial %d: round trip diverged", trial)
		}
	}
}

// FuzzV3FrameDecode throws arbitrary bytes at the payload decoder: it must
// reject or accept, never panic or over-allocate.
func FuzzV3FrameDecode(f *testing.F) {
	var seed bytes.Buffer
	if _, err := WriteEvents(&seed, TierRECO, goldenFixture()[:1]); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x05, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := decodeEventV3(data)
		if err == nil {
			// Whatever decoded must re-encode to the same logical event.
			back, err2 := decodeEventV3(appendEventV3(nil, e))
			if err2 != nil || !reflect.DeepEqual(e, back) {
				t.Fatalf("accepted frame does not round-trip: %v", err2)
			}
		}
	})
}

// BenchmarkCodecGobVsV3 races the two generations of the event codec over
// identical RECO events: encode and decode, MB/s and allocs/op. The gob
// legs are the test's v2 writer and the migration's v2 decoder. The v3
// acceptance bar is ≥2x fewer allocs/op and higher MB/s than gob.
func BenchmarkCodecGobVsV3(b *testing.B) {
	rng := xrand.New(99)
	events := make([]*Event, 64)
	for i := range events {
		events[i] = fakeRecoEvent(rng, uint64(i))
	}
	var v2buf, v3buf bytes.Buffer
	if err := writeV2Events(&v2buf, TierRECO, events); err != nil {
		b.Fatal(err)
	}
	if _, err := WriteEvents(&v3buf, TierRECO, events); err != nil {
		b.Fatal(err)
	}

	b.Run("encode/gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v2buf.Len()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(v2buf.Len())
			if err := writeV2Events(&buf, TierRECO, events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/v3", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v3buf.Len()))
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(v3buf.Len())
			if _, err := WriteEvents(&buf, TierRECO, events); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/gob", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v2buf.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := readV2(v2buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/v3", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(v3buf.Len()))
		for i := 0; i < b.N; i++ {
			if _, _, err := ReadEvents(bytes.NewReader(v3buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
