package rawdata

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"daspos/internal/detector"
	"daspos/internal/generator"
	"daspos/internal/sim"
)

func simulatedEvents(t testing.TB, n int) []*sim.Event {
	t.Helper()
	det := detector.Standard()
	fs := sim.NewFullSim(det, 1)
	g := generator.NewQCDDijet(generator.DefaultConfig(1))
	out := make([]*sim.Event, n)
	for i := range out {
		out[i] = fs.Simulate(g.Generate())
	}
	return out
}

func TestDigitizeProducesAllPartitions(t *testing.T) {
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(7, se)
	if ev.Run != 7 || ev.Number != uint64(se.Number) {
		t.Fatalf("identity: run=%d number=%d", ev.Run, ev.Number)
	}
	for _, p := range []Partition{PartTracker, PartECal, PartHCal, PartMuon} {
		if ev.Bank(p) == nil {
			t.Fatalf("missing bank %v", p)
		}
	}
	if len(ev.Bank(PartTracker).Words) == 0 {
		t.Fatal("tracker bank empty for a dijet event")
	}
	if len(ev.Bank(PartECal).Words) == 0 {
		t.Fatal("ecal bank empty for a dijet event")
	}
}

func TestDigitizeWordsSortedUnique(t *testing.T) {
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(1, se)
	for _, b := range ev.Banks {
		for i := 1; i < len(b.Words); i++ {
			if b.Words[i].Channel <= b.Words[i-1].Channel {
				t.Fatalf("bank %v not sorted/unique at %d", b.Partition, i)
			}
		}
		for _, w := range b.Words {
			if w.ADC == 0 {
				t.Fatalf("bank %v contains zero-ADC word", b.Partition)
			}
		}
	}
}

func TestEnergyCodec(t *testing.T) {
	cases := []float64{0, 0.019, 0.020, 1.0, 25.5, 1300, 1e9}
	for _, gev := range cases {
		adc := EncodeEnergy(gev)
		back := DecodeEnergy(adc)
		if gev > 1309 { // saturation ceiling (65535 * 0.020)
			if adc != math.MaxUint16 {
				t.Fatalf("no saturation at %v GeV", gev)
			}
			continue
		}
		if math.Abs(back-gev) > caloGeVPerCount/2+1e-9 {
			t.Fatalf("codec error at %v GeV: %v", gev, back)
		}
	}
	if EncodeEnergy(-5) != 0 {
		t.Fatal("negative energy must encode to 0")
	}
}

func TestEnergyCodecProperty(t *testing.T) {
	if err := quick.Check(func(raw float64) bool {
		gev := math.Abs(math.Mod(raw, 1000))
		if math.IsNaN(gev) {
			return true
		}
		return math.Abs(DecodeEnergy(EncodeEnergy(gev))-gev) <= caloGeVPerCount/2+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIORoundTrip(t *testing.T) {
	ses := simulatedEvents(t, 5)
	var events []*Event
	for _, se := range ses {
		events = append(events, Digitize(3, se))
	}
	var buf bytes.Buffer
	if err := WriteFile(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("event count %d != %d", len(got), len(events))
	}
	for i := range got {
		g, w := got[i], events[i]
		if g.Run != w.Run || g.Number != w.Number || len(g.Banks) != len(w.Banks) {
			t.Fatalf("event %d header mismatch", i)
		}
		for j := range g.Banks {
			if g.Banks[j].Partition != w.Banks[j].Partition {
				t.Fatalf("event %d bank %d partition", i, j)
			}
			if len(g.Banks[j].Words) != len(w.Banks[j].Words) {
				t.Fatalf("event %d bank %d word count", i, j)
			}
			for k := range g.Banks[j].Words {
				if g.Banks[j].Words[k] != w.Banks[j].Words[k] {
					t.Fatalf("event %d bank %d word %d mismatch", i, j, k)
				}
			}
		}
	}
}

func TestSizeBytesMatchesEncoding(t *testing.T) {
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(1, se)
	var buf bytes.Buffer
	if err := WriteEvent(&buf, ev); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != ev.SizeBytes() {
		t.Fatalf("SizeBytes %d != encoded %d", ev.SizeBytes(), buf.Len())
	}
}

func TestCRCDetectsCorruption(t *testing.T) {
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(1, se)
	var buf bytes.Buffer
	if err := WriteEvent(&buf, ev); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one bit inside the first bank body (past the 18-byte header and
	// 6-byte bank header).
	data[30] ^= 0x01
	if _, err := ReadEvent(bytes.NewReader(data)); err == nil {
		t.Fatal("bit flip not detected")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := ReadEvent(bytes.NewReader([]byte("garbage header...."))); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncated mid-bank.
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(1, se)
	var buf bytes.Buffer
	_ = WriteEvent(&buf, ev)
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadEvent(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated event accepted")
	}
	// Clean EOF must be io.EOF, not an error.
	if _, err := ReadEvent(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean EOF: %v", err)
	}
}

func TestNoTruthInRawData(t *testing.T) {
	// The provenance experiment (W3) depends on raw data carrying no MC
	// truth: digitization must be a pure function of channels and ADC.
	// The simulated hit positions are not readout: moving them within
	// their channels must not change a byte.
	se := simulatedEvents(t, 1)[0]
	a := Digitize(1, se)
	for i := range se.TrackerHits {
		se.TrackerHits[i].Phi += 1e-9
		se.TrackerHits[i].Z -= 1e-6
	}
	b := Digitize(1, se)
	var ba, bb bytes.Buffer
	_ = WriteEvent(&ba, a)
	_ = WriteEvent(&bb, b)
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("simulated hit positions leaked into raw encoding")
	}
}

func TestRawIsLargestTier(t *testing.T) {
	// Sanity anchor for experiment W1: a busy event's raw size is tens of
	// kilobytes, not bytes.
	se := simulatedEvents(t, 1)[0]
	ev := Digitize(1, se)
	if ev.SizeBytes() < 1000 {
		t.Fatalf("raw event suspiciously small: %d bytes", ev.SizeBytes())
	}
}

func BenchmarkDigitize(b *testing.B) {
	se := simulatedEvents(b, 1)[0]
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Digitize(1, se)
	}
}

func BenchmarkWriteEvent(b *testing.B) {
	se := simulatedEvents(b, 1)[0]
	ev := Digitize(1, se)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		_ = WriteEvent(&buf, ev)
	}
}

// TestReaderBuildsAnEventInTwoAllocations: a warm Reader builds a whole
// event as two objects — the event with its bank headers, and the one slice
// its banks' words are cut from — and a bank count the four partitions do
// not cover reads back the same, as does an event with no banks, whose
// Banks stays nil.
func TestReaderBuildsAnEventInTwoAllocations(t *testing.T) {
	var stream bytes.Buffer
	if err := WriteEvent(&stream, Digitize(1, simulatedEvents(t, 1)[0])); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(stream.Bytes())
	in := NewReader(src)
	if _, err := in.Read(); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(50, func() {
		src.Reset(stream.Bytes())
		if _, err := in.Read(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 2 {
		t.Fatalf("Reader.Read: %v allocations per event on a warm reader, want 2", got)
	}

	six := &Event{Run: 2, Number: 9}
	for p := range Partition(6) {
		six.Banks = append(six.Banks, Bank{Partition: p + 1, Words: []Word{{Channel: detector.ChannelID(p), ADC: uint16(p) + 1}}})
	}
	six.Banks[2].Words = []Word{}
	for _, want := range []*Event{six, {Run: 3, Number: 10}} {
		var buf bytes.Buffer
		if err := WriteEvent(&buf, want); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEvent(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("read back %+v, wrote %+v", back, want)
		}
	}
}
