package rawdata

// The digitiser this package shipped before the sort-merge: a map per
// partition, then a reflection sort of what the maps held. It is kept as
// the reference the merge is compared against, bank for bank and word for
// word, on hand-built corner cases and under fuzzing.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"sort"
	"testing"

	"daspos/internal/detector"
	"daspos/internal/sim"
)

func refDigitize(run uint32, se *sim.Event) *Event {
	ev := &Event{Run: run, Number: uint64(se.Number)}
	tracker := make(map[detector.ChannelID]uint32)
	ecal := make(map[detector.ChannelID]uint32)
	hcal := make(map[detector.ChannelID]uint32)
	muon := make(map[detector.ChannelID]uint32)
	for _, h := range se.TrackerHits {
		tracker[h.Channel] += 64
	}
	for _, h := range se.MuonHits {
		muon[h.Channel] += 64
	}
	for _, d := range se.Deposits {
		m := hcal
		if d.EM {
			m = ecal
		}
		m[d.Channel] += uint32(EncodeEnergy(d.Energy))
	}
	ev.Banks = []Bank{
		refBankFrom(PartTracker, tracker),
		refBankFrom(PartECal, ecal),
		refBankFrom(PartHCal, hcal),
		refBankFrom(PartMuon, muon),
	}
	return ev
}

func refBankFrom(p Partition, m map[detector.ChannelID]uint32) Bank {
	words := make([]Word, 0, len(m))
	for ch, adc := range m {
		if adc > math.MaxUint16 {
			adc = math.MaxUint16
		}
		if adc == 0 {
			continue
		}
		words = append(words, Word{Channel: ch, ADC: uint16(adc)})
	}
	sort.Slice(words, func(i, j int) bool { return words[i].Channel < words[j].Channel })
	return Bank{Partition: p, Words: words}
}

func sameEvent(a, b *Event) bool {
	if a.Run != b.Run || a.Number != b.Number || len(a.Banks) != len(b.Banks) {
		return false
	}
	for i := range a.Banks {
		if a.Banks[i].Partition != b.Banks[i].Partition || len(a.Banks[i].Words) != len(b.Banks[i].Words) {
			return false
		}
		for j, w := range a.Banks[i].Words {
			if w != b.Banks[i].Words[j] {
				return false
			}
		}
	}
	return true
}

// fuzzEnergies are the deposit energies a record's selector byte picks
// from: below half a count (reads zero, must vanish), exactly half a
// count, ordinary, the saturation ceiling and beyond, and negative.
var fuzzEnergies = [8]float64{0, 0.0099, 0.01, 0.7, 24.68, 900, 1e9, -3}

// decodeSimEvent reads six-byte records: a kind (tracker hit, muon hit,
// EM deposit, hadronic deposit), a channel drawn from a small pool so that
// repeats are the rule, an energy selector and a repeat count.
func decodeSimEvent(data []byte) *sim.Event {
	se := &sim.Event{Number: len(data)}
	for n := 0; len(data) >= 6 && n < 512; data, n = data[6:], n+1 {
		rec := data[:6]
		ch := detector.ChannelID(binary.LittleEndian.Uint16(rec[1:]))<<12 | detector.ChannelID(rec[3]&7)
		for c := 0; c <= int(rec[5]); c++ {
			switch rec[0] % 4 {
			case 0:
				se.TrackerHits = append(se.TrackerHits, sim.Hit{Channel: ch})
			case 1:
				se.MuonHits = append(se.MuonHits, sim.Hit{Channel: ch})
			default:
				se.Deposits = append(se.Deposits, sim.CaloDeposit{
					Channel: ch, Energy: fuzzEnergies[rec[4]%8], EM: rec[0]%4 == 2,
				})
			}
		}
	}
	return se
}

func checkDigitizeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	se := decodeSimEvent(data)
	got, want := Digitize(9, se), refDigitize(9, se)
	if !sameEvent(got, want) {
		t.Fatalf("digitised event differs from the reference:\n got  %+v\n want %+v", got, want)
	}
}

type digitizeCase struct {
	name string
	data []byte
}

func simRecord(kind byte, channel uint16, cell, energy, extra byte) []byte {
	rec := make([]byte, 6)
	rec[0] = kind
	binary.LittleEndian.PutUint16(rec[1:], channel)
	rec[3], rec[4], rec[5] = cell, energy, extra
	return rec
}

func digitizeCorners() []digitizeCase {
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	return []digitizeCase{
		{name: "empty event"},
		{name: "one channel hit past saturation", data: cat(
			// 64 counts × 1,100 crossings = 70,400 > 65,535.
			simRecord(0, 7, 1, 0, 255), simRecord(0, 7, 1, 0, 255), simRecord(0, 7, 1, 0, 255),
			simRecord(0, 7, 1, 0, 255), simRecord(0, 7, 1, 0, 75), simRecord(0, 8, 1, 0, 0),
		)},
		{name: "deposits summing past saturation", data: cat(
			simRecord(2, 40, 0, 5, 1), simRecord(2, 40, 0, 4, 0), simRecord(2, 40, 0, 6, 3),
			simRecord(3, 40, 0, 5, 0), simRecord(3, 40, 0, 5, 0),
		)},
		{name: "deposits that read zero are dropped", data: cat(
			simRecord(2, 11, 0, 0, 2), simRecord(2, 11, 0, 1, 5), simRecord(3, 12, 0, 7, 0),
			simRecord(2, 13, 0, 1, 0), simRecord(2, 13, 0, 2, 0),
		)},
		{name: "half a count rounds up", data: cat(simRecord(2, 5, 0, 2, 0), simRecord(3, 5, 0, 2, 1))},
		{name: "one channel in both calorimeter banks", data: cat(
			simRecord(2, 99, 3, 3, 0), simRecord(3, 99, 3, 4, 0), simRecord(2, 99, 3, 4, 1), simRecord(3, 98, 3, 3, 0),
		)},
		{name: "channels arriving in falling order", data: cat(
			simRecord(0, 900, 0, 0, 0), simRecord(0, 800, 0, 0, 1), simRecord(0, 700, 7, 0, 0),
			simRecord(1, 60, 0, 0, 0), simRecord(1, 50, 0, 0, 0), simRecord(0, 700, 2, 0, 0),
		)},
	}
}

func TestDigitizeMatchesReferenceCorners(t *testing.T) {
	for _, c := range digitizeCorners() {
		t.Run(c.name, func(t *testing.T) { checkDigitizeMatchesReference(t, c.data) })
	}
	// And on real events, where the channels are the geometry's.
	for _, se := range simulatedEvents(t, 20) {
		if !sameEvent(Digitize(3, se), refDigitize(3, se)) {
			t.Fatalf("event %d differs from the reference", se.Number)
		}
	}
}

func FuzzDigitizeMatchesReference(f *testing.F) {
	for _, c := range digitizeCorners() {
		f.Add(c.data)
	}
	f.Fuzz(checkDigitizeMatchesReference)
}

// headerBomb is a 24-byte stream: a valid event header announcing one
// bank, and a bank header claiming the largest size the reader tolerates.
func headerBomb() []byte {
	bomb := make([]byte, 0, 24)
	bomb = binary.LittleEndian.AppendUint32(bomb, eventMagic)
	bomb = binary.LittleEndian.AppendUint32(bomb, 1)
	bomb = binary.LittleEndian.AppendUint64(bomb, 1)
	bomb = binary.LittleEndian.AppendUint16(bomb, 1)
	bomb = binary.LittleEndian.AppendUint16(bomb, uint16(PartTracker))
	return binary.LittleEndian.AppendUint32(bomb, 1<<24)
}

func TestReadEventHeaderBombRefused(t *testing.T) {
	bomb := headerBomb()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEvent(bytes.NewReader(bomb))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a bank header with no body behind it: %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("ReadEvent allocated %d bytes on the word of a 24-byte stream", got)
	}
	// A body that starts and then stops is truncated, wherever it stops.
	for _, extra := range []int{1, readStep - 1, readStep, readStep + 1} {
		_, err := ReadEvent(bytes.NewReader(append(bomb[:len(bomb):len(bomb)], make([]byte, extra)...)))
		if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("body cut after %d bytes: %v, want ErrCorrupt wrapping io.ErrUnexpectedEOF", extra, err)
		}
	}
}

func FuzzReadEvent(f *testing.F) {
	// Two small events back to back; a simulated one is kilobytes, which
	// the fuzzer spends its time minimising rather than mutating.
	var valid bytes.Buffer
	for n := uint64(1); n <= 2; n++ {
		ev := &Event{Run: 4, Number: n, Banks: []Bank{
			{Partition: PartTracker, Words: []Word{{Channel: 1<<26 | 5<<12 | 9, ADC: 64}, {Channel: 2<<26 | 6<<12, ADC: 128}}},
			{Partition: PartECal, Words: []Word{{Channel: 10<<26 | 7<<12 | 1, ADC: 65535}}},
			{Partition: PartMuon, Words: []Word{}},
		}}
		if err := WriteEvent(&valid, ev); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()/3])
	f.Add(headerBomb())
	f.Add([]byte("garbage header...."))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Whatever decodes must encode to bytes that decode to the same.
		in := NewReader(bytes.NewReader(data))
		for {
			ev, err := in.Read()
			if err != nil {
				if err != io.EOF && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decoding error outside ErrCorrupt: %v", err)
				}
				return
			}
			var buf bytes.Buffer
			if err := WriteEvent(&buf, ev); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != ev.SizeBytes() {
				t.Fatalf("encoded %d bytes, SizeBytes says %d", buf.Len(), ev.SizeBytes())
			}
			back, err := ReadEvent(&buf)
			if err != nil || !sameEvent(ev, back) {
				t.Fatalf("round trip: %v\n wrote %+v\n read  %+v", err, ev, back)
			}
		}
	})
}

func TestDigitizeAllocs(t *testing.T) {
	se := simulatedEvents(t, 1)[0]
	// The event, its bank slice, the key scratch and a word slice per
	// non-empty bank: six for a dijet event without muons, seven at most.
	if got := testing.AllocsPerRun(50, func() { _ = Digitize(1, se) }); got > 7 {
		t.Fatalf("Digitize: %v allocations per event, want at most 7", got)
	}
}

func TestWriterReusesItsBuffer(t *testing.T) {
	ev := Digitize(1, simulatedEvents(t, 1)[0])
	w := NewWriter(io.Discard)
	if got := testing.AllocsPerRun(50, func() { _ = w.Write(ev) }); got != 0 {
		t.Fatalf("Writer.Write: %v allocations per event on a warm writer, want 0", got)
	}
}
