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
	"slices"
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

// decodeSimEvents reads six-byte records: a kind (tracker hit, muon hit,
// EM deposit, hadronic deposit), a channel drawn from a small pool so that
// repeats are the rule, an energy selector and a repeat count. A record
// whose kind byte has its top bit set also ends the event it is in, so one
// input is a sequence of events for one long-lived Digitizer.
func decodeSimEvents(data []byte) []*sim.Event {
	se := &sim.Event{Number: len(data)}
	events := []*sim.Event{se}
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
		if rec[0]&eventBreak != 0 {
			se = &sim.Event{Number: len(data) + len(events)}
			events = append(events, se)
		}
	}
	return events
}

// eventBreak, set in a record's kind byte, makes it the last of its event.
const eventBreak = 0x80

// checkDigitizeMatchesReference digitises the input's events one after
// another on ONE Digitizer, and each again by the one-shot Digitize; both
// must give the reference's event. What the long-lived Digitizer returned
// is checked once more at the end, after every later event has been through
// its scratch.
func checkDigitizeMatchesReference(t *testing.T, data []byte) {
	t.Helper()
	var warm Digitizer
	var kept, wants []*Event
	for i, se := range decodeSimEvents(data) {
		want := refDigitize(9, se)
		if got := Digitize(9, se); !sameEvent(got, want) {
			t.Fatalf("event %d, one-shot: digitised event differs from the reference:\n got  %+v\n want %+v", i, got, want)
		}
		got := warm.Digitize(9, se)
		if !sameEvent(got, want) {
			t.Fatalf("event %d, long-lived digitizer: digitised event differs from the reference:\n got  %+v\n want %+v", i, got, want)
		}
		kept, wants = append(kept, got), append(wants, want)
	}
	for i := range kept {
		if !sameEvent(kept[i], wants[i]) {
			t.Fatalf("event %d changed after it was returned: a later event wrote through it:\n now  %+v\n want %+v", i, kept[i], wants[i])
		}
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
		// Below: the radix sort's corners, and sequences for one Digitizer.
		{name: "one short of the small-sort cut-over, falling", data: spread(0, smallSort-1, 0, true)},
		{name: "at the small-sort cut-over, falling", data: spread(0, smallSort, 0, true)},
		{name: "one past the small-sort cut-over, scattered", data: spread(0, smallSort+1, 0, false)},
		{name: "a long bank of one layer, and every channel of it again", data: cat(spread(2, 150, 3, true), spread(2, 150, 4, true))},
		{name: "a long bank saturating on every channel", data: spread(3, 90, 6, false, 2)},
		{name: "long banks in all four partitions", data: cat(
			spread(0, 130, 0, false), spread(1, 70, 0, true), spread(2, 200, 3, false), spread(3, 65, 4, true),
		)},
		{name: "a busy event, then a sparse one, then an empty one, then a busy one", data: cat(
			// 494 records: decodeSimEvents stops reading at 512.
			spread(0, 150, 0, false), spread(1, 66, 0, false), spread(2, 100, 3, false), endEvent(spread(3, 70, 3, true)),
			simRecord(0, 9, 1, 0, 0), endEvent(simRecord(2, 9, 1, 3, 0)),
			endEvent(simRecord(2, 9, 1, 0, 0)), // one deposit that reads zero: four empty banks
			spread(1, 65, 0, true), spread(0, 40, 0, true),
		)},
		{name: "full muon and hadronic banks, then the same event without them", data: cat(
			spread(0, 70, 0, false), spread(1, 70, 0, false), spread(2, 70, 3, false), endEvent(spread(3, 70, 3, false)),
			spread(0, 70, 0, false), spread(2, 70, 3, false),
		)},
	}
}

// spread builds n records of one kind on n distinct channels — scattered
// over the sixteen channel bits (four layers), or in falling order within
// one layer — each repeated extra more times. Past smallSort records the bank they fill takes the radix
// path.
func spread(kind byte, n int, energy byte, falling bool, extra ...byte) []byte {
	var repeat byte
	if len(extra) > 0 {
		repeat = extra[0]
	}
	var out []byte
	for i := 0; i < n; i++ {
		ch := uint16(i*40503 + 17) // odd multiplier: distinct for distinct i
		if falling {
			ch = uint16(60000 - 7*i)
		}
		out = append(out, simRecord(kind, ch, byte(i), energy, repeat)...)
	}
	return out
}

// endEvent marks the last record of recs as the last of its event.
func endEvent(recs []byte) []byte {
	recs[len(recs)-6] |= eventBreak
	return recs
}

func TestDigitizeMatchesReferenceCorners(t *testing.T) {
	for _, c := range digitizeCorners() {
		t.Run(c.name, func(t *testing.T) { checkDigitizeMatchesReference(t, c.data) })
	}
	// And on real events, where the channels are the geometry's.
	var warm Digitizer
	for _, se := range simulatedEvents(t, 20) {
		want := refDigitize(3, se)
		if !sameEvent(Digitize(3, se), want) || !sameEvent(warm.Digitize(3, se), want) {
			t.Fatalf("event %d differs from the reference", se.Number)
		}
	}
}

// TestCornersReachTheRadixSort guards the new corners against vacuity: the
// long ones must fill a bank past the cut-over, and the sequences must hold
// more than one event.
func TestCornersReachTheRadixSort(t *testing.T) {
	long, sequences := 0, 0
	for _, c := range digitizeCorners() {
		events := decodeSimEvents(c.data)
		if len(events) > 1 {
			sequences++
		}
		for _, se := range events {
			if len(se.TrackerHits) >= smallSort || len(se.MuonHits) >= smallSort || len(se.Deposits) >= 2*smallSort {
				long++
				break
			}
		}
	}
	if long < 6 || sequences < 2 {
		t.Fatalf("%d corners fill a bank past the cut-over and %d are sequences, want at least 6 and 2", long, sequences)
	}
}

// TestSortByChannelMatchesComparisonSort holds the radix sort to the
// comparison sort it replaced, on the packed keys themselves: every length
// around the cut-over, channels that differ in one byte only, in all four,
// and not at all.
func TestSortByChannelMatchesComparisonSort(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	masks := []uint64{0xffffffff, 0x000000ff, 0x0000ff00, 0x00ff0000, 0xff000000, 0x03fff000, 0xfc000000, 0}
	for _, n := range []int{0, 1, 2, smallSort - 1, smallSort, smallSort + 1, 2 * smallSort, 1000, 70000} {
		for _, mask := range masks {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = (next()&mask|0x10000000&^mask)<<32 | next()&0xffff
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			got := sortByChannel(keys, make([]uint64, n))
			for i := range got {
				if got[i]>>32 != want[i]>>32 {
					t.Fatalf("n=%d mask=%#x: position %d holds channel %#x, the comparison sort puts %#x there", n, mask, i, got[i]>>32, want[i]>>32)
				}
			}
			// The same readings, whatever order each channel's came out in.
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d mask=%#x: the sort lost or invented readings", n, mask)
			}
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
	// The event with its four banks, and the one slice their words are cut
	// from: the scratch is the Digitizer's.
	var warm Digitizer
	if got := testing.AllocsPerRun(50, func() { _ = warm.Digitize(1, se) }); got > 2 {
		t.Fatalf("Digitizer.Digitize: %v allocations per event, want at most 2", got)
	}
	// The one-shot borrows a Digitizer from a pool and measures the same 2;
	// the third is for the race detector, under which a sync.Pool drops a
	// quarter of what it is handed and the scratch is built again.
	if got := testing.AllocsPerRun(50, func() { _ = Digitize(1, se) }); got > 3 {
		t.Fatalf("Digitize: %v allocations per event, want at most 3", got)
	}
}

func TestWriterReusesItsBuffer(t *testing.T) {
	ev := Digitize(1, simulatedEvents(t, 1)[0])
	w := NewWriter(io.Discard)
	if got := testing.AllocsPerRun(50, func() { _ = w.Write(ev) }); got != 0 {
		t.Fatalf("Writer.Write: %v allocations per event on a warm writer, want 0", got)
	}
}
