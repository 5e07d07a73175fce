// Package rawdata implements digitization and the raw-event binary format:
// the "raw binary data read out from the detector elements" at the base of
// every workflow the paper analyses (§3.2).
//
// Digitization converts simulated hits and deposits into per-partition
// banks of (channel, ADC) words. Two properties matter for preservation:
// raw data is the largest tier (experiment W1 measures the size cascade
// from here down), and it carries no Monte Carlo truth links — the
// association to generated particles exists only in the simulation output,
// so any provenance must be recorded externally (experiment W3).
package rawdata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"daspos/internal/detector"
	"daspos/internal/sim"
)

// Partition identifies a detector readout partition (one Bank each).
type Partition uint16

// Readout partitions.
const (
	PartTracker Partition = iota + 1
	PartECal
	PartHCal
	PartMuon
)

// String returns the partition name.
func (p Partition) String() string {
	switch p {
	case PartTracker:
		return "tracker"
	case PartECal:
		return "ecal"
	case PartHCal:
		return "hcal"
	case PartMuon:
		return "muon"
	default:
		return fmt.Sprintf("partition(%d)", uint16(p))
	}
}

// Word is one digitized channel reading.
type Word struct {
	Channel detector.ChannelID
	// ADC is the digitized amplitude. Tracker and muon channels record a
	// binary threshold crossing plus charge; calorimeter channels encode
	// energy at 20 MeV per count, saturating at the 16-bit ceiling.
	ADC uint16
}

// Bank is the readout of one partition for one event.
type Bank struct {
	Partition Partition
	Words     []Word
}

// Event is one built raw event.
type Event struct {
	Run    uint32
	Number uint64
	Banks  []Bank
}

// caloGeVPerCount is the calorimeter energy quantization.
const caloGeVPerCount = 0.020

// EncodeEnergy converts GeV to saturating ADC counts.
func EncodeEnergy(gev float64) uint16 {
	counts := math.Round(gev / caloGeVPerCount)
	if counts <= 0 {
		return 0
	}
	if counts >= math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(counts)
}

// DecodeEnergy converts ADC counts back to GeV.
func DecodeEnergy(adc uint16) float64 { return float64(adc) * caloGeVPerCount }

// hitADC is the nominal charge over threshold a tracker or muon crossing
// records.
const hitADC = 64

// Digitize converts a simulated event into a raw event for the given run.
// Words within each bank are sorted by channel, as a real event builder
// would emit them; duplicate channels (pileup pile-on, noise on a hit
// channel) are merged by summing ADC. It is Digitizer.Digitize on scratch
// borrowed from a pool; a caller digitising a stream on one goroutine keeps
// a Digitizer of its own.
func Digitize(run uint32, se *sim.Event) *Event {
	d := digitizers.Get().(*Digitizer)
	ev := d.Digitize(run, se)
	digitizers.Put(d)
	return ev
}

var digitizers = sync.Pool{New: func() any { return new(Digitizer) }}

// Digitizer digitises one event after another, keeping between calls the
// only memory digitisation needs beyond its output: the packed readings and
// the sort's second buffer. It is single-goroutine state, like a
// reco.Reconstructor. Nothing of it reaches the events it returns — each is
// freshly allocated and the caller's to send anywhere.
type Digitizer struct {
	keys, spare []uint64
}

// partitions is the bank order of every raw event.
var partitions = [4]Partition{PartTracker, PartECal, PartHCal, PartMuon}

// builtEvent is a raw event and the array behind its bank slice, so that the
// two are one allocation.
type builtEvent struct {
	Event
	banks [len(partitions)]Bank
}

// Digitize converts a simulated event into a raw event for the given run.
//
// Every reading is packed as channel<<32|adc into one scratch slice cut
// into a segment per partition; sorting a segment by channel brings a
// channel's readings together, and one pass sums and saturates them. The
// four banks' words are cut from one slice of exactly the size needed.
func (d *Digitizer) Digitize(run uint32, se *sim.Event) *Event {
	nTrk, nCalo := len(se.TrackerHits), len(se.Deposits)
	n := nTrk + nCalo + len(se.MuonHits)
	d.keys = slices.Grow(d.keys[:0], n)[:n]
	d.spare = slices.Grow(d.spare[:0], n)[:n]
	keys := d.keys
	tracker, calo, muon := keys[:nTrk], keys[nTrk:nTrk+nCalo], keys[nTrk+nCalo:]
	for i, h := range se.TrackerHits {
		tracker[i] = uint64(h.Channel)<<32 | hitADC
	}
	for i, h := range se.MuonHits {
		muon[i] = uint64(h.Channel)<<32 | hitADC
	}
	// The calorimeter segment fills from both ends: electromagnetic cells
	// from the front, hadronic from the back. A deposit below half a count
	// reads zero and adds nothing to any sum, so it is dropped here.
	nEM, firstHad := 0, nCalo
	for _, dep := range se.Deposits {
		adc := EncodeEnergy(dep.Energy)
		if adc == 0 {
			continue
		}
		key := uint64(dep.Channel)<<32 | uint64(adc)
		if dep.EM {
			calo[nEM] = key
			nEM++
		} else {
			firstHad--
			calo[firstHad] = key
		}
	}

	// Segment bounds in keys, in bank order; the sort of a segment borrows
	// the same stretch of spare.
	bounds := [len(partitions)][2]int{
		{0, nTrk}, {nTrk, nTrk + nEM}, {nTrk + firstHad, nTrk + nCalo}, {nTrk + nCalo, n},
	}
	var sorted [len(partitions)][]uint64
	channels := 0
	for i, b := range bounds {
		sorted[i] = sortByChannel(keys[b[0]:b[1]], d.spare[b[0]:b[1]])
		channels += countChannels(sorted[i])
	}
	out := &builtEvent{Event: Event{Run: run, Number: uint64(se.Number)}}
	out.Banks = out.banks[:]
	words := make([]Word, 0, channels)
	for i, p := range partitions {
		first := len(words)
		words = appendMerged(words, sorted[i])
		// Clipped, so that an append to one bank cannot run into the next.
		out.banks[i] = Bank{Partition: p, Words: words[first:len(words):len(words)]}
	}
	return &out.Event
}

// smallSort is the segment length below which a comparison sort beats the
// radix passes' fixed cost of clearing and summing their bucket counts.
const smallSort = 64

// sortByChannel orders packed readings by channel (the order among one
// channel's readings is left to chance: appendMerged sums them). It returns
// the sorted readings in whichever of keys and spare, two slices of one
// length, the last pass wrote; the other holds garbage.
//
// Above smallSort it is a least-significant-digit radix sort over the four
// channel bytes: one pass counts all four digits, then each digit that
// actually varies across the segment costs one stable scatter: four for a
// tracker bank, three for a calorimeter's, which is one layer and leaves
// the top byte alone.
func sortByChannel(keys, spare []uint64) []uint64 {
	if len(keys) < smallSort {
		slices.Sort(keys)
		return keys
	}
	var counts [4][256]uint32
	for _, k := range keys {
		counts[0][byte(k>>32)]++
		counts[1][byte(k>>40)]++
		counts[2][byte(k>>48)]++
		counts[3][byte(k>>56)]++
	}
	src, dst := keys, spare
	for digit := range counts {
		c := &counts[digit]
		shift := 32 + 8*uint(digit)
		if int(c[byte(src[0]>>shift)]) == len(src) {
			continue // every key has this digit: the pass would move nothing
		}
		var next uint32
		for i, n := range c {
			c[i], next = next, next+n
		}
		for _, k := range src {
			b := byte(k >> shift)
			dst[c[b]] = k
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}

// countChannels returns the number of distinct channels in keys sorted by
// channel.
func countChannels(keys []uint64) int {
	n := 0
	for i, k := range keys {
		if i == 0 || k>>32 != keys[i-1]>>32 {
			n++
		}
	}
	return n
}

// appendMerged folds each channel's run of readings into one word. A
// channel's counts are summed in full and the sum is clipped to the 16-bit
// ceiling afterwards, so the order its readings arrived in — and the order
// the sort left them in — cannot matter.
func appendMerged(words []Word, keys []uint64) []Word {
	for i := 0; i < len(keys); {
		ch := keys[i] >> 32
		var adc uint32
		for ; i < len(keys) && keys[i]>>32 == ch; i++ {
			adc += uint32(keys[i])
		}
		if adc > math.MaxUint16 {
			adc = math.MaxUint16
		}
		if adc == 0 {
			continue
		}
		words = append(words, Word{Channel: detector.ChannelID(ch), ADC: uint16(adc)})
	}
	return words
}

// Bank returns the bank for a partition, or nil.
func (e *Event) Bank(p Partition) *Bank {
	for i := range e.Banks {
		if e.Banks[i].Partition == p {
			return &e.Banks[i]
		}
	}
	return nil
}

// SizeBytes returns the encoded size of the event, the quantity the
// tier-reduction experiment tracks.
func (e *Event) SizeBytes() int {
	n := eventHeaderLen
	for _, b := range e.Banks {
		n += bankHeaderLen + len(b.Words)*wordLen + crcLen
	}
	return n
}

// Binary framing. All integers are little-endian. Each event:
//
//	magic(4) run(4) number(8) nbanks(2)
//	per bank: partition(2) nwords(4) [channel(4) adc(2)]... crc32(4)
//
// The CRC covers the bank body and catches bit rot in archived raw files;
// fixity at file granularity is the archive layer's job.

const eventMagic = 0xDA5B05E1

// ErrCorrupt is wrapped by all decoding errors.
var ErrCorrupt = errors.New("rawdata: corrupt stream")

// WriteEvent encodes one event to w in a single Write.
func WriteEvent(w io.Writer, e *Event) error {
	_, err := w.Write(appendEvent(make([]byte, 0, e.SizeBytes()), e))
	return err
}

// appendEvent appends the encoding of e to buf.
func appendEvent(buf []byte, e *Event) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, eventMagic)
	buf = binary.LittleEndian.AppendUint32(buf, e.Run)
	buf = binary.LittleEndian.AppendUint64(buf, e.Number)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.Banks)))
	for _, b := range e.Banks {
		body := len(buf)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(b.Partition))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Words)))
		for _, wd := range b.Words {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(wd.Channel))
			buf = binary.LittleEndian.AppendUint16(buf, wd.ADC)
		}
		buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[body:]))
	}
	return buf
}

// Sizes of the framing's fixed parts, and the step in which a bank body is
// read: a header is believed one step at a time, so a stream that claims a
// huge bank and then ends costs one step of memory, not the claim.
const (
	eventHeaderLen = 4 + 4 + 8 + 2 // magic, run, number, nbanks
	bankHeaderLen  = 2 + 4         // partition, nwords
	wordLen        = 4 + 2         // channel, adc
	crcLen         = 4
	readStep       = 64 << 10
)

// ReadEvent decodes one event from r, returning io.EOF at a clean end of
// stream.
func ReadEvent(r io.Reader) (*Event, error) { return NewReader(r).Read() }

// Read decodes the next event, or io.EOF. Bytes are staged in the reader's
// buffer, which grows only as far as bytes actually arrive: every bank of
// the event is read and its CRC checked before anything is decoded, so an
// event is built in two allocations once it has arrived whole — the event
// with its bank headers (as Digitize builds it, for up to four banks), and
// one slice its banks' words are cut from.
func (in *Reader) Read() (*Event, error) {
	r := in.r
	buf := slices.Grow(in.buf[:0], eventHeaderLen)[:eventHeaderLen]
	defer func() { in.buf = buf }()
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: truncated header: %w", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != eventMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	run := binary.LittleEndian.Uint32(buf[4:])
	number := binary.LittleEndian.Uint64(buf[8:])
	nbanks := int(binary.LittleEndian.Uint16(buf[16:]))
	// The banks are staged back to back after the event header, each as
	// its header and body; a CRC is checked as it arrives and not kept.
	words := 0
	for i := 0; i < nbanks; i++ {
		start := len(buf)
		buf = slices.Grow(buf, bankHeaderLen)[:start+bankHeaderLen]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("%w: truncated bank header: %w", ErrCorrupt, err)
		}
		nwords := int(binary.LittleEndian.Uint32(buf[start+2:]))
		if nwords > 1<<24 {
			return nil, fmt.Errorf("%w: unreasonable bank size %d", ErrCorrupt, nwords)
		}
		for want := start + bankHeaderLen + nwords*wordLen; len(buf) < want; {
			have := len(buf)
			step := min(want-have, readStep)
			buf = slices.Grow(buf, step)[:have+step]
			if _, err := io.ReadFull(r, buf[have:]); err != nil {
				if err == io.EOF && have > start+bankHeaderLen {
					err = io.ErrUnexpectedEOF // the body had begun
				}
				return nil, fmt.Errorf("%w: truncated bank body: %w", ErrCorrupt, err)
			}
		}
		// The CRC is read in after the body and cut off again: an array on
		// the stack would escape through the io.Reader.
		end := len(buf)
		buf = slices.Grow(buf, crcLen)[:end+crcLen]
		if _, err := io.ReadFull(r, buf[end:]); err != nil {
			return nil, fmt.Errorf("%w: truncated bank crc: %w", ErrCorrupt, err)
		}
		if binary.LittleEndian.Uint32(buf[end:]) != crc32.ChecksumIEEE(buf[start:end]) {
			return nil, fmt.Errorf("%w: bank %d crc mismatch", ErrCorrupt, i)
		}
		buf = buf[:end]
		words += nwords
	}

	var e *Event
	switch {
	case nbanks == 0:
		return &Event{Run: run, Number: number}, nil
	case nbanks <= len(partitions):
		out := &builtEvent{Event: Event{Run: run, Number: number}}
		out.Banks = out.banks[:nbanks]
		e = &out.Event
	default:
		e = &Event{Run: run, Number: number, Banks: make([]Bank, nbanks)}
	}
	all := make([]Word, words)
	off := eventHeaderLen
	for i := range e.Banks {
		nwords := int(binary.LittleEndian.Uint32(buf[off+2:]))
		// Clipped, so that an append to one bank cannot run into the next.
		b := Bank{
			Partition: Partition(binary.LittleEndian.Uint16(buf[off:])),
			Words:     all[:nwords:nwords],
		}
		all = all[nwords:]
		off += bankHeaderLen
		for j := range b.Words {
			b.Words[j] = Word{
				Channel: detector.ChannelID(binary.LittleEndian.Uint32(buf[off:])),
				ADC:     binary.LittleEndian.Uint16(buf[off+4:]),
			}
			off += wordLen
		}
		e.Banks[i] = b
	}
	return e, nil
}

// DigitizeFunc adapts Digitize to the event-flow stage signature for the
// given run. Digitization is a pure function of the simulated event, and
// each call borrows its scratch from the pool for its own duration, so the
// returned function is safe for any worker count.
//
// It is the last reader of the simulated events sim.FullSim.StageFunc
// makes: once Digitize has packed an event's readings it hands the event
// back with sim.Release, for the simulation to refill. A simulated event
// must not be read after DigitizeFunc has digitised it.
func DigitizeFunc(run uint32) func(*sim.Event) (*Event, bool, error) {
	return func(se *sim.Event) (*Event, bool, error) {
		ev := Digitize(run, se)
		sim.Release(se)
		return ev, true, nil
	}
}

// Writer streams raw events onto an io.Writer one at a time — the
// event-builder end of a streaming pipeline, where a whole-run []*Event
// slice never exists.
type Writer struct {
	w   io.Writer
	n   int
	buf []byte // the last event's encoding, reused for the next
}

// NewWriter returns a streaming raw-event writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write appends one event to the stream.
func (w *Writer) Write(e *Event) error {
	w.buf = appendEvent(w.buf[:0], e)
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// Count returns the number of events written.
func (w *Writer) Count() int { return w.n }

// Reader streams raw events off an io.Reader; Read returns io.EOF at a
// clean end of stream. It is the raw tier's streaming source.
type Reader struct {
	r   io.Reader
	buf []byte // staging for one bank at a time, reused across events
}

// NewReader returns a streaming raw-event reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// WriteFile encodes a sequence of events.
func WriteFile(w io.Writer, events []*Event) error {
	out := NewWriter(w)
	for _, e := range events {
		if err := out.Write(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadFile decodes all events from r.
func ReadFile(r io.Reader) ([]*Event, error) {
	var out []*Event
	in := NewReader(r)
	for {
		e, err := in.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}
