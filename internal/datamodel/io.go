package datamodel

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// An event file is a version-3 stream: typed header, one length-prefixed
// frame per event, and an end-of-stream trailer carrying the event count,
// encoded by the hand-rolled binary codec in codec_v3.go — varint/fixed
// framing, pooled scratch buffers, deterministic map ordering — entirely
// inside the standard library, the "no exotic dependencies" property the
// paper's preservation discussion prizes. FileReader reads this one format.
// The gob streams of version 2 are read in one place only, by MigrateV2
// (migrate.go), which daspos-archive migrate runs over an archive.
//
// The trailer is what makes truncation detectable: a stream cut at a
// frame boundary otherwise reads as a clean end-of-file, silently
// dropping the tail of an archived tier. A reader that hits end-of-input
// before the trailer reports io.ErrUnexpectedEOF, and a trailer whose
// count disagrees with the events actually read is corruption too.

const (
	// Codec names the format generation FileWriter writes, by the bytes it
	// opens every file with; a workflow step writing an event tier records it.
	Codec = "DASEDM3"
	// fileMagicV3 opens a version-3 stream: eight literal bytes, chosen so
	// no gob stream of version 2 can begin with them (a gob stream starts
	// with a small varint message length, never 'D').
	fileMagicV3 = Codec + "\x00"
)

// Version-3 frame markers.
const (
	recEventV3 byte = 0x01
	recEndV3   byte = 0x02
)

// maxFrameV3 bounds a single event frame; anything larger is corruption,
// not physics.
const maxFrameV3 = 1 << 30

// FileWriter writes a homogeneous stream of events of one tier in the
// version-3 format. Close must be called after the last event to write
// the end-of-stream trailer; a stream without a trailer reads back as
// truncated. The writer serializes each event into a pooled scratch
// buffer and emits one frame per event — encode, digest (when the
// underlying writer hashes), and buffering all happen in a single pass
// over the bytes.
type FileWriter struct {
	w       io.Writer
	tier    Tier
	n       int
	closed  bool
	scratch []byte
	head    [binary.MaxVarintLen64 + 1]byte
}

// NewFileWriter starts an event file of the given tier on w.
func NewFileWriter(w io.Writer, tier Tier) (*FileWriter, error) {
	hdr := getScratch()
	hdr = append(hdr, fileMagicV3...)
	hdr = binary.AppendVarint(hdr, int64(tier))
	_, err := w.Write(hdr)
	putScratch(hdr)
	if err != nil {
		return nil, fmt.Errorf("datamodel: writing header: %w", err)
	}
	return &FileWriter{w: w, tier: tier, scratch: getScratch()}, nil
}

// Write appends one event. The event's tier must match the file's.
func (w *FileWriter) Write(e *Event) error {
	if w.closed {
		return fmt.Errorf("datamodel: write after Close")
	}
	if e.Tier != w.tier {
		return fmt.Errorf("datamodel: event tier %v in %v file", e.Tier, w.tier)
	}
	w.scratch = appendEventV3(w.scratch[:0], e)
	w.head[0] = recEventV3
	head := binary.AppendUvarint(w.head[:1], uint64(len(w.scratch)))
	if _, err := w.w.Write(head); err != nil {
		return fmt.Errorf("datamodel: writing frame: %w", err)
	}
	if _, err := w.w.Write(w.scratch); err != nil {
		return fmt.Errorf("datamodel: writing frame: %w", err)
	}
	w.n++
	return nil
}

// Close terminates the stream with the trailer. It does not close the
// underlying writer. Close is idempotent.
func (w *FileWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.scratch != nil {
		putScratch(w.scratch)
		w.scratch = nil
	}
	w.head[0] = recEndV3
	trailer := binary.AppendUvarint(w.head[:1], uint64(w.n))
	if _, err := w.w.Write(trailer); err != nil {
		return fmt.Errorf("datamodel: writing trailer: %w", err)
	}
	return nil
}

// Count returns the number of events written.
func (w *FileWriter) Count() int { return w.n }

// FileReader reads an event file of version 3, the one format FileWriter
// writes. Any other input is refused at the magic; an archived version-2
// tier stays readable through daspos-archive migrate, which rewrites it as
// version 3 and proves the result event by event. The reader may buffer
// ahead of the frames it has returned; give it a dedicated reader over the
// file's bytes rather than a shared stream.
type FileReader struct {
	tier Tier
	n    int
	done bool

	br      *bufio.Reader
	payload []byte // pooled frame scratch
}

// NewFileReader opens an event stream, validating the magic and the
// header.
func NewFileReader(r io.Reader) (*FileReader, error) {
	magic := make([]byte, len(fileMagicV3))
	k, err := io.ReadFull(r, magic)
	if string(magic[:k]) != fileMagicV3[:k] {
		return nil, fmt.Errorf("datamodel: not a %s event file (a version-2 tier is read by daspos-archive migrate)", Codec)
	}
	if err != nil {
		return nil, fmt.Errorf("datamodel: reading header: %w", io.ErrUnexpectedEOF)
	}
	br := bufio.NewReader(r)
	tier, err := binary.ReadVarint(br)
	if err != nil {
		return nil, fmt.Errorf("datamodel: reading header: %w", io.ErrUnexpectedEOF)
	}
	return &FileReader{tier: Tier(tier), br: br, payload: getScratch()}, nil
}

// Tier returns the file's declared tier.
func (r *FileReader) Tier() Tier { return r.tier }

// Read returns the next event, or io.EOF once the end-of-stream trailer
// has been seen. Input that ends before the trailer — a truncated file —
// returns an error wrapping io.ErrUnexpectedEOF, never a clean EOF. An
// event of another tier than the file's is corrupt, as FileWriter refuses
// to write one.
func (r *FileReader) Read() (*Event, error) {
	if r.done {
		return nil, io.EOF
	}
	marker, err := r.br.ReadByte()
	if err != nil {
		return nil, r.truncated()
	}
	switch marker {
	case recEndV3:
		count, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, r.truncated()
		}
		if int(count) != r.n {
			return nil, fmt.Errorf("datamodel: trailer count %d, read %d events", count, r.n)
		}
		r.finish()
		return nil, io.EOF
	case recEventV3:
		ln, err := binary.ReadUvarint(r.br)
		if err != nil {
			return nil, r.truncated()
		}
		if ln > maxFrameV3 {
			return nil, fmt.Errorf("datamodel: implausible frame size %d", ln)
		}
		// Past the pooled scratch, the buffer grows with the bytes that
		// arrive, not by the length claimed, and is not kept.
		var buf []byte
		if ln <= uint64(cap(r.payload)) {
			buf = r.payload[:ln]
			_, err = io.ReadFull(r.br, buf)
		} else {
			buf, err = io.ReadAll(io.LimitReader(r.br, int64(ln)))
		}
		if err != nil || uint64(len(buf)) != ln {
			return nil, r.truncated()
		}
		e, err := decodeEventV3(buf)
		if err != nil {
			return nil, fmt.Errorf("datamodel: decoding event: %w", err)
		}
		if e.Tier != r.tier {
			return nil, fmt.Errorf("datamodel: event tier %v in %v file", e.Tier, r.tier)
		}
		r.n++
		return e, nil
	default:
		return nil, fmt.Errorf("datamodel: unknown frame marker 0x%02x", marker)
	}
}

func (r *FileReader) truncated() error {
	return fmt.Errorf("datamodel: truncated stream after %d events: %w", r.n, io.ErrUnexpectedEOF)
}

// finish marks end-of-stream and returns the frame scratch to the pool.
func (r *FileReader) finish() {
	r.done = true
	putScratch(r.payload)
	r.payload = nil
}

// ReadAll drains the stream. A truncated stream returns an error wrapping
// io.ErrUnexpectedEOF rather than silently returning the partial sample.
func (r *FileReader) ReadAll() ([]*Event, error) {
	var out []*Event
	for {
		e, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

// WriteEvents writes a slice of same-tier events as one file and reports
// the encoded byte count — the primitive behind the tier-size cascade of
// experiment W1.
func WriteEvents(w io.Writer, tier Tier, events []*Event) (int64, error) {
	cw := &countingWriter{w: w}
	fw, err := NewFileWriter(cw, tier)
	if err != nil {
		return 0, err
	}
	for _, e := range events {
		if err := fw.Write(e); err != nil {
			return cw.n, err
		}
	}
	if err := fw.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadEvents reads a whole event file.
func ReadEvents(r io.Reader) (Tier, []*Event, error) {
	fr, err := NewFileReader(r)
	if err != nil {
		return 0, nil, err
	}
	events, err := fr.ReadAll()
	return fr.Tier(), events, err
}

// EncodedSize returns the serialized size in bytes of the events as one
// file of the given tier.
func EncodedSize(tier Tier, events []*Event) (int64, error) {
	var buf bytes.Buffer
	return WriteEvents(&buf, tier, events)
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
