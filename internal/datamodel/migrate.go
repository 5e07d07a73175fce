package datamodel

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"reflect"
)

// Version 2 of the event file is a gob stream: a typed header, one record
// envelope per event, and an end-of-stream record carrying the event
// count. Nothing writes it any more, and FileReader does not read it: this
// file is the one place it is decoded, so that daspos-archive migrate can
// rewrite an archived v2 tier as version 3 once, with a proof.

// fileHeader identifies a version-2 stream and pins the tier so a reader
// cannot mistake a RECO file for an AOD file.
type fileHeader struct {
	Magic   string
	Version int
	Tier    Tier
}

const (
	fileMagic   = "DASPOS-EDM"
	fileVersion = 2
	// CodecV2 names the version-2 format, by its header's magic and
	// version, as a migration's record names it beside Codec.
	CodecV2 = "DASPOS-EDM/2"
)

// record is the per-message envelope of a version-2 stream: either one
// event, or the end-of-stream trailer (End=true) carrying the total count.
type record struct {
	End   bool
	Count int
	Event *Event
}

// ErrNotV2 is MigrateV2's answer for bytes that do not open with a
// version-2 header: they are some other file, not a damaged v2 tier.
var ErrNotV2 = errors.New("datamodel: not a version-2 event file")

// MigrateV2 rewrites a version-2 event file as version 3 and reports the
// events it holds. The result is proved before it is returned: the v3
// bytes, read back through FileReader, must yield the file's tier and
// every event equal (reflect.DeepEqual) to its v2 decode, in order, and
// nothing more. A v2 stream that is cut short, miscounted, followed by
// other bytes, or fails the proof — a float field holding NaN does, as NaN
// equals nothing — is an error, and nothing is migrated.
func MigrateV2(v2 []byte) (v3 []byte, events int, err error) {
	tier, decoded, err := readV2(v2)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, tier, decoded); err != nil {
		return nil, 0, err
	}
	fr, err := NewFileReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, 0, fmt.Errorf("datamodel: migration proof: %w", err)
	}
	if fr.Tier() != tier {
		return nil, 0, fmt.Errorf("datamodel: migration proof: tier %v reads back as %v", tier, fr.Tier())
	}
	for i, want := range decoded {
		got, err := fr.Read()
		if err != nil {
			return nil, 0, fmt.Errorf("datamodel: migration proof: event %d of %d: %w", i, len(decoded), err)
		}
		if !reflect.DeepEqual(got, want) {
			return nil, 0, fmt.Errorf("datamodel: migration proof: event %d of %d does not read back equal", i, len(decoded))
		}
	}
	if _, err := fr.Read(); err != io.EOF {
		return nil, 0, fmt.Errorf("datamodel: migration proof: the stream does not end after %d events", len(decoded))
	}
	return buf.Bytes(), len(decoded), nil
}

// readV2 decodes a whole version-2 stream, which must end at its trailer.
func readV2(data []byte) (Tier, []*Event, error) {
	in := bytes.NewReader(data)
	dec := gob.NewDecoder(in)
	var h fileHeader
	if err := dec.Decode(&h); err != nil || h.Magic != fileMagic {
		return 0, nil, ErrNotV2
	}
	if h.Version != fileVersion {
		return 0, nil, fmt.Errorf("datamodel: unsupported version %d", h.Version)
	}
	var events []*Event
	for {
		// gob sizes a nil map by the count the stream claims, unbounded;
		// into a map that exists it adds what it decodes. A record without
		// an event then reads as an empty one, refused below: its tier is 0.
		rec := record{Event: &Event{Aux: map[string]float64{}}}
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				// The input ran out before the trailer: the file is cut
				// short, whether or not the cut fell on a message boundary.
				return 0, nil, fmt.Errorf("datamodel: truncated stream after %d events: %w", len(events), io.ErrUnexpectedEOF)
			}
			return 0, nil, fmt.Errorf("datamodel: decoding event: %w", err)
		}
		if rec.End {
			if rec.Count != len(events) {
				return 0, nil, fmt.Errorf("datamodel: trailer count %d, read %d events", rec.Count, len(events))
			}
			if in.Len() > 0 {
				return 0, nil, fmt.Errorf("datamodel: %d bytes after the trailer", in.Len())
			}
			return h.Tier, events, nil
		}
		if rec.Event.Tier != h.Tier {
			return 0, nil, fmt.Errorf("datamodel: event tier %v in %v file", rec.Event.Tier, h.Tier)
		}
		if len(rec.Event.Aux) == 0 {
			rec.Event.Aux = nil
		}
		events = append(events, rec.Event)
	}
}
