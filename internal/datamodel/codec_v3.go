package datamodel

// Version 3 of the event file format replaces gob on the hot path with a
// hand-rolled binary codec: varint-coded integers, fixed 8-byte IEEE-754
// floats, and length-prefixed event frames. The encoding stays entirely
// inside the standard library — the preservation argument against exotic
// dependencies holds for the fast path too — and is fully deterministic:
// map-valued fields are emitted in sorted key order, so the same events
// always serialize to the same bytes regardless of worker count or map
// iteration order (gob, by contrast, walks maps in random order).
//
// Event payload layout (all integers varint unless noted):
//
//	run number tier processID(zigzag)
//	nTracks    { Px Py Pz E Charge D0 Z0 Chi2 (float64×8) nHits }
//	nVertices  { X Y Z Chi2 (float64×4) nTracks }
//	nClusters  { E Eta Phi (float64×3) em(1 byte) nCells }
//	nCands     { type P(float64×4) Charge Quality Isolation }
//	met        { Pt Phi SumEt (float64×3) }
//	nAux       { keyLen key value(float64) }   — keys sorted ascending
//
// float64 fields are the raw IEEE-754 bits, little-endian, so round trips
// are bit-exact. Signed integers use zigzag varints; counts use unsigned
// varints. Slice and map lengths of zero decode to nil, matching the gob
// reader's semantics so v2 and v3 streams of the same events decode to
// deeply equal values.

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"

	"daspos/internal/fourvec"
)

// scratchPool recycles encode/decode scratch buffers across writers and
// readers, keeping the steady-state hot path allocation-free.
var scratchPool = sync.Pool{
	New: func() any { return make([]byte, 0, 16<<10) },
}

func getScratch() []byte  { return scratchPool.Get().([]byte)[:0] }
func putScratch(b []byte) { scratchPool.Put(b[:0]) } //nolint:staticcheck // slice header reuse is the point

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendVec(b []byte, v fourvec.Vec) []byte {
	b = appendFloat(b, v.Px)
	b = appendFloat(b, v.Py)
	b = appendFloat(b, v.Pz)
	return appendFloat(b, v.E)
}

// appendEventV3 serializes one event payload (no frame header) onto b.
func appendEventV3(b []byte, e *Event) []byte {
	b = binary.AppendUvarint(b, uint64(e.Run))
	b = binary.AppendUvarint(b, e.Number)
	b = binary.AppendVarint(b, int64(e.Tier))
	b = binary.AppendVarint(b, int64(e.ProcessID))

	b = binary.AppendUvarint(b, uint64(len(e.Tracks)))
	for i := range e.Tracks {
		t := &e.Tracks[i]
		b = appendVec(b, t.P)
		b = appendFloat(b, t.Charge)
		b = appendFloat(b, t.D0)
		b = appendFloat(b, t.Z0)
		b = appendFloat(b, t.Chi2)
		b = binary.AppendVarint(b, int64(t.NHits))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Vertices)))
	for i := range e.Vertices {
		v := &e.Vertices[i]
		b = appendFloat(b, v.X)
		b = appendFloat(b, v.Y)
		b = appendFloat(b, v.Z)
		b = appendFloat(b, v.Chi2)
		b = binary.AppendVarint(b, int64(v.NTracks))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Clusters)))
	for i := range e.Clusters {
		c := &e.Clusters[i]
		b = appendFloat(b, c.E)
		b = appendFloat(b, c.Eta)
		b = appendFloat(b, c.Phi)
		if c.EM {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, int64(c.NCells))
	}
	b = binary.AppendUvarint(b, uint64(len(e.Candidates)))
	for i := range e.Candidates {
		c := &e.Candidates[i]
		b = binary.AppendVarint(b, int64(c.Type))
		b = appendVec(b, c.P)
		b = appendFloat(b, c.Charge)
		b = appendFloat(b, c.Quality)
		b = appendFloat(b, c.Isolation)
	}
	b = appendFloat(b, e.Missing.Pt)
	b = appendFloat(b, e.Missing.Phi)
	b = appendFloat(b, e.Missing.SumEt)

	b = binary.AppendUvarint(b, uint64(len(e.Aux)))
	if len(e.Aux) > 0 {
		keys := make([]string, 0, len(e.Aux))
		for k := range e.Aux {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			b = binary.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
			b = appendFloat(b, e.Aux[k])
		}
	}
	return b
}

// payloadDecoder walks one length-framed event payload. The frame length
// is already known when decoding starts, so running out of bytes here is
// corruption of a complete frame, never stream truncation.
type payloadDecoder struct {
	data []byte
	off  int
}

var errPayloadShort = fmt.Errorf("datamodel: v3 payload truncated inside frame")

func (d *payloadDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, errPayloadShort
	}
	d.off += n
	return v, nil
}

func (d *payloadDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, errPayloadShort
	}
	d.off += n
	return v, nil
}

func (d *payloadDecoder) float() (float64, error) {
	if d.off+8 > len(d.data) {
		return 0, errPayloadShort
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v, nil
}

func (d *payloadDecoder) vec() (fourvec.Vec, error) {
	var v fourvec.Vec
	var err error
	if v.Px, err = d.float(); err != nil {
		return v, err
	}
	if v.Py, err = d.float(); err != nil {
		return v, err
	}
	if v.Pz, err = d.float(); err != nil {
		return v, err
	}
	v.E, err = d.float()
	return v, err
}

func (d *payloadDecoder) byte() (byte, error) {
	if d.off >= len(d.data) {
		return 0, errPayloadShort
	}
	b := d.data[d.off]
	d.off++
	return b, nil
}

// count reads a collection length and sanity-checks it against the bytes
// actually remaining (every element occupies at least one byte), so a
// corrupt frame cannot provoke a huge allocation.
func (d *payloadDecoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.data)-d.off) {
		return 0, fmt.Errorf("datamodel: v3 frame declares %d elements with %d bytes left", v, len(d.data)-d.off)
	}
	return int(v), nil
}

// decodeEventV3 parses one event payload produced by appendEventV3. Every
// slice and map is freshly allocated, so the event owns its storage.
func decodeEventV3(data []byte) (*Event, error) {
	e := &Event{}
	d := &payloadDecoder{data: data}

	run, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if run > math.MaxUint32 {
		return nil, fmt.Errorf("datamodel: v3 run %d overflows uint32", run)
	}
	e.Run = uint32(run)
	if e.Number, err = d.uvarint(); err != nil {
		return nil, err
	}
	tier, err := d.varint()
	if err != nil {
		return nil, err
	}
	e.Tier = Tier(tier)
	pid, err := d.varint()
	if err != nil {
		return nil, err
	}
	e.ProcessID = int(pid)

	nT, err := d.count()
	if err != nil {
		return nil, err
	}
	if nT > 0 {
		e.Tracks = make([]Track, nT)
		for i := range e.Tracks {
			t := &e.Tracks[i]
			if t.P, err = d.vec(); err != nil {
				return nil, err
			}
			if t.Charge, err = d.float(); err != nil {
				return nil, err
			}
			if t.D0, err = d.float(); err != nil {
				return nil, err
			}
			if t.Z0, err = d.float(); err != nil {
				return nil, err
			}
			if t.Chi2, err = d.float(); err != nil {
				return nil, err
			}
			h, err := d.varint()
			if err != nil {
				return nil, err
			}
			t.NHits = int(h)
		}
	}
	nV, err := d.count()
	if err != nil {
		return nil, err
	}
	if nV > 0 {
		e.Vertices = make([]VertexFit, nV)
		for i := range e.Vertices {
			v := &e.Vertices[i]
			if v.X, err = d.float(); err != nil {
				return nil, err
			}
			if v.Y, err = d.float(); err != nil {
				return nil, err
			}
			if v.Z, err = d.float(); err != nil {
				return nil, err
			}
			if v.Chi2, err = d.float(); err != nil {
				return nil, err
			}
			n, err := d.varint()
			if err != nil {
				return nil, err
			}
			v.NTracks = int(n)
		}
	}
	nC, err := d.count()
	if err != nil {
		return nil, err
	}
	if nC > 0 {
		e.Clusters = make([]Cluster, nC)
		for i := range e.Clusters {
			c := &e.Clusters[i]
			if c.E, err = d.float(); err != nil {
				return nil, err
			}
			if c.Eta, err = d.float(); err != nil {
				return nil, err
			}
			if c.Phi, err = d.float(); err != nil {
				return nil, err
			}
			em, err := d.byte()
			if err != nil {
				return nil, err
			}
			c.EM = em != 0
			n, err := d.varint()
			if err != nil {
				return nil, err
			}
			c.NCells = int(n)
		}
	}
	nCand, err := d.count()
	if err != nil {
		return nil, err
	}
	if nCand > 0 {
		e.Candidates = make([]Candidate, nCand)
		for i := range e.Candidates {
			c := &e.Candidates[i]
			typ, err := d.varint()
			if err != nil {
				return nil, err
			}
			c.Type = ObjectType(typ)
			if c.P, err = d.vec(); err != nil {
				return nil, err
			}
			if c.Charge, err = d.float(); err != nil {
				return nil, err
			}
			if c.Quality, err = d.float(); err != nil {
				return nil, err
			}
			if c.Isolation, err = d.float(); err != nil {
				return nil, err
			}
		}
	}
	if e.Missing.Pt, err = d.float(); err != nil {
		return nil, err
	}
	if e.Missing.Phi, err = d.float(); err != nil {
		return nil, err
	}
	if e.Missing.SumEt, err = d.float(); err != nil {
		return nil, err
	}

	nAux, err := d.count()
	if err != nil {
		return nil, err
	}
	if nAux > 0 {
		e.Aux = make(map[string]float64, nAux)
		for i := 0; i < nAux; i++ {
			kl, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			if kl > uint64(len(d.data)-d.off) {
				return nil, errPayloadShort
			}
			key := string(d.data[d.off : d.off+int(kl)])
			d.off += int(kl)
			val, err := d.float()
			if err != nil {
				return nil, err
			}
			e.Aux[key] = val
		}
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("datamodel: v3 frame has %d trailing bytes", len(d.data)-d.off)
	}
	return e, nil
}
