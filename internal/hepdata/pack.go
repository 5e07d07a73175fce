package hepdata

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// The archive holds each record packed into one pointer-free byte slice,
// so the garbage collector never traces an archived record and every read
// decodes a fresh tree its caller owns, which shares only the bytes of its
// aux values with the archive. The packed form lives only in
// memory: it is never written to disk or sent on the wire — canonical
// JSON is the one byte form of a record — so it carries no version marker.
//
// Layout: a header of uvarint counts (text bytes, aux region bytes,
// tables, points, error components, list strings, aux entries), then the
// aux region, its values in key order, then every string of the record
// back to back, then the shape. The shape holds string lengths, list and
// point counts, the year, floats as their IEEE bits (so −0, subnormals and
// every exponent survive), and, in key order too, each aux key's length
// and its value's length plus one (0 for nil). The counts let unpack
// allocate a constant number of objects per record, not one per point or
// string. A record with aux values starts its region, and each value in
// it, at a multiple of auxAlign bytes: pack copies a payload once, and a
// copy between buffers aligned alike runs at full speed.

// auxAlign aligns the aux values in a packed record.
const auxAlign = 64

func alignUp(n int) int { return (n + auxAlign - 1) &^ (auxAlign - 1) }

// packer walks a record twice. The first walk, with buf nil, only moves
// the offsets, so text, shape and aux end as the lengths of the three
// regions and points, errs and strs as the header's counts. The second
// walk writes into buf, which is sized exactly and zeroed, so the aux
// padding is already in place; each offset starts at its region.
type packer struct {
	buf                []byte
	text, shape, aux   int
	points, errs, strs int
}

// pack returns the archive form of r in one allocation (two when r has
// aux: its sorted keys). Both walks visit the aux values in key order, so
// they lay out the same region, and a record packs to the same bytes
// every time.
func pack(r *Record) []byte {
	var keys []string
	if len(r.Aux) > 0 {
		keys = make([]string, 0, len(r.Aux))
		for k := range r.Aux {
			keys = append(keys, k)
		}
		slices.Sort(keys)
	}
	var p packer
	p.record(r, keys)
	var hb [7 * binary.MaxVarintLen64]byte
	head := hb[:0]
	for _, n := range [...]int{p.text, p.aux, len(r.Tables), p.points, p.errs, p.strs, len(r.Aux)} {
		head = binary.AppendUvarint(head, uint64(n))
	}
	base := len(head)
	if p.aux > 0 {
		base = alignUp(base)
	}
	textLen, shapeLen := p.text, p.shape
	p.buf = make([]byte, base+p.aux+textLen+shapeLen)
	copy(p.buf, head)
	p.aux, p.text = base, base+p.aux
	p.shape = p.text + textLen
	p.record(r, keys)
	if p.shape != len(p.buf) {
		panic("hepdata: a record's two pack walks disagree")
	}
	return p.buf
}

// record walks r in the packed order: its strings and shape, then the aux
// values under keys, r.Aux's keys sorted.
func (p *packer) record(r *Record, keys []string) {
	p.str(r.InspireID)
	p.str(r.Title)
	p.str(r.Collaboration)
	p.str(r.Abstract)
	p.year(r.Year)
	for i := range r.Tables {
		t := &r.Tables[i]
		p.str(t.Name)
		p.str(t.Description)
		p.str(t.XHeader)
		p.str(t.YHeader)
		p.list(t.Reactions)
		p.list(t.Observables)
		p.uint(len(t.Points))
		p.points += len(t.Points)
		for j := range t.Points {
			pt := &t.Points[j]
			p.float(pt.X)
			p.float(pt.XLo)
			p.float(pt.XHi)
			p.float(pt.Y)
			p.uint(len(pt.Errors))
			p.errs += len(pt.Errors)
			for _, e := range pt.Errors {
				p.str(e.Label)
				p.float(e.Plus)
				p.float(e.Minus)
			}
		}
	}
	for _, k := range keys {
		p.str(k)
		v := r.Aux[k]
		if v == nil {
			p.uint(0)
			continue
		}
		p.uint(len(v) + 1)
		// A region with bytes starts at a multiple of auxAlign, so
		// aligning the offset in buf aligns it within the region. In one
		// without, the offset moves past nothing it writes.
		at := alignUp(p.aux)
		if p.buf != nil && len(v) > 0 {
			copy(p.buf[at:], v)
		}
		p.aux = at + len(v)
	}
}

func (p *packer) uint(n int) {
	if p.buf == nil {
		p.shape += (bits.Len64(uint64(n)|1) + 6) / 7
		return
	}
	p.shape += binary.PutUvarint(p.buf[p.shape:], uint64(n))
}

func (p *packer) year(y int) {
	if p.buf == nil {
		var b [binary.MaxVarintLen64]byte
		p.shape += binary.PutVarint(b[:], int64(y))
		return
	}
	p.shape += binary.PutVarint(p.buf[p.shape:], int64(y))
}

func (p *packer) float(f float64) {
	if p.buf != nil {
		binary.LittleEndian.PutUint64(p.buf[p.shape:], math.Float64bits(f))
	}
	p.shape += 8
}

func (p *packer) str(s string) {
	p.uint(len(s))
	if p.buf != nil {
		copy(p.buf[p.text:], s)
	}
	p.text += len(s)
}

func (p *packer) list(l []string) {
	p.uint(len(l))
	p.strs += len(l)
	for _, s := range l {
		p.str(s)
	}
}

// cursor walks one packed record: off is the next shape byte, and each
// string is the next span of text, whose lengths the shape holds.
type cursor struct {
	b    []byte
	off  int
	text []byte
	at   int
}

// counts is a packed record's header, less the lengths, which open reads.
type counts struct{ tables, points, errs, strs, aux int }

// open reads b's header and returns a cursor at the start of its shape and
// the aux region.
func open(b []byte) (c cursor, n counts, aux []byte) {
	c.b = b
	textLen, auxSize := c.uint(), c.uint()
	n = counts{tables: c.uint(), points: c.uint(), errs: c.uint(), strs: c.uint(), aux: c.uint()}
	if auxSize > 0 {
		c.off = alignUp(c.off)
	}
	aux = b[c.off : c.off+auxSize]
	c.off += auxSize
	c.text = b[c.off : c.off+textLen : c.off+textLen]
	c.off += textLen
	return c, n, aux
}

func (c *cursor) uint() int {
	v, n := binary.Uvarint(c.b[c.off:])
	c.off += n
	return int(v)
}

func (c *cursor) float() float64 {
	f := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	c.off += 8
	return f
}

// span returns the bounds of the next string within the text.
func (c *cursor) span() (i, j int) {
	n := c.uint()
	c.at += n
	return c.at - n, c.at
}

func (c *cursor) year() int {
	v, n := binary.Varint(c.b[c.off:])
	c.off += n
	return int(v)
}

// unpacker decodes one packed record: all is the record's one string, a
// copy of the text, and points, errs and strs are the unassigned tails of
// the record's one slice of each.
type unpacker struct {
	cursor
	all    string
	points []Point
	errs   []Uncertainty
	strs   []string
}

// unpack decodes a fresh record from its archive form. It allocates the
// record, its text, and one slice each of tables, points, error
// components and list strings; a record with aux adds its map. Aux values
// are not copied: each is a slice of b, capped at its own length, so a
// read never costs the size of the record's payloads.
func unpack(b []byte) *Record {
	c, n, aux := open(b)
	u := unpacker{cursor: c, all: string(c.text)}
	tables := make([]Table, n.tables)
	u.points = make([]Point, n.points)
	u.errs = make([]Uncertainty, n.errs)
	u.strs = make([]string, n.strs)

	r := &Record{InspireID: u.str(), Title: u.str(), Collaboration: u.str(), Abstract: u.str(), Tables: tables}
	r.Year = u.year()
	for i := range tables {
		t := &tables[i]
		t.Name, t.Description, t.XHeader, t.YHeader = u.str(), u.str(), u.str(), u.str()
		t.Reactions, t.Observables = u.list(), u.list()
		np := u.uint()
		t.Points, u.points = u.points[:np:np], u.points[np:]
		for j := range t.Points {
			pt := &t.Points[j]
			pt.X, pt.XLo, pt.XHi, pt.Y = u.float(), u.float(), u.float(), u.float()
			if ne := u.uint(); ne > 0 {
				pt.Errors, u.errs = u.errs[:ne:ne], u.errs[ne:]
				for k := range pt.Errors {
					pt.Errors[k] = Uncertainty{Label: u.str(), Plus: u.float(), Minus: u.float()}
				}
			}
		}
	}
	if n.aux > 0 {
		r.Aux = make(map[string][]byte, n.aux)
		at := 0
		for range n.aux {
			k := u.str()
			size := u.uint()
			if size == 0 {
				r.Aux[k] = nil
				continue
			}
			// Non-nil even when empty: "" and null encode differently.
			at = alignUp(at)
			end := at + size - 1
			r.Aux[k], at = aux[at:end:end], end
		}
	}
	return r
}

func (u *unpacker) str() string {
	i, j := u.span()
	return u.all[i:j]
}

func (u *unpacker) list() []string {
	n := u.uint()
	if n == 0 {
		return nil
	}
	l := u.strs[:n:n]
	u.strs = u.strs[n:]
	for i := range l {
		l[i] = u.str()
	}
	return l
}

// appendSearchText appends to dst the text Search matches in a packed
// record, joined by spaces as Search has always joined it: the title,
// collaboration and abstract, then each table's reactions and then its
// observables. It walks the pack in place, decoding nothing.
func appendSearchText(dst, b []byte) []byte {
	c, n, _ := open(b)
	c.span() // InspireID
	for k := 0; k < 3; k++ {
		if k > 0 {
			dst = append(dst, ' ')
		}
		i, j := c.span()
		dst = append(dst, c.text[i:j]...)
	}
	c.year()
	for range n.tables {
		for range 4 { // name, description, headers
			c.span()
		}
		for range 2 { // reactions, then observables
			dst = append(dst, ' ')
			for k := range c.uint() {
				if k > 0 {
					dst = append(dst, ' ')
				}
				i, j := c.span()
				dst = append(dst, c.text[i:j]...)
			}
		}
		for range c.uint() {
			c.off += 4 * 8 // X, XLo, XHi, Y
			for range c.uint() {
				c.span()
				c.off += 2 * 8 // Plus, Minus
			}
		}
	}
	return dst
}
