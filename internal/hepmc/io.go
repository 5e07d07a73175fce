package hepmc

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"daspos/internal/fourvec"
)

// The wire format is line-oriented ASCII in the spirit of HepMC2:
//
//	HEPMC-DASPOS 1
//	E <number> <processID> <weight> <nVertices> <nParticles>
//	V <barcode> <x> <y> <z> <t>
//	P <barcode> <pdg> <status> <px> <py> <pz> <e> <prodVtx> <endVtx>
//	...
//	END
//
// Floats are written with %.17g so archived event samples round-trip
// bit-exactly — the property the preservation tests pin down.

// magic is the stream header identifying format and version.
const magic = "HEPMC-DASPOS 1"

// readReserve bounds the vertices and particles Read reserves room for on
// an E record's word. The counts are the stream's claim, not bytes read:
// past this the slices grow with the records that actually arrive, so a
// lying header reserves no memory.
const readReserve = 256

// ErrBadFormat is wrapped by all parse errors.
var ErrBadFormat = errors.New("hepmc: malformed stream")

// Writer encodes events onto an underlying stream.
type Writer struct {
	bw          *bufio.Writer
	wroteHeader bool
}

// NewWriter returns a Writer on w. The stream header is emitted with the
// first event.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// Write encodes one event.
func (w *Writer) Write(e *Event) error {
	if !w.wroteHeader {
		if _, err := fmt.Fprintln(w.bw, magic); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	fmt.Fprintf(w.bw, "E %d %d %.17g %d %d\n",
		e.Number, e.ProcessID, e.Weight, len(e.Vertices), len(e.Particles))
	for _, v := range e.Vertices {
		fmt.Fprintf(w.bw, "V %d %.17g %.17g %.17g %.17g\n", v.Barcode, v.X, v.Y, v.Z, v.T)
	}
	for _, p := range e.Particles {
		fmt.Fprintf(w.bw, "P %d %d %d %.17g %.17g %.17g %.17g %d %d\n",
			p.Barcode, p.PDG, p.Status,
			p.P.Px, p.P.Py, p.P.Pz, p.P.E,
			p.ProdVertex, p.EndVertex)
	}
	_, err := fmt.Fprintln(w.bw, "END")
	return err
}

// Flush writes any buffered data to the underlying stream.
func (w *Writer) Flush() error { return w.bw.Flush() }

// Reader decodes events from a stream produced by Writer.
type Reader struct {
	sc            *bufio.Scanner
	checkedHeader bool
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	return &Reader{sc: sc}
}

// Read decodes the next event, returning io.EOF at end of stream.
func (r *Reader) Read() (*Event, error) {
	if !r.checkedHeader {
		if !r.sc.Scan() {
			if err := r.sc.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		if strings.TrimSpace(r.sc.Text()) != magic {
			return nil, fmt.Errorf("%w: bad header %q", ErrBadFormat, r.sc.Text())
		}
		r.checkedHeader = true
	}
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	line := r.sc.Text()
	f := strings.Fields(line)
	if len(f) != 6 || f[0] != "E" {
		return nil, fmt.Errorf("%w: expected E record, got %q", ErrBadFormat, line)
	}
	num, err1 := strconv.Atoi(f[1])
	proc, err2 := strconv.Atoi(f[2])
	weight, err3 := strconv.ParseFloat(f[3], 64)
	nv, err4 := strconv.Atoi(f[4])
	np, err5 := strconv.Atoi(f[5])
	if err := firstErr(err1, err2, err3, err4, err5); err != nil {
		return nil, fmt.Errorf("%w: bad E record %q: %w", ErrBadFormat, line, err)
	}
	if nv < 0 || np < 0 || nv > 1<<20 || np > 1<<20 {
		return nil, fmt.Errorf("%w: unreasonable counts in %q", ErrBadFormat, line)
	}
	e := &Event{Number: num, ProcessID: proc, Weight: weight,
		Vertices: make([]Vertex, 0, min(nv, readReserve)), Particles: make([]Particle, 0, min(np, readReserve))}
	for i := 0; i < nv; i++ {
		v, err := r.readVertex()
		if err != nil {
			return nil, err
		}
		e.Vertices = append(e.Vertices, v)
	}
	for i := 0; i < np; i++ {
		p, err := r.readParticle()
		if err != nil {
			return nil, err
		}
		e.Particles = append(e.Particles, p)
	}
	if !r.sc.Scan() || strings.TrimSpace(r.sc.Text()) != "END" {
		return nil, fmt.Errorf("%w: event %d not terminated", ErrBadFormat, num)
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

func (r *Reader) readVertex() (Vertex, error) {
	if !r.sc.Scan() {
		return Vertex{}, fmt.Errorf("%w: truncated vertex block", ErrBadFormat)
	}
	f := strings.Fields(r.sc.Text())
	if len(f) != 6 || f[0] != "V" {
		return Vertex{}, fmt.Errorf("%w: expected V record, got %q", ErrBadFormat, r.sc.Text())
	}
	bc, err0 := strconv.Atoi(f[1])
	x, err1 := strconv.ParseFloat(f[2], 64)
	y, err2 := strconv.ParseFloat(f[3], 64)
	z, err3 := strconv.ParseFloat(f[4], 64)
	t, err4 := strconv.ParseFloat(f[5], 64)
	if err := firstErr(err0, err1, err2, err3, err4); err != nil {
		return Vertex{}, fmt.Errorf("%w: bad V record: %w", ErrBadFormat, err)
	}
	return Vertex{Barcode: bc, X: x, Y: y, Z: z, T: t}, nil
}

func (r *Reader) readParticle() (Particle, error) {
	if !r.sc.Scan() {
		return Particle{}, fmt.Errorf("%w: truncated particle block", ErrBadFormat)
	}
	f := strings.Fields(r.sc.Text())
	if len(f) != 10 || f[0] != "P" {
		return Particle{}, fmt.Errorf("%w: expected P record, got %q", ErrBadFormat, r.sc.Text())
	}
	bc, err0 := strconv.Atoi(f[1])
	pdg, err1 := strconv.Atoi(f[2])
	status, err2 := strconv.Atoi(f[3])
	px, err3 := strconv.ParseFloat(f[4], 64)
	py, err4 := strconv.ParseFloat(f[5], 64)
	pz, err5 := strconv.ParseFloat(f[6], 64)
	en, err6 := strconv.ParseFloat(f[7], 64)
	pv, err7 := strconv.Atoi(f[8])
	ev, err8 := strconv.Atoi(f[9])
	if err := firstErr(err0, err1, err2, err3, err4, err5, err6, err7, err8); err != nil {
		return Particle{}, fmt.Errorf("%w: bad P record: %w", ErrBadFormat, err)
	}
	return Particle{
		Barcode: bc, PDG: pdg, Status: status,
		P:          fourvec.PxPyPzE(px, py, pz, en),
		ProdVertex: pv, EndVertex: ev,
	}, nil
}

// ReadAll decodes the remaining events in the stream.
func (r *Reader) ReadAll() ([]*Event, error) {
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

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
