package datamodel

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"testing"

	"daspos/internal/fourvec"
	"daspos/internal/xrand"
)

// fakeRecoEvent builds a RECO-tier event with deterministic content.
func fakeRecoEvent(rng *xrand.Rand, number uint64) *Event {
	e := &Event{Run: 100, Number: number, Tier: TierRECO, ProcessID: 3}
	nTracks := 20 + rng.Intn(30)
	for i := 0; i < nTracks; i++ {
		e.Tracks = append(e.Tracks, Track{
			P:      fourvec.PtEtaPhiM(rng.Range(0.5, 40), rng.Range(-2.5, 2.5), rng.Range(-3, 3), 0.14),
			Charge: float64(1 - 2*rng.Intn(2)),
			D0:     rng.Gauss(0, 0.05),
			Z0:     rng.Gauss(0, 30),
			NHits:  5 + rng.Intn(5),
			Chi2:   rng.Exp(1.2),
		})
	}
	for i := 0; i < 3+rng.Intn(4); i++ {
		e.Vertices = append(e.Vertices, VertexFit{Z: rng.Gauss(0, 40), NTracks: 2 + rng.Intn(20), Chi2: rng.Exp(1)})
	}
	for i := 0; i < 15+rng.Intn(20); i++ {
		e.Clusters = append(e.Clusters, Cluster{E: rng.Exp(10), Eta: rng.Range(-3, 3), Phi: rng.Range(-3, 3), EM: rng.Bool(0.6), NCells: 1 + rng.Intn(9)})
	}
	e.Candidates = append(e.Candidates,
		Candidate{Type: ObjMuon, P: fourvec.PtEtaPhiM(35, 0.4, 1.0, 0.105), Charge: -1, Quality: 0.95, Isolation: 1.1},
		Candidate{Type: ObjMuon, P: fourvec.PtEtaPhiM(28, -0.8, -2.0, 0.105), Charge: 1, Quality: 0.9, Isolation: 2.0},
		Candidate{Type: ObjJet, P: fourvec.PtEtaPhiM(60, 1.2, 0.3, 8), Quality: 0.8},
	)
	e.Missing = MET{Pt: 12, Phi: 0.7, SumEt: 250}
	e.Aux = map[string]float64{"ht": 300}
	return e
}

func TestTierAndLevelStrings(t *testing.T) {
	if TierRAW.String() != "RAW" || TierDerived.String() != "DERIVED" {
		t.Fatal("tier names")
	}
	if Tier(99).String() != "tier(99)" {
		t.Fatal("unknown tier name")
	}
	if DPHEPLevel2.String() != "L2:simplified" {
		t.Fatal("level names")
	}
}

func TestObjectTypeStrings(t *testing.T) {
	for ot := ObjElectron; ot <= ObjTrackCandidate; ot++ {
		if ot.String() == "" {
			t.Fatalf("empty name for %d", int(ot))
		}
	}
	if ObjectType(42).String() != "object(42)" {
		t.Fatal("unknown object name")
	}
}

func TestCandidateQueries(t *testing.T) {
	e := fakeRecoEvent(xrand.New(1), 1)
	mus := e.CandidatesOf(ObjMuon)
	if len(mus) != 2 {
		t.Fatalf("muons: %d", len(mus))
	}
	lead, ok := e.LeadingCandidate(ObjMuon)
	if !ok || lead.P.Pt() < 30 {
		t.Fatalf("leading muon: %+v ok=%v", lead, ok)
	}
	if _, ok := e.LeadingCandidate(ObjElectron); ok {
		t.Fatal("phantom electron")
	}
}

func TestPrimaryVertex(t *testing.T) {
	e := &Event{Vertices: []VertexFit{{NTracks: 3}, {NTracks: 17}, {NTracks: 5}}}
	pv, ok := e.PrimaryVertex()
	if !ok || pv.NTracks != 17 {
		t.Fatalf("pv: %+v", pv)
	}
	if _, ok := (&Event{}).PrimaryVertex(); ok {
		t.Fatal("vertexless event has a PV")
	}
}

func TestSlimToAOD(t *testing.T) {
	reco := fakeRecoEvent(xrand.New(2), 7)
	aod := reco.SlimToAOD()
	if aod.Tier != TierAOD {
		t.Fatalf("tier %v", aod.Tier)
	}
	if len(aod.Tracks) != 0 || len(aod.Clusters) != 0 || len(aod.Vertices) != 0 {
		t.Fatal("RECO detail leaked into AOD")
	}
	if len(aod.Candidates) != len(reco.Candidates) {
		t.Fatal("candidates lost in slimming")
	}
	// Immutability: the source event is untouched, and the copies do not
	// alias.
	if reco.Tier != TierRECO || len(reco.Tracks) == 0 {
		t.Fatal("slimming mutated the source")
	}
	aod.Candidates[0].Quality = -1
	aod.Aux["ht"] = -1
	if reco.Candidates[0].Quality == -1 || reco.Aux["ht"] == -1 {
		t.Fatal("AOD aliases RECO storage")
	}
}

// TestSlimViewAODEncodesLikeSlimToAOD pins the zero-copy slim stage: the
// borrowed view must serialize to exactly the bytes of the deep copy.
func TestSlimViewAODEncodesLikeSlimToAOD(t *testing.T) {
	rng := xrand.New(5050)
	for i := 0; i < 30; i++ {
		e := randomEvent(rng, uint64(i))
		e.Tier = TierRECO
		view := e.SlimViewAOD()
		deep := e.SlimToAOD()
		vb := appendEventV3(nil, &view)
		db := appendEventV3(nil, deep)
		if !bytes.Equal(vb, db) {
			t.Fatalf("event %d: view bytes differ from deep-copy bytes", i)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	e := fakeRecoEvent(xrand.New(3), 1)
	c := e.Clone()
	c.Tracks[0].NHits = 99
	c.Aux["ht"] = -5
	if e.Tracks[0].NHits == 99 || e.Aux["ht"] == -5 {
		t.Fatal("clone shares storage")
	}
}

func TestFileRoundTrip(t *testing.T) {
	rng := xrand.New(4)
	var events []*Event
	for i := 0; i < 10; i++ {
		events = append(events, fakeRecoEvent(rng, uint64(i)))
	}
	var buf bytes.Buffer
	n, err := WriteEvents(&buf, TierRECO, events)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported size %d != buffer %d", n, buf.Len())
	}
	tier, got, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tier != TierRECO {
		t.Fatalf("tier %v", tier)
	}
	if len(got) != len(events) {
		t.Fatalf("count %d", len(got))
	}
	for i := range got {
		if got[i].Number != events[i].Number || len(got[i].Tracks) != len(events[i].Tracks) {
			t.Fatalf("event %d mismatch", i)
		}
		if got[i].Aux["ht"] != events[i].Aux["ht"] {
			t.Fatalf("event %d aux lost", i)
		}
	}
}

func TestFileWriterRejectsTierMismatch(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, TierAOD)
	if err != nil {
		t.Fatal(err)
	}
	e := fakeRecoEvent(xrand.New(5), 1) // RECO tier
	if err := fw.Write(e); err == nil {
		t.Fatal("tier mismatch accepted")
	}
	if fw.Count() != 0 {
		t.Fatal("failed write counted")
	}
}

func TestFileReaderRejectsGarbage(t *testing.T) {
	if _, err := NewFileReader(bytes.NewReader([]byte("not an event file"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestReadEOF(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, TierAOD)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("empty file read: %v", err)
	}
	// EOF is sticky.
	if _, err := fr.Read(); err != io.EOF {
		t.Fatalf("second read past EOF: %v", err)
	}
}

func TestHeaderOnlyStreamIsTruncated(t *testing.T) {
	// A stream that ends after the header, without the end trailer, is a
	// truncated file — not an empty one.
	var buf bytes.Buffer
	if _, err := NewFileWriter(&buf, TierAOD); err != nil {
		t.Fatal(err)
	}
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Read(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("headerless tail read: %v", err)
	}
}

func TestTruncatedFileSurfacesUnexpectedEOF(t *testing.T) {
	// The regression this guards: a stream cut exactly at a frame
	// boundary used to read back as a clean EOF, so ReadAll returned a
	// silently shortened sample. Cutting the file at every byte offset
	// past the header must now yield io.ErrUnexpectedEOF (or, for cuts
	// inside the header itself, a header error) — never a clean read.
	rng := xrand.New(11)
	var events []*Event
	for i := 0; i < 5; i++ {
		events = append(events, fakeRecoEvent(rng, uint64(i)))
	}
	var buf bytes.Buffer
	if _, err := WriteEvents(&buf, TierRECO, events); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every proper prefix must fail. Step through offsets coarsely (the
	// file is tens of kB) but always include boundaries near the end,
	// where the trailer lives.
	var cuts []int
	for cut := 1; cut < len(full); cut += 997 {
		cuts = append(cuts, cut)
	}
	for cut := len(full) - 10; cut < len(full); cut++ {
		if cut > 0 {
			cuts = append(cuts, cut)
		}
	}
	for _, cut := range cuts {
		fr, err := NewFileReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue // cut inside the header: rejected at open, also fine
		}
		_, err = fr.ReadAll()
		if err == nil {
			t.Fatalf("cut at %d of %d read back cleanly", cut, len(full))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			// Mid-frame cuts may surface as decode corruption
			// instead; both are loud failures. But a bare io.EOF
			// masquerading as success must never happen (ReadAll maps
			// that to ErrUnexpectedEOF), and neither may a nil error.
			continue
		}
	}
	// The intact file still reads fine.
	fr, err := NewFileReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fr.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("intact file: %d events", len(got))
	}
}

func TestTrailerCountMismatchRejected(t *testing.T) {
	// A file with one event whose trailer claims none: the count disagrees
	// with the events read, which must be rejected.
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, TierRECO)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(fakeRecoEvent(xrand.New(12), 1)); err != nil {
		t.Fatal(err)
	}
	// Deliberately no Close: append a trailer of zero events instead.
	buf.Write([]byte{recEndV3, 0})
	fr, err := NewFileReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fr.ReadAll()
	if err == nil || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("count mismatch: %v", err)
	}
}

func TestWriteAfterCloseRejected(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, TierRECO)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(fakeRecoEvent(xrand.New(13), 1)); err == nil {
		t.Fatal("write after Close accepted")
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close not idempotent: %v", err)
	}
}

func TestTierSizeOrdering(t *testing.T) {
	// The W1 premise at the EDM level: RECO encodes larger than its AOD
	// slim for the same events.
	rng := xrand.New(6)
	var reco, aod []*Event
	for i := 0; i < 20; i++ {
		r := fakeRecoEvent(rng, uint64(i))
		reco = append(reco, r)
		aod = append(aod, r.SlimToAOD())
	}
	nReco, err := EncodedSize(TierRECO, reco)
	if err != nil {
		t.Fatal(err)
	}
	nAOD, err := EncodedSize(TierAOD, aod)
	if err != nil {
		t.Fatal(err)
	}
	if nReco < 2*nAOD {
		t.Fatalf("RECO (%d) not ≫ AOD (%d)", nReco, nAOD)
	}
}

func TestJSONEventRoundTrip(t *testing.T) {
	e := fakeRecoEvent(xrand.New(7), 3).SlimToAOD()
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Event
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Number != e.Number || len(got.Candidates) != len(e.Candidates) {
		t.Fatal("JSON round trip lost content")
	}
}

func BenchmarkWriteRECO(b *testing.B) {
	rng := xrand.New(1)
	events := []*Event{fakeRecoEvent(rng, 1)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := WriteEvents(&buf, TierRECO, events); err != nil {
			b.Fatal(err)
		}
	}
}

// Codec is what workflow steps record as the generation of the bytes they
// wrote, so it must be what a FileWriter actually opens a file with: a new
// writer generation that left it behind would leave checkpoint keys unchanged.
func TestFileWriterOpensWithCodec(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewFileWriter(&buf, TierAOD); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte(Codec)) {
		t.Fatalf("file opens with %q, Codec is %q", buf.Bytes(), Codec)
	}
}

func TestFileWriterCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	fw, err := NewFileWriter(&buf, TierRECO)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Write(fakeRecoEvent(xrand.New(7), 1)); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	sealed := buf.Len()
	// A second (and third) Close is a no-op: no error, and crucially no
	// second end trailer appended to the stream.
	if err := fw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("third Close: %v", err)
	}
	if buf.Len() != sealed {
		t.Fatalf("repeated Close grew the stream: %d -> %d bytes", sealed, buf.Len())
	}
	if err := fw.Write(fakeRecoEvent(xrand.New(7), 2)); err == nil {
		t.Fatal("write after Close accepted")
	}
	if _, _, err := ReadEvents(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("sealed stream unreadable: %v", err)
	}
}

func TestTruncationInsideTrailerSurfacesUnexpectedEOF(t *testing.T) {
	// A cut that lands inside the end trailer itself — after every event
	// decoded cleanly — must still read as truncation, not as a short but
	// plausible file.
	rng := xrand.New(13)
	var events []*Event
	for i := 0; i < 3; i++ {
		events = append(events, fakeRecoEvent(rng, uint64(i)))
	}
	var headless bytes.Buffer
	fw, err := NewFileWriter(&headless, TierRECO)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if err := fw.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	body := headless.Len() // stream size up to, not including, the trailer
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	full := headless.Bytes()
	if len(full) <= body {
		t.Fatal("trailer added no bytes — test is vacuous")
	}
	for cut := body; cut < len(full); cut++ {
		fr, err := NewFileReader(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		got, err := fr.ReadAll()
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d bytes into trailer read as %v (events=%d)", cut-body, err, len(got))
		}
	}
}
