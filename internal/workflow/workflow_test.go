package workflow

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"daspos/internal/provenance"
)

// passthrough returns a StepFunc copying one input to one output with a
// marker appended, and recording the given external deps.
func passthrough(in, out, tier string, deps ...string) StepFunc {
	return func(ctx *Context) error {
		a, err := ctx.Input(in)
		if err != nil {
			return err
		}
		for _, d := range deps {
			ctx.External(d)
		}
		data := append(append([]byte(nil), a.Data...), []byte("+"+out)...)
		return ctx.Output(out, tier, a.Events, data)
	}
}

func twoStep() *Workflow {
	return &Workflow{
		Name:          "chain",
		ConditionsTag: "v1",
		PrimaryInputs: []string{"raw"},
		Steps: []Step{
			{
				Name: "reco", Software: "daspos-reco", Version: "3.2.1",
				Config:  map[string]string{"minpt": "0.3", "jets": "cone0.4"},
				Inputs:  []string{"raw"},
				Outputs: []string{"reco-out"},
				Run:     passthrough("raw", "reco-out", "RECO", "calo/ecal_scale", "beam/spot", "calo/ecal_scale"),
			},
			{
				Name: "slim", Software: "daspos-skim", Version: "1.0",
				Inputs:  []string{"reco-out"},
				Outputs: []string{"aod"},
				Run:     passthrough("reco-out", "aod", "AOD"),
			},
		},
	}
}

func rawInput() map[string]*Artifact {
	return map[string]*Artifact{
		"raw": {Name: "raw", Tier: "RAW", Events: 10, Data: []byte("rawdata")},
	}
}

func TestValidateAcceptsChain(t *testing.T) {
	if err := twoStep().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDefects(t *testing.T) {
	mutate := func(f func(*Workflow)) error {
		w := twoStep()
		f(w)
		return w.Validate()
	}
	if err := mutate(func(w *Workflow) { w.Name = "" }); err == nil {
		t.Error("empty workflow name accepted")
	}
	if err := mutate(func(w *Workflow) { w.Steps[1].Name = "reco" }); err == nil {
		t.Error("duplicate step accepted")
	}
	if err := mutate(func(w *Workflow) { w.Steps[0].Name = "" }); err == nil {
		t.Error("unnamed step accepted")
	}
	if err := mutate(func(w *Workflow) { w.Steps[1].Inputs = []string{"nonexistent"} }); err == nil {
		t.Error("unsatisfied input accepted")
	}
	if err := mutate(func(w *Workflow) { w.Steps[1].Outputs = []string{"raw"} }); err == nil {
		t.Error("output shadowing primary input accepted")
	}
	if err := mutate(func(w *Workflow) { w.Steps[0].Outputs = nil }); err == nil {
		t.Error("outputless step accepted")
	}
	// Step order matters: consuming a later step's output is invalid.
	if err := mutate(func(w *Workflow) { w.Steps[0], w.Steps[1] = w.Steps[1], w.Steps[0] }); err == nil {
		t.Error("out-of-order chain accepted")
	}
}

func TestExecuteProducesArtifactsAndProvenance(t *testing.T) {
	w := twoStep()
	prov := provenance.NewStore()
	res, err := w.Execute(context.Background(), rawInput(), prov)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Artifacts["aod"].Data) != "rawdata+reco-out+aod" {
		t.Fatalf("aod content: %q", res.Artifacts["aod"].Data)
	}
	// Three records: primary input + two step outputs.
	if n := len(prov.All()); n != 3 {
		t.Fatalf("provenance records: %d", n)
	}
	lin, err := prov.Lineage(res.RecordIDs["aod"])
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 3 {
		t.Fatalf("aod lineage depth %d", len(lin))
	}
	if lin[2].Producer.Step != "primary-input" {
		t.Fatalf("chain root: %+v", lin[2].Producer)
	}
	if rep := prov.Audit(); rep.CompleteFraction() != 1 {
		t.Fatalf("incomplete provenance after run: %+v", rep)
	}
}

func TestExternalDependencyCensus(t *testing.T) {
	w := twoStep()
	prov := provenance.NewStore()
	res, err := w.Execute(context.Background(), rawInput(), prov)
	if err != nil {
		t.Fatal(err)
	}
	// The reco step resolved two distinct folders (one twice).
	if got := res.Reports[0].ExternalDeps; len(got) != 2 || got[0] != "beam/spot" || got[1] != "calo/ecal_scale" {
		t.Fatalf("reco deps: %v", got)
	}
	// The slim step resolved none — the paper's "dependencies become much
	// weaker" after reconstruction.
	if got := res.Reports[1].ExternalDeps; len(got) != 0 {
		t.Fatalf("slim deps: %v", got)
	}
	lin, err := prov.Lineage(res.RecordIDs["reco-out"])
	if err != nil {
		t.Fatal(err)
	}
	rec := lin[0]
	if len(rec.ExternalDeps) != 2 {
		t.Fatalf("provenance deps: %v", rec.ExternalDeps)
	}
	if rec.ConditionsTag != "v1" {
		t.Fatalf("conditions tag: %q", rec.ConditionsTag)
	}
}

func TestExecuteFailures(t *testing.T) {
	// Missing primary input.
	w := twoStep()
	if _, err := w.Execute(context.Background(), map[string]*Artifact{}, provenance.NewStore()); err == nil {
		t.Fatal("missing input accepted")
	}
	// Unbound implementation.
	w2 := twoStep()
	w2.Steps[1].Run = nil
	if _, err := w2.Execute(context.Background(), rawInput(), provenance.NewStore()); err == nil {
		t.Fatal("unbound step ran")
	}
	// Step fails.
	w3 := twoStep()
	w3.Steps[0].Run = func(ctx *Context) error { return fmt.Errorf("boom") }
	if _, err := w3.Execute(context.Background(), rawInput(), provenance.NewStore()); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("step failure not propagated: %v", err)
	}
	// Step forgets to produce a declared output.
	w4 := twoStep()
	w4.Steps[0].Run = func(ctx *Context) error { return nil }
	if _, err := w4.Execute(context.Background(), rawInput(), provenance.NewStore()); err == nil {
		t.Fatal("missing output accepted")
	}
}

func TestContextEnforcesDeclarations(t *testing.T) {
	w := &Workflow{
		Name:          "strict",
		PrimaryInputs: []string{"in"},
		Steps: []Step{{
			Name: "s", Outputs: []string{"out"}, Inputs: []string{"in"},
			Run: func(ctx *Context) error {
				if _, err := ctx.Input("undeclared"); err == nil {
					return fmt.Errorf("undeclared input allowed")
				}
				if err := ctx.Output("undeclared-out", "X", 0, nil); err == nil {
					return fmt.Errorf("undeclared output allowed")
				}
				if err := ctx.Output("out", "X", 0, []byte("x")); err != nil {
					return err
				}
				if err := ctx.Output("out", "X", 0, []byte("y")); err == nil {
					return fmt.Errorf("double output allowed")
				}
				return nil
			},
		}},
	}
	if _, err := w.Execute(context.Background(), map[string]*Artifact{"in": {Name: "in"}}, provenance.NewStore()); err != nil {
		t.Fatal(err)
	}
}

func TestConfigDigestStability(t *testing.T) {
	a := Step{Config: map[string]string{"x": "1", "y": "2"}}
	b := Step{Config: map[string]string{"y": "2", "x": "1"}}
	if a.ConfigDigest() != b.ConfigDigest() {
		t.Fatal("digest depends on map order")
	}
	c := Step{Config: map[string]string{"x": "1", "y": "3"}}
	if a.ConfigDigest() == c.ConfigDigest() {
		t.Fatal("digest insensitive to values")
	}
}

func TestConfigChangesProvenance(t *testing.T) {
	// Reprocessing with a different configuration must yield different
	// record IDs — that is how provenance distinguishes processings.
	run := func(minpt string) string {
		w := twoStep()
		w.Steps[0].Config["minpt"] = minpt
		prov := provenance.NewStore()
		res, err := w.Execute(context.Background(), rawInput(), prov)
		if err != nil {
			t.Fatal(err)
		}
		return res.RecordIDs["reco-out"]
	}
	if run("0.3") == run("0.5") {
		t.Fatal("config change invisible in provenance")
	}
}

func TestDescriptionRoundTrip(t *testing.T) {
	w := twoStep()
	desc, err := w.Description()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(desc), `"conditions_tag": "v1"`) {
		t.Fatalf("description incomplete:\n%s", desc)
	}
	got, err := FromDescription(desc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name || len(got.Steps) != 2 || got.Steps[0].Config["minpt"] != "0.3" {
		t.Fatalf("round trip: %+v", got)
	}
	// Implementations are not serialized; execution must fail until bound.
	if _, err := got.Execute(context.Background(), rawInput(), provenance.NewStore()); err == nil {
		t.Fatal("deserialized workflow ran without binding")
	}
	if err := got.BindImpl("reco", passthrough("raw", "reco-out", "RECO")); err != nil {
		t.Fatal(err)
	}
	if err := got.BindImpl("slim", passthrough("reco-out", "aod", "AOD")); err != nil {
		t.Fatal(err)
	}
	if err := got.BindImpl("nope", nil); err == nil {
		t.Fatal("bound to phantom step")
	}
	res, err := got.Execute(context.Background(), rawInput(), provenance.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Artifacts["aod"].Data) != "rawdata+reco-out+aod" {
		t.Fatal("re-bound workflow produced different output")
	}
}

func TestFromDescriptionRejectsInvalid(t *testing.T) {
	if _, err := FromDescription([]byte("{bad")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := FromDescription([]byte(`{"name":"x","steps":[{"name":"s","inputs":["ghost"],"outputs":["o"]}]}`)); err == nil {
		t.Fatal("invalid wiring accepted")
	}
}

func TestReproducibleExecution(t *testing.T) {
	// Same workflow + same inputs → identical artifact digests and record
	// IDs: the core preservation guarantee.
	runIDs := func() map[string]string {
		w := twoStep()
		prov := provenance.NewStore()
		res, err := w.Execute(context.Background(), rawInput(), prov)
		if err != nil {
			t.Fatal(err)
		}
		return res.RecordIDs
	}
	a, b := runIDs(), runIDs()
	if len(a) != len(b) {
		t.Fatal("different record sets")
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("record ID for %q differs between identical runs", k)
		}
	}
}

func TestArtifactDigest(t *testing.T) {
	a := &Artifact{Data: []byte("hello")}
	b := &Artifact{Data: []byte("hello")}
	if a.Digest() != b.Digest() {
		t.Fatal("digest not content-determined")
	}
	var buf bytes.Buffer
	buf.WriteString("x")
	c := &Artifact{Data: buf.Bytes()}
	if c.Digest() == a.Digest() {
		t.Fatal("different content, same digest")
	}
}

func TestValidateDuplicateStepNamesError(t *testing.T) {
	w := twoStep()
	w.Steps[1].Name = "reco"
	w.Steps[1].Outputs = []string{"other"}
	err := w.Validate()
	if err == nil {
		t.Fatal("duplicate step names accepted")
	}
	if !strings.Contains(err.Error(), `"reco"`) {
		t.Fatalf("error does not name the duplicated step: %v", err)
	}
}

func TestValidateOutputDeclaredTwiceNamesBothSteps(t *testing.T) {
	// Two different steps declaring the same output: the error must name
	// both the offending step and the original producer, not just the
	// artifact.
	w := twoStep()
	w.Steps[1].Outputs = []string{"reco-out"}
	w.Steps[1].Inputs = []string{"raw"}
	err := w.Validate()
	if err == nil {
		t.Fatal("twice-declared output accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"slim"`) || !strings.Contains(msg, `"reco"`) {
		t.Fatalf("error does not name both producing steps: %v", err)
	}
	// Shadowing a primary input points at the primary input instead.
	w2 := twoStep()
	w2.Steps[1].Outputs = []string{"raw"}
	err = w2.Validate()
	if err == nil {
		t.Fatal("primary-input shadowing accepted")
	}
	if !strings.Contains(err.Error(), "primary input") {
		t.Fatalf("error does not identify the primary input: %v", err)
	}
}

func TestValidateRejectsThreeStepCycle(t *testing.T) {
	// a → b → c → a. No step order makes this chain well-founded, so
	// whichever comes first consumes an artifact nothing earlier produced.
	w := &Workflow{
		Name: "cyclic",
		Steps: []Step{
			{Name: "a", Inputs: []string{"c-out"}, Outputs: []string{"a-out"}},
			{Name: "b", Inputs: []string{"a-out"}, Outputs: []string{"b-out"}},
			{Name: "c", Inputs: []string{"b-out"}, Outputs: []string{"c-out"}},
		},
	}
	err := w.Validate()
	if err == nil {
		t.Fatal("cyclic workflow accepted")
	}
	if !strings.Contains(err.Error(), `"c-out"`) {
		t.Fatalf("error does not name the unsatisfiable input: %v", err)
	}
	// Every rotation of the cycle is equally invalid.
	for rot := 1; rot < 3; rot++ {
		w.Steps = append(w.Steps[1:], w.Steps[0])
		if err := w.Validate(); err == nil {
			t.Fatalf("rotation %d of the cycle accepted", rot)
		}
	}
}

func TestStreamOutputHashesOnTheFly(t *testing.T) {
	w := &Workflow{
		Name:          "stream",
		PrimaryInputs: []string{"in"},
		Steps: []Step{{
			Name: "s", Inputs: []string{"in"}, Outputs: []string{"out"},
			Run: func(ctx *Context) error {
				r, err := ctx.InputReader("in")
				if err != nil {
					return err
				}
				aw, err := ctx.StreamOutput("out", "RECO")
				if err != nil {
					return err
				}
				// Stream in small chunks, as a pipeline sink would.
				if _, err := io.CopyBuffer(aw, r, make([]byte, 3)); err != nil {
					return err
				}
				if _, err := io.WriteString(aw, "-streamed"); err != nil {
					return err
				}
				return aw.Commit(10)
			},
		}},
	}
	prov := provenance.NewStore()
	res, err := w.Execute(context.Background(), map[string]*Artifact{"in": {Name: "in", Data: []byte("payload")}}, prov)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifacts["out"]
	if string(a.Data) != "payload-streamed" {
		t.Fatalf("streamed content: %q", a.Data)
	}
	if a.Events != 10 {
		t.Fatalf("events: %d", a.Events)
	}
	// The digest accumulated during writing must equal the one a plain
	// artifact computes over the same bytes.
	want := (&Artifact{Data: []byte("payload-streamed")}).Digest()
	if a.Digest() != want {
		t.Fatalf("on-the-fly digest %s != recomputed %s", a.Digest(), want)
	}
}

func TestStreamOutputMisuse(t *testing.T) {
	w := &Workflow{
		Name:          "misuse",
		PrimaryInputs: []string{"in"},
		Steps: []Step{{
			Name: "s", Inputs: []string{"in"}, Outputs: []string{"out"},
			Run: func(ctx *Context) error {
				if _, err := ctx.StreamOutput("undeclared", "X"); err == nil {
					return fmt.Errorf("undeclared stream output allowed")
				}
				if _, err := ctx.InputReader("undeclared"); err == nil {
					return fmt.Errorf("undeclared input reader allowed")
				}
				aw, err := ctx.StreamOutput("out", "RECO")
				if err != nil {
					return err
				}
				if _, err := io.WriteString(aw, "x"); err != nil {
					return err
				}
				if err := aw.Commit(1); err != nil {
					return err
				}
				if _, err := aw.Write([]byte("late")); err == nil {
					return fmt.Errorf("write after Commit allowed")
				}
				if err := aw.Commit(1); err == nil {
					return fmt.Errorf("double Commit allowed")
				}
				// Opening the output again after it was committed fails too.
				if _, err := ctx.StreamOutput("out", "RECO"); err == nil {
					return fmt.Errorf("re-opening committed output allowed")
				}
				return nil
			},
		}},
	}
	if _, err := w.Execute(context.Background(), map[string]*Artifact{"in": {Name: "in"}}, provenance.NewStore()); err != nil {
		t.Fatal(err)
	}
}

// TestArtifactWriterSealedStateImmutable pins down that a sealed writer
// is inert: the rejected late Write and double Commit must not leak into
// the published artifact's bytes, digest, or event count.
func TestArtifactWriterSealedStateImmutable(t *testing.T) {
	w := &Workflow{
		Name:          "sealed",
		PrimaryInputs: []string{"in"},
		Steps: []Step{{
			Name: "s", Inputs: []string{"in"}, Outputs: []string{"out"},
			Run: func(ctx *Context) error {
				aw, err := ctx.StreamOutput("out", "AOD")
				if err != nil {
					return err
				}
				if _, err := io.WriteString(aw, "committed bytes"); err != nil {
					return err
				}
				if err := aw.Commit(7); err != nil {
					return err
				}
				if n, err := aw.Write([]byte("tail that must not land")); err == nil || n != 0 {
					return fmt.Errorf("write after Commit: n=%d err=%v", n, err)
				}
				if err := aw.Commit(99); err == nil {
					return fmt.Errorf("double Commit accepted")
				}
				return nil
			},
		}},
	}
	res, err := w.Execute(context.Background(), map[string]*Artifact{"in": {Name: "in"}}, provenance.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifacts["out"]
	if string(a.Data) != "committed bytes" {
		t.Fatalf("sealed artifact mutated: %q", a.Data)
	}
	if a.Events != 7 {
		t.Fatalf("events overwritten by rejected Commit: %d", a.Events)
	}
	if want := (&Artifact{Data: []byte("committed bytes")}).Digest(); a.Digest() != want {
		t.Fatalf("digest drifted: %s != %s", a.Digest(), want)
	}
}

func BenchmarkExecuteTwoStep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := twoStep()
		if _, err := w.Execute(context.Background(), rawInput(), provenance.NewStore()); err != nil {
			b.Fatal(err)
		}
	}
}
