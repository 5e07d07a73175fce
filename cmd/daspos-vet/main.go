// Command daspos-vet runs the project's preservation-invariant analyzers
// over the module: determinism (no clocks or global RNG in the pipeline
// core), durability (fsync-before-rename commit ordering), errclass (the
// transient/permanent taxonomy survives every wrap), ctxprop (exported
// service entry points are cancellable), closecheck (write-path
// Close/Flush errors are never discarded), and the concurrency-discipline
// trio — lockcheck (no blocking operations while a mutex is held on the
// hot path), leakcheck (every goroutine has a termination path), and
// atomiccheck (no mixed atomic/plain field access).
//
// Usage:
//
//	daspos-vet [-only determinism,lockcheck,...] [-json] [-budget ms] [packages]
//
// Packages default to ./.... The exit status is 1 when any finding is
// reported (or the -budget wall-time ceiling is blown), 2 on a load or
// usage error — so the tool slots into scripts/verify.sh and CI as a
// blocking stage. A deliberate exemption is annotated in the source with
// the finding's //daspos:<token> comment (e.g. //daspos:lock-ok on a
// write-ahead journal append); a stale annotation is itself a finding.
//
// With -json the output is an object: {"findings": [...], "timing":
// [{"analyzer", "millis"}, ...], "total_millis": n} — the timing block
// is what the CI budget check reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"daspos/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-vet: ")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and per-analyzer timing as a JSON object")
	list := flag.Bool("list", false, "list the analyzers and exit")
	budget := flag.Float64("budget", 0, "fail (exit 1) if total analyzer wall time exceeds this many milliseconds (0 = no ceiling)")
	flag.Parse()

	all := analysis.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := selectAnalyzers(all, *only)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fset, pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}

	findings, timing := analysis.RunTimed(fset, pkgs, selected)
	if findings == nil {
		findings = []analysis.Finding{} // a clean run is [], not null
	}
	var totalMillis float64
	for _, tm := range timing {
		totalMillis += tm.Millis
	}
	if *asJSON {
		out, err := json.MarshalIndent(struct {
			Findings    []analysis.Finding        `json:"findings"`
			Timing      []analysis.AnalyzerTiming `json:"timing"`
			TotalMillis float64                   `json:"total_millis"`
		}{findings, timing, totalMillis}, "", "  ")
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		fmt.Printf("%s\n", out)
	} else {
		for _, f := range findings {
			fmt.Printf("%s\n    invariant: %s\n", f, f.Why)
		}
	}
	fail := false
	if len(findings) > 0 {
		if !*asJSON {
			log.Printf("%d finding(s) in %d package(s)", len(findings), len(pkgs))
		}
		fail = true
	}
	if *budget > 0 && totalMillis > *budget {
		log.Printf("analyzer wall time %.0fms exceeds the %.0fms budget — profile the slow analyzer before it rots the edit loop", totalMillis, *budget)
		for _, tm := range timing {
			log.Printf("    %-12s %8.1fms", tm.Analyzer, tm.Millis)
		}
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// selectAnalyzers filters the suite by the -only flag.
func selectAnalyzers(all []*analysis.Analyzer, only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return all, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			valid := make([]string, len(all))
			for i, a := range all {
				valid[i] = a.Name
			}
			return nil, fmt.Errorf("unknown analyzer %q: valid names are %s", name, strings.Join(valid, ", "))
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-only selected no analyzers")
	}
	return out, nil
}
