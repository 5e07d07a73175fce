// Command daspos-interview renders the paper's assessment artifacts: the
// Table 1 outreach matrix, the Appendix A maturity-rating tables, and the
// data-interview reports of the experiments' answers to the Appendix A
// template.
//
// Usage:
//
//	daspos-interview table1                          Table 1 outreach matrix
//	daspos-interview appendix                        Appendix A maturity tables
//	daspos-interview report [-answers FILE]... [NAME] full interview report(s)
//	daspos-interview compare [-answers FILE]...      cross-experiment maturity matrix
//
// An answer file is one filled-in template as JSON, with the members of
// interview.Interview and nothing else; -answers repeats, one file per
// experiment. Without it, report and compare use the four built-in
// profiles. report NAME prints only the interview of that respondent.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"

	"daspos/internal/interview"
	"daspos/internal/outreach"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("daspos-interview: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run renders the subcommand args names (compare when there is none) to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		args = []string{"compare"}
	}
	switch cmd := args[0]; cmd {
	case "table1":
		fmt.Fprintln(w, outreach.Table1())
	case "appendix":
		for _, a := range interview.Areas() {
			fmt.Fprintln(w, interview.MaturityTable(a))
		}
	case "report", "compare":
		fs := flag.NewFlagSet(cmd, flag.ExitOnError)
		var files []string
		fs.Func("answers", "an interview answer `FILE` (JSON); repeat for several", func(name string) error {
			files = append(files, name)
			return nil
		})
		fs.Parse(args[1:])
		// Parsing stops at report's NAME, so an -answers after it would go
		// unread: refuse it, and any other argument, rather than drop it.
		rest := fs.Args()
		if cmd == "report" && len(rest) > 0 {
			rest = rest[1:]
		}
		if len(rest) > 0 {
			return fmt.Errorf("%s: unexpected arguments %q", cmd, rest)
		}
		profiles, err := loadAnswers(files)
		if err != nil {
			return err
		}
		if cmd == "compare" {
			fmt.Fprintln(w, interview.Comparison(profiles))
			return nil
		}
		if name := fs.Arg(0); name != "" {
			profiles = slices.DeleteFunc(profiles, func(iv *interview.Interview) bool { return iv.Name != name })
			if len(profiles) == 0 {
				return fmt.Errorf("no profile %q", name)
			}
		}
		for _, iv := range profiles {
			fmt.Fprintf(w, "=== %s (%s) ===\n", iv.Name, iv.Dept)
			fmt.Fprintf(w, "Data: %s\n", iv.DataDescription)
			fmt.Fprintf(w, "Total volume: %s; external deps: %v\n\n",
				interview.FormatBytes(iv.TotalBytes()), iv.ExternalDependencies())
			fmt.Fprintln(w, iv.LifecycleTable())
			fmt.Fprintln(w, iv.RatingsTable())
			fmt.Fprintln(w, iv.SharingGridTable())
		}
	default:
		return fmt.Errorf("unknown subcommand %q (want table1, appendix, report, compare)", cmd)
	}
	return nil
}

// loadAnswers decodes each answer file in order, or returns the built-in
// profiles when there is none.
func loadAnswers(files []string) ([]*interview.Interview, error) {
	if len(files) == 0 {
		return interview.StandardProfiles(), nil
	}
	out := make([]*interview.Interview, 0, len(files))
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		iv, err := interview.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, iv)
	}
	return out, nil
}
