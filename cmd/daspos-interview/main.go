// Command daspos-interview renders the paper's assessment artifacts: the
// Table 1 outreach matrix, the Appendix A maturity-rating tables, and the
// data-interview reports for the built-in experiment profiles.
//
// Usage:
//
//	daspos-interview table1          Table 1 outreach matrix
//	daspos-interview appendix        Appendix A maturity tables
//	daspos-interview report [NAME]   full interview report(s)
//	daspos-interview compare         cross-experiment maturity matrix
package main

import (
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
	cmd := "compare"
	if len(args) > 0 {
		cmd = args[0]
	}
	switch cmd {
	case "table1":
		fmt.Fprintln(w, outreach.Table1())
	case "appendix":
		for _, a := range interview.Areas() {
			fmt.Fprintln(w, interview.MaturityTable(a))
		}
	case "report":
		profiles := interview.StandardProfiles()
		if len(args) > 1 {
			profiles = slices.DeleteFunc(profiles, func(iv *interview.Interview) bool { return iv.Name != args[1] })
			if len(profiles) == 0 {
				return fmt.Errorf("no profile %q", args[1])
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
	case "compare":
		fmt.Fprintln(w, interview.Comparison(interview.StandardProfiles()))
	default:
		return fmt.Errorf("unknown subcommand %q (want table1, appendix, report, compare)", cmd)
	}
	return nil
}
