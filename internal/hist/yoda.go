package hist

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The YODA-like text format: each histogram is a block
//
//	BEGIN DASPOS_H1D /name
//	Title=...
//	NBins=50 Lo=0 Hi=200
//	Under=0 Over=3 Entries=1204
//	# sumw sumw2
//	1.0 1.0
//	...
//	END DASPOS_H1D
//
// Values use %.17g so round-trips are bit-exact: an archived reference
// histogram re-read decades later must compare equal to the original.

const (
	h1dBegin = "BEGIN DASPOS_H1D"
	h1dEnd   = "END DASPOS_H1D"
)

// WriteH1D serializes one histogram to w in the archival text format.
func WriteH1D(w io.Writer, h *H1D) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s /%s\n", h1dBegin, h.Name)
	fmt.Fprintf(bw, "Title=%s\n", escapeLine(h.Title))
	fmt.Fprintf(bw, "NBins=%d Lo=%.17g Hi=%.17g\n", h.NBins, h.Lo, h.Hi)
	fmt.Fprintf(bw, "Under=%.17g Over=%.17g Entries=%d\n", h.Under, h.Over, h.Entries)
	fmt.Fprintf(bw, "Moments=%.17g %.17g %.17g\n", h.sumWX, h.sumWX2, h.sumWAll)
	fmt.Fprintln(bw, "# sumw sumw2")
	for i := range h.SumW {
		fmt.Fprintf(bw, "%.17g %.17g\n", h.SumW[i], h.SumW2[i])
	}
	fmt.Fprintln(bw, h1dEnd)
	return bw.Flush()
}

// WriteAll serializes several histograms back to back.
func WriteAll(w io.Writer, hs ...*H1D) error {
	for _, h := range hs {
		if err := WriteH1D(w, h); err != nil {
			return err
		}
	}
	return nil
}

func escapeLine(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

func unescapeLine(s string) string {
	s = strings.ReplaceAll(s, "\\n", "\n")
	return strings.ReplaceAll(s, "\\\\", "\\")
}

// ReadAll parses every histogram block in r. Unknown lines between blocks
// are ignored so the format can carry comments and future block types.
func ReadAll(r io.Reader) ([]*H1D, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	var out []*H1D
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, h1dBegin) {
			continue
		}
		h, err := readBlock(sc, line)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func readBlock(sc *bufio.Scanner, header string) (*H1D, error) {
	name := strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(header, h1dBegin)), "/")
	h := &H1D{Name: name}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == h1dEnd:
			if h.NBins == 0 {
				return nil, fmt.Errorf("hist: block %q has invalid binning", name)
			}
			if bin := len(h.SumW); bin != h.NBins {
				return nil, fmt.Errorf("hist: block %q has %d rows, header says %d", name, bin, h.NBins)
			}
			return h, nil
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "Title="):
			h.Title = unescapeLine(strings.TrimPrefix(line, "Title="))
		case strings.HasPrefix(line, "NBins="):
			if _, err := fmt.Sscanf(line, "NBins=%d Lo=%g Hi=%g", &h.NBins, &h.Lo, &h.Hi); err != nil {
				return nil, fmt.Errorf("hist: bad binning line %q: %w", line, err)
			}
			if h.NBins <= 0 || h.Hi <= h.Lo {
				return nil, fmt.Errorf("hist: block %q has invalid binning", name)
			}
		case strings.HasPrefix(line, "Under="):
			if _, err := fmt.Sscanf(line, "Under=%g Over=%g Entries=%d", &h.Under, &h.Over, &h.Entries); err != nil {
				return nil, fmt.Errorf("hist: bad totals line %q: %w", line, err)
			}
		case strings.HasPrefix(line, "Moments="):
			if _, err := fmt.Sscanf(line, "Moments=%g %g %g", &h.sumWX, &h.sumWX2, &h.sumWAll); err != nil {
				return nil, fmt.Errorf("hist: bad moments line %q: %w", line, err)
			}
		default:
			// Rows are appended as read: NBins is only a claim.
			if h.NBins == 0 {
				return nil, fmt.Errorf("hist: data row before binning header in block %q", name)
			}
			if len(h.SumW) >= h.NBins {
				return nil, fmt.Errorf("hist: too many data rows in block %q", name)
			}
			fields := strings.Fields(line)
			if len(fields) != 2 {
				return nil, fmt.Errorf("hist: bad data row %q in block %q", line, name)
			}
			w, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return nil, fmt.Errorf("hist: bad sumw in block %q: %w", name, err)
			}
			w2, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("hist: bad sumw2 in block %q: %w", name, err)
			}
			h.SumW = append(h.SumW, w)
			h.SumW2 = append(h.SumW2, w2)
		}
	}
	return nil, fmt.Errorf("hist: unterminated block %q", name)
}
