package queryserve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"daspos/internal/hepdata"
)

// Streamed export: every format writes row by row through a small buffered
// writer, so exporting a record holds one encoded point in memory at a
// time, never the whole encoding. Row order is pinned — tables in record
// order, points in table order — because export bytes feed ETags and
// conditional GETs; a nondeterministic row order would make every
// revalidation a miss.

// Format is an export encoding.
type Format string

// The supported export formats.
const (
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
	FormatYAML Format = "yaml"
)

// ParseFormat reads a format query value; empty defaults to JSON.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "", FormatJSON:
		return FormatJSON, nil
	case FormatCSV:
		return FormatCSV, nil
	case FormatYAML:
		return FormatYAML, nil
	}
	return FormatJSON, fmt.Errorf("queryserve: unknown format %q (want json|csv|yaml)", s)
}

// ContentType returns the response MIME type for the format.
func (f Format) ContentType() string {
	switch f {
	case FormatCSV:
		return "text/csv; charset=utf-8"
	case FormatYAML:
		return "text/plain; charset=utf-8"
	default:
		return "application/json"
	}
}

// exportWriter wraps the response in a buffer sized for row-at-a-time
// writes. Close flushes and reports the buffered-write error — the
// closecheck contract: a dropped Flush error is a silently truncated
// export.
type exportWriter struct {
	*bufio.Writer
}

func newExportWriter(w io.Writer) exportWriter {
	return exportWriter{bufio.NewWriterSize(w, 16<<10)}
}

func (e exportWriter) Close() error { return e.Flush() }

// StreamRecord writes one record in the given format.
func StreamRecord(w io.Writer, r *hepdata.Record, f Format) error {
	ew := newExportWriter(w)
	if err := writeRecord(ew, r, f); err != nil {
		return err
	}
	return ew.Close()
}

// writeRecord writes one record body in the format. For JSON the record
// streams table by table and point by point.
func writeRecord(ew exportWriter, r *hepdata.Record, f Format) error {
	switch f {
	case FormatCSV:
		for i := range r.Tables {
			if i > 0 {
				if err := ew.WriteByte('\n'); err != nil {
					return err
				}
			}
			if err := writeTableCSV(ew, r.ID(), &r.Tables[i]); err != nil {
				return err
			}
		}
		return nil
	case FormatYAML:
		if _, err := fmt.Fprintf(ew, "- record: %s\n  inspire_url: %s\n  title: %s\n  collaboration: %s\n  year: %d\n  tables:\n",
			r.ID(), r.InspireURL(), yamlString(r.Title), yamlString(r.Collaboration), r.Year); err != nil {
			return err
		}
		for i := range r.Tables {
			if err := writeTableYAML(ew, &r.Tables[i], "    "); err != nil {
				return err
			}
		}
		return nil
	default:
		return writeRecordJSON(ew, r)
	}
}

// writeRecordJSON streams the record as JSON without marshalling the whole
// record at once: headers first, then each table, then each point, and a
// closing newline.
func writeRecordJSON(ew exportWriter, r *hepdata.Record) error {
	head := struct {
		InspireID     string `json:"inspire_id"`
		InspireURL    string `json:"inspire_url"`
		Title         string `json:"title"`
		Collaboration string `json:"collaboration"`
		Year          int    `json:"year"`
		Abstract      string `json:"abstract,omitempty"`
	}{r.InspireID, r.InspireURL(), r.Title, r.Collaboration, r.Year, r.Abstract}
	hb, err := json.Marshal(head)
	if err != nil {
		return err
	}
	// Open the object with the header fields, then splice in the tables.
	if _, err := ew.Write(hb[:len(hb)-1]); err != nil {
		return err
	}
	if _, err := ew.WriteString(`,"tables":[`); err != nil {
		return err
	}
	for i := range r.Tables {
		sep := ""
		if i > 0 {
			sep = ","
		}
		if _, err := ew.WriteString(sep); err != nil {
			return err
		}
		if err := writeTableJSON(ew, &r.Tables[i]); err != nil {
			return err
		}
	}
	if _, err := ew.WriteString("]}"); err != nil {
		return err
	}
	return ew.WriteByte('\n')
}

// writeTableJSON streams one table: header object, then points one line at
// a time.
func writeTableJSON(ew exportWriter, t *hepdata.Table) error {
	head := struct {
		Name        string   `json:"name"`
		Description string   `json:"description,omitempty"`
		XHeader     string   `json:"x_header"`
		YHeader     string   `json:"y_header"`
		Reactions   []string `json:"reactions,omitempty"`
		Observables []string `json:"observables,omitempty"`
	}{t.Name, t.Description, t.XHeader, t.YHeader, t.Reactions, t.Observables}
	hb, err := json.Marshal(head)
	if err != nil {
		return err
	}
	if _, err := ew.Write(hb[:len(hb)-1]); err != nil {
		return err
	}
	if _, err := ew.WriteString(`,"points":[`); err != nil {
		return err
	}
	for i := range t.Points {
		if i > 0 {
			if err := ew.WriteByte(','); err != nil {
				return err
			}
		}
		pb, err := json.Marshal(&t.Points[i])
		if err != nil {
			return err
		}
		if _, err := ew.Write(pb); err != nil {
			return err
		}
	}
	_, err = ew.WriteString("]}")
	return err
}

// writeTableCSV streams one table as commented CSV, one row per point,
// with the quadrature total error column the HepData CSV convention uses.
func writeTableCSV(ew exportWriter, recordID string, t *hepdata.Table) error {
	if _, err := fmt.Fprintf(ew, "# record %s table %s\n# x: %s  y: %s\nxlo,x,xhi,y,err_total\n",
		recordID, t.Name, t.XHeader, t.YHeader); err != nil {
		return err
	}
	for i := range t.Points {
		p := &t.Points[i]
		if _, err := fmt.Fprintf(ew, "%g,%g,%g,%g,%g\n", p.XLo, p.X, p.XHi, p.Y, p.TotalError()); err != nil {
			return err
		}
	}
	return nil
}

// writeTableYAML streams one table as the YAML-like text form, indented
// for nesting under a record entry.
func writeTableYAML(ew exportWriter, t *hepdata.Table, indent string) error {
	if _, err := fmt.Fprintf(ew, "%s- table: %s\n%s  x_header: %s\n%s  y_header: %s\n",
		indent, yamlString(t.Name), indent, yamlString(t.XHeader), indent, yamlString(t.YHeader)); err != nil {
		return err
	}
	for _, list := range []struct {
		key    string
		values []string
	}{{"reactions", t.Reactions}, {"observables", t.Observables}} {
		if len(list.values) == 0 {
			continue
		}
		if _, err := fmt.Fprintf(ew, "%s  %s:\n", indent, list.key); err != nil {
			return err
		}
		for _, v := range list.values {
			if _, err := fmt.Fprintf(ew, "%s    - %s\n", indent, yamlString(v)); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(ew, "%s  points:\n", indent); err != nil {
		return err
	}
	for i := range t.Points {
		p := &t.Points[i]
		if _, err := fmt.Fprintf(ew, "%s    - {xlo: %s, x: %s, xhi: %s, y: %s, err: %s}\n",
			indent, yfloat(p.XLo), yfloat(p.X), yfloat(p.XHi), yfloat(p.Y), yfloat(p.TotalError())); err != nil {
			return err
		}
	}
	return nil
}

func yfloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// yamlString keeps the text form parseable: values containing
// YAML-hostile characters or edge whitespace get JSON quoting, which a
// YAML reader accepts unchanged.
func yamlString(s string) string {
	if s == "" {
		return `""`
	}
	if strings.ContainsAny(s, ":#{}[]\"\n") || s[0] == ' ' || s[len(s)-1] == ' ' {
		b, _ := json.Marshal(s)
		return string(b)
	}
	return s
}
