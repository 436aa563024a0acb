package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a rendered experiment artifact: a title, a header row, data
// rows, descriptive notes and the claims the experiment checks. A claim
// is the paper's qualitative result decided from the table's own
// unformatted numbers, so the renderer, the tests and the multi-seed
// Ledger all read one verdict; a note only describes and asserts nothing.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	Claims []Claim
}

// Claim is one computed verdict. Text states the inequality and its
// threshold and never a measured number, so it reads the same at every
// seed; Value is the headline number the threshold is applied to (a worst
// gap, a win count).
type Claim struct {
	ID    string
	Holds bool
	Value float64
	Text  string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a formatted note line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Claim appends a computed verdict: holds must come from the unformatted
// numbers the rows were printed from, value is the number the threshold
// in the text applies to.
func (t *Table) Claim(id string, holds bool, value float64, format string, args ...interface{}) {
	t.Claims = append(t.Claims, Claim{ID: id, Holds: holds, Value: value, Text: fmt.Sprintf(format, args...)})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s ==\n", t.Title); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(t.Header) > 0 {
		fmt.Fprintln(tw, strings.Join(t.Header, "\t"))
		sep := make([]string, len(t.Header))
		for i, h := range t.Header {
			sep[i] = strings.Repeat("-", len(h))
		}
		fmt.Fprintln(tw, strings.Join(sep, "\t"))
	}
	for _, row := range t.Rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	for _, c := range t.Claims {
		verdict := "holds"
		if !c.Holds {
			verdict = "DEVIATES"
		}
		if _, err := fmt.Fprintf(w, "claim [%s]: %s: %s = %s\n", verdict, c.ID, c.Text, num(c.Value)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// num formats a claim value: three significant digits, so a count prints
// as a count and a gap as a gap.
func num(v float64) string { return fmt.Sprintf("%.3g", v) }
