package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// CSV serialization. The on-disk format mirrors the UCI air-quality
// files the paper uses: a header row of column names followed by one
// numeric record per sample. The target column is recorded in the
// header by a trailing "*" marker on its name so that a round-trip
// preserves the schema (e.g. "TEMP,PRES,PM2.5*").

// WriteCSV writes the dataset to w.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(d.columns))
	for i, c := range d.columns {
		if i == d.target {
			header[i] = c + "*"
		} else {
			header[i] = c
		}
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	rec := make([]string, len(d.columns))
	for i := range d.Len() {
		for j, v := range d.Row(i) {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: write row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV reads a dataset from r. The target column is the one whose
// header name carries a trailing "*"; if none does, the last column is
// the target (matching the layout of the UCI files, label last).
func ReadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) == 0 {
		return nil, ErrNoColumns
	}
	columns := make([]string, len(header))
	target := ""
	for i, h := range header {
		name := strings.TrimSpace(h)
		if strings.HasSuffix(name, "*") {
			name = strings.TrimSuffix(name, "*")
			if target != "" {
				return nil, fmt.Errorf("dataset: multiple target markers in header")
			}
			target = name
		}
		columns[i] = name
	}
	if target == "" {
		target = columns[len(columns)-1]
	}
	d, err := New(columns, target)
	if err != nil {
		return nil, err
	}
	row := make([]float64, len(columns))
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if len(rec) != len(columns) {
			return nil, fmt.Errorf("dataset: line %d: %w", line, ErrRowWidth)
		}
		for j, field := range rec {
			v, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d column %q: %w", line, columns[j], err)
			}
			row[j] = v
		}
		if err := d.Append(row); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
	}
	return d, nil
}

// SaveFile writes the dataset to the named CSV file.
func (d *Dataset) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a dataset from the named CSV file.
func LoadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}
