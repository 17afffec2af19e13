package dataset

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	d := MustNew([]string{"TEMP", "PM2.5"}, "PM2.5")
	d.MustAppend([]float64{12.5, 80.25})
	d.MustAppend([]float64{-3, 140})

	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d.SameSchema(got) {
		t.Fatalf("schema changed: %v vs %v", d.columns, got.columns)
	}
	if got.Len() != 2 || got.Row(0)[0] != 12.5 || got.Row(1)[1] != 140 {
		t.Fatalf("rows changed: %v", got.Values())
	}
}

func TestCSVTargetMarker(t *testing.T) {
	in := "x,y*,z\n1,2,3\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetName() != "y" {
		t.Fatalf("target = %s, want y", d.TargetName())
	}
}

func TestCSVDefaultsToLastColumn(t *testing.T) {
	in := "x,y,z\n1,2,3\n"
	d, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.TargetName() != "z" {
		t.Fatalf("target = %s, want z", d.TargetName())
	}
}

func TestCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"double target", "x*,y*\n1,2\n"},
		{"short row", "x,y\n1\n"},
		{"non numeric", "x,y\n1,abc\n"},
		{"nan", "x,y\n1,NaN\n"},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	d := MustNew([]string{"a", "b"}, "b")
	d.MustAppend([]float64{1, 2})
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := d.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 || got.Row(0)[1] != 2 {
		t.Fatalf("loaded %v", got.Values())
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("expected error loading missing file")
	}
}
