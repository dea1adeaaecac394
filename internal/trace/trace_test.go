package trace

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("demo", "name", "value", "ratio")
	t.AddRow("alpha", 42, 0.5)
	t.AddRow("beta", int64(7), float32(1.25))
	return t
}

func TestRenderAlignsColumns(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "alpha") || !strings.Contains(out, "0.500") || !strings.Contains(out, "1.250") {
		t.Fatalf("missing cells: %q", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("unexpected line count %d: %q", len(lines), out)
	}
}

func TestRenderWithoutTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.Contains(tbl.String(), "==") {
		t.Fatal("title marker printed for empty title")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("CSV has %d records, want 3", len(records))
	}
	// Data cells carry full precision, not the %.3f display rounding: the CSV
	// is what fitting harnesses read back.
	if records[0][0] != "name" || records[1][0] != "alpha" || records[2][2] != "1.25" {
		t.Fatalf("unexpected CSV content: %v", records)
	}
}

// TestDataCellsKeepFullPrecision pins the AddRow storage fix: float cells used
// to be truncated to three decimals before storage, so CSV files lost
// precision permanently. Rows now hold the shortest round-tripping decimal,
// while Render still displays %.3f.
func TestDataCellsKeepFullPrecision(t *testing.T) {
	tbl := NewTable("precision", "v")
	const v = 0.7234567890123456
	tbl.AddRow(v)
	got, err := strconv.ParseFloat(tbl.Rows[0][0], 64)
	if err != nil {
		t.Fatal(err)
	}
	if got != v {
		t.Fatalf("stored cell %q does not round-trip %v (parsed %v)", tbl.Rows[0][0], v, got)
	}
	if out := tbl.String(); !strings.Contains(out, "0.723") || strings.Contains(out, tbl.Rows[0][0]) {
		t.Fatalf("rendered output should show the %%.3f display form only: %q", out)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), tbl.Rows[0][0]) {
		t.Fatalf("CSV lost full-precision cell: %q", buf.String())
	}
}

func TestSaveCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "out.csv")
	if err := sample().SaveCSV(csvPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("%s is empty", csvPath)
	}
	if err := sample().SaveCSV(filepath.Join(dir, "missing", "out.csv")); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestAddRowMismatchedWidthStillRenders(t *testing.T) {
	tbl := NewTable("odd", "a", "b")
	tbl.AddRow("only-one")
	tbl.AddRow("x", "y", "extra")
	out := tbl.String()
	if !strings.Contains(out, "only-one") || !strings.Contains(out, "extra") {
		t.Fatalf("mismatched rows lost data: %q", out)
	}
}
