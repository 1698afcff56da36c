package ensemble

import (
	"bytes"
	"context"
	"encoding/gob"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/table"
)

// TestStatsCapturedAndPersisted: Build snapshots per-table cardinalities
// and column sets (including synthetic tuple factors), and Save/Load
// round-trips them so a model-only ensemble still resolves table sizes and
// column ownership.
func TestStatsCapturedAndPersisted(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 300, true, 21)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, meta := range s.Tables {
		st, ok := e.Stats[meta.Name]
		if !ok {
			t.Fatalf("no stats captured for %s", meta.Name)
		}
		if want := float64(tabs[meta.Name].NumRows()); st.Rows != want {
			t.Fatalf("%s stats rows = %v, want %v", meta.Name, st.Rows, want)
		}
	}
	// The customer snapshot must list the synthetic tuple-factor column.
	rel := s.Relationships()[0]
	if !e.Stats[rel.One].HasColumn(table.TupleFactorColumn(rel)) {
		t.Fatalf("stats of %s missing tuple-factor column %s", rel.One, table.TupleFactorColumn(rel))
	}

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	e2, err := Load(&buf, nil) // model-only: no tables
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range e.Stats {
		st2, ok := e2.Stats[name]
		if !ok || st2.Rows != st.Rows || len(st2.Columns) != len(st.Columns) {
			t.Fatalf("stats for %s not round-tripped: %+v vs %+v", name, st, st2)
		}
	}
	if rows, ok := e2.TableRows("orders"); !ok || rows != float64(tabs["orders"].NumRows()) {
		t.Fatalf("model-only TableRows(orders) = %v,%v", rows, ok)
	}
	if !e2.TableHasColumn("customer", "c_age") || e2.TableHasColumn("orders", "c_age") {
		t.Fatal("model-only column ownership wrong")
	}
}

// TestUpdateMaintainsStats: Insert bumps the maintained cardinality,
// Delete shrinks it even though the base row is only tombstoned.
func TestUpdateMaintainsStats(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 200, true, 22)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats["orders"].Rows
	if err := e.Insert("orders", map[string]table.Value{
		"o_id": table.Int(900000), "o_c_id": table.Int(0), "o_channel": table.Int(1),
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats["orders"].Rows; got != before+1 {
		t.Fatalf("stats rows after insert = %v, want %v", got, before+1)
	}
	if err := e.Delete("orders", 900000); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats["orders"].Rows; got != before {
		t.Fatalf("stats rows after delete = %v, want %v", got, before)
	}
	// The tombstoned base row keeps NumRows inflated; the statistic is the
	// reconciled source of truth.
	if live := float64(tabs["orders"].NumRows()); live == before {
		t.Fatalf("expected live NumRows to drift after delete, got %v", live)
	}
	if rows, _ := e.TableRows("orders"); rows != before {
		t.Fatalf("TableRows = %v, want maintained %v", rows, before)
	}
}

// TestLoadRejectsForeignAndOldFiles: files without the versioned header
// (older deepdb models, arbitrary gobs, garbage) and files with an
// unsupported version fail with a clear error.
func TestLoadRejectsForeignAndOldFiles(t *testing.T) {
	// A pre-versioning model file began directly with the persisted
	// payload; any such stream fails header validation.
	var old bytes.Buffer
	type legacy struct{ RSPNs []string }
	if err := gob.NewEncoder(&old).Encode(legacy{RSPNs: []string{"x"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&old, nil); err == nil || !strings.Contains(err.Error(), "older") {
		t.Fatalf("legacy file error = %v, want mention of older version", err)
	}
	if _, err := Load(bytes.NewReader([]byte("not a gob at all")), nil); err == nil {
		t.Fatal("garbage input must fail")
	}
	// A file with the right magic but a future version is rejected with
	// the version numbers spelled out.
	var future bytes.Buffer
	if err := gob.NewEncoder(&future).Encode(fileHeader{Magic: modelMagic, Version: modelVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&future, nil); err == nil || !strings.Contains(err.Error(), "format v") {
		t.Fatalf("future version error = %v, want version mismatch", err)
	}
}

// TestSaveFileAtomic: SaveFile replaces the destination atomically, leaves
// no temp files behind, and never clobbers an existing model on error.
func TestSaveFileAtomic(t *testing.T) {
	s := testSchema()
	tabs := genData(s, 150, true, 23)
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, tabs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "model.deepdb")
	// Pre-existing (corrupt) file must be replaced wholesale.
	if err := os.WriteFile(path, []byte("corrupt old model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path, nil); err != nil {
		t.Fatalf("reload after overwrite: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, en := range entries {
			names = append(names, en.Name())
		}
		t.Fatalf("temp files left behind: %v", names)
	}
	// A failing save (unwritable directory) must not leave anything.
	if err := e.SaveFile(filepath.Join(dir, "missing-subdir", "m.deepdb")); err == nil {
		t.Fatal("expected error saving into a missing directory")
	}
}

// regionTable builds the customer table of regionSchema: 120 rows
// cycling through the labels, which take their c_region codes in order.
func regionTable(s *schema.Schema, labels ...string) *table.Table {
	cust := table.New(s.Table("customer"))
	region := cust.Column("c_region")
	for i := 0; i < 120; i++ {
		cust.AppendRow(table.Int(i), table.Float(float64(region.Encode(labels[i%len(labels)]))))
	}
	return cust
}

func regionSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{{
		Name:       "customer",
		PrimaryKey: "c_id",
		Columns: []schema.Column{
			{Name: "c_id", Kind: schema.IntKind},
			{Name: "c_region", Kind: schema.CategoricalKind},
		},
	}}}
}

// savedRegionModel learns regionSchema over the dictionary EU, ASIA, US
// and returns the saved model file.
func savedRegionModel(t testing.TB) []byte {
	s := regionSchema()
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, map[string]*table.Table{"customer": regionTable(s, "EU", "ASIA", "US")}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDictionariesPersisted: format v3 carries the categorical
// dictionaries, so a model-only ensemble resolves string literals and
// decodes labels — and a previous-version header is rejected cleanly.
// Tables whose dictionaries extend the model's attach, and the labels
// they add stay unknown to the model.
func TestDictionariesPersisted(t *testing.T) {
	model := savedRegionModel(t)
	e2, err := Load(bytes.NewReader(model), nil) // model-only
	if err != nil {
		t.Fatal(err)
	}
	catCol, catVal := "c_region", "ASIA"
	code, found, known := e2.ResolveLabel(catCol, catVal)
	if !known || !found || code != 1 {
		t.Fatalf("model-only ResolveLabel(%s, %q) = %v,%v,%v", catCol, catVal, code, found, known)
	}
	if got := e2.DecodeLabel(catCol, int(code)); got != catVal {
		t.Fatalf("model-only DecodeLabel round-trip: %q != %q", got, catVal)
	}
	if _, found, known := e2.ResolveLabel(catCol, "no-such-value"); found || !known {
		t.Fatal("unknown literal must be not-found on a known column")
	}
	if _, _, known := e2.ResolveLabel("no_such_column", "x"); known {
		t.Fatal("unknown column must not resolve")
	}

	// Rows appended after learning may extend the dictionary; the codes
	// the model knows keep their labels, so the tables attach.
	s := e2.Schema
	grown := regionTable(s, "EU", "ASIA", "US", "OCEANIA")
	if err := e2.AttachTables(map[string]*table.Table{"customer": grown}); err != nil {
		t.Fatalf("attaching an extended dictionary: %v", err)
	}
	if _, found, known := e2.ResolveLabel(catCol, "OCEANIA"); found || !known {
		t.Fatal("a label the model never learned must stay not-found with tables attached")
	}
	if code, found, _ := e2.ResolveLabel(catCol, "US"); !found || code != 2 {
		t.Fatalf("ResolveLabel(US) with tables attached = %v,%v", code, found)
	}

	// A v2 file (previous format) is rejected with the version spelled out.
	var v2 bytes.Buffer
	if err := gob.NewEncoder(&v2).Encode(fileHeader{Magic: modelMagic, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&v2, nil); err == nil || !strings.Contains(err.Error(), "format v2") {
		t.Fatalf("v2 file error = %v, want format-version rejection", err)
	}
}

// TestAttachRefusesDisagreeingDictionaries is the must-fail twin of
// TestDictionariesPersisted: tables that give a code another label than
// the model, or lack labels the model learned, are refused before
// anything is attached or augmented, and the error names the column.
func TestAttachRefusesDisagreeingDictionaries(t *testing.T) {
	model := savedRegionModel(t)
	for _, tc := range []struct {
		name   string
		labels []string
		want   string
	}{
		{"reordered", []string{"ASIA", "EU", "US"}, `attached table customer: column c_region encodes "ASIA" as 0, the model learned "EU"`},
		{"shorter", []string{"EU", "ASIA"}, "attached table customer: column c_region has"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := Load(bytes.NewReader(model), nil)
			if err != nil {
				t.Fatal(err)
			}
			tabs := map[string]*table.Table{"customer": regionTable(e.Schema, tc.labels...)}
			err = e.AttachTables(tabs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AttachTables error = %v, want it to contain %q", err, tc.want)
			}
			if e.Tables != nil {
				t.Fatal("refused tables were attached")
			}
			if _, err := Load(bytes.NewReader(model), tabs); err == nil {
				t.Fatal("Load with disagreeing tables must fail")
			}
			if code, found, _ := e.ResolveLabel("c_region", "EU"); !found || code != 0 {
				t.Fatalf("ResolveLabel(EU) after a refused attach = %v,%v, want the model's code 0", code, found)
			}
		})
	}
}
