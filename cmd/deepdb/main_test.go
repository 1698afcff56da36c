package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/deepdb"
	"repro/internal/datagen"
)

// writeFixture generates a small data set, writes its schema JSON and CSVs
// to dir, and returns the paths.
func writeFixture(t *testing.T, dir string) (schemaPath, dataDir string) {
	t.Helper()
	s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 400, Seed: 1})
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	schemaPath = filepath.Join(dir, "schema.json")
	if err := os.WriteFile(schemaPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	dataDir = filepath.Join(dir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, tb := range tabs {
		f, err := os.Create(filepath.Join(dataDir, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.WriteCSV(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return schemaPath, dataDir
}

func TestLoadSchemaAndTables(t *testing.T) {
	dir := t.TempDir()
	schemaPath, dataDir := writeFixture(t, dir)
	s, err := deepdb.LoadSchema(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tables) != 6 {
		t.Fatalf("schema tables = %d, want 6", len(s.Tables))
	}
	// Learn reads <table>.csv for every schema table from dataDir.
	db, err := deepdb.Learn(context.Background(), s, dataDir, deepdb.WithMaxSamples(1000), deepdb.WithBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := db.Data()["title"].NumRows(); n != 400 {
		t.Fatalf("title rows = %d", n)
	}
}

func TestLoadSchemaErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := deepdb.LoadSchema(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("expected error for missing file")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := deepdb.LoadSchema(bad); err == nil {
		t.Fatal("expected error for invalid JSON")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"Tables":[{"Name":"t","PrimaryKey":"nope","Columns":[{"Name":"a","Kind":0}]}]}`), 0o644)
	if _, err := deepdb.LoadSchema(invalid); err == nil {
		t.Fatal("expected validation error")
	}
}

// TestLearnQueryRoundTrip exercises the full CLI pipeline through the
// facade: learn from CSVs, save the model, reopen it against the data
// directory, and answer a parsed SQL query.
func TestLearnQueryRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	schemaPath, dataDir := writeFixture(t, dir)
	s, err := deepdb.LoadSchema(schemaPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := deepdb.Learn(ctx, s, dataDir, deepdb.WithMaxSamples(5000), deepdb.WithBudget(0))
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "model.deepdb")
	if err := db.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	db2, err := deepdb.Open(ctx, modelPath, deepdb.WithDataDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	const sql = "SELECT COUNT(*) FROM title WHERE t_production_year >= 2000"
	est, err := db2.EstimateCardinality(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := db2.Exact(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if qe := deepdb.QError(est.Value, truth.Scalar()); qe > 2 {
		t.Fatalf("round-trip estimate q-error %.2f (est %.1f true %.1f)", qe, est.Value, truth.Scalar())
	}
	// Updates must work on a reopened model too (tuple-factor columns are
	// re-derived on open). Inserts are asynchronous: only Flush proves the
	// apply succeeded.
	if err := db2.Insert("cast_info", map[string]deepdb.Value{
		"ci_id": deepdb.Int(999999), "ci_t_id": deepdb.Int(0), "ci_role_id": deepdb.Int(1),
	}); err != nil {
		t.Fatalf("insert after open: %v", err)
	}
	if err := db2.Flush(ctx); err != nil {
		t.Fatalf("applying insert after open: %v", err)
	}
	defer db2.Close()
	// The plan for a model-covered query must render without error.
	if plan, err := db2.Explain(ctx, sql); err != nil || plan == "" {
		t.Fatalf("explain: %q, %v", plan, err)
	}
}

func TestResolver(t *testing.T) {
	db := figureDB(t)
	q, err := db.Parse("SELECT COUNT(*) FROM things WHERE color = 'red'")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 1 || q.Filters[0].Value != 0 {
		t.Fatalf("resolved filter = %+v", q.Filters)
	}
	if _, err := db.Parse("SELECT COUNT(*) FROM things WHERE color = 'chartreuse'"); err == nil {
		t.Fatal("expected error for unknown literal")
	}
	if _, err := db.Parse("SELECT COUNT(*) FROM things WHERE nope = 'red'"); err == nil {
		t.Fatal("expected error for unknown column")
	}
}

func TestLabelOf(t *testing.T) {
	if got := labelOf(deepdb.Group{}); got != "(all)" {
		t.Fatalf("empty key label = %q", got)
	}
	db := figureDB(t)
	res, err := db.Query(context.Background(), "SELECT COUNT(*) FROM things GROUP BY color")
	if err != nil {
		t.Fatal(err)
	}
	labels := map[string]bool{}
	for _, g := range res.Groups {
		labels[labelOf(g)] = true
	}
	if !labels["red"] || !labels["blue"] {
		t.Fatalf("decoded labels = %v", labels)
	}
}

// figureDB builds a one-table DB with a categorical column.
func figureDB(t *testing.T) *deepdb.DB {
	t.Helper()
	s := &deepdb.Schema{Tables: []*deepdb.TableDef{{
		Name: "things",
		Columns: []deepdb.ColumnDef{
			{Name: "color", Kind: deepdb.CategoricalKind},
			{Name: "n", Kind: deepdb.IntKind},
		},
	}}}
	tb := deepdb.NewTable(s.Table("things"))
	c := tb.Column("color")
	red := float64(c.Encode("red"))
	blue := float64(c.Encode("blue"))
	tb.AppendRow(deepdb.Float(red), deepdb.Int(1))
	tb.AppendRow(deepdb.Float(blue), deepdb.Int(2))
	db, err := deepdb.LearnDataset(context.Background(), s, deepdb.Dataset{"things": tb})
	if err != nil {
		t.Fatal(err)
	}
	return db
}
