package ensemble

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/rspn"
	"repro/internal/schema"
	"repro/internal/table"
)

const (
	// modelMagic identifies a deepdb model file. It is written (inside the
	// gob stream) before the payload so foreign files and models from
	// before the versioned format fail with a clear error instead of an
	// opaque gob type mismatch.
	modelMagic = "deepdb-model"
	// modelVersion is the persistence format version. Version 2 added the
	// header itself and the per-table statistics that make query serving
	// fully data-free; version 3 added the categorical dictionaries to
	// those statistics, so string-literal predicates and group-by label
	// decoding work model-only too. Bump it whenever the payload changes
	// incompatibly.
	modelVersion = 3
)

// fileHeader prefixes every model file.
type fileHeader struct {
	Magic   string
	Version int
}

// persisted is the serializable subset of an ensemble: models and
// statistics, but not the live base tables (those are reattached on load,
// like a database reopening its files).
type persisted struct {
	Schema  *schema.Schema
	RSPNs   []*rspn.RSPN
	AttrRDC map[string]float64
	PairDep map[string]float64
	Stats   map[string]TableStats
	Config  Config
}

// Save writes the ensemble's models and statistics to w in gob format,
// prefixed by a versioned header. The statistics are written as they are:
// they carry the model's only dictionaries, which attached tables can
// never change.
func (e *Ensemble) Save(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(fileHeader{Magic: modelMagic, Version: modelVersion}); err != nil {
		return fmt.Errorf("ensemble: encoding header: %w", err)
	}
	return enc.Encode(persisted{
		Schema:  e.Schema,
		RSPNs:   e.RSPNs,
		AttrRDC: e.AttrRDC,
		PairDep: e.PairDep,
		Stats:   e.Stats,
		Config:  e.cfg,
	})
}

// Load reads an ensemble written by Save and, when tables is non-nil,
// attaches them (see AttachTables). A model file must carry statistics
// for every schema table: they answer every query class, so with tables
// nil the model serves on its own, and AttachTables can supply the data
// later (e.g. once the model's own schema has been used to locate the CSV
// files) to enable updates and exact execution.
func Load(r io.Reader, tables map[string]*table.Table) (*Ensemble, error) {
	dec := gob.NewDecoder(r)
	var hdr fileHeader
	if err := dec.Decode(&hdr); err != nil {
		// Models from before the versioned format start straight with the
		// payload and fail here with a gob type mismatch; keep the
		// underlying error visible so read failures stay diagnosable.
		return nil, fmt.Errorf("ensemble: reading model header (not a deepdb model file, or one written by a deepdb version older than the versioned model format v%d; re-learn and re-save the model): %w", modelVersion, err)
	}
	if hdr.Magic != modelMagic {
		return nil, fmt.Errorf("ensemble: not a deepdb model file (magic %q)", hdr.Magic)
	}
	if hdr.Version != modelVersion {
		return nil, fmt.Errorf("ensemble: model file format v%d, this build reads v%d; re-learn the model with a matching deepdb version", hdr.Version, modelVersion)
	}
	var p persisted
	if err := dec.Decode(&p); err != nil {
		return nil, fmt.Errorf("ensemble: decoding: %w", err)
	}
	if p.Schema == nil {
		return nil, fmt.Errorf("ensemble: model file has no schema")
	}
	// The statistics are the only source of table sizes, column
	// ownership and labels: every schema table needs its entry.
	for _, meta := range p.Schema.Tables {
		st, ok := p.Stats[meta.Name]
		if !ok {
			return nil, fmt.Errorf("ensemble: model file has no statistics for table %s", meta.Name)
		}
		st.indexDicts()
		p.Stats[meta.Name] = st
	}
	for _, m := range p.RSPNs {
		if m.Model == nil || m.Model.Root == nil {
			return nil, fmt.Errorf("ensemble: invalid model after load: an RSPN over %v has no model", m.Tables)
		}
		if err := m.Model.Root.Validate(); err != nil {
			return nil, fmt.Errorf("ensemble: invalid model after load: %w", err)
		}
		// Both learners root the SPN at scope 0..len(Columns)-1; with
		// Validate's scope rules that keeps every leaf column inside
		// Columns, so no leaf reads a column the model does not have.
		if !spansColumns(m.Model.Root.Scope, len(m.Model.Columns)) {
			return nil, fmt.Errorf("ensemble: invalid model after load: an RSPN over %v has root scope %v, want columns 0..%d", m.Tables, m.Model.Root.Scope, len(m.Model.Columns)-1)
		}
		// gob skips the unexported evaluation caches (sum totals, the
		// compiled flat evaluator, indicator indices); rebuild them
		// before serving.
		m.Refresh()
	}
	e := &Ensemble{
		Schema:  p.Schema,
		RSPNs:   p.RSPNs,
		AttrRDC: p.AttrRDC,
		PairDep: p.PairDep,
		Stats:   p.Stats,
		cfg:     p.Config,
		rng:     rand.New(rand.NewSource(p.Config.Seed)),
		idx:     newWriteIndex(),
	}
	if tables != nil {
		if err := e.AttachTables(tables); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// spansColumns reports whether scope is exactly 0, 1, ..., n-1.
func spansColumns(scope []int, n int) bool {
	if len(scope) != n {
		return false
	}
	for i, c := range scope {
		if c != i {
			return false
		}
	}
	return true
}

// AttachTables (re)attaches live base tables to a loaded ensemble, for
// updates and exact execution; query serving keeps reading the model's
// statistics. Every categorical column of the tables must encode the
// model's labels with the model's codes — its dictionary begins with the
// model's, and may extend past it — or the tables are refused before
// anything changes. Freshly loaded base tables (e.g. from CSV) lack the
// synthetic tuple-factor columns Build added; they are re-derived here so
// updates keep working after a load — the tables handed in are augmented
// in place with __fk_* columns, as Build does. The write index starts
// afresh over the tables, and the tombstones the tables record keep
// deleted rows deleted — Reload re-attaching the serving tables included.
func (e *Ensemble) AttachTables(tables map[string]*table.Table) error {
	for _, meta := range e.Schema.Tables {
		t := tables[meta.Name]
		if t == nil {
			return fmt.Errorf("ensemble: missing base table %s", meta.Name)
		}
		if err := e.agreeDicts(meta, t); err != nil {
			return err
		}
	}
	for _, rel := range e.Schema.Relationships() {
		one, many := tables[rel.One], tables[rel.Many]
		if one == nil || many == nil {
			return fmt.Errorf("ensemble: missing base table for relationship %s", rel.ID())
		}
		if one.Column(table.TupleFactorColumn(rel)) == nil {
			if err := table.AddTupleFactor(one, many, rel); err != nil {
				return err
			}
		}
	}
	e.Tables = tables
	e.idx = newWriteIndex()
	return nil
}

// agreeDicts checks that every categorical column of t gives each code
// the label the model's dictionary gives it.
func (e *Ensemble) agreeDicts(meta *schema.Table, t *table.Table) error {
	dicts := e.Stats[meta.Name].Dicts
	for _, col := range meta.Columns {
		learned := dicts[col.Name]
		if len(learned) == 0 {
			continue
		}
		var have []string
		if c := t.Column(col.Name); c != nil {
			have = c.Dict()
		}
		if len(have) < len(learned) {
			return fmt.Errorf("ensemble: attached table %s: column %s has %d labels, the model learned %d", meta.Name, col.Name, len(have), len(learned))
		}
		for code, label := range learned {
			if have[code] != label {
				return fmt.Errorf("ensemble: attached table %s: column %s encodes %q as %d, the model learned %q", meta.Name, col.Name, have[code], code, label)
			}
		}
	}
	return nil
}

// SaveFile writes the ensemble to a file atomically: the model is written
// to a temporary file in the same directory, synced, and renamed into
// place, so a crash mid-save never leaves a truncated model behind.
func (e *Ensemble) SaveFile(path string) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	// CreateTemp's 0600 would survive the rename; keep the mode of the
	// model being replaced, defaulting to the conventional 0644 (models
	// are read by separate serving processes).
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := f.Chmod(mode); err != nil {
		return cleanup(err)
	}
	if err := e.Save(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFile reads an ensemble from a file.
func LoadFile(path string, tables map[string]*table.Table) (*Ensemble, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f, tables)
}
