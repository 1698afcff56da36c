package ensemble

import (
	"bytes"
	"context"
	"encoding/gob"
	"testing"

	"repro/internal/schema"
	"repro/internal/spn"
	"repro/internal/table"
)

// ModelFileSeeds returns the seed corpus of FuzzLoad: a valid saved model
// of a small customer/orders schema with a categorical c_region, its
// truncations, files whose header or version is flipped, payloads missing
// their schema or statistics, and well-formed payloads whose SPNs are not
// (an RSPN without a model, an exact leaf with fewer frequencies than
// values, and models whose every scope index moved up by one).
func ModelFileSeeds(tb testing.TB) [][]byte {
	s := &schema.Schema{Tables: []*schema.Table{
		{Name: "customer", PrimaryKey: "c_id", Columns: []schema.Column{
			{Name: "c_id", Kind: schema.IntKind},
			{Name: "c_region", Kind: schema.CategoricalKind},
		}},
		{Name: "orders", PrimaryKey: "o_id", Columns: []schema.Column{
			{Name: "o_id", Kind: schema.IntKind},
			{Name: "o_c_id", Kind: schema.IntKind},
			{Name: "o_amount", Kind: schema.FloatKind},
		}, ForeignKeys: []schema.ForeignKey{{Column: "o_c_id", RefTable: "customer", RefColumn: "c_id"}}},
	}}
	cust, ord := table.New(s.Table("customer")), table.New(s.Table("orders"))
	region := cust.Column("c_region")
	regions := []string{"EU", "ASIA", "US"}
	for i := 0; i < 60; i++ {
		cust.AppendRow(table.Int(i), table.Float(float64(region.Encode(regions[i%3]))))
		for k := 0; k <= i%3; k++ {
			ord.AppendRow(table.Int(3*i+k), table.Int(i), table.Float(float64(10+i+k)))
		}
	}
	cfg := testConfig()
	cfg.BudgetFactor = 0
	e, err := Build(context.Background(), s, map[string]*table.Table{"customer": cust, "orders": ord}, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var valid bytes.Buffer
	if err := e.Save(&valid); err != nil {
		tb.Fatal(err)
	}
	good := valid.Bytes()
	encode := func(hdr fileHeader, p persisted) []byte {
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		if err := enc.Encode(hdr); err != nil {
			tb.Fatal(err)
		}
		if err := enc.Encode(p); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	hdr := fileHeader{Magic: modelMagic, Version: modelVersion}
	payload := persisted{Schema: e.Schema, RSPNs: e.RSPNs, AttrRDC: e.AttrRDC, PairDep: e.PairDep, Stats: e.Stats, Config: e.cfg}
	seeds := [][]byte{good}
	for _, n := range []int{0, 1, 16, len(good) / 3, len(good) / 2, len(good) - 1} {
		seeds = append(seeds, good[:n])
	}
	noStats, noSchema := payload, payload
	noStats.Stats = nil
	noSchema.Schema = nil
	// Damage member i of a fresh decode of the valid file, so e stays
	// intact.
	damaged := func(i int, damage func(m *spn.SPN)) persisted {
		d, err := Load(bytes.NewReader(good), nil)
		if err != nil {
			tb.Fatal(err)
		}
		damage(d.RSPNs[i].Model)
		return persisted{Schema: d.Schema, RSPNs: d.RSPNs, AttrRDC: d.AttrRDC, PairDep: d.PairDep, Stats: d.Stats, Config: d.cfg}
	}
	member := func(tbl string) int {
		for i, r := range e.RSPNs {
			if len(r.Tables) == 1 && r.Tables[0] == tbl {
				return i
			}
		}
		tb.Fatalf("no single-table member over %s", tbl)
		return -1
	}
	noModel := damaged(0, func(m *spn.SPN) { m.Root = nil })
	shortFreq := damaged(0, func(m *spn.SPN) {
		n := m.Root
		for n.Kind != spn.LeafKind {
			n = n.Children[0]
		}
		n.Leaf.Freq = n.Leaf.Freq[:len(n.Leaf.Freq)-1]
	})
	// Shifting every scope index and leaf column up by one keeps each
	// node's own invariants (Validate passes) but points leaves past the
	// model's columns. On the one-column orders member the leaf root reads
	// column 1 of 1 and estimation indexes out of range; on customer the
	// c_region leaf moves off column 0, so an equality on c_region goes
	// unconstrained and COUNT answers every row. Only the root's scope
	// against Columns tells either apart from a valid model — and a
	// permutation of in-range columns cannot be told apart at all.
	shift := func(m *spn.SPN) {
		var walk func(n *spn.Node)
		walk = func(n *spn.Node) {
			for k := range n.Scope {
				n.Scope[k]++
			}
			if n.Leaf != nil {
				n.Leaf.Col++
			}
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(m.Root)
	}
	ordersShifted := damaged(member("orders"), shift)
	customerShifted := damaged(member("customer"), shift)
	return append(seeds,
		encode(fileHeader{Magic: "deepdb-modem", Version: modelVersion}, payload),
		encode(fileHeader{Magic: modelMagic, Version: modelVersion - 1}, payload),
		encode(fileHeader{Magic: modelMagic, Version: modelVersion + 1}, payload),
		encode(hdr, noStats),
		encode(hdr, noSchema),
		encode(hdr, noModel),
		encode(hdr, shortFreq),
		encode(hdr, ordersShifted),
		encode(hdr, customerShifted),
	)
}

// withWorkers returns cfg learning at most n members at a time.
func (c Config) withWorkers(n int) Config {
	c.workers = n
	return c
}
