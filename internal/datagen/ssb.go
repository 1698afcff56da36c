package datagen

import (
	"math/rand"

	"repro/internal/schema"
	"repro/internal/table"
)

// SSBConfig scales the Star Schema Benchmark generator. ScaleFactor 1
// corresponds to the official 6M-lineorder SSB; the experiments use small
// fractions (e.g. 0.02) to stay laptop-scale while preserving the
// selectivity structure of the standard queries.
type SSBConfig struct {
	ScaleFactor float64
	Seed        int64
}

// DefaultSSBConfig is laptop-scale.
func DefaultSSBConfig() SSBConfig { return SSBConfig{ScaleFactor: 0.02, Seed: 1} }

// SSBSchema returns the star schema: the lineorder fact table referencing
// customer, supplier, part and date dimensions. The official benchmark's
// derived measures are materialized as columns, lo_revenue =
// extendedprice*(1-discount/100) and lo_profit = lo_revenue-supplycost,
// because DeepDB aggregates a single column (SUM(col), AVG(col)) and its
// query model has no arithmetic: an RSPN learns the per-row measure like
// any other attribute, and the paper's SUM queries become SUM(lo_revenue)
// and SUM(lo_profit).
func SSBSchema() *schema.Schema {
	return &schema.Schema{Tables: []*schema.Table{
		{Name: "dates", PrimaryKey: "d_datekey", Columns: []schema.Column{
			{Name: "d_datekey", Kind: schema.IntKind},
			{Name: "d_year", Kind: schema.IntKind},
			{Name: "d_yearmonthnum", Kind: schema.IntKind},
			{Name: "d_weeknuminyear", Kind: schema.IntKind},
		}},
		{Name: "customer", PrimaryKey: "c_custkey", Columns: []schema.Column{
			{Name: "c_custkey", Kind: schema.IntKind},
			{Name: "c_region", Kind: schema.IntKind},
			{Name: "c_nation", Kind: schema.IntKind},
			{Name: "c_city", Kind: schema.IntKind},
		}, FDs: []schema.FunctionalDependency{
			// The dimension hierarchy is a functional dependency chain;
			// declaring nation -> region lets the RSPN omit the region
			// column and answer region predicates through the dictionary
			// (Section 3.2 of the paper).
			{Determinant: "c_nation", Dependent: "c_region"},
		}},
		{Name: "supplier", PrimaryKey: "s_suppkey", Columns: []schema.Column{
			{Name: "s_suppkey", Kind: schema.IntKind},
			{Name: "s_region", Kind: schema.IntKind},
			{Name: "s_nation", Kind: schema.IntKind},
			{Name: "s_city", Kind: schema.IntKind},
		}, FDs: []schema.FunctionalDependency{
			{Determinant: "s_nation", Dependent: "s_region"},
		}},
		{Name: "part", PrimaryKey: "p_partkey", Columns: []schema.Column{
			{Name: "p_partkey", Kind: schema.IntKind},
			{Name: "p_mfgr", Kind: schema.IntKind},
			{Name: "p_category", Kind: schema.IntKind},
			{Name: "p_brand1", Kind: schema.IntKind},
		}, FDs: []schema.FunctionalDependency{
			{Determinant: "p_category", Dependent: "p_mfgr"},
		}},
		{Name: "lineorder", PrimaryKey: "lo_id", Columns: []schema.Column{
			{Name: "lo_id", Kind: schema.IntKind},
			{Name: "lo_custkey", Kind: schema.IntKind},
			{Name: "lo_suppkey", Kind: schema.IntKind},
			{Name: "lo_partkey", Kind: schema.IntKind},
			{Name: "lo_orderdate", Kind: schema.IntKind},
			{Name: "lo_quantity", Kind: schema.IntKind},
			{Name: "lo_discount", Kind: schema.IntKind},
			{Name: "lo_extendedprice", Kind: schema.FloatKind},
			{Name: "lo_revenue", Kind: schema.FloatKind},
			{Name: "lo_supplycost", Kind: schema.FloatKind},
			{Name: "lo_profit", Kind: schema.FloatKind},
		}, ForeignKeys: []schema.ForeignKey{
			{Column: "lo_custkey", RefTable: "customer", RefColumn: "c_custkey"},
			{Column: "lo_suppkey", RefTable: "supplier", RefColumn: "s_suppkey"},
			{Column: "lo_partkey", RefTable: "part", RefColumn: "p_partkey"},
			{Column: "lo_orderdate", RefTable: "dates", RefColumn: "d_datekey"},
		}},
	}}
}

// SSB generates the benchmark data. Dimension hierarchies follow the spec:
// 5 regions x 5 nations x 10 cities; 5 mfgrs x 5 categories x ~40 brands.
// The fact table's measures follow the spec's value ranges, with revenue
// and profit materialized. Foreign keys are uniform like the official
// generator, and lineorder quantity/discount are negatively correlated,
// giving the low-selectivity behaviour the AQP experiment stresses.
func SSB(cfg SSBConfig) (*schema.Schema, map[string]*table.Table) {
	if cfg.ScaleFactor <= 0 {
		cfg = DefaultSSBConfig()
	}
	s := SSBSchema()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nLine := int(cfg.ScaleFactor * 6000000)
	nCust := maxInt(100, int(cfg.ScaleFactor*30000))
	nSupp := maxInt(50, int(cfg.ScaleFactor*2000))
	nPart := maxInt(100, int(cfg.ScaleFactor*200000))

	dates := table.New(s.Table("dates"))
	var dateKeys []int
	for year := 1992; year <= 1998; year++ {
		for day := 0; day < 365; day++ {
			key := year*1000 + day
			month := day/31 + 1
			if month > 12 {
				month = 12
			}
			dates.AppendRow(table.Int(key), table.Int(year),
				table.Int(year*100+month), table.Int(day/7+1))
			dateKeys = append(dateKeys, key)
		}
	}

	cust := table.New(s.Table("customer"))
	for i := 0; i < nCust; i++ {
		region := rng.Intn(5)
		nation := region*5 + rng.Intn(5)
		city := nation*10 + rng.Intn(10)
		cust.AppendRow(table.Int(i), table.Int(region), table.Int(nation), table.Int(city))
	}
	supp := table.New(s.Table("supplier"))
	for i := 0; i < nSupp; i++ {
		region := rng.Intn(5)
		nation := region*5 + rng.Intn(5)
		city := nation*10 + rng.Intn(10)
		supp.AppendRow(table.Int(i), table.Int(region), table.Int(nation), table.Int(city))
	}
	part := table.New(s.Table("part"))
	for i := 0; i < nPart; i++ {
		mfgr := 1 + rng.Intn(5)
		category := mfgr*10 + rng.Intn(5)
		brand := category*100 + rng.Intn(40)
		part.AppendRow(table.Int(i), table.Int(mfgr), table.Int(category), table.Int(brand))
	}

	line := table.New(s.Table("lineorder"))
	for i := 0; i < nLine; i++ {
		custkey := rng.Intn(nCust)
		suppkey := rng.Intn(nSupp)
		partkey := rng.Intn(nPart)
		orderdate := dateKeys[rng.Intn(len(dateKeys))]
		quantity := 1 + rng.Intn(50)
		// Discount 0..10, negatively correlated with quantity: bulk orders
		// come pre-negotiated.
		discount := rng.Intn(11)
		if quantity > 30 && rng.Float64() < 0.6 {
			discount = rng.Intn(4)
		}
		extended := float64(quantity) * (900 + rng.Float64()*200)
		revenue := extended * (1 - float64(discount)/100)
		supplycost := extended * (0.5 + rng.Float64()*0.2)
		line.AppendRow(
			table.Int(i), table.Int(custkey), table.Int(suppkey), table.Int(partkey),
			table.Int(orderdate), table.Int(quantity), table.Int(discount),
			table.Float(extended), table.Float(revenue), table.Float(supplycost),
			table.Float(revenue-supplycost),
		)
	}
	return s, map[string]*table.Table{
		"dates": dates, "customer": cust, "supplier": supp, "part": part, "lineorder": line,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
