package schema

import "testing"

func starSchema() *Schema {
	fk := func(col string) []ForeignKey {
		return []ForeignKey{{Column: col, RefTable: "fact", RefColumn: "f_id"}}
	}
	return &Schema{Tables: []*Table{
		{Name: "fact", PrimaryKey: "f_id", Columns: []Column{{Name: "f_id", Kind: IntKind}}},
		{Name: "a", PrimaryKey: "a_id", ForeignKeys: fk("a_f"), Columns: []Column{
			{Name: "a_id", Kind: IntKind}, {Name: "a_f", Kind: IntKind}}},
		{Name: "b", PrimaryKey: "b_id", ForeignKeys: fk("b_f"), Columns: []Column{
			{Name: "b_id", Kind: IntKind}, {Name: "b_f", Kind: IntKind}}},
	}}
}

func chain() *Schema {
	return &Schema{Tables: []*Table{
		{Name: "x", PrimaryKey: "x_id", Columns: []Column{{Name: "x_id", Kind: IntKind}}},
		{Name: "y", PrimaryKey: "y_id", Columns: []Column{
			{Name: "y_id", Kind: IntKind}, {Name: "y_x", Kind: IntKind}},
			ForeignKeys: []ForeignKey{{Column: "y_x", RefTable: "x", RefColumn: "x_id"}}},
		{Name: "z", Columns: []Column{{Name: "z_y", Kind: IntKind}},
			ForeignKeys: []ForeignKey{{Column: "z_y", RefTable: "y", RefColumn: "y_id"}}},
	}}
}

func TestKindString(t *testing.T) {
	if IntKind.String() != "int" || FloatKind.String() != "float" || CategoricalKind.String() != "categorical" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestColumnLookup(t *testing.T) {
	tab := starSchema().Table("a")
	if tab.ColumnIndex("a_f") != 1 {
		t.Fatalf("ColumnIndex = %d", tab.ColumnIndex("a_f"))
	}
	if tab.ColumnIndex("nope") != -1 {
		t.Fatal("missing column should be -1")
	}
	c, ok := tab.Column("a_id")
	if !ok || c.Kind != IntKind {
		t.Fatal("Column lookup failed")
	}
	if _, ok := tab.Column("nope"); ok {
		t.Fatal("missing column should not be found")
	}
}

func TestValidate(t *testing.T) {
	if err := starSchema().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := starSchema()
	bad.Tables[0].PrimaryKey = "missing"
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for missing PK column")
	}
	bad2 := starSchema()
	bad2.Tables[1].ForeignKeys[0].Column = "missing"
	if err := bad2.Validate(); err == nil {
		t.Fatal("expected error for missing FK column")
	}
	bad3 := starSchema()
	bad3.Tables[1].ForeignKeys[0].RefColumn = "missing"
	if err := bad3.Validate(); err == nil {
		t.Fatal("expected error for missing ref column")
	}
	bad4 := starSchema()
	bad4.Tables[1].FDs = []FunctionalDependency{{Determinant: "zzz", Dependent: "a_id"}}
	if err := bad4.Validate(); err == nil {
		t.Fatal("expected error for FD with unknown column")
	}
}

func TestRelationships(t *testing.T) {
	s := starSchema()
	rels := s.Relationships()
	if len(rels) != 2 {
		t.Fatalf("relationships = %d, want 2", len(rels))
	}
	for _, r := range rels {
		if r.One != "fact" {
			t.Fatalf("One side = %s, want fact", r.One)
		}
	}
	if rels[0].ID() != "fact<-a" && rels[0].ID() != "fact<-b" {
		t.Fatalf("relationship ID = %s", rels[0].ID())
	}
}

func TestJoinTreeStar(t *testing.T) {
	s := starSchema()
	edges, err := s.JoinTree([]string{"a", "fact", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(edges))
	}
	// Single table: no edges.
	edges, err = s.JoinTree([]string{"fact"})
	if err != nil || len(edges) != 0 {
		t.Fatalf("single-table join tree: %v, %v", edges, err)
	}
	// a-b without fact cannot connect.
	if _, err := s.JoinTree([]string{"a", "b"}); err == nil {
		t.Fatal("expected disconnection error")
	}
}

func TestJoinTreeChain(t *testing.T) {
	s := chain()
	edges, err := s.JoinTree([]string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("chain edges = %d, want 2", len(edges))
	}
	if _, err := s.JoinTree([]string{"x", "z"}); err == nil {
		t.Fatal("x-z without y must fail")
	}
	// A table named twice is a self-join, not the one-table tree.
	if _, err := s.JoinTree([]string{"x", "y", "x"}); err == nil {
		t.Fatal("a table named twice must fail")
	}
}

// TestNeighborEdges: incident edges come in Relationships order, from the
// schema's index, without allocating.
func TestNeighborEdges(t *testing.T) {
	s := chain()
	ye := s.NeighborEdges("y")
	if len(ye) != 2 || ye[0].ID() != "x<-y" || ye[1].ID() != "y<-z" {
		t.Fatalf("y's incident edges = %v, want x<-y then y<-z", ye)
	}
	if ye[0].Other("y") != "x" || ye[1].Other("y") != "z" {
		t.Fatalf("opposite ends of y's edges = %s, %s, want x, z", ye[0].Other("y"), ye[1].Other("y"))
	}
	xe := s.NeighborEdges("x")
	if len(xe) != 1 {
		t.Fatalf("x has %d incident edges, want 1", len(xe))
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.NeighborEdges("y") }); n != 0 {
		t.Fatalf("NeighborEdges: %v allocs/op, want 0", n)
	}
}

func TestSchemaTableMissing(t *testing.T) {
	if starSchema().Table("nope") != nil {
		t.Fatal("missing table should be nil")
	}
}
