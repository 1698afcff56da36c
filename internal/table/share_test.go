package table

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/schema"
)

// shareFixture is a two-column table of n rows (a = i, b = i/2, every
// tenth b NULL) whose arrays have spare capacity, so an in-place append
// really writes into memory the table's clones share.
func shareFixture(t *testing.T, n int) *Table {
	t.Helper()
	tb := New(&schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "a", Kind: schema.IntKind},
		{Name: "b", Kind: schema.FloatKind, Nullable: true},
	}})
	for i := 0; i < n; i++ {
		b := Float(float64(i) / 2)
		if i%10 == 0 {
			b = Null()
		}
		tb.AppendRow(Int(i), b)
	}
	for _, c := range tb.Cols {
		if cap(c.Data) == len(c.Data) || cap(c.Nul) == len(c.Nul) {
			t.Fatalf("fixture of %d rows has no spare capacity in %s", n, c.Meta.Name)
		}
	}
	return tb
}

// frozen is a deep copy of everything a reader of the table can see.
type frozen struct {
	rows int
	dead []int
	data [][]float64
	nul  [][]bool
}

func freeze(t *Table) frozen {
	f := frozen{rows: t.NumRows(), dead: append([]int(nil), t.Dead()...)}
	for _, c := range t.Cols {
		f.data = append(f.data, append([]float64(nil), c.Data...))
		f.nul = append(f.nul, append([]bool(nil), c.Nul...))
	}
	return f
}

// sameBits reports whether the table still shows exactly the frozen state,
// comparing payloads bit for bit.
func (f frozen) sameBits(t *Table) error {
	if t.NumRows() != f.rows || !reflect.DeepEqual(append([]int(nil), t.Dead()...), f.dead) {
		return fmt.Errorf("rows/tombstones %d/%v, want %d/%v", t.NumRows(), t.Dead(), f.rows, f.dead)
	}
	for j, c := range t.Cols {
		if len(c.Data) != len(f.data[j]) || !reflect.DeepEqual(c.Nul, f.nul[j]) {
			return fmt.Errorf("column %s: length or NULLs changed", c.Meta.Name)
		}
		for i, v := range c.Data {
			if math.Float64bits(v) != math.Float64bits(f.data[j][i]) {
				return fmt.Errorf("column %s row %d: %v, want %v", c.Meta.Name, i, v, f.data[j][i])
			}
		}
	}
	return nil
}

// TestCloneDataIsolation: a clone shares the receiver's arrays, yet its
// appends, tombstones and cell writes — including a run of appends that
// outgrows the shared capacity — leave the receiver bit-identical, and the
// clone sees all of them.
func TestCloneDataIsolation(t *testing.T) {
	base := shareFixture(t, 100)
	base.Tombstone(3)
	want := freeze(base)
	c := base.CloneData()
	if &c.Cols[0].Data[0] != &base.Cols[0].Data[0] {
		t.Fatal("clone copied the column array instead of sharing it")
	}
	grow := cap(base.Cols[0].Data) - base.NumRows() + 5
	for i := 0; i < grow; i++ {
		c.AppendRow(Int(1000+i), Float(-1))
	}
	c.Tombstone(7)
	c.Tombstone(100)
	c.Cols[1].Set(4, 99)
	c.Cols[1].Set(101, 98)
	if err := want.sameBits(base); err != nil {
		t.Fatalf("receiver changed under its clone: %v", err)
	}
	if c.NumRows() != 100+grow || !reflect.DeepEqual(c.Dead(), []int{3, 7, 100}) {
		t.Fatalf("clone: %d rows, tombstones %v", c.NumRows(), c.Dead())
	}
	if c.Cols[0].Data[100] != 1000 || c.Cols[1].Data[4] != 99 || c.Cols[1].Data[101] != 98 {
		t.Fatal("clone lost its own writes")
	}
	// A cell write on the receiver copies too: a clone keeps its view.
	c2 := base.CloneData()
	base.Cols[0].Set(5, -5)
	if err := want.sameBits(c2); err != nil {
		t.Fatalf("clone changed under a receiver write: %v", err)
	}
}

// branchesKeepTheirRows gives two clones of one base different rows and
// tombstones and reports whether each reads its own.
func branchesKeepTheirRows(clone func(*Table) *Table) error {
	base := New(&schema.Table{Name: "t", Columns: []schema.Column{{Name: "a", Kind: schema.IntKind}}})
	for i := 0; i < 50; i++ {
		base.AppendRow(Int(i))
	}
	want := freeze(base)
	x, y := clone(base), clone(base)
	x.AppendRow(Int(-1))
	y.AppendRow(Int(-2))
	x.Tombstone(1)
	y.Tombstone(2)
	y.AppendRow(Int(-3))
	x.AppendRow(Int(-4))
	if got := []float64{x.Cols[0].Data[50], x.Cols[0].Data[51]}; !reflect.DeepEqual(got, []float64{-1, -4}) {
		return fmt.Errorf("first branch reads %v, want its own [-1 -4]", got)
	}
	if got := []float64{y.Cols[0].Data[50], y.Cols[0].Data[51]}; !reflect.DeepEqual(got, []float64{-2, -3}) {
		return fmt.Errorf("second branch reads %v, want its own [-2 -3]", got)
	}
	if !reflect.DeepEqual(x.Dead(), []int{1}) || !reflect.DeepEqual(y.Dead(), []int{2}) {
		return fmt.Errorf("tombstones %v / %v, want [1] / [2]", x.Dead(), y.Dead())
	}
	return want.sameBits(base)
}

// TestCloneDataBranches: two clones of one base — N shards carved from one
// model, or a clone of a stale snapshot — each append in turn and each
// reads its own rows: the tail word lets the first extend the arrays in
// place and sends the second to private ones.
func TestCloneDataBranches(t *testing.T) {
	if err := branchesKeepTheirRows((*Table).CloneData); err != nil {
		t.Fatal(err)
	}
}

// TestCloneDataBranchesNeedTheTail is the must-fail twin: clones that
// share the arrays but not the tail word both append in place, into the
// same slots, and the branch check above catches it on every run.
func TestCloneDataBranchesNeedTheTail(t *testing.T) {
	untailed := func(b *Table) *Table {
		c := b.CloneData()
		c.tail = new(atomic.Int64)
		c.tail.Store(int64(c.rows + len(c.dead)))
		return c
	}
	if err := branchesKeepTheirRows(untailed); err == nil {
		t.Fatal("branches sharing arrays without the tail word passed the branch check: it cannot see a lost append")
	}
}

// TestCloneDataConcurrentBranches: clones of one base appending from
// several goroutines at once each keep their own rows (run it with -race).
func TestCloneDataConcurrentBranches(t *testing.T) {
	base := shareFixture(t, 100)
	want := freeze(base)
	const branches, appends = 4, 64
	clones := make([]*Table, branches)
	for i := range clones {
		clones[i] = base.CloneData()
	}
	var wg sync.WaitGroup
	for i, c := range clones {
		wg.Add(1)
		go func(i int, c *Table) {
			defer wg.Done()
			for k := 0; k < appends; k++ {
				c.AppendRow(Int(i*1000+k), Float(float64(i)))
				if k%8 == 0 {
					c.Tombstone(k)
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, c := range clones {
		for k := 0; k < appends; k++ {
			if got := c.Cols[0].Data[100+k]; got != float64(i*1000+k) {
				t.Fatalf("branch %d row %d = %v, want %d", i, 100+k, got, i*1000+k)
			}
		}
		if len(c.Dead()) != appends/8 {
			t.Fatalf("branch %d has %d tombstones, want %d", i, len(c.Dead()), appends/8)
		}
	}
	if err := want.sameBits(base); err != nil {
		t.Fatalf("base changed under its branches: %v", err)
	}
}

// TestLiveDropsTombstones: Live compacts tombstoned rows away in row order
// and is the table itself when nothing is tombstoned.
func TestLiveDropsTombstones(t *testing.T) {
	tb := shareFixture(t, 20)
	if tb.Live() != tb {
		t.Fatal("Live copied a table without tombstones")
	}
	tb.Tombstone(19)
	tb.Tombstone(0)
	tb.Tombstone(7)
	live := tb.Live()
	if live.NumRows() != 17 || tb.NumRows() != 20 {
		t.Fatalf("live %d rows, physical %d; want 17, 20", live.NumRows(), tb.NumRows())
	}
	var got []float64
	for i := 0; i < live.NumRows(); i++ {
		got = append(got, live.Cols[0].Data[i])
	}
	want := []float64{1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("live rows %v, want %v", got, want)
	}
	if !live.Cols[1].IsNull(8) || live.Cols[1].IsNull(0) {
		t.Fatal("Live misaligned the NULL flags")
	}
}
