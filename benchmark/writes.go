package main

import (
	"fmt"
	"math/rand"
	"net/http"

	"repro/internal/ensemble"
	"repro/internal/table"
)

// writeOp is one generated mutation of mixed_rw: an insert of a new row
// into one of the two written spoke tables, or the delete of a row the
// generated data set started with (so a delete never misses).
type writeOp struct {
	insert bool
	ti     int // index into writtenTables
	pk     float64
	fk     float64 // referenced title (inserts)
	attr   float64 // the table's attribute column (inserts)
	raw    []byte  // the complete HTTP request
}

// writtenTables are the spoke tables mixed_rw mutates, with their columns.
var writtenTables = []struct{ name, pk, fk, attr string }{
	{"cast_info", "ci_id", "ci_t_id", "ci_role_id"},
	{"movie_keyword", "mk_id", "mk_t_id", "mk_keyword_id"},
}

// genWrites generates n mutations from the seed: alternating between the
// written tables, 10% deletes, the rest inserts whose foreign key and
// attribute are copied from random existing rows (keeping the data's skew).
func genWrites(ds dataset, n int, seed int64) []writeOp {
	rng := rand.New(rand.NewSource(seed))
	type state struct {
		victims []int // rows of the original table, shuffled; deleted in order
		nextPK  float64
	}
	st := make([]state, len(writtenTables))
	for i, w := range writtenTables {
		t := ds.tabs[w.name]
		st[i].victims = rng.Perm(t.NumRows())
		for _, v := range t.Column(w.pk).Data {
			if v >= st[i].nextPK {
				st[i].nextPK = v + 1
			}
		}
	}
	ops := make([]writeOp, n)
	for i := range ops {
		ti := i % len(writtenTables)
		w, t, s := writtenTables[ti], ds.tabs[writtenTables[ti].name], &st[ti]
		if rng.Intn(10) == 0 && len(s.victims) > 0 {
			pk := t.Column(w.pk).Data[s.victims[0]]
			s.victims = s.victims[1:]
			ops[i] = writeOp{ti: ti, pk: pk,
				raw: rawRequest(http.MethodPost, "/delete", []byte(fmt.Sprintf(`{"table":%q,"pk":%v}`, w.name, pk)))}
			continue
		}
		src := rng.Intn(t.NumRows())
		op := writeOp{insert: true, ti: ti, pk: s.nextPK,
			fk: t.Column(w.fk).Data[src], attr: t.Column(w.attr).Data[src]}
		s.nextPK++
		op.raw = rawRequest(http.MethodPost, "/insert", []byte(fmt.Sprintf(
			`{"table":%q,"values":{%q:%v,%q:%v,%q:%v}}`, w.name, w.pk, op.pk, w.fk, op.fk, w.attr, op.attr)))
		ops[i] = op
	}
	return ops
}

// mutation converts the op for the in-process apply measurement.
func (op writeOp) mutation() ensemble.Mutation {
	w := writtenTables[op.ti]
	if !op.insert {
		return ensemble.Mutation{Op: ensemble.OpDelete, Table: w.name, PK: op.pk}
	}
	return ensemble.Mutation{Op: ensemble.OpInsert, Table: w.name, Values: map[string]table.Value{
		w.pk: table.Float(op.pk), w.fk: table.Float(op.fk), w.attr: table.Float(op.attr)}}
}

// applyWrites returns the data set as it must look after the acknowledged
// ops: the harness's own mirror of the server's state, built without any of
// the program's update code, for the exact truth after mutation. Deletes
// only ever name original rows and inserts only new keys, so the order of
// application does not matter.
func applyWrites(ds dataset, ops []writeOp, acked []bool) dataset {
	out := dataset{schema: ds.schema, tabs: map[string]*table.Table{}}
	for name, t := range ds.tabs {
		out.tabs[name] = t
	}
	for ti, w := range writtenTables {
		t := ds.tabs[w.name]
		deleted := map[float64]bool{}
		for i, op := range ops {
			if acked[i] && !op.insert && op.ti == ti {
				deleted[op.pk] = true
			}
		}
		var keep []int
		pk := t.Column(w.pk)
		for r := 0; r < t.NumRows(); r++ {
			if !deleted[pk.Data[r]] {
				keep = append(keep, r)
			}
		}
		nt := t.Select(keep)
		for i, op := range ops {
			if acked[i] && op.insert && op.ti == ti {
				vals := make([]table.Value, len(nt.Cols))
				for j, c := range nt.Cols {
					switch c.Meta.Name {
					case w.pk:
						vals[j] = table.Float(op.pk)
					case w.fk:
						vals[j] = table.Float(op.fk)
					case w.attr:
						vals[j] = table.Float(op.attr)
					default:
						vals[j] = table.Null()
					}
				}
				nt.AppendRow(vals...)
			}
		}
		out.tabs[w.name] = nt
	}
	return out
}
