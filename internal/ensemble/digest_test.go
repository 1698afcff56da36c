package ensemble

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/schema"
	"repro/internal/table"
)

// digest_test.go pins a canonical digest of learned and of updated
// ensembles against a committed file. The other suites of this package
// compare one path of the current code with another path of the current
// code; this one compares the current code with the code that wrote the
// file, so a change that moves any model (one leaf count, one float bit)
// fails here. Regenerate deliberately with
//
//	go test ./internal/ensemble -run TestModelDigests -update
//
// and say in CHANGES.md why the models moved.

var updateDigests = flag.Bool("update", false, "rewrite testdata/model_digests.json from the current code")

const digestPath = "testdata/model_digests.json"

// canon writes v in a canonical form: exported struct fields in
// declaration order, slices and maps with their length, map entries in the
// order of their keys' canonical form, floats as their bits. Unexported
// fields (the flat evaluator, caches, clone bookkeeping) are derived state
// and are left out.
func canon(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil;")
			return
		}
		canon(w, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				fmt.Fprintf(w, "%s:", f.Name)
				canon(w, v.Field(i))
			}
		}
	case reflect.Slice, reflect.Array:
		fmt.Fprintf(w, "[%d]", v.Len())
		for i := 0; i < v.Len(); i++ {
			canon(w, v.Index(i))
		}
	case reflect.Map:
		type entry struct {
			key string
			val reflect.Value
		}
		var entries []entry
		for it := v.MapRange(); it.Next(); {
			var k bytes.Buffer
			canon(&k, it.Key())
			entries = append(entries, entry{k.String(), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		fmt.Fprintf(w, "{%d}", len(entries))
		for _, e := range entries {
			io.WriteString(w, e.key)
			canon(w, e.val)
		}
	case reflect.Float32, reflect.Float64:
		fmt.Fprintf(w, "%x;", math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprintf(w, "%d;", v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		fmt.Fprintf(w, "%d;", v.Uint())
	case reflect.Bool:
		fmt.Fprintf(w, "%t;", v.Bool())
	case reflect.String:
		fmt.Fprintf(w, "%q;", v.String())
	default:
		panic(fmt.Sprintf("canon: unsupported kind %s", v.Kind()))
	}
}

// modelDigest is the sha256 of the learned state: RSPNs (nodes, leaves,
// FullSize, sample rates, FDs), AttrRDC, PairDep and Stats.
func modelDigest(e *Ensemble) string {
	h := sha256.New()
	for _, v := range []any{e.RSPNs, e.AttrRDC, e.PairDep, e.Stats} {
		canon(h, reflect.ValueOf(v))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeDigest extends modelDigest with what an update stream also writes:
// the probes' answers and every base table (cells, NULLs, tombstones).
func writeDigest(t *testing.T, e *Ensemble) string {
	h := sha256.New()
	io.WriteString(h, modelDigest(e))
	canon(h, reflect.ValueOf(probes(t, e)))
	names := make([]string, 0, len(e.Tables))
	for name := range e.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tb := e.Tables[name]
		fmt.Fprintf(h, "%q rows %d dead %v;", name, tb.NumRows(), tb.Dead())
		for _, c := range tb.Cols {
			fmt.Fprintf(h, "%q:", c.Meta.Name)
			for i := 0; i < tb.NumRows(); i++ {
				if c.IsNull(i) {
					io.WriteString(h, "n;")
				} else {
					fmt.Fprintf(h, "%x;", math.Float64bits(c.Data[i]))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// mutationStream draws n mutations over every table of the schema from
// the ensemble's current base tables: about a third deletes of live rows,
// the rest inserts with fresh primary keys whose other columns copy a
// random existing row. An inserted row's foreign key is NULL 5 % of the
// time, dangling 5 % (a key its table has not reached yet, which later
// inserts may fill), the latest row the stream inserted into the
// referenced table 30 % (a One-side row gaining its first partner), and
// otherwise a random live key.
func mutationStream(e *Ensemble, n int, seed int64) []Mutation {
	rng := rand.New(rand.NewSource(seed))
	tables := e.Schema.Tables
	live := map[string][]float64{}
	next := map[string]float64{}
	latest := map[string]float64{}
	for _, meta := range tables {
		pk := e.Tables[meta.Name].Column(meta.PrimaryKey)
		for i := range pk.Data {
			live[meta.Name] = append(live[meta.Name], pk.Data[i])
			next[meta.Name] = math.Max(next[meta.Name], pk.Data[i]+1)
		}
	}
	isFK := func(meta *schema.Table, col string) (schema.ForeignKey, bool) {
		for _, fk := range meta.ForeignKeys {
			if fk.Column == col {
				return fk, true
			}
		}
		return schema.ForeignKey{}, false
	}
	muts := make([]Mutation, 0, n)
	for len(muts) < n {
		meta := tables[rng.Intn(len(tables))]
		keys := live[meta.Name]
		if rng.Float64() < 0.35 && len(keys) > 0 {
			k := rng.Intn(len(keys))
			muts = append(muts, Mutation{Op: OpDelete, Table: meta.Name, PK: keys[k]})
			keys[k] = keys[len(keys)-1]
			live[meta.Name] = keys[:len(keys)-1]
			continue
		}
		base := e.Tables[meta.Name]
		src := rng.Intn(base.NumRows())
		vals := map[string]table.Value{}
		for _, c := range meta.Columns {
			switch fk, ok := isFK(meta, c.Name); {
			case c.Name == meta.PrimaryKey:
				vals[c.Name] = table.Float(next[meta.Name])
			case ok:
				refs, u := live[fk.RefTable], rng.Float64()
				switch l, fresh := latest[fk.RefTable]; {
				case u < 0.05: // NULL: left out
				case u < 0.10:
					vals[c.Name] = table.Float(next[fk.RefTable] + 100 + float64(rng.Intn(100)))
				case u < 0.40 && fresh:
					vals[c.Name] = table.Float(l)
				case len(refs) > 0:
					vals[c.Name] = table.Float(refs[rng.Intn(len(refs))])
				}
			default:
				vals[c.Name] = base.Column(c.Name).Get(src)
			}
		}
		latest[meta.Name] = next[meta.Name]
		live[meta.Name] = append(live[meta.Name], next[meta.Name])
		next[meta.Name]++
		muts = append(muts, Mutation{Op: OpInsert, Table: meta.Name, Values: vals})
	}
	return muts
}

// applyStream applies muts through CloneForUpdate + Apply, as the serving
// write path does, in batches whose sizes cycle through 1, 7, 64, 3, 256.
func applyStream(t *testing.T, e *Ensemble, muts []Mutation) *Ensemble {
	t.Helper()
	sizes := []int{1, 7, 64, 3, 256}
	for i, b := 0, 0; i < len(muts); b++ {
		batch := muts[i:min(len(muts), i+sizes[b%len(sizes)])]
		next := e.CloneForUpdate(batch)
		if n, err := next.Apply(batch); err != nil || n != len(batch) {
			t.Fatalf("batch at mutation %d: applied %d of %d: %v", i, n, len(batch), err)
		}
		e, i = next, i+len(batch)
	}
	return e
}

// raceEnabled reports whether the binary was built with -race.
func raceEnabled() bool {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// TestModelDigests learns IMDb, SSB and flights at their default scales
// and configuration, at one and two workers, and runs four fixed
// 3 000-mutation update streams (IMDb at 3 000 titles and the
// customer/orders/orderline chain, each with a three-table member, as
// learned and with sampled members), and compares each digest with the
// committed one.
//
// The committed digests are amd64's: other architectures may fuse
// multiply-adds (FMA on arm64) and round differently, so elsewhere the
// test skips the comparison. Under the race detector the six learned
// ensembles (over a minute of instrumented learning) are left out; the
// update streams still run.
func TestModelDigests(t *testing.T) {
	got := map[string]string{}
	if !raceEnabled() {
		learned := []struct {
			name string
			data func() (*schema.Schema, map[string]*table.Table)
		}{
			{"imdb", func() (*schema.Schema, map[string]*table.Table) { return datagen.IMDb(datagen.DefaultIMDbConfig()) }},
			{"ssb", func() (*schema.Schema, map[string]*table.Table) { return datagen.SSB(datagen.DefaultSSBConfig()) }},
			{"flights", func() (*schema.Schema, map[string]*table.Table) {
				return datagen.Flights(datagen.DefaultFlightsConfig())
			}},
		}
		for _, l := range learned {
			for _, workers := range []int{1, 2} {
				s, tabs := l.data()
				e, err := Build(context.Background(), s, tabs, DefaultConfig().withWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				got[fmt.Sprintf("learn/%s/workers=%d", l.name, workers)] = modelDigest(e)
			}
		}
	}
	for _, w := range []struct {
		name string
		data func() (*schema.Schema, map[string]*table.Table)
		cfg  Config
	}{
		{"imdb", func() (*schema.Schema, map[string]*table.Table) {
			return datagen.IMDb(datagen.IMDbConfig{Titles: 3000, Seed: 1})
		}, DefaultConfig()},
		{"chain", func() (*schema.Schema, map[string]*table.Table) {
			s := testSchema()
			return s, genData(s, 1000, true, 1)
		}, testConfig()},
	} {
		for _, sampled := range []bool{false, true} {
			cfg, name := w.cfg, "write/"+w.name
			if sampled {
				cfg.MaxSamples, name = 1000, name+"/sampled"
			}
			s, tabs := w.data()
			e, err := Build(context.Background(), s, tabs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			widest, rate := 0, 1.0
			for _, r := range e.RSPNs {
				widest, rate = max(widest, len(r.Tables)), math.Min(rate, r.SampleRate)
			}
			if widest < 3 || (rate < 1) != sampled {
				t.Fatalf("%s: widest member has %d tables, lowest sample rate %v: the fixture needs 3 and sampled=%t",
					name, widest, rate, sampled)
			}
			got[name] = writeDigest(t, applyStream(t, e, mutationStream(e, 3000, 47)))
		}
	}

	if *updateDigests {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("the committed digests are amd64's; %s may round differently", runtime.GOARCH)
	}
	raw, err := os.ReadFile(digestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, d := range got {
		if want[name] != d {
			t.Errorf("%s: digest %s, committed %s", name, d, want[name])
		}
	}
}
