package deepdb_test

// history_test.go checks the write path by what it does, not by how its
// code is shaped. Several writers, a Flush/Save/Reload driver and
// lock-free readers run against one WAL-backed DB; each reader pins one
// snapshot at a time and records its generation, its apply watermark
// (LSN) and its probe answers. The log itself then fixes the order of
// every group, and one sequential reference applies the logged groups in
// LSN order and must reproduce every recorded state bit for bit. The laws:
//
//   - every observed state is the prefix of the log up to its LSN: LSN
//     order is apply order, and a group is published whole or not at all
//     (a snapshot holding part of a group is no prefix);
//   - a reader never sees the generation or the LSN move back;
//   - a pinned snapshot re-probed after later publications answers the
//     same: a published snapshot is immutable;
//   - the log holds exactly the acknowledged groups, each writer's in the
//     order it issued them;
//   - a model file holds the prefix up to the checkpoint its Save left in
//     the log, and close-without-save + reopen recovers every logged group.
//
// The fixture learns with sample rate 1, so applying draws nothing from
// the shared rng and batching cannot change a bit (crash_test.go runs the
// same reference against a SIGKILLed child).

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/ensemble"
	"repro/internal/query"
	"repro/internal/wal"
)

const (
	historyRows, historySeed = 800, 51
	historyWriters           = 12
	historyGroups            = 100 // per writer and phase
	historyReaders           = 2
	historySavers            = 4 // concurrent Saves per save round
)

// historyExact are the Exact probes: counts over each table and the join,
// and a float sum whose bits depend on the order rows were appended in.
var historyExact = []query.Query{
	{Aggregate: query.Count, Tables: []string{"orders"}},
	{Aggregate: query.Count, Tables: []string{"customer"}},
	{Aggregate: query.Count, Tables: []string{"customer", "orders"}},
	{Aggregate: query.Sum, AggColumn: "o_amount", Tables: []string{"orders"}},
}

// probe renders every answer of one pinned snapshot: a digest of its base
// tables in physical row order with their tombstones in deletion order
// (rows land in apply order, so any two groups applied out of LSN order
// show here), the Exact probes and the model's answers to the whole
// compilation matrix.
func probe(ctx context.Context, p deepdb.Pinned) (string, error) {
	out := ""
	for _, name := range []string{"customer", "orders"} {
		tb := p.Data()[name]
		h := fnv.New64a()
		for _, c := range tb.Cols {
			binary.Write(h, binary.LittleEndian, c.Data[:tb.NumRows()]) //nolint:errcheck // hashes never fail
			binary.Write(h, binary.LittleEndian, c.Nul[:tb.NumRows()])  //nolint:errcheck
		}
		for _, r := range tb.Dead() {
			binary.Write(h, binary.LittleEndian, int64(r)) //nolint:errcheck
		}
		out += fmt.Sprintf("table %s: %d rows, %d dead, %x\n", name, tb.NumRows(), len(tb.Dead()), h.Sum64())
	}
	for i, q := range historyExact {
		r, err := p.Exact(ctx, q)
		if err != nil {
			return "", fmt.Errorf("exact %d: %w", i, err)
		}
		out += fmt.Sprintf("exact %d: %s\n", i, normResult(r))
	}
	for i, q := range equivalenceWorkload {
		r, err := p.Query(ctx, q)
		if err != nil {
			return "", fmt.Errorf("query %d: %w", i, err)
		}
		out += fmt.Sprintf("query %d: %s\n", i, normResult(r))
	}
	return out, nil
}

// logged is one WAL record: a mutation group at its LSN.
type logged struct {
	lsn  uint64
	muts []ensemble.Mutation
}

// readLog returns every record in the log directory, in LSN order.
func readLog(t *testing.T, dir string) []logged {
	t.Helper()
	var out []logged
	err := wal.Dump(dir, 0, func(lsn uint64, payload []byte) error {
		muts, err := wal.DecodeMutations(payload)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		out = append(out, logged{lsn: lsn, muts: muts})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// applyLogged applies one logged group to the reference at its LSN, as
// the applier would have, and checks the reference's watermark lands
// there.
func applyLogged(t *testing.T, ref *deepdb.DB, g logged) {
	t.Helper()
	if err := ref.EnqueueWaitedAt(g.muts, g.lsn); err != nil {
		t.Fatalf("reference: group at lsn %d: %v", g.lsn, err)
	}
	if got := ref.Pin().LSN(); got != g.lsn {
		t.Fatalf("reference watermark %d after the group at lsn %d", got, g.lsn)
	}
}

// learnReference learns the fixture model without a WAL: the model every
// history starts from.
func learnReference(t *testing.T, rows int, seed int64) *deepdb.DB {
	t.Helper()
	s, data := fixture(rows, seed)
	ref, err := deepdb.LearnDataset(context.Background(), s, data, deepdb.WithMaxSamples(8000))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// historyWriter issues one writer's groups. Every row it inserts has a
// primary key no other writer uses, and it deletes only order rows it
// inserted itself or fixture orders of its own residue class, so each
// delete finds its row whatever the interleaving.
type historyWriter struct {
	w     int
	rng   *rand.Rand // draws the groups
	pace  *rand.Rand // draws the pauses between them
	next  int        // next private primary key
	mine  []float64  // live order rows this writer inserted
	fixed int        // fixture orders this writer deleted
	acked [][]ensemble.Mutation
}

func (hw *historyWriter) key() int {
	hw.next++
	return 30_000_000 + hw.w*1_000_000 + hw.next
}

func (hw *historyWriter) order(cust int) ensemble.Mutation {
	id := hw.key()
	hw.mine = append(hw.mine, float64(id))
	return ensemble.Mutation{Op: ensemble.OpInsert, Table: "orders", Values: map[string]deepdb.Value{
		"o_id": deepdb.Int(id), "o_c_id": deepdb.Int(cust), "o_amount": deepdb.Float(10 + hw.rng.Float64()*90),
	}}
}

// group draws the next group: one order insert, a multi-row Update (a new
// customer with orders of its own, plus an order of a fixture customer),
// or a delete of one order row.
func (hw *historyWriter) group() []ensemble.Mutation {
	switch r := hw.rng.Intn(10); {
	case r < 4:
		return []ensemble.Mutation{hw.order(hw.rng.Intn(historyRows))}
	case r < 7:
		cust := hw.key()
		g := []ensemble.Mutation{{Op: ensemble.OpInsert, Table: "customer", Values: map[string]deepdb.Value{
			"c_id": deepdb.Int(cust), "c_age": deepdb.Int(18 + hw.rng.Intn(60)), "c_region": deepdb.Int(hw.rng.Intn(2)),
		}}}
		for k := hw.rng.Intn(3); k >= 0; k-- {
			g = append(g, hw.order(cust))
		}
		return append(g, hw.order(hw.rng.Intn(historyRows)))
	case r < 9 && len(hw.mine) > 0:
		i := hw.rng.Intn(len(hw.mine))
		pk := hw.mine[i]
		hw.mine = slices.Delete(hw.mine, i, i+1)
		return []ensemble.Mutation{{Op: ensemble.OpDelete, Table: "orders", PK: pk}}
	default:
		pk := float64(hw.w + historyWriters*hw.fixed)
		hw.fixed++
		return []ensemble.Mutation{{Op: ensemble.OpDelete, Table: "orders", PK: pk}}
	}
}

// issue sends one group through the public write calls: Insert or Delete
// for one row, Update for several.
func issue(db *deepdb.DB, g []ensemble.Mutation) error {
	if len(g) == 1 && g[0].Op == ensemble.OpDelete {
		return db.Delete(g[0].Table, g[0].PK)
	}
	if len(g) == 1 {
		return db.Insert(g[0].Table, g[0].Values)
	}
	rows := make([]deepdb.Row, len(g))
	for i, m := range g {
		rows[i] = deepdb.Row{Table: m.Table, Values: m.Values}
	}
	return db.Update(rows...)
}

// observation is what one pinned snapshot reported: its generation, its
// apply watermark and its probe answers.
type observation struct {
	gen, lsn uint64
	answers  string
}

// observe reads everything a pinned snapshot reports.
func observe(ctx context.Context, p deepdb.Pinned) (observation, error) {
	o := observation{gen: p.Generation(), lsn: p.LSN()}
	var err error
	o.answers, err = probe(ctx, p)
	return o, err
}

// savedModel is a model file written by one save round and the checkpoint
// the log held after it.
type savedModel struct {
	path string
	ckpt uint64
}

// history is the shared record of one run.
type history struct {
	mu    sync.Mutex
	obs   []observation
	saved []savedModel
	errs  []error
}

func (h *history) fail(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errs = append(h.errs, err)
}

// read pins snapshots until stop closes, recording each one and holding
// the laws a reader can check alone: its generation and LSN never move
// back, and the snapshot it pinned before reports what it did once a
// newer one is published. The first snapshot it pinned is re-observed at
// the end. ready is called after the first observation.
func (h *history) read(ctx context.Context, db *deepdb.DB, r int, stop <-chan struct{}, ready func()) {
	var first, prev deepdb.Pinned
	var firstObs, prevObs observation
	for i := 0; ; i++ {
		select {
		case <-stop:
			if i > 0 {
				h.reobserve(ctx, r, "first", first, firstObs)
			}
			return
		default:
		}
		p := db.Pin()
		o, err := observe(ctx, p)
		if err != nil {
			h.fail(fmt.Errorf("reader %d: %w", r, err))
			return
		}
		if i == 0 {
			first, firstObs = p, o
		} else {
			if o.gen < prevObs.gen || o.lsn < prevObs.lsn {
				h.fail(fmt.Errorf("reader %d: snapshot moved back from gen %d lsn %d to gen %d lsn %d",
					r, prevObs.gen, prevObs.lsn, o.gen, o.lsn))
				return
			}
			if o.gen != prevObs.gen && !h.reobserve(ctx, r, "previous", prev, prevObs) {
				return
			}
		}
		prev, prevObs = p, o
		h.mu.Lock()
		h.obs = append(h.obs, o)
		h.mu.Unlock()
		if i == 0 {
			ready()
		}
	}
}

// reobserve observes a pinned snapshot again and reports whether it
// reported what it did when it was pinned.
func (h *history) reobserve(ctx context.Context, r int, which string, p deepdb.Pinned, want observation) bool {
	got, err := observe(ctx, p)
	if err != nil {
		h.fail(fmt.Errorf("reader %d: %w", r, err))
		return false
	}
	if got != want {
		h.fail(fmt.Errorf("reader %d: the %s snapshot it pinned changed after later writes\n  then: gen %d lsn %d\n%s  now:  gen %d lsn %d\n%s",
			r, which, want.gen, want.lsn, want.answers, got.gen, got.lsn, got.answers))
		return false
	}
	return true
}

// saveRound runs historySavers Saves to one path at once, then keeps a
// copy of the file with the checkpoint the log holds after all of them.
func (h *history) saveRound(db *deepdb.DB, model, dir string) {
	errs := make(chan error, historySavers)
	for range historySavers {
		go func() { errs <- db.Save(model) }()
	}
	for range historySavers {
		if err := <-errs; err != nil {
			h.fail(fmt.Errorf("save: %w", err))
			return
		}
	}
	b, err := os.ReadFile(model)
	if err != nil {
		h.fail(err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	sm := savedModel{path: filepath.Join(dir, fmt.Sprintf("saved-%d.deepdb", len(h.saved))), ckpt: db.UpdateStats().WAL.CheckpointLSN}
	if err := os.WriteFile(sm.path, b, 0o644); err != nil {
		h.errs = append(h.errs, err)
		return
	}
	h.saved = append(h.saved, sm)
}

// phase starts the readers and a driver that alternates Flush and save
// rounds, then runs the writers to completion once every reader has
// pinned a first snapshot, and returns when all have stopped. Writers
// pause for a random few hundred microseconds before half their groups,
// so the readers see many states and the writers still collide.
func (h *history) phase(ctx context.Context, db *deepdb.DB, writers []*historyWriter, model, dir string) {
	var writing, ready, bg sync.WaitGroup
	stop := make(chan struct{})
	ready.Add(historyReaders)
	for r := range historyReaders {
		bg.Add(1)
		go func() {
			defer bg.Done()
			h.read(ctx, db, r, stop, ready.Done)
		}()
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 1 {
				h.saveRound(db, model, dir)
			} else if err := db.Flush(ctx); err != nil {
				h.fail(fmt.Errorf("flush: %w", err))
			}
		}
	}()
	ready.Wait()
	for _, hw := range writers {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for range historyGroups {
				if hw.pace.Intn(2) == 0 {
					time.Sleep(time.Duration(hw.pace.Intn(300)) * time.Microsecond)
				}
				g := hw.group()
				if err := issue(db, g); err != nil {
					h.fail(fmt.Errorf("writer %d: %w", hw.w, err))
					return
				}
				hw.acked = append(hw.acked, g)
			}
		}()
	}
	writing.Wait()
	close(stop)
	bg.Wait()
}

func TestWriteHistories(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	walDir, model := filepath.Join(dir, "wal"), filepath.Join(dir, "m.deepdb")
	db := learnWAL(t, walDir, historyRows, historySeed)
	writers := make([]*historyWriter, historyWriters)
	for w := range writers {
		writers[w] = &historyWriter{w: w,
			rng:  rand.New(rand.NewSource(historySeed + int64(w))),
			pace: rand.New(rand.NewSource(int64(w)))}
	}
	h := &history{}

	// Two phases of concurrent writes. Between them, with the writers
	// paused, a save round and a Reload of its file: the model file carries
	// no LSN, so only a file holding the current state may be reloaded.
	h.phase(ctx, db, writers, model, dir)
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	h.saveRound(db, model, dir)
	if err := db.Reload(model); err != nil {
		t.Fatal(err)
	}
	h.phase(ctx, db, writers, model, dir)
	// Then a tail no save covers, for the reopen to replay.
	for _, hw := range writers {
		g := hw.group()
		if err := issue(db, g); err != nil {
			t.Fatal(err)
		}
		hw.acked = append(hw.acked, g)
	}
	if err := db.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	final, err := observe(ctx, db.Pin())
	if err != nil {
		t.Fatal(err)
	}
	h.obs = append(h.obs, final)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, err := range h.errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	log := readLog(t, walDir)
	if final.lsn != uint64(len(log)) {
		t.Fatalf("flushed state at lsn %d, the log holds %d groups", final.lsn, len(log))
	}
	checkLogged(t, log, writers)
	ref := learnReference(t, historyRows, historySeed)
	defer ref.Close()
	checkPrefixes(t, ref, log, h, model, walDir)
}

// checkLogged holds the log to the writers' acknowledgements: LSNs run
// 1, 2, 3, ...; every acknowledged group is logged once, nothing else is,
// and each writer's groups appear in the order it issued them.
func checkLogged(t *testing.T, log []logged, writers []*historyWriter) {
	t.Helper()
	issuer := map[string]int{}
	for w, hw := range writers {
		for _, g := range hw.acked {
			issuer[string(wal.EncodeMutations(g))] = w
		}
	}
	next := make([]int, len(writers))
	for i, g := range log {
		if g.lsn != uint64(i+1) {
			t.Fatalf("log record %d has lsn %d", i, g.lsn)
		}
		enc := string(wal.EncodeMutations(g.muts))
		w, ok := issuer[enc]
		if !ok {
			t.Fatalf("lsn %d logs a group no writer had acknowledged", g.lsn)
		}
		if next[w] >= len(writers[w].acked) || string(wal.EncodeMutations(writers[w].acked[next[w]])) != enc {
			t.Fatalf("lsn %d: writer %d's groups are logged out of the order it issued them", g.lsn, w)
		}
		next[w]++
	}
	for w, hw := range writers {
		if next[w] != len(hw.acked) {
			t.Fatalf("writer %d had %d groups acknowledged, the log holds %d", w, len(hw.acked), next[w])
		}
	}
}

// checkPrefixes applies the log to the reference in LSN order. At every
// LSN a reader observed, the reference must answer bit for bit what was
// observed; a file a save round left must hold the prefix up to the
// checkpoint beside it; and the last file reopened with the log must
// recover every logged group.
func checkPrefixes(t *testing.T, ref *deepdb.DB, log []logged, h *history, model, walDir string) {
	t.Helper()
	ctx := context.Background()
	byLSN := map[uint64][]observation{}
	for _, o := range h.obs {
		byLSN[o.lsn] = append(byLSN[o.lsn], o)
	}
	last := h.saved[len(h.saved)-1]
	var lastData deepdb.Dataset
	// expect observes the reference once per LSN, when something needs it.
	var want observation
	fresh := false
	expect := func() observation {
		if !fresh {
			var err error
			if want, err = observe(ctx, ref.Pin()); err != nil {
				t.Fatal(err)
			}
			fresh = true
		}
		return want
	}
	for lsn := uint64(0); lsn <= uint64(len(log)); lsn++ {
		if lsn > 0 {
			applyLogged(t, ref, log[lsn-1])
			fresh = false
		}
		for _, o := range byLSN[lsn] {
			if o.answers != expect().answers {
				t.Fatalf("the state observed at gen %d lsn %d is not the log's prefix up to it\nobserved:\n%sreference:\n%s",
					o.gen, o.lsn, o.answers, expect().answers)
			}
		}
		for _, sm := range h.saved {
			if sm.ckpt != lsn {
				continue
			}
			if got := openSaved(t, sm.path, ref.Data(), ""); got.answers != expect().answers {
				t.Fatalf("%s, saved with the checkpoint at lsn %d, does not hold the prefix up to it\nfile:\n%sreference:\n%s",
					filepath.Base(sm.path), lsn, got.answers, expect().answers)
			}
		}
		if lsn == last.ckpt {
			lastData = ref.Data()
		}
	}

	// Close without a save, reopen from the last file and the log.
	got, want := openSaved(t, model, lastData, walDir), expect()
	if got.lsn != want.lsn || got.answers != want.answers {
		t.Fatalf("reopening the last saved file with the log does not recover all %d logged groups\nreopened at lsn %d:\n%sreference at lsn %d:\n%s",
			len(log), got.lsn, got.answers, want.lsn, want.answers)
	}
}

// openSaved opens a saved model over base tables that hold its state, and
// over the log in walDir when one is given, and observes it.
func openSaved(t *testing.T, path string, data deepdb.Dataset, walDir string) observation {
	t.Helper()
	ctx := context.Background()
	opts := []deepdb.Option{deepdb.WithDataset(maps.Clone(data))}
	if walDir != "" {
		opts = append(opts, deepdb.WithWAL(walDir))
	}
	db, err := deepdb.Open(ctx, path, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	o, err := observe(ctx, db.Pin())
	if err != nil {
		t.Fatal(err)
	}
	return o
}
