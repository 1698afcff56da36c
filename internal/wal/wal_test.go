package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/table"
)

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append(%d): lsn = %d, want %d", i, lsn, i+1)
		}
	}
}

func collect(t *testing.T, l *Log) map[uint64]string {
	t.Helper()
	out := map[uint64]string{}
	if err := l.Replay(func(lsn uint64, payload []byte) error {
		out[lsn] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		want := fmt.Sprintf("record-%04d", i)
		if got[uint64(i+1)] != want {
			t.Fatalf("lsn %d: payload %q, want %q", i+1, got[uint64(i+1)], want)
		}
	}
	// LSNs continue after reopen.
	lsn, err := l.Append([]byte("next"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-reopen Append lsn = %d, want 11", lsn)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("Segments = %d, want >= 3 with a 256-byte segment cap", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// All 50 records survive across segments.
	l, err = Open(dir, Options{Durability: Off, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 50 {
		t.Fatalf("replayed %d records, want 50", len(got))
	}
}

func TestCheckpointTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 0, 50)
	before := l.Stats()
	if err := l.Checkpoint(before.LastLSN); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.Segments != 1 {
		t.Fatalf("Segments after full checkpoint = %d, want 1 (the active one)", after.Segments)
	}
	if after.TruncatedSegments == 0 {
		t.Fatal("TruncatedSegments = 0, want > 0")
	}
	if after.SizeBytes >= before.SizeBytes {
		t.Fatalf("SizeBytes did not shrink: %d -> %d", before.SizeBytes, after.SizeBytes)
	}
	if after.CheckpointLSN != before.LastLSN {
		t.Fatalf("CheckpointLSN = %d, want %d", after.CheckpointLSN, before.LastLSN)
	}
}

func TestReplaySkipsCheckpointedRecords(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 10)
	if err := l.Checkpoint(4); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 6 {
		t.Fatalf("replayed %d records, want 6 (LSNs 5..10)", len(got))
	}
	for lsn := uint64(1); lsn <= 4; lsn++ {
		if _, ok := got[lsn]; ok {
			t.Fatalf("checkpointed lsn %d was replayed", lsn)
		}
	}
}

func TestTornTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := filepath.Join(dir, segs[0])

	// Cut the file mid-record at every possible offset past the header:
	// Open must recover the longest intact prefix and never fail.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(full) - 1; cut >= headerSize; cut-- {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{Durability: Off})
		if err != nil {
			t.Fatalf("Open with tail cut at %d: %v", cut, err)
		}
		got := collect(t, l)
		for lsn := range got {
			if got[lsn] != fmt.Sprintf("record-%04d", lsn-1) {
				t.Fatalf("cut %d: lsn %d has wrong payload %q", cut, lsn, got[lsn])
			}
		}
		// Appending after recovery continues the sequence cleanly.
		lsn, err := l.Append([]byte("post-recovery"))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(len(got) + 1); lsn != want {
			t.Fatalf("cut %d: post-recovery lsn = %d, want %d", cut, lsn, want)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCorruptTailIsTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte of the last record: its CRC fails, the first
	// four records survive.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after corrupt tail, want 4", len(got))
	}
}

func TestCorruptMiddleSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 50)
	if l.Stats().Segments < 3 {
		t.Fatalf("need >= 3 segments, got %d", l.Stats().Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := filepath.Join(dir, segs[0])
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Durability: Off, SegmentBytes: 256}); err == nil {
		t.Fatal("Open succeeded with a corrupt non-last segment; want an error (silent data loss)")
	}
}

func TestSyncModesAppend(t *testing.T) {
	for _, d := range []Durability{Sync, Batched, Off} {
		t.Run(d.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Durability: d, SyncEvery: 4})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 0, 20)
			st := l.Stats()
			switch d {
			case Sync:
				if st.Synced < 20 {
					t.Fatalf("Sync mode synced %d times for 20 appends", st.Synced)
				}
			case Batched:
				if st.Synced == 0 || st.Synced >= 20 {
					t.Fatalf("Batched mode synced %d times for 20 appends with SyncEvery=4", st.Synced)
				}
			case Off:
				if st.Synced != 0 {
					t.Fatalf("Off mode synced %d times on the append path", st.Synced)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l, err = Open(dir, Options{Durability: d})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if got := collect(t, l); len(got) != 20 {
				t.Fatalf("replayed %d records, want 20", len(got))
			}
		})
	}
}

func TestInspectAndDump(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Off, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 0, 30)
	if err := l.Checkpoint(10); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointLSN != 10 {
		t.Fatalf("CheckpointLSN = %d, want 10", info.CheckpointLSN)
	}
	if info.LastLSN != 30 {
		t.Fatalf("LastLSN = %d, want 30", info.LastLSN)
	}
	if len(info.Segments) < 2 {
		t.Fatalf("Segments = %d, want >= 2", len(info.Segments))
	}
	for _, s := range info.Segments {
		if !s.HeaderOK || s.TornBytes != 0 {
			t.Fatalf("segment %s: HeaderOK=%v TornBytes=%d on a clean log", s.Name, s.HeaderOK, s.TornBytes)
		}
	}

	var lsns []uint64
	err = Dump(dir, 25, func(lsn uint64, payload []byte) error {
		lsns = append(lsns, lsn)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lsns) != 5 {
		t.Fatalf("Dump(after=25) returned %d records, want 5", len(lsns))
	}
	for i, lsn := range lsns {
		if lsn != uint64(26+i) {
			t.Fatalf("Dump order: got lsn %d at position %d", lsn, i)
		}
	}
}

func TestReplayAfterAppendRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Durability: Off})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); err == nil {
		t.Fatal("Replay after Append succeeded; want an error")
	}
}

func TestMutationCodecRoundTrip(t *testing.T) {
	muts := []ensemble.Mutation{
		{Op: ensemble.OpInsert, Table: "orders", Values: map[string]table.Value{
			"o_id":     table.Int(42),
			"o_amount": table.Float(19.5),
			"o_note":   table.Null(),
		}},
		{Op: ensemble.OpDelete, Table: "customer", PK: 7},
		{Op: ensemble.OpInsert, Table: "customer", Values: nil},
	}
	payload := EncodeMutations(muts)
	// Deterministic bytes regardless of map iteration order.
	for i := 0; i < 8; i++ {
		if got := EncodeMutations(muts); string(got) != string(payload) {
			t.Fatal("EncodeMutations is not deterministic")
		}
	}
	got, err := DecodeMutations(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("decoded %d mutations, want 3", len(got))
	}
	if got[0].Op != ensemble.OpInsert || got[0].Table != "orders" || len(got[0].Values) != 3 {
		t.Fatalf("mutation 0 mismatch: %+v", got[0])
	}
	if v := got[0].Values["o_amount"]; v.Null || v.F != 19.5 {
		t.Fatalf("o_amount = %+v", v)
	}
	if v := got[0].Values["o_note"]; !v.Null {
		t.Fatalf("o_note = %+v, want NULL", v)
	}
	if got[1].Op != ensemble.OpDelete || got[1].Table != "customer" || got[1].PK != 7 {
		t.Fatalf("mutation 1 mismatch: %+v", got[1])
	}
	// Truncated payloads error instead of panicking (the group count in
	// the header no longer matches the bytes present).
	for cut := 0; cut < len(payload); cut++ {
		if _, err := DecodeMutations(payload[:cut]); err == nil {
			t.Fatalf("DecodeMutations accepted truncated payload of %d bytes", cut)
		}
	}
}

func FuzzSegmentScan(f *testing.F) {
	// Seed with a real segment so the fuzzer starts from valid framing.
	dir := f.TempDir()
	l, err := Open(dir, Options{Durability: Off})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("seed-%d", i))); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	segs, _ := listSegments(dir)
	seed, err := os.ReadFile(filepath.Join(dir, segs[0]))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:headerSize])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Iterating yields exactly the records the scan counts, ending
		// at its last LSN, and consumes exactly the goodOff bytes Open
		// would keep.
		m, goodOff, hdrOK, err := scanSegment(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		var records int
		var last uint64
		consumed := int64(headerSize)
		if _, _, _, err := scanSegment(path, func(lsn uint64, payload []byte) error {
			records++
			last = lsn
			consumed += int64(recHeaderSize + len(payload))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if records != m.records || last != m.last {
			t.Fatalf("iteration yielded %d records up to LSN %d, scan counted %d up to %d", records, last, m.records, m.last)
		}
		if !hdrOK {
			consumed = 0
		}
		if consumed != goodOff {
			t.Fatalf("iteration consumed %d bytes, scan kept %d", consumed, goodOff)
		}
		// Open must never panic and, on success, replay strictly
		// increasing LSNs whose records all pass their CRC.
		l, err := Open(dir, Options{Durability: Off})
		if err != nil {
			return
		}
		var prev uint64
		if err := l.Replay(func(lsn uint64, payload []byte) error {
			if lsn <= prev {
				t.Fatalf("replay out of order: %d after %d", lsn, prev)
			}
			prev = lsn
			return nil
		}); err != nil {
			t.Fatalf("Replay on recovered log: %v", err)
		}
		if _, err := l.Append([]byte("post")); err != nil {
			t.Fatalf("Append on recovered log: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

func FuzzDecodeMutations(f *testing.F) {
	f.Add(EncodeMutations([]ensemble.Mutation{
		{Op: ensemble.OpInsert, Table: "t", Values: map[string]table.Value{"a": table.Int(1)}},
		{Op: ensemble.OpDelete, Table: "t", PK: 1},
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		muts, err := DecodeMutations(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same count.
		again, err := DecodeMutations(EncodeMutations(muts))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(muts) {
			t.Fatalf("re-decode count %d != %d", len(again), len(muts))
		}
	})
}
