package wal

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fault"
)

// enableFault activates a fault schedule for one test. Fault-enabling
// tests share the process-global registry, so none of them call
// t.Parallel (the suite runs shuffled, not parallel, by default).
func enableFault(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	fault.Enable(s)
	t.Cleanup(fault.Disable)
	return s
}

// TestChaosWALWriteError: an injected EIO on the record write must surface
// to the caller, never advance the LSN watermark, and leave the segment
// byte-identical to one that never saw the failed append.
func TestChaosWALWriteError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatal(err)
	}
	enableFault(t, "point=wal.append.write;kind=error;errno=EIO;after=3;count=1")

	appendN(t, l, 0, 3)
	_, err = l.Append([]byte("doomed"))
	if err == nil {
		t.Fatal("injected write error did not surface")
	}
	if !errors.Is(err, fault.ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want ErrInjected wrapping EIO", err)
	}
	if st := l.Stats(); st.LastLSN != 3 || st.Appended != 3 {
		t.Fatalf("watermark advanced past failure: LastLSN=%d Appended=%d, want 3/3", st.LastLSN, st.Appended)
	}

	// The failed append left no trace: the next one reuses its LSN.
	lsn, err := l.Append([]byte("record-0003"))
	if err != nil {
		t.Fatalf("append after injected failure: %v", err)
	}
	if lsn != 4 {
		t.Fatalf("post-failure lsn = %d, want 4", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatalf("reopen after injected failure: %v", err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 4 {
		t.Fatalf("replayed %d records, want 4", len(got))
	}
	if got[4] != "record-0003" {
		t.Fatalf("lsn 4 payload = %q, want %q", got[4], "record-0003")
	}
}

// TestChaosWALSyncENOSPC: a full disk at fsync time (Sync durability) must
// fail the append, roll the record back, and keep the log usable once
// space returns.
func TestChaosWALSyncENOSPC(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatal(err)
	}
	enableFault(t, "point=wal.append.sync;kind=disk-full;count=2")

	for i := 0; i < 2; i++ {
		_, err := l.Append([]byte("doomed"))
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("append %d: err = %v, want ENOSPC", i, err)
		}
	}
	if st := l.Stats(); st.LastLSN != 0 || st.Appended != 0 {
		t.Fatalf("watermark advanced on failed fsync: %+v", st)
	}

	// Disk "frees up" (rule exhausted): same LSN, clean log.
	appendN(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := collect(t, l); len(got) != 5 || got[1] != "record-0000" {
		t.Fatalf("replay after ENOSPC recovery = %v, want records 1..5", got)
	}
}

// TestChaosWALBatchedInlineSync: the Batched inline fsync (every SyncEvery
// appends) hits the same barrier — the append that triggers the failed
// sync is rolled back and re-appendable.
func TestChaosWALBatchedInlineSync(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Batched, SyncEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	enableFault(t, "point=wal.append.sync;kind=error;errno=EIO;count=1")

	if _, err := l.Append([]byte("record-0000")); err != nil {
		t.Fatalf("append 1 (below SyncEvery) failed: %v", err)
	}
	_, err = l.Append([]byte("doomed"))
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("inline-sync append: err = %v, want EIO", err)
	}
	if st := l.Stats(); st.LastLSN != 1 {
		t.Fatalf("LastLSN = %d after failed inline sync, want 1", st.LastLSN)
	}
	lsn, err := l.Append([]byte("record-0001"))
	if err != nil || lsn != 2 {
		t.Fatalf("append after failed inline sync = (%d, %v), want (2, nil)", lsn, err)
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("explicit Sync after recovery: %v", err)
	}
}

// TestChaosWALTornWrite: a torn write (crash mid-record) wedges the log —
// every subsequent append fails fast — and reopening repairs the tail,
// replaying exactly the acked records.
func TestChaosWALTornWrite(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatal(err)
	}
	enableFault(t, "point=wal.append.write;kind=torn;bytes=9;after=2;count=1")

	appendN(t, l, 0, 2)
	if _, err := l.Append([]byte("doomed")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn write err = %v, want ErrInjected", err)
	}
	// The log is wedged: partial bytes are on disk and only reopen repairs.
	if _, err := l.Append([]byte("after")); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("append on wedged log = %v, want wedged error", err)
	}
	if err := l.Sync(); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("Sync on wedged log = %v, want wedged error", err)
	}
	if st := l.Stats(); st.LastLSN != 2 {
		t.Fatalf("LastLSN = %d after torn write, want 2", st.LastLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = Open(dir, Options{Durability: Sync})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l.Close()
	got := collect(t, l)
	if len(got) != 2 || got[1] != "record-0000" || got[2] != "record-0001" {
		t.Fatalf("replay after torn-tail repair = %v, want records 1..2", got)
	}
	if lsn, err := l.Append([]byte("record-0002")); err != nil || lsn != 3 {
		t.Fatalf("append after repair = (%d, %v), want (3, nil)", lsn, err)
	}
}

// Sync flushes outstanding appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: closed")
	}
	if l.ioErr != nil {
		return fmt.Errorf("wal: log wedged by earlier I/O failure: %w", l.ioErr)
	}
	return l.syncLocked()
}
