package deepdb_test

// crash_test.go is the end-to-end durability proof: a child process
// streams mutations into a WAL-backed DB under DurabilitySync and is
// killed with SIGKILL mid-stream — no defers, no flushes, no goodbye. The
// parent then reads the durable prefix from the log itself, has the
// write-history checker's reference (history_test.go) apply exactly that
// prefix without ever crashing, recovers a DB from the WAL, and requires
// the same apply watermark and bit-identical answers: base tables, Exact
// probes and the full query-class matrix. Acknowledged-before-kill
// mutations must all be in the durable prefix (that is what sync
// durability promises).

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/deepdb"
)

const (
	crashChildEnv  = "DEEPDB_CRASH_CHILD"
	crashWALDirEnv = "DEEPDB_CRASH_WALDIR"
	crashStreamLen = 200
	crashKillAfter = 60 // acks the parent waits for before SIGKILL
)

// TestCrashRecoveryChild is the subprocess body; without the env gate it
// is skipped, so a plain `go test` never runs it directly.
func TestCrashRecoveryChild(t *testing.T) {
	if os.Getenv(crashChildEnv) != "1" {
		t.Skip("subprocess of TestCrashRecoverySIGKILL")
	}
	dir := os.Getenv(crashWALDirEnv)
	ctx := context.Background()
	s, data := fixture(1200, 77)
	db, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(8000),
		deepdb.WithWAL(dir),
		deepdb.WithDurability(deepdb.DurabilitySync))
	if err != nil {
		fmt.Println("child error:", err)
		os.Exit(1)
	}
	fmt.Println("ready")
	for i, m := range mutationStream(crashStreamLen) {
		if m.del {
			err = db.Delete(m.table, m.pk)
		} else {
			err = db.Insert(m.table, m.values)
		}
		if err != nil {
			fmt.Println("child error:", err)
			os.Exit(1)
		}
		// Under DurabilitySync the mutation is on disk once the call
		// returns, even though the background applier may not have applied
		// it yet — that is exactly what the parent verifies.
		fmt.Println("acked", i)
	}
	fmt.Println("done")
	select {} // hold the WAL open until the parent kills us
}

func TestCrashRecoverySIGKILL(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGKILL")
	}
	ctx := context.Background()
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=TestCrashRecoveryChild$", "-test.v")
	cmd.Env = append(os.Environ(), crashChildEnv+"=1", crashWALDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			cmd.Process.Kill() //nolint:errcheck
		}
		cmd.Wait() //nolint:errcheck
	}()

	acked := -1
	sc := bufio.NewScanner(stdout)
	deadline := time.AfterFunc(60*time.Second, func() { cmd.Process.Kill() }) //nolint:errcheck
	defer deadline.Stop()
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "child error:"):
			t.Fatalf("child failed: %s", line)
		case strings.HasPrefix(line, "acked "):
			acked++
			if acked+1 >= crashKillAfter {
				if err := cmd.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
					t.Fatal(err)
				}
				killed = true
			}
		case line == "done":
			t.Fatal("child finished the whole stream before the kill")
		}
		if killed {
			break
		}
	}
	cmd.Wait() //nolint:errcheck // the kill makes this an error by design
	if !killed {
		t.Fatalf("child exited early after %d acks", acked+1)
	}

	// The durable prefix is whatever survived in the log: every record, in
	// LSN order, one mutation group per Insert/Delete call.
	log := readLog(t, dir)
	if len(log) < acked+1 {
		t.Fatalf("sync durability violated: %d mutations acked, only %d durable", acked+1, len(log))
	}
	if muts := mutationStream(crashStreamLen); len(log) > len(muts) {
		t.Fatalf("log holds %d records for a %d-mutation stream", len(log), len(muts))
	}

	// Reference: the same model applies the logged groups in LSN order, no
	// crash.
	ref := learnReference(t, 1200, 77)
	defer ref.Close()
	for _, g := range log {
		applyLogged(t, ref, g)
	}
	want, err := observe(ctx, ref.Pin())
	if err != nil {
		t.Fatal(err)
	}

	// Recovery: rebuild over the original data and replay the log.
	s2, data2 := fixture(1200, 77)
	rec, err := deepdb.LearnDataset(ctx, s2, data2,
		deepdb.WithMaxSamples(8000), deepdb.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	if got := rec.UpdateStats().WAL.Replayed; got != uint64(len(log)) {
		t.Fatalf("recovery replayed %d records, want %d", got, len(log))
	}
	got, err := observe(ctx, rec.Pin())
	if err != nil {
		t.Fatal(err)
	}
	if got.lsn != want.lsn || got.answers != want.answers {
		t.Fatalf("crash recovery diverged from the reference over %d logged groups\nrecovered at lsn %d:\n%sreference at lsn %d:\n%s",
			len(log), got.lsn, got.answers, want.lsn, want.answers)
	}
}
