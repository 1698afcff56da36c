package pipeline

import (
	"context"
	"errors"
	"testing"

	"repro/internal/fault"
)

// TestChaosApplierInjectedError: an injected fault at pipeline.apply fails
// the batch WITHOUT running the apply callback — the error reaches Flush
// and the stats, and the batch's mutations were never applied, which is
// what lets WAL replay recover them after a restart.
func TestChaosApplierInjectedError(t *testing.T) {
	s, err := fault.Parse("point=pipeline.apply;kind=error;errno=EIO;count=1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable(s)
	t.Cleanup(fault.Disable)

	c := &collectingApplier{}
	p := New(16, 4, c.apply)
	defer p.Close()

	if err := p.Enqueue(1, false); err != nil {
		t.Fatal(err)
	}
	ferr := p.Flush(context.Background())
	if !errors.Is(ferr, fault.ErrInjected) {
		t.Fatalf("Flush = %v, want injected error", ferr)
	}
	if got := c.all(); len(got) != 0 {
		t.Fatalf("apply callback ran on injected-fault batch: %v", got)
	}
	st := p.Stats()
	if st.Errors != 1 || st.Applied != 1 {
		t.Fatalf("stats after injected fault = %+v, want Errors=1 Applied=1", st)
	}

	// The rule is exhausted: the pipeline keeps working.
	if err := p.Enqueue(2, false); err != nil {
		t.Fatal(err)
	}
	if err := p.Flush(context.Background()); err != nil {
		t.Fatalf("Flush after rule exhausted: %v", err)
	}
	if got := c.all(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("post-fault applies = %v, want [2]", got)
	}
}
