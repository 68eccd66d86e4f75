package serve

import (
	"os"
	"path/filepath"
	"testing"
)

// TestJournalReplayTornTail: a crash mid-append leaves a torn final line;
// replay must keep every record before it and ignore the fragment — the
// journal's whole crash-safety contract.
func TestJournalReplayTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := JobSpec{Tenant: "t", Case: smallCase("a", 5)}

	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e journalEntry) {
		t.Helper()
		if err := jl.append(e); err != nil {
			t.Fatal(err)
		}
	}
	must(journalEntry{Op: "submit", ID: "j000001", Spec: &spec})
	must(journalEntry{Op: "submit", ID: "j000002", Spec: &spec})
	must(journalEntry{Op: "start", ID: "j000001"})
	must(journalEntry{Op: "done", ID: "j000001"})
	if err := jl.close(); err != nil {
		t.Fatal(err)
	}
	// The torn tail: a submit record the crash cut off mid-write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"submit","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	pending, replayed, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 4 {
		t.Errorf("replayed %d records, want 4 (torn tail excluded)", replayed)
	}
	if len(pending) != 1 || pending[0].ID != "j000002" {
		t.Fatalf("pending = %+v, want exactly the unfinished j000002", pending)
	}
	if pending[0].Spec.Case.Name != "a" {
		t.Errorf("replayed spec lost its case: %+v", pending[0].Spec)
	}
}

// TestJournalReplayMissing: no journal file means a clean first start.
func TestJournalReplayMissing(t *testing.T) {
	pending, replayed, _, err := replayJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || len(pending) != 0 || replayed != 0 {
		t.Fatalf("fresh start: pending=%v replayed=%d err=%v", pending, replayed, err)
	}
}

// TestJournalTerminalOps: every terminal op closes its job; only open
// jobs come back, in submit order.
func TestJournalTerminalOps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	spec := JobSpec{Tenant: "t", Case: smallCase("a", 5)}
	jl, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"j000001", "j000002", "j000003", "j000004", "j000005"}
	for _, id := range ids {
		jl.append(journalEntry{Op: "submit", ID: id, Spec: &spec})
	}
	jl.append(journalEntry{Op: "done", ID: "j000001"})
	jl.append(journalEntry{Op: "fail", ID: "j000002", Err: "boom"})
	jl.append(journalEntry{Op: "cancel", ID: "j000003"})
	jl.append(journalEntry{Op: "shed", ID: "j000004"})
	jl.close()

	pending, _, _, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 1 || pending[0].ID != "j000005" {
		t.Fatalf("pending = %+v, want only j000005", pending)
	}
}
