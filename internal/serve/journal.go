package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// The journal is the daemon's crash-safety story: one JSON line per job
// lifecycle transition, appended and fsynced before the transition is
// acknowledged anywhere else. On restart, replaying the journal rebuilds
// the job table: jobs with a submit record but no terminal record were
// queued or running when the daemon died, and are re-admitted (the
// solver is deterministic, so a re-run converges to the same answer; a
// job that had already drained a checkpoint resumes from it via the
// supervisor's normal restore path).
type journalEntry struct {
	// Op is the transition: "submit", "start", "done", "fail", "cancel",
	// "shed".
	Op string `json:"op"`
	ID string `json:"id"`
	// Spec rides along on submit records only — it is everything needed
	// to re-create the job at replay.
	Spec *JobSpec `json:"spec,omitempty"`
	// Err carries the failure cause on fail/cancel records.
	Err string `json:"err,omitempty"`
}

type journal struct {
	mu   sync.Mutex
	f    *os.File
	enc  *json.Encoder
	path string
}

// openJournal opens (or creates) the journal for appending.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	return &journal{f: f, enc: json.NewEncoder(f), path: path}, nil
}

// append writes one entry and fsyncs. A journal write failure is
// returned to the caller (a submit that cannot be journaled must not be
// acknowledged: it would vanish on restart).
func (jl *journal) append(e journalEntry) error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	if err := jl.enc.Encode(e); err != nil {
		return fmt.Errorf("serve: journal append: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: journal sync: %w", err)
	}
	return nil
}

func (jl *journal) close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.f.Close()
}

// pendingJob is an interrupted job recovered from the journal: its
// original ID is preserved so a drain checkpoint written under that ID
// is found again at resume.
type pendingJob struct {
	ID   string
	Spec JobSpec
}

// replayJournal reads a journal and returns the jobs that never reached
// a terminal state (in submit order), the count of records replayed and
// the highest job number the journal mentions (finished jobs included:
// their IDs, and the drain checkpoints keyed by them, must never be
// reissued). A truncated final line — the crash happened mid-append — is
// tolerated: everything before it is intact by construction.
func replayJournal(path string) (pending []pendingJob, replayed, lastID int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("serve: opening journal for replay: %w", err)
	}
	defer f.Close()

	type rec struct {
		spec JobSpec
		open bool
	}
	byID := make(map[string]*rec)
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if jerr := json.Unmarshal(line, &e); jerr != nil {
			// Torn tail write: stop replaying here.
			break
		}
		replayed++
		var n int
		if _, serr := fmt.Sscanf(e.ID, "j%06d", &n); serr == nil && n > lastID {
			lastID = n
		}
		switch e.Op {
		case "submit":
			if e.Spec != nil {
				byID[e.ID] = &rec{spec: *e.Spec, open: true}
				order = append(order, e.ID)
			}
		case "done", "fail", "cancel", "shed":
			if r := byID[e.ID]; r != nil {
				r.open = false
			}
		}
	}
	for _, id := range order {
		if r := byID[id]; r != nil && r.open {
			pending = append(pending, pendingJob{ID: id, Spec: r.spec})
		}
	}
	return pending, replayed, lastID, nil
}
