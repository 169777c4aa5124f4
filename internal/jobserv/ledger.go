package jobserv

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"

	"hmccoal/internal/durable"
)

// The job ledger is an append-only JSONL file holding every job state
// transition. Appends are fsync'd before the daemon acts on the
// transition, so the ledger is always at least as current as any
// observable effect — a SIGKILL'd daemon restarts into a queue that is a
// prefix of the truth, never ahead of it. The file is created through a
// temp-file/rename/dir-sync dance so a crash during creation leaves
// either no ledger or a complete empty one, and a torn final line (crash
// mid-append) is skipped on replay exactly like the sweep layer's
// checkpoints.

// Ledger event types, in lifecycle order.
const (
	evSubmit = "submit"
	evStart  = "start"  // also emitted on a crash-recovery re-run
	evPark   = "park"   // preemption or drain interrupted the job
	evResume = "resume" // a parked job got a slot back
	evDone   = "done"   // the result file exists before this is appended
	evFail   = "fail"
	evCancel = "cancel"
)

// event is one ledger line.
type event struct {
	Type     string `json:"type"`
	ID       string `json:"id"`
	Tenant   string `json:"tenant,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Spec     *Spec  `json:"spec,omitempty"` // submit only
	Error    string `json:"error,omitempty"`
}

// ledger is the fsync'd appender. Safe for concurrent use.
type ledger struct {
	mu sync.Mutex
	f  *os.File
}

// openLedger opens (creating atomically if needed) the ledger at path.
func openLedger(path string) (*ledger, error) {
	f, err := durable.OpenAppend(path, nil)
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger: %w", err)
	}
	return &ledger{f: f}, nil
}

// append encodes one event, writes it and fsyncs before returning, so a
// caller that proceeds past append knows the transition is durable.
func (l *ledger) append(ev event) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("jobserv: ledger encode: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return fmt.Errorf("jobserv: ledger append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("jobserv: ledger sync: %w", err)
	}
	return nil
}

func (l *ledger) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// replayLedger reads every decodable event from path, in order. Unparsable
// lines are skipped: the only way one arises from this code is a write
// torn by a crash, and the fsync-before-act discipline guarantees nothing
// observable depended on a torn line.
func replayLedger(path string) ([]event, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobserv: ledger replay: %w", err)
	}
	defer f.Close()
	var evs []event
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		var ev event
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Type == "" || ev.ID == "" {
			continue // torn or foreign line
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobserv: ledger replay: %w", err)
	}
	return evs, nil
}
