// Package chaos is the fault-injection proving ground for the serving
// stack. Its tests drive seeded faultinject schedules — injected I/O
// errors, torn writes, corrupt payloads, transport resets, handler
// panics — through every serving path (direct service, in-process
// dispatcher, HTTP, gateway-fronted fleet) and assert the robustness
// invariants the stack promises:
//
//   - every refusal is typed: a client-visible error always satisfies
//     errors.Is against exactly one api sentinel, never an untyped 500;
//   - no corrupt artifact is ever decoded or re-served: the checksum
//     gates catch injected corruption and the sweep quarantines it;
//   - successful reports are bit-identical to a fault-free run — faults
//     may cost latency and failovers, never answers;
//   - the fleet reconverges once a schedule drains: breakers close,
//     probes re-admit, degraded worlds heal to clean rebuilds.
//
// This file holds the non-test helpers the suites share; the invariants
// themselves live in the *_test.go files next to it.
package chaos

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"twophase/internal/api"
	"twophase/internal/artifact"
	"twophase/internal/store"
)

// Typed reports whether a client-visible refusal honors the typed-error
// contract: it maps to a wire code whose sentinel it actually wraps.
// api.Code returns CodeInternal for *any* unrecognized error, so an
// internal code only counts as typed when the error really unwraps to
// api.ErrInternal — the shape the server's error envelope (and the
// client's reconstruction of it) guarantees, and a raw untyped failure
// lacks.
func Typed(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, api.ErrInternal) {
		return true
	}
	return api.Code(err) != api.CodeInternal
}

// ScanReport is what a post-chaos store scan found.
type ScanReport struct {
	// Orphans are temp files lingering outside quarantine/ — evidence a
	// torn write escaped the startup sweep.
	Orphans []string
	// Corrupt are artifact files outside quarantine/ whose checksums no
	// longer hold — evidence corruption escaped the gates.
	Corrupt []string
	// Quarantined counts files parked under quarantine/.
	Quarantined int
}

// Clean reports whether the scan found no escapes.
func (r ScanReport) Clean() bool { return len(r.Orphans) == 0 && len(r.Corrupt) == 0 }

// ScanStore walks one backend's store directory after a chaos run and
// verifies the persistence invariants: no orphaned temp files outside
// quarantine/, and every artifact outside quarantine/ still passes its
// codec checksum. Files inside quarantine/ are counted, not verified —
// quarantine is exactly where broken bytes are supposed to be.
func ScanStore(dir string) (ScanReport, error) {
	var rep ScanReport
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(dir, path)
		if rerr != nil {
			return rerr
		}
		inQuarantine := rel == store.QuarantineDir || strings.HasPrefix(rel, store.QuarantineDir+string(filepath.Separator))
		if d.IsDir() {
			return nil
		}
		if inQuarantine {
			rep.Quarantined++
			return nil
		}
		name := d.Name()
		switch {
		case strings.Contains(name, ".tmp"):
			rep.Orphans = append(rep.Orphans, rel)
		case strings.HasSuffix(name, ".bin"):
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			if _, verr := artifact.Verify(data); verr != nil {
				rep.Corrupt = append(rep.Corrupt, rel)
			}
		}
		return nil
	})
	return rep, err
}

// Log appends timestamped chaos events to the file named by the
// CHAOS_LOG environment variable, so a CI run can upload the storm's
// story as an artifact. With the variable unset every call is a no-op —
// the suites log unconditionally and stay quiet locally.
type Log struct {
	mu sync.Mutex
	f  *os.File
}

// OpenLog opens (appending) the CHAOS_LOG file, or returns a no-op
// logger when the variable is unset. The only error surfaced is an
// unusable explicit path — a misconfigured CI job should fail loudly.
func OpenLog() (*Log, error) {
	path := os.Getenv("CHAOS_LOG")
	if path == "" {
		return &Log{}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("chaos: open CHAOS_LOG %q: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Event records one formatted chaos event.
func (l *Log) Event(format string, args ...any) {
	if l == nil || l.f == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(l.f, "%s %s\n", time.Now().UTC().Format(time.RFC3339Nano), fmt.Sprintf(format, args...))
}

// Close flushes and closes the underlying file, if any.
func (l *Log) Close() error {
	if l == nil || l.f == nil {
		return nil
	}
	return l.f.Close()
}
