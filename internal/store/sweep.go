package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"twophase/internal/artifact"
)

// QuarantineDir is the store subdirectory (mirroring the kind layout:
// quarantine/<kind>/<file>) that the recovery sweep and the corrupt-read
// path move bad files into. Nothing under it is ever listed, decoded or
// served; it exists so operators can inspect what went wrong instead of
// the store silently deleting evidence.
const QuarantineDir = "quarantine"

// SweepReport summarizes one startup recovery sweep.
type SweepReport struct {
	// Orphans counts temp files left by a writer killed mid-write.
	Orphans int
	// Corrupt counts artifacts whose checksum or encoding failed.
	Corrupt int
	// Moved lists the quarantined paths, relative to the store root.
	Moved []string
}

// Sweep is the startup recovery pass: it quarantines orphaned temp files
// (a writer killed between CreateTemp and rename leaves `*.tmp*` litter
// that would otherwise accumulate forever) and artifacts that fail their
// checksum or encoding, so a crashed or fault-injected predecessor can
// never make this process serve, shadow, or re-serve bad bytes. Open runs
// it before the store serves; it is also safe to call on a live store.
func (s *Store) Sweep() (SweepReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep SweepReport
	for _, k := range artifactKinds {
		kind := k.dir
		entries, err := os.ReadDir(filepath.Join(s.dir, kind))
		if err != nil {
			return rep, fmt.Errorf("store: sweep %s: %w", kind, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			name := e.Name()
			switch {
			case isOrphanTemp(name):
				if s.quarantineLocked(kind, name) {
					rep.Orphans++
					rep.Moved = append(rep.Moved, filepath.Join(QuarantineDir, kind, name))
				}
			case !fileHealthyLocked(filepath.Join(s.dir, kind, name), name):
				if s.quarantineLocked(kind, name) {
					rep.Corrupt++
					rep.Moved = append(rep.Moved, filepath.Join(QuarantineDir, kind, name))
				}
			}
		}
	}
	return rep, nil
}

// isOrphanTemp recognizes the litter of a writer killed mid-writeFile:
// CreateTemp names carry a ".tmp" infix and a random suffix, so they can
// never end in ".bin" — and every real artifact does.
func isOrphanTemp(name string) bool {
	return strings.Contains(name, ".tmp") && !strings.HasSuffix(name, ext)
}

// fileHealthyLocked reports whether an artifact file decodes: a .bin
// document must pass the checksummed artifact.Verify. Other extensions are
// left alone (healthy) — the sweep only judges files the store itself
// would serve.
func fileHealthyLocked(path, name string) bool {
	if !strings.HasSuffix(name, ext) {
		return true
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false
	}
	_, err = artifact.Verify(data)
	return err == nil
}

// quarantineLocked moves kind/name into quarantine/<kind>/, uniquifying
// on collision. Callers hold s.mu. Returns false (and logs) if the move
// failed; the file is left in place and the next sweep retries.
func (s *Store) quarantineLocked(kind, name string) bool {
	dstDir := filepath.Join(s.dir, QuarantineDir, kind)
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		slog.Error("store.quarantine_failed", slog.String("path", dstDir), slog.Any("err", err))
		return false
	}
	src := filepath.Join(s.dir, kind, name)
	dst := filepath.Join(dstDir, name)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(dstDir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := os.Rename(src, dst); err != nil {
		slog.Error("store.quarantine_failed", slog.String("path", src), slog.Any("err", err))
		return false
	}
	slog.Warn("store.quarantine", slog.String("path", src), slog.String("to", dst))
	return true
}

// quarantineCorrupt handles corruption detected on the read path: it
// re-verifies the file under the write lock (a concurrent Put may have
// already healed it with a good rewrite — quarantining that would throw
// away fresh data) and moves it into quarantine only if it is still bad.
func (s *Store) quarantineCorrupt(kind, name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	path := filepath.Join(s.dir, kind, name)
	if _, err := os.Lstat(path); err != nil {
		return
	}
	if fileHealthyLocked(path, name) {
		return
	}
	s.quarantineLocked(kind, name)
}
