// Package store persists what the paper's offline phase produces per world
// (§II.B "Offline") — the performance matrix with its convergence curves
// and the model clustering — so that the offline phase is computed once and
// reused across processes and served to fleet peers.
//
// It holds two kinds in one format: matrices/<slug>.bin and
// recalls/<slug>.bin, both internal/artifact codec documents (checksummed
// headers, raw float64 payloads). The byte layout is that package's
// business alone; the store only files, verifies and serves the documents.
// A value the codec refuses is an error, not a second format, and a file
// without the .bin extension is not an artifact. The store is a directory;
// it is safe for concurrent readers and single-writer use.
package store

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"twophase/internal/artifact"
	"twophase/internal/faultinject"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
)

// ErrNotFound marks an artifact that is truly absent from the store.
// Callers rebuild (or fetch from a ring peer) only on this error;
// transient read failures (permissions, I/O) propagate unwrapped so they
// never silently trigger an expensive rebuild.
var ErrNotFound = errors.New("store: artifact not found")

// ErrCorrupt marks an artifact that exists but cannot be decoded — a
// failed checksum, a truncated file. The wrapped message names the
// offending file path. Callers rebuild on it: the rewrite heals the store.
var ErrCorrupt = errors.New("store: corrupt artifact")

// Store is a directory-backed artifact store.
type Store struct {
	dir string
	mu  sync.RWMutex
}

// Open creates (if needed) and opens a store rooted at dir, then runs the
// recovery sweep: orphaned temp files from a writer killed mid-write and
// checksum-failing artifacts are quarantined before anything is served.
func Open(dir string) (*Store, error) {
	for _, k := range artifactKinds {
		if err := os.MkdirAll(filepath.Join(dir, k.dir), 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", k.dir, err)
		}
	}
	s := &Store{dir: dir}
	rep, err := s.Sweep()
	if err != nil {
		return nil, err
	}
	if rep.Orphans > 0 || rep.Corrupt > 0 {
		slog.Warn("store.sweep", slog.String("path", dir), slog.Int("orphans", rep.Orphans), slog.Int("corrupt", rep.Corrupt))
	}
	return s, nil
}

// artifactKinds is the one table of what a store holds, in the order Open
// creates and Sweep walks the directories: a wire/store kind directory and
// the codec kind every document filed under it must carry.
var artifactKinds = []struct {
	dir  string
	kind artifact.Kind
}{
	{"matrices", artifact.KindMatrix},
	{"recalls", artifact.KindRecall},
}

// kindOf looks a kind directory up in artifactKinds.
func kindOf(dir string) (artifact.Kind, bool) {
	for _, k := range artifactKinds {
		if k.dir == dir {
			return k.kind, true
		}
	}
	return 0, false
}

// ext is the one extension of the one format: a file without it is not an
// artifact of this store.
const ext = ".bin"

// slug converts an artifact name (possibly containing "/" — names arrive
// from the wire on GET /v1/artifacts/{kind}/{name}) into its file name.
// The encoding is injective, so distinct names can never collide on one
// file: "%", "_" and " " are percent-escaped before "/" maps to "__",
// which means every underscore in the output comes from a slash pair —
// "a/b" vs "a__b" and "a b" vs "a_b" all get distinct files.
func slug(name string) string {
	r := strings.NewReplacer("%", "%25", "_", "%5F", " ", "%20")
	return strings.ReplaceAll(r.Replace(name), "/", "__") + ext
}

// isNotExist reports that a path truly has no file behind it: ENOENT, or
// ENOTDIR (a parent path component is not a directory — e.g. a broken
// store volume), as opposed to transient failures like permission or I/O
// errors, which must not masquerade as "absent".
func isNotExist(err error) bool {
	return os.IsNotExist(err) || errors.Is(err, syscall.ENOTDIR)
}

// writeFile atomically and durably installs data at path: unique temp
// file (serving processes may share a store directory, and a fixed name
// would let two concurrent writers interleave into a corrupted artifact),
// write, fsync, chmod, rename, then a best-effort fsync of the directory
// so the rename itself survives a power cut. A crash at any point leaves
// either the old artifact or an orphaned temp file — never a torn
// artifact under the real name — and the startup sweep quarantines the
// orphans.
func writeFile(path string, data []byte) error {
	if f := faultinject.On(faultinject.SiteStoreWrite); f != nil {
		if f.Action == faultinject.ActTorn {
			// Manufacture the on-disk shape of a writer killed mid-write:
			// a partial temp file, never fsynced, never renamed.
			if tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*"); err == nil {
				tmp.Write(data[:f.Prefix(len(data))])
				tmp.Close()
			}
		}
		return fmt.Errorf("store: write %s: %w", path, f.Err())
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: temp for %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", tmp.Name(), err)
	}
	if err := syncFile(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: fsync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", tmp.Name(), err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncFile flushes the temp file's data to stable storage before the
// rename makes it visible. Filesystems that cannot fsync (some tmpfs and
// network mounts) are tolerated — atomicity still holds there, only
// power-cut durability degrades to the filesystem's own guarantee.
func syncFile(tmp *os.File) error {
	if f := faultinject.On(faultinject.SiteStoreFsync); f != nil {
		return f.Err()
	}
	if err := tmp.Sync(); err != nil &&
		!errors.Is(err, syscall.ENOTSUP) && !errors.Is(err, syscall.EINVAL) {
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives a power
// cut. Best-effort: the artifact itself is already durable and
// re-creatable, so a directory that cannot fsync is not an error.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// writeBinary atomically installs an already-encoded codec document.
func (s *Store) writeBinary(kind, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFile(filepath.Join(s.dir, kind, slug(name)), data)
}

// withBinary reads the codec document of kind/name and runs fn over it.
// A missing file is ErrNotFound; a file fn rejects is ErrCorrupt and is
// quarantined so it can never be decoded again or shadow the healing
// rewrite.
func (s *Store) withBinary(kind, name string, fn func(data []byte) error) error {
	err := func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if f := faultinject.On(faultinject.SiteStoreRead); f != nil {
			return fmt.Errorf("store: read %s/%s: %w", kind, name, f.Err())
		}
		path := filepath.Join(s.dir, kind, slug(name))
		data, err := os.ReadFile(path)
		if isNotExist(err) {
			return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
		}
		if err != nil {
			return fmt.Errorf("store: read %s: %w", path, err)
		}
		if err := fn(data); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return nil
	}()
	if errors.Is(err, ErrCorrupt) {
		s.quarantineCorrupt(kind, slug(name))
	}
	return err
}

// PutMatrix persists a performance matrix under a name (e.g. "nlp-seed42")
// as a codec document. A matrix the encoder refuses (ragged entries) is
// returned as its error and leaves no file.
func (s *Store) PutMatrix(name string, m *perfmatrix.Matrix) error {
	data, err := artifact.EncodeMatrix(m)
	if err != nil {
		return fmt.Errorf("store: put matrices/%s: %w", name, err)
	}
	return s.writeBinary("matrices", name, data)
}

// GetMatrix retrieves a performance matrix by name. A missing matrix is
// ErrNotFound; an undecodable one is ErrCorrupt naming the file.
func (s *Store) GetMatrix(name string) (*perfmatrix.Matrix, error) {
	var m *perfmatrix.Matrix
	err := s.withBinary("matrices", name, func(data []byte) error {
		var derr error
		m, derr = artifact.DecodeMatrix(data)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// PutRecall persists the clustering-stage artifact of the offline pipeline
// under a name (conventionally the same key as the matrix it derives
// from) as a codec document.
func (s *Store) PutRecall(name string, a *recall.Artifact) error {
	data, err := artifact.EncodeRecall(a)
	if err != nil {
		return fmt.Errorf("store: put recalls/%s: %w", name, err)
	}
	return s.writeBinary("recalls", name, data)
}

// GetRecall retrieves a clustering-stage artifact by name, with the same
// error contract as GetMatrix.
func (s *Store) GetRecall(name string) (*recall.Artifact, error) {
	var a *recall.Artifact
	err := s.withBinary("recalls", name, func(data []byte) error {
		var derr error
		a, derr = artifact.DecodeRecall(data)
		return derr
	})
	if err != nil {
		return nil, err
	}
	return a, nil
}

// OpenArtifact returns the verified codec document of an artifact — the
// payload of GET /v1/artifacts/{kind}/{name}. Unknown kinds and missing
// artifacts are ErrNotFound; a failed checksum is ErrCorrupt.
func (s *Store) OpenArtifact(kind, name string) (data []byte, err error) {
	k, ok := kindOf(kind)
	if !ok {
		return nil, fmt.Errorf("%w: kind %q", ErrNotFound, kind)
	}
	err = s.withBinary(kind, name, func(doc []byte) error {
		h, verr := artifact.Verify(doc)
		if verr != nil {
			return verr
		}
		if h.Kind != k {
			return fmt.Errorf("kind %s under %s/", h.Kind, kind)
		}
		data = doc
		return nil
	})
	return data, err
}

// PutVerified stores fetched artifact bytes after verifying the checksum
// and that the encoding's kind matches the directory it is filed under —
// a corrupted or mislabeled fetch never lands on disk.
func (s *Store) PutVerified(kind, name string, data []byte) error {
	k, ok := kindOf(kind)
	if !ok {
		return fmt.Errorf("store: unknown artifact kind %q", kind)
	}
	h, err := artifact.Verify(data)
	if err != nil {
		return fmt.Errorf("store: put %s/%s: %w", kind, name, err)
	}
	if h.Kind != k {
		return fmt.Errorf("store: put %s/%s: encoding is kind %s", kind, name, h.Kind)
	}
	return s.writeBinary(kind, name, data)
}
