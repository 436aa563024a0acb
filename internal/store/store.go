// Package store implements the paper's §VII future-work direction: a small
// data-management layer that persists and serves the framework's artifacts
// — model specs, dataset specs, performance matrices and clusterings — so
// that the offline phase is computed once and reused across processes
// ("build data management system which stores and maintains the
// pre-trained models and datasets").
//
// Every kind has exactly one on-disk format. Specs (models, datasets) are
// small JSON documents, "<slug>.json". The heavy world artifacts —
// performance matrices and recall artifacts — are internal/artifact codec
// documents (checksummed headers, raw float64 payloads), "<slug>.bin";
// the byte layout is that package's business alone, the store only files,
// verifies and serves the documents. A value the codec refuses is an
// error, not a second format. The store is a directory; it is safe for
// concurrent readers and single-writer use.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"

	"twophase/internal/artifact"
	"twophase/internal/datahub"
	"twophase/internal/faultinject"
	"twophase/internal/modelhub"
	"twophase/internal/perfmatrix"
	"twophase/internal/recall"
)

// ErrNotFound marks an artifact that is truly absent from the store.
// Callers rebuild (or fetch from a ring peer) only on this error;
// transient read failures (permissions, I/O) propagate unwrapped so they
// never silently trigger an expensive rebuild.
var ErrNotFound = errors.New("store: artifact not found")

// ErrCorrupt marks an artifact that exists but cannot be decoded — a
// failed checksum, a truncated file, an unparsable spec. The wrapped message
// names the offending file path. Callers rebuild on it: the rewrite heals
// the store.
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
	for sub := range kindDirs() {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: create %s: %w", sub, err)
		}
	}
	s := &Store{dir: dir}
	rep, err := s.Sweep()
	if err != nil {
		return nil, err
	}
	if rep.Orphans > 0 || rep.Corrupt > 0 {
		log.Printf("store: recovery sweep quarantined %d orphaned temp files, %d corrupt artifacts in %s",
			rep.Orphans, rep.Corrupt, dir)
	}
	return s, nil
}

// slug converts an artifact name (possibly containing "/") into a file
// name. The encoding is injective, so distinct names can never collide on
// one file: "%", "_" and " " are percent-escaped before "/" maps to "__",
// which means every underscore in the output comes from a slash pair —
// "a/b" vs "a__b" and "a b" vs "a_b" all get distinct files.
func slug(name string) string {
	r := strings.NewReplacer("%", "%25", "_", "%5F", " ", "%20")
	return strings.ReplaceAll(r.Replace(name), "/", "__") + ".json"
}

// unslug inverts slug (minus the ".json" suffix, which the caller strips).
func unslug(base string) string {
	n := strings.ReplaceAll(base, "__", "/")
	r := strings.NewReplacer("%20", " ", "%5F", "_", "%25", "%")
	return r.Replace(n)
}

// isNotExist reports that a path truly has no file behind it: ENOENT, or
// ENOTDIR (a parent path component is not a directory — e.g. a broken
// store volume), as opposed to transient failures like permission or I/O
// errors, which must not masquerade as "absent".
func isNotExist(err error) bool {
	return os.IsNotExist(err) || errors.Is(err, syscall.ENOTDIR)
}

// binSlug is the binary counterpart of slug: same injective name
// encoding, ".bin" extension.
func binSlug(name string) string {
	return strings.TrimSuffix(slug(name), ".json") + ".bin"
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

// write persists a spec as its JSON document.
func (s *Store) write(kind, name string, v interface{}) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("store: marshal %s/%s: %w", kind, name, err)
	}
	return writeFile(filepath.Join(s.dir, kind, slug(name)), data)
}

// writeBinary atomically installs an already-encoded codec document.
func (s *Store) writeBinary(kind, name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeFile(filepath.Join(s.dir, kind, binSlug(name)), data)
}

// read loads and decodes a spec's JSON document.
func (s *Store) read(kind, name string, v interface{}) error {
	file := slug(name)
	err := func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if f := faultinject.On(faultinject.SiteStoreRead); f != nil {
			return fmt.Errorf("store: read %s/%s: %w", kind, name, f.Err())
		}
		path := filepath.Join(s.dir, kind, file)
		data, err := os.ReadFile(path)
		switch {
		case err == nil:
		case isNotExist(err):
			return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
		default:
			return fmt.Errorf("store: read %s/%s: %w", kind, name, err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return nil
	}()
	if errors.Is(err, ErrCorrupt) {
		// Never decode (or let a rebuild be shadowed by) this file again.
		s.quarantineCorrupt(kind, file)
	}
	return err
}

// withBinary maps the codec document of kind/name and runs fn over it
// while the mapping is held; fn must copy anything it keeps. A missing
// file is ErrNotFound; a file fn rejects is ErrCorrupt and is quarantined
// so it can never be decoded again or shadow the healing rewrite.
func (s *Store) withBinary(kind, name string, fn func(data []byte) error) error {
	err := func() error {
		s.mu.RLock()
		defer s.mu.RUnlock()
		if f := faultinject.On(faultinject.SiteStoreRead); f != nil {
			return fmt.Errorf("store: read %s/%s: %w", kind, name, f.Err())
		}
		path := filepath.Join(s.dir, kind, binSlug(name))
		data, release, err := artifact.MapFile(path)
		if isNotExist(err) {
			return fmt.Errorf("%w: %s/%s", ErrNotFound, kind, name)
		}
		if err != nil {
			return fmt.Errorf("store: map %s: %w", path, err)
		}
		defer release()
		if err := fn(data); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, path, err)
		}
		return nil
	}()
	if errors.Is(err, ErrCorrupt) {
		s.quarantineCorrupt(kind, binSlug(name))
	}
	return err
}

// list returns the names filed under kind, sorted. Only files carrying
// the kind's one extension count: anything else in the directory is not
// an artifact of this store.
func (s *Store) list(kind, ext string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := os.ReadDir(filepath.Join(s.dir, kind))
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", kind, err)
	}
	var names []string
	for _, e := range entries {
		if base, ok := strings.CutSuffix(e.Name(), ext); ok {
			names = append(names, unslug(base))
		}
	}
	sort.Strings(names)
	return names, nil
}

// PutModel persists a model spec.
func (s *Store) PutModel(spec modelhub.Spec) error { return s.write("models", spec.Name, spec) }

// GetModel retrieves a model spec by name.
func (s *Store) GetModel(name string) (modelhub.Spec, error) {
	var spec modelhub.Spec
	err := s.read("models", name, &spec)
	return spec, err
}

// ListModels returns all stored model names, sorted.
func (s *Store) ListModels() ([]string, error) { return s.list("models", ".json") }

// QueryModels returns the stored model specs matching all non-zero filter
// fields: task, architecture and a minimum capability.
func (s *Store) QueryModels(task, arch string, minCapability float64) ([]modelhub.Spec, error) {
	names, err := s.ListModels()
	if err != nil {
		return nil, err
	}
	var out []modelhub.Spec
	for _, n := range names {
		spec, err := s.GetModel(n)
		if err != nil {
			return nil, err
		}
		if task != "" && spec.Task != task {
			continue
		}
		if arch != "" && spec.Arch != arch {
			continue
		}
		if spec.Capability < minCapability {
			continue
		}
		out = append(out, spec)
	}
	return out, nil
}

// PutDataset persists a dataset spec.
func (s *Store) PutDataset(spec datahub.Spec) error { return s.write("datasets", spec.Name, spec) }

// GetDataset retrieves a dataset spec by name.
func (s *Store) GetDataset(name string) (datahub.Spec, error) {
	var spec datahub.Spec
	err := s.read("datasets", name, &spec)
	return spec, err
}

// ListDatasets returns all stored dataset names, sorted.
func (s *Store) ListDatasets() ([]string, error) { return s.list("datasets", ".json") }

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

// ListMatrices returns all stored matrix names, sorted.
func (s *Store) ListMatrices() ([]string, error) { return s.list("matrices", ".bin") }

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

// ListRecalls returns all stored recall-artifact names, sorted.
func (s *Store) ListRecalls() ([]string, error) { return s.list("recalls", ".bin") }

// artifactKinds maps a wire/store kind directory to the binary format's
// kind tag. These are the only kinds OpenArtifact and PutVerified serve.
var artifactKinds = map[string]artifact.Kind{
	"matrices": artifact.KindMatrix,
	"recalls":  artifact.KindRecall,
}

// OpenArtifact returns the verified codec document of an artifact plus
// its input fingerprint — the payload of GET /v1/artifacts/{kind}/{name}.
// Unknown kinds and missing artifacts are ErrNotFound; a failed checksum
// is ErrCorrupt.
func (s *Store) OpenArtifact(kind, name string) (data []byte, fp uint64, err error) {
	k, ok := artifactKinds[kind]
	if !ok {
		return nil, 0, fmt.Errorf("%w: kind %q", ErrNotFound, kind)
	}
	err = s.withBinary(kind, name, func(mapped []byte) error {
		h, verr := artifact.Verify(mapped)
		if verr != nil {
			return verr
		}
		if h.Kind != k {
			return fmt.Errorf("kind %s under %s/", h.Kind, kind)
		}
		data = append([]byte(nil), mapped...)
		fp = h.Fingerprint
		return nil
	})
	return data, fp, err
}

// PutVerified stores fetched artifact bytes after verifying the checksum
// and that the encoding's kind matches the directory it is filed under —
// a corrupted or mislabeled fetch never lands on disk.
func (s *Store) PutVerified(kind, name string, data []byte) error {
	k, ok := artifactKinds[kind]
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

// SaveRepository persists every spec of a repository.
func (s *Store) SaveRepository(specs []modelhub.Spec) error {
	for _, spec := range specs {
		if err := s.PutModel(spec); err != nil {
			return err
		}
	}
	return nil
}

// SaveCatalogSpecs persists every dataset spec group.
func (s *Store) SaveCatalogSpecs(groups ...[]datahub.Spec) error {
	for _, g := range groups {
		for _, spec := range g {
			if err := s.PutDataset(spec); err != nil {
				return err
			}
		}
	}
	return nil
}
