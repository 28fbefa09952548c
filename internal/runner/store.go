package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"crisp/internal/checkpoint"
)

// Store is the persistent result cache shared by every process sweeping
// against one directory: one file per task, named by kind and content
// key. Keys already hash sim.CodeVersion, so a simulator change
// naturally misses every stale entry instead of serving wrong numbers.
// Small results (runs, analyses, footprints) are JSON; checkpoint sets
// use the binary checkpoint codec. An entry is published through the lock
// file that claims its key (see put), so every write is atomic and
// durable, and corrupt entries are deleted on read so the next producer
// recomputes them. A nil-dir Store stores nothing.
type Store struct {
	dir  string
	held sync.Map // lock path → the *os.File of a claim this Store holds (Lock)
}

// Store kinds: the file-name prefix of each persisted task family, which
// is also its TaskEvent.Kind and, for the first four, its crispd wire name.
const (
	kindRun       = "run"
	kindMulti     = "multi"
	kindAnalysis  = "analysis"
	kindFootprint = "footprint"
	kindCkpt      = "ckpt"
	kindMultiCkpt = "mckpt"
)

// kindSim names the in-memory simulation a run task joins (Run); it is
// never stored, emits no TaskEvent and counts in no Stats field.
const kindSim = "sim"

// Exported kind names, for external readers of a shared store (crispd
// serves already-published entries straight from disk) and for event
// consumers matching TaskEvent.Kind.
const (
	KindRun       = kindRun
	KindMulti     = kindMulti
	KindAnalysis  = kindAnalysis
	KindFootprint = kindFootprint
	KindCkpt      = kindCkpt
	KindMultiCkpt = kindMultiCkpt
)

// kindExt declares each kind's encoding by the extension its entries
// carry: small results are encoding/json output, checkpoint sets the
// binary checkpoint codec.
var kindExt = map[string]string{
	kindRun: ".json", kindMulti: ".json", kindAnalysis: ".json", kindFootprint: ".json",
	kindCkpt: ".bin", kindMultiCkpt: ".bin",
}

// NewStore returns a Store rooted at dir, creating it if needed. An
// empty dir disables persistence.
func NewStore(dir string) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: create cache dir: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Enabled reports whether the store persists anything.
func (s *Store) Enabled() bool { return s.dir != "" }

func (s *Store) path(kind, key string) string {
	return filepath.Join(s.dir, kind+"-"+key+kindExt[kind])
}

// get is the one read path: it reads the entry for (kind, key) and
// decodes it. A missing entry is a miss; so is one that does not decode
// (torn, corrupt, an older shape, written under another key), and that
// one is deleted, so the caller's recompute can publish over it and later
// readers do not trip over the same damage.
func get[T any](s *Store, kind, key string, decode func([]byte) (T, error)) (T, bool) {
	var zero T
	if s.dir == "" {
		return zero, false
	}
	b, err := os.ReadFile(s.path(kind, key))
	if err != nil {
		return zero, false
	}
	v, err := decode(b)
	if err != nil {
		s.Delete(kind, key) // delete-and-recompute
		return zero, false
	}
	return v, true
}

// Get loads the cached value for (kind, key) into v, reporting whether a
// valid entry existed (see get for what happens to an invalid one).
// Decoding goes through a fresh value of v's type: json.Unmarshal
// populates fields as it parses and only then reports an error, so
// decoding straight into v would let a truncated or corrupt entry leave
// the caller's value half-written while Get reports a miss.
func (s *Store) Get(kind, key string, v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return false
	}
	fresh, ok := get(s, kind, key, func(b []byte) (reflect.Value, error) {
		fresh := reflect.New(rv.Type().Elem())
		return fresh, Unmarshal(b, fresh.Interface())
	})
	if ok {
		rv.Elem().Set(fresh.Elem())
	}
	return ok
}

// Unmarshal decodes a stored or served result into v. A v that decodes
// its own JSON (*core.Result), and checks every byte doing so, is handed
// data directly, without json.Unmarshal's validating pass over it.
func Unmarshal(data []byte, v any) error {
	if u, ok := v.(json.Unmarshaler); ok {
		return u.UnmarshalJSON(data)
	}
	return json.Unmarshal(data, v)
}

// Put persists v as JSON under (kind, key), atomically and durably.
func (s *Store) Put(kind, key string, v any) error {
	return s.put(kind, key, func() ([]byte, error) { return json.Marshal(v) })
}

// Delete removes the entry stored under (kind, key), if any: what a
// reader does with an entry it cannot use, so that the recompute can
// publish over it.
func (s *Store) Delete(kind, key string) {
	if s.dir != "" {
		os.Remove(s.path(kind, key))
	}
}

// GetCheckpoint loads and decodes the checkpoint set stored under key; a
// corrupt or key-mismatched file is a deleted miss, like any entry. The
// set is a delta over its workload image and restores nothing until the
// caller attaches that image (checkpoint.Set.Attach).
func (s *Store) GetCheckpoint(key string) (*checkpoint.Set, bool) {
	return get(s, kindCkpt, key, func(b []byte) (*checkpoint.Set, error) { return checkpoint.DecodeSet(b, key) })
}

// PutCheckpoint persists a captured checkpoint set under key, atomically
// and durably.
func (s *Store) PutCheckpoint(key string, set *checkpoint.Set) error {
	return s.put(kindCkpt, key, func() ([]byte, error) { return checkpoint.EncodeSet(set, key), nil })
}

// GetMultiCheckpoint is GetCheckpoint for a co-scheduled multi-core set;
// it too comes back unattached.
func (s *Store) GetMultiCheckpoint(key string) (*checkpoint.MultiSet, bool) {
	return get(s, kindMultiCkpt, key, func(b []byte) (*checkpoint.MultiSet, error) { return checkpoint.DecodeMultiSet(b, key) })
}

// PutMultiCheckpoint is PutCheckpoint for a co-scheduled multi-core set.
func (s *Store) PutMultiCheckpoint(key string, set *checkpoint.MultiSet) error {
	return s.put(kindMultiCkpt, key, func() ([]byte, error) { return checkpoint.EncodeMultiSet(set, key), nil })
}

// publishGap is a test seam invoked between a put's flush and its
// rename: the window in which a peer may break the claim.
var publishGap = func() {}

// put is the one write path: encode (only when the store persists
// anything), then publish through the key's claim — the lock this Store
// holds on it (Lock), or one taken here for a put nobody locked. The
// entry's bytes overwrite the lock body; the file is fsynced, renamed onto
// the entry's name, and the directory fsynced. The rename publishes and
// releases at once, so an entry costs one file creation, and no crash can
// leave a torn or vanishing entry: one before the rename leaves a lock
// holding entry bytes, which peers break after lockEmptyTTL.
func (s *Store) put(kind, key string, encode func() ([]byte, error)) error {
	if s.dir == "" {
		return nil
	}
	data, err := encode()
	if err != nil {
		return err
	}
	lock := s.lockPath(kind, key)
	var f *os.File
	if v, ok := s.held.LoadAndDelete(lock); ok {
		f = v.(*os.File)
	} else if f, _, err = s.claim(context.Background(), lock); err != nil {
		return err
	}
	// Open until after the rename, for the SameFile check below: a closed
	// file that a peer unlinked frees its inode number for the peer's new
	// lock. Its data is fsynced by then, so Close has nothing to report.
	defer f.Close()
	// Overwrite, then cut: the file never reads empty mid-publish.
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Truncate(int64(len(data)))
	}
	// fsync before rename, or a crash can leave the renamed file empty or
	// truncated: the torn entry the atomic rename exists to prevent.
	if err == nil {
		err = f.Sync()
	}
	publishGap()
	// Entry bytes are no lock body: a peer that finds them older than
	// lockEmptyTTL (a stalled publish, a skewed clock) may have broken the
	// claim and taken the key, and the path is then its to rename or remove.
	fi, _ := f.Stat() // nil on error, which SameFile matches to no file
	if li, serr := os.Stat(lock); serr != nil || !os.SameFile(fi, li) {
		return fmt.Errorf("runner: claim %s broken before publish", lock)
	}
	if err == nil {
		err = os.Rename(lock, s.path(kind, key))
	}
	if err != nil {
		os.Remove(lock)
		return err
	}
	// fsync the directory so the rename itself survives a crash; other
	// processes must not observe the entry and then lose it.
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
