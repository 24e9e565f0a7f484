// Sharded persistence: Snapshot writes one snapshot file per shard plus a
// JSON manifest binding them together; Restore reassembles the engine from
// a snapshot directory without re-partitioning or re-refining anything.
//
// Every snapshot is written from pinned MVCC versions: PinVersions pins
// each shard's current version, SnapshotPinnedFS serializes exactly those
// views — per-shard files written concurrently, each under its shard's read
// lock, so the writer rides with converged queries and version-publishing
// updates and is blocked only by in-flight cracking — and Release lets the
// superseded versions go. Snapshot is that sequence in one call. Because
// shards are pinned one at a time, the set is per-shard consistent but not
// a cross-shard point-in-time cut; callers that need a precise cut
// (internal/durable does, to bound its write-ahead log) hold updates for
// the duration of PinVersions only — microseconds — and write afterwards.
//
// The manifest records what the sub-index snapshots cannot: the build-time
// STR tile of each shard (which routes inserts) and the union of tiles. It
// also records each shard's live bounding box (which routes queries and
// only ever grows), but Restore recomputes that from the loaded data: the
// manifest may come from another machine (a follower installs its
// leader's), and a box too small would drop results silently.
// File-level atomicity is the caller's concern: write into a fresh
// directory and rename it into place (internal/durable does).

package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/geom"
)

// ManifestName is the file binding a snapshot directory together. It is
// written last, so a directory without it is an aborted snapshot.
const ManifestName = "MANIFEST.json"

const manifestVersion = 1

// IsBaseName reports whether name is a plain file name: not empty, not "."
// or "..", and free of path separators. A snapshot directory is flat, so
// every file its manifest or a replication archive names must pass, or a
// crafted name could reach outside the directory.
func IsBaseName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// manifest is the JSON index of a snapshot directory.
type manifest struct {
	Version int `json:"version"`
	// TileMBB is the union of the tiles, excluding a legacy overflow
	// shard. Restore checks it against the tiles it lists, which refuses a
	// manifest that drops a shard; earlier versions route inserts by it.
	TileMBB  *geom.StringBox `json:"tile_mbb"`
	Shards   []shardRecord   `json:"shards"`
	Overflow *overflowEntry  `json:"overflow,omitempty"`
}

type shardRecord struct {
	File string          `json:"file"`
	Tile *geom.StringBox `json:"tile"`
	// Bounds is the shard's live bounding box at snapshot time. Restore
	// only validates it and recomputes the box from the loaded data; it is
	// written because earlier versions restore it as is.
	Bounds *geom.StringBox `json:"bounds"`
}

// overflowEntry decodes the separate out-of-tile shard that manifests
// written by earlier versions may carry; Restore loads it as one more
// ordinary shard.
type overflowEntry struct {
	File   string          `json:"file"`
	Bounds *geom.StringBox `json:"bounds"`
}

// The manifest's boxes are pointers so that Restore can tell an absent box
// field from a present one: decoding leaves an absent field nil, where a
// value would silently read as the zero box.
func manifestBox(b geom.Box) *geom.StringBox {
	s := geom.StringBox(b)
	return &s
}

// restoredBox dereferences a decoded manifest box, refusing an absent one.
func restoredBox(b *geom.StringBox, what string) (geom.Box, error) {
	if b == nil {
		return geom.Box{}, fmt.Errorf("snapshot manifest %s: box missing", what)
	}
	return geom.Box(*b), nil
}

func shardFileName(i int) string { return fmt.Sprintf("shard-%03d.snap", i) }

// Snapshot writes the engine's state into dir (which must exist): it pins
// every shard's current version, writes one snapshot file per shard plus
// the manifest (see SnapshotPinnedFS), and releases the pins. Every file is
// fsynced before Snapshot returns; directory-entry durability (fsync of dir
// itself, atomic rename into place) is left to the caller.
func (ix *Index) Snapshot(dir string) error {
	ps, err := ix.PinVersions()
	if err != nil {
		return err
	}
	defer ps.Release()
	return ix.SnapshotPinnedFS(dir, faultfs.OS{}, ps)
}

func writeManifest(fsys faultfs.FS, path string, m *manifest) error {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	return faultfs.WriteFileSync(fsys, path, append(raw, '\n'), false)
}

// pinnedShard is one shard's pinned version plus everything the manifest
// needs about it, captured under the shard's read lock at pin time.
type pinnedShard struct {
	sh     *shardEntry
	ver    *core.Version
	file   string
	tile   geom.Box
	bounds geom.Box
}

// PinSet is a consistent-per-shard set of pinned MVCC versions: one per
// shard. It is the handle behind the zero-pause durable checkpoint — pin,
// let updates continue, serialize the pinned views with SnapshotPinnedFS,
// then Release. A PinSet must be Released exactly once; Release is
// idempotent so deferred cleanup is safe.
type PinSet struct {
	pins     []pinnedShard
	tileMBB  geom.Box
	released atomic.Bool
}

// PinVersions pins every shard's current MVCC version — each under its
// shard's read lock, shards visited one at a time — and returns the set.
// The pin refuses a quarantined engine with ErrQuarantined: a sub-index
// that just panicked mid-walk cannot be trusted, and persisting it would
// promote a transient in-memory corruption into every future restart;
// callers keep the previous generation instead. The set is per-shard
// consistent but not a cross-shard point-in-time cut; the durable store
// brackets PinVersions with its own update cut to get one.
func (ix *Index) PinVersions() (*PinSet, error) {
	ps := &PinSet{tileMBB: ix.tileUnion()}
	for i, sh := range ix.shards {
		file := shardFileName(i)
		if sh.quarantined.Load() {
			ps.Release()
			return nil, fmt.Errorf("pin refused, %s: %w", file, ErrQuarantined)
		}
		// Bounds are read under the same lock as the pin: every object in
		// the pinned version had its bounds extension completed before it
		// was appended (Insert grows bounds before taking the shard lock),
		// so they cover the file — read before the lock they could miss a
		// racing insert, and a restored engine would then skip the shard on
		// queries its objects intersect.
		sh.mu.RLock()
		ver := sh.sub.PinVersion()
		bounds := sh.boundsBox()
		sh.mu.RUnlock()
		ps.pins = append(ps.pins, pinnedShard{sh: sh, ver: ver, file: file, tile: sh.tile, bounds: bounds})
	}
	return ps, nil
}

// Versions returns the pinned version of every shard in the set, in shard
// order. Test harnesses read these to audit visibility against an oracle.
func (ps *PinSet) Versions() []*core.Version {
	out := make([]*core.Version, len(ps.pins))
	for i := range ps.pins {
		out[i] = ps.pins[i].ver
	}
	return out
}

// Release unpins every version in the set, letting the sub-indexes garbage
// collect superseded versions. Idempotent; safe to defer alongside an
// explicit call on the success path.
func (ps *PinSet) Release() {
	if ps == nil || ps.released.Swap(true) {
		return
	}
	for i := range ps.pins {
		p := &ps.pins[i]
		p.sh.mu.RLock()
		p.ver.Release()
		p.sh.mu.RUnlock()
	}
}

// SnapshotPinnedFS writes the pinned versions into dir over an injectable
// file system — the durable store threads its (possibly fault-injecting) FS
// through here so checkpoint rotation is exercised by the same fault rules
// as the WAL. The files describe exactly the state at pin time no matter
// how many updates landed since: one file per shard, written concurrently,
// each under its shard's read lock (the pinned version's lanes may still be
// reorganized in place by cracking on the live generation; the read lock
// excludes that), then the manifest, written last and only if every shard
// file succeeded. A shard quarantined since the pin vetoes the snapshot:
// its pinned version shares storage with the structure that just panicked.
func (ix *Index) SnapshotPinnedFS(dir string, fsys faultfs.FS, ps *PinSet) error {
	type job struct {
		p   *pinnedShard
		err error
	}
	jobs := make([]*job, 0, len(ps.pins))
	for i := range ps.pins {
		p := &ps.pins[i]
		if p.sh.quarantined.Load() {
			return fmt.Errorf("snapshot refused, %s: %w", p.file, ErrQuarantined)
		}
		jobs = append(jobs, &job{p: p})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			j.err = writePinnedShardFile(fsys, filepath.Join(dir, j.p.file), j.p)
		}(j)
	}
	wg.Wait()

	m := manifest{Version: manifestVersion, TileMBB: manifestBox(ps.tileMBB)}
	for _, j := range jobs {
		if j.err != nil {
			return j.err
		}
		m.Shards = append(m.Shards, shardRecord{
			File: j.p.file, Tile: manifestBox(j.p.tile), Bounds: manifestBox(j.p.bounds),
		})
	}
	return writeManifest(fsys, filepath.Join(dir, ManifestName), &m)
}

// writePinnedShardFile saves one pinned version to path under its shard's
// read lock and fsyncs the file. Bounds come from pin time (captured under
// the same lock as the pin itself), so the manifest covers exactly the
// objects the pinned version holds.
func writePinnedShardFile(fsys faultfs.FS, path string, p *pinnedShard) error {
	f, err := fsys.Create(path)
	if err != nil {
		return err
	}
	p.sh.mu.RLock()
	err = p.sh.sub.SaveVersion(f, p.ver)
	p.sh.mu.RUnlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("saving %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Restore reassembles a sharded index from a snapshot directory written by
// Snapshot. Shard files are loaded concurrently. The restored engine keeps
// the snapshot's tiles and every sub-index's accumulated refinement; each
// shard's live bounds are its tile extended by its loaded sub-index's data
// MBB, so they contain every object whatever the manifest says. cfg
// supplies the runtime knobs exactly as for New (Workers, CrackBudget). A
// manifest from an earlier version that carries a separate overflow shard
// restores it as one more shard whose tile is its recorded live bounds.
func Restore(dir string, cfg Config) (*Index, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("reading snapshot manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decoding snapshot manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("unsupported snapshot manifest version %d", m.Version)
	}
	if len(m.Shards) == 0 {
		return nil, errors.New("snapshot manifest lists no shards")
	}
	tileMBB, err := restoredBox(m.TileMBB, "tile_mbb")
	if err != nil {
		return nil, err
	}
	tiled := len(m.Shards)
	if ov := m.Overflow; ov != nil {
		m.Shards = append(m.Shards, shardRecord{File: ov.File, Tile: ov.Bounds, Bounds: ov.Bounds})
	}
	tiles := make([]geom.Box, len(m.Shards))
	union := geom.EmptyBox()
	named := make(map[string]bool, len(m.Shards))
	for i, rec := range m.Shards {
		if !IsBaseName(rec.File) {
			return nil, fmt.Errorf("snapshot manifest names unsafe shard file %q", rec.File)
		}
		if named[rec.File] {
			return nil, fmt.Errorf("snapshot manifest names shard file %q twice", rec.File)
		}
		named[rec.File] = true
		if tiles[i], err = restoredBox(rec.Tile, rec.File+" tile"); err != nil {
			return nil, err
		}
		if _, err := restoredBox(rec.Bounds, rec.File+" bounds"); err != nil {
			return nil, err
		}
		if i < tiled {
			union = union.Extend(tiles[i])
		}
	}
	if union != tileMBB {
		return nil, fmt.Errorf("snapshot manifest tile_mbb %v is not the union %v of its shard tiles", tileMBB, union)
	}

	ix := newEngine(cfg, len(m.Shards))
	errs := make([]error, len(m.Shards))
	var wg sync.WaitGroup
	for i, rec := range m.Shards {
		wg.Add(1)
		go func(i int, file string) {
			defer wg.Done()
			sub, err := loadShardFile(filepath.Join(dir, file))
			if err != nil {
				errs[i] = err
				return
			}
			sh := ix.newEntry(sub, tiles[i])
			bounds := tiles[i].Extend(sub.DataMBB())
			sh.bounds.Store(&bounds)
			ix.shards[i] = sh
		}(i, rec.File)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	n := 0
	ix.forEach(func(sh *shardEntry) { n += sh.sub.Len() })
	ix.count.Store(int64(n))
	return ix, nil
}

func loadShardFile(path string) (subIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sub, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", filepath.Base(path), err)
	}
	return sub, nil
}

// effectiveWorkers resolves the Config.Workers default: min(shard count,
// GOMAXPROCS), at least 1.
func effectiveWorkers(requested, shards int) int {
	if requested >= 1 {
		return requested
	}
	w := shards
	if mp := runtime.GOMAXPROCS(0); w > mp {
		w = mp
	}
	if w < 1 {
		w = 1
	}
	return w
}
