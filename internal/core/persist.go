// Persistence: a QUASII index is the product of the queries executed against
// it, so being able to save and reload one preserves an exploration
// session's accumulated refinement — the incremental-indexing equivalent of
// shipping a pre-built index.
//
// Two on-disk formats exist:
//
//   - Version 2 (written by Save): a magic header, a length-prefixed gob
//     block carrying the configuration, slice hierarchy and update buffers,
//     and then the columnar lanes serialized directly (raw little-endian
//     lane words with a trailing CRC — see colstore.WriteLanes). Writing
//     streams the same contiguous memory the query kernels run over; no
//     array-of-structs is materialized.
//   - Version 1 (legacy, gob only): the whole snapshot — including the data
//     as a []geom.Object — in a single gob stream. Load transparently reads
//     both; new snapshots are always v2.

package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"repro/internal/colstore"
	"repro/internal/geom"
)

// snapshot is the gob-encoded on-disk form of a version-1 Index.
type snapshot struct {
	Version int
	Cfg     persistedConfig
	Data    []geom.Object
	Pending []geom.Object
	Deleted []int32
	MaxExt  geom.Point
	DataMBB geom.Box
	Tau     [geom.Dims]int
	Root    *snapList
	Stats   Stats
}

// snapshotV2 is the gob-encoded metadata block of a version-2 snapshot: the
// v1 snapshot minus the data array, which follows as raw columnar lanes.
type snapshotV2 struct {
	Cfg     persistedConfig
	DataLen int // rows in the lane block that follows
	Pending []geom.Object
	Deleted []int32
	MaxExt  geom.Point
	DataMBB geom.Box
	Tau     [geom.Dims]int
	Root    *snapList
	Stats   Stats
}

// persistedConfig is Config as both formats carry it. It still names
// Assign, which Config has dropped: gob matches fields by name and never
// transmits a zero value, so every older snapshot decodes unchanged, and
// one written with a non-default Assign is seen (and refused by config)
// rather than silently read as lower-corner. Older snapshots may also carry
// the artificial-refinement switch; gob skips it, and that is safe: with
// the switch off, slices larger than τ were only left unrefined (refined is
// set only at ≤ τ) — a valid hierarchy the next query touching them refines
// further. Older snapshots may likewise carry the switch that once turned
// the work counters off; gob skips it too, and the loaded index counts.
// Stochastic and Seed are the random pre-cut's switch and seed, which the
// centre cut replaced: they are decoded and ignored, because they chose
// cuts, not answers — the hierarchy they left is walked and refined like
// any other, and no snapshot written now carries them.
type persistedConfig struct {
	Tau             int
	Assign          int
	Stochastic      bool
	Seed            int64
	HeatSampleEvery int
}

func persistConfig(c Config) persistedConfig {
	return persistedConfig{Tau: c.Tau, HeatSampleEvery: c.HeatSampleEvery}
}

// config returns the Config a snapshot was written with. A hierarchy whose
// slices partition some other representative coordinate than the lower
// corner cannot be walked with lower-corner bounds: a non-zero Assign is an
// error naming the mode.
func (p persistedConfig) config() (Config, error) {
	if p.Assign != 0 {
		name := "unknown"
		switch p.Assign {
		case 1:
			name = "center"
		case 2:
			name = "upper corner"
		}
		return Config{}, fmt.Errorf("objects are assigned to slices by their %s (assignment mode %d); only the lower corner (mode 0) is supported",
			name, p.Assign)
	}
	return Config{Tau: p.Tau, HeatSampleEvery: p.HeatSampleEvery}, nil
}

type snapList struct {
	MaxExt float64
	Slices []snapSlice
}

type snapSlice struct {
	Lo, Hi   int
	Box      geom.Box
	Refined  bool
	Children *snapList
}

const snapshotVersion = 1

// magicV2 starts every version-2 snapshot. A version-1 stream is a bare gob
// stream, which cannot begin with these bytes (a gob message starts with a
// small varint length), so Load can dispatch on an 8-byte peek.
const magicV2 = "QZSNAP2\n"

// maxHeaderBytes bounds the v2 metadata block so a corrupt length prefix
// cannot force an enormous allocation. The hierarchy of an index with n
// objects has O(n/τ) slices; 1 GiB of gob covers any realistic index.
const maxHeaderBytes = 1 << 30

// Save serializes the index to w in the version-2 columnar format: magic,
// a length-prefixed gob block (configuration, update buffers, the full
// slice hierarchy with its refinement state), then the data lanes written
// directly from columnar storage. It snapshots the live version; see
// SaveVersion for checkpointing an explicitly pinned one.
func (ix *Index) Save(w io.Writer) error {
	return ix.SaveVersion(w, ix.live.Load())
}

// SaveVersion serializes v's view of the index — its base lanes, the slice
// hierarchy describing them, and its delta buffers — in the same version-2
// format Save writes; Load cannot tell the difference. This is what makes
// the zero-pause durable checkpoint possible: the checkpoint pins a version
// at the cut, updates keep publishing new versions, and the snapshot
// written afterwards is exactly the pinned view. The caller must hold at
// least the shared lock (a current-generation version's lanes may still be
// reordered in place by cracking; the lock excludes that; a superseded
// generation is frozen either way, but the lock also keeps the rule
// simple).
func (ix *Index) SaveVersion(w io.Writer, v *Version) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magicV2); err != nil {
		return err
	}
	head := snapshotV2{
		Cfg:     persistConfig(ix.cfg),
		DataLen: v.table.Len(),
		Pending: v.pending,
		Deleted: deletedIDs(v.deleted),
		MaxExt:  v.maxExt,
		DataMBB: v.dataMBB,
		Tau:     v.tau,
		Root:    encodeList(v.root),
		Stats:   ix.Stats(), // folds the atomic SharedQueries counter in
	}
	var hb bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(&head); err != nil {
		return fmt.Errorf("encoding quasii snapshot header: %w", err)
	}
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(hb.Len()))
	if _, err := bw.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := bw.Write(hb.Bytes()); err != nil {
		return err
	}
	if err := v.table.WriteLanes(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reconstructs an index previously serialized with Save, accepting
// both the version-2 columnar format and legacy version-1 gob snapshots.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	peek, err := br.Peek(len(magicV2))
	if err == nil && string(peek) == magicV2 {
		return loadV2(br)
	}
	// Not a v2 magic (or too short to carry one): try the v1 gob stream.
	var snap snapshot
	if err := gob.NewDecoder(br).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding quasii snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("unsupported quasii snapshot version %d", snap.Version)
	}
	return buildIndex(snap.Cfg, colstore.FromObjects(snap.Data), snap.Pending,
		snap.Deleted, snap.MaxExt, snap.DataMBB, snap.Tau, snap.Root, snap.Stats)
}

// loadV2 decodes the version-2 format after the magic has been peeked.
func loadV2(br *bufio.Reader) (*Index, error) {
	if _, err := br.Discard(len(magicV2)); err != nil {
		return nil, err
	}
	var lenBuf [8]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("reading quasii snapshot header length: %w", err)
	}
	hlen := binary.LittleEndian.Uint64(lenBuf[:])
	if hlen > maxHeaderBytes {
		return nil, fmt.Errorf("quasii snapshot header length %d out of range", hlen)
	}
	// The length is only a claim until its bytes arrive: reading through a
	// limit grows the buffer with what the input carries, not what it says.
	hb, err := io.ReadAll(io.LimitReader(br, int64(hlen)))
	if err == nil && uint64(len(hb)) != hlen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("reading quasii snapshot header: %w", err)
	}
	var head snapshotV2
	if err := gob.NewDecoder(bytes.NewReader(hb)).Decode(&head); err != nil {
		return nil, fmt.Errorf("decoding quasii snapshot header: %w", err)
	}
	if head.DataLen < 0 {
		return nil, fmt.Errorf("corrupt quasii snapshot: negative row count %d", head.DataLen)
	}
	data := &colstore.Table{}
	if err := data.ReadLanes(br, head.DataLen); err != nil {
		return nil, fmt.Errorf("decoding quasii snapshot lanes: %w", err)
	}
	if data.Len() != head.DataLen {
		return nil, fmt.Errorf("corrupt quasii snapshot: header says %d rows, lanes carry %d",
			head.DataLen, data.Len())
	}
	return buildIndex(head.Cfg, data, head.Pending, head.Deleted,
		head.MaxExt, head.DataMBB, head.Tau, head.Root, head.Stats)
}

// buildIndex reconstructs an Index from decoded snapshot fields (shared by
// both format versions) and validates its structural invariants.
func buildIndex(pc persistedConfig, data *colstore.Table, pending []geom.Object, deleted []int32,
	maxExt geom.Point, dataMBB geom.Box, tau [geom.Dims]int, root *snapList, st Stats) (*Index, error) {
	cfg, err := pc.config()
	if err != nil {
		return nil, fmt.Errorf("quasii snapshot: %w", err)
	}
	ix := &Index{
		cfg:       cfg,
		data:      data,
		tau:       tau,
		stats:     st,
		remCracks: -1,
		heatEvery: heatEveryFor(cfg),
	}
	// SharedQueries lives in an atomic counter outside the plain Stats block;
	// move the persisted value back home so Stats() keeps folding it in.
	ix.sharedQueries.Store(st.SharedQueries)
	ix.stats.SharedQueries = 0
	ix.root = ix.decodeList(root, 0)
	if ix.root == nil {
		ix.root = &sliceList{}
	}
	ix.initVersion(pending, colstore.TombstonesOf(deleted), maxExt, dataMBB)
	// Bounds-check every slice range and the nesting depth before the
	// structural invariant check, which indexes into the data lanes and the
	// per-dimension box bounds and would panic on either.
	if err := checkRanges(ix.root, ix.data.Len(), 0); err != nil {
		return nil, fmt.Errorf("corrupt quasii snapshot: %w", err)
	}
	rows, err := ix.checkList(ix.root, 0, ix.data.Len(), 0)
	if err != nil {
		return nil, fmt.Errorf("corrupt quasii snapshot: %w", err)
	}
	// Flush boxes the root of an empty hierarchy with DataMBB, and a query
	// skips whatever lies outside a slice's box; KNN sizes its search by it
	// too: the box must contain every row and every pending object.
	for i := range pending {
		rows = rows.Extend(pending[i].Box)
	}
	for d := 0; d < geom.Dims; d++ {
		if !(dataMBB.Min[d] <= rows.Min[d] && rows.Max[d] <= dataMBB.Max[d]) {
			return nil, fmt.Errorf("corrupt quasii snapshot: data MBB %v does not contain the objects' MBB %v", dataMBB, rows)
		}
	}
	return ix, nil
}

func checkRanges(l *sliceList, n, level int) error {
	if level >= geom.Dims {
		return fmt.Errorf("slice hierarchy nested deeper than %d levels", geom.Dims)
	}
	for _, s := range l.slices {
		if s.lo < 0 || s.hi < s.lo || s.hi > n {
			return fmt.Errorf("slice range [%d,%d) out of bounds for %d objects", s.lo, s.hi, n)
		}
		if s.children != nil {
			if err := checkRanges(s.children, n, level+1); err != nil {
				return err
			}
		}
	}
	return nil
}

func encodeList(l *sliceList) *snapList {
	if l == nil {
		return nil
	}
	out := &snapList{MaxExt: l.maxExt, Slices: make([]snapSlice, len(l.slices))}
	for i, s := range l.slices {
		out.Slices[i] = snapSlice{
			Lo: s.lo, Hi: s.hi, Box: s.box, Refined: s.refined,
			Children: encodeList(s.children),
		}
	}
	return out
}

func (ix *Index) decodeList(l *snapList, level int) *sliceList {
	if l == nil {
		return nil
	}
	out := &sliceList{maxExt: l.MaxExt, slices: make([]*slice, len(l.Slices))}
	for i, s := range l.Slices {
		n := ix.newSlice(level, s.Lo, s.Hi, s.Box)
		n.refined = s.Refined
		n.children = ix.decodeList(s.Children, level+1)
		out.slices[i] = n
	}
	return out
}

// deletedIDs lists a tombstone view in ascending order, so the same state
// always saves to the same bytes (Load rebuilds a view; order is free).
func deletedIDs(dead colstore.Tombstones) []int32 {
	if dead.Len() == 0 {
		return nil
	}
	out := slices.Clone(dead.IDs())
	slices.Sort(out)
	return out
}
