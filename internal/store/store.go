// Package store is the on-disk half of the experiment memoization system:
// a content-addressed, crash-safe result store that outlives the process.
// The in-memory memo of internal/lab deduplicates cells within one run;
// this store persists them across runs, commands and machines, so an
// interrupted `validate -grid paper` campaign resumes with only the missing
// cells simulated and a finished campaign can be exported to a colleague.
//
// Layout: a cache directory holds a shards/ subdirectory with one
// append-only segment file and one lock file per key-hash shard (plus a
// LAYOUT stamp naming the shard routing), and a store-wide LOCK file used
// only for layout-level operations (see layout.go). Each segment starts
// with a header naming the binary format and the caller's schema version
// (the simulator/result version stamp); entries follow as self-delimiting
// records:
//
//	entryMagic  uint32   per-record sync marker
//	keyLen      uint16
//	typeLen     uint16
//	payloadLen  uint32
//	stamp       int64    unix seconds at write (GC age input)
//	key         keyLen bytes (content-addressed: a lab.Key hex digest)
//	typeName    typeLen bytes (decoder selector, e.g. "core.Metrics")
//	payload     payloadLen bytes
//	crc         uint32   IEEE CRC-32 of everything above
//
// The segment is the log: a put appends its record with a single write
// under an exclusive per-shard lock and fsyncs the segment before it is
// acknowledged, so there is no second file to keep in step. The only
// possible inconsistency is a torn record at a segment's tail (a crashed
// writer), which Open and the next writer truncate away. A corrupted
// record body (bit rot, a flipped byte) fails its checksum and is skipped
// — the key simply misses and its cell recomputes — while records after it
// stay reachable: even when the damage hits a length field and
// desynchronises parsing, the scan resynchronises on the next per-record
// magic marker instead of giving up on the rest of the segment. Stale
// schema versions, and the legacy v1 single-segment layout, discard the
// whole store at Open: results produced by a different simulator version
// must never be served.
//
// Concurrency: one Store is safe for concurrent use by any number of
// goroutines, and any number of processes (or Stores in one process) may
// share a directory. Writers to different shards proceed in parallel —
// each shard has its own exclusive file lock — and writers to one shard
// serialise through it. The hit path is lock-free: every shard publishes
// its index as an immutable snapshot (swapped atomically on append,
// rescan and compaction), so a Get of an indexed key acquires no mutex
// and no file lock; committed bytes are immutable, which is what makes
// the unlocked read sound. An index miss falls to a locked slow path
// whose shared-lock tail rescan makes results appended by sibling
// processes visible mid-run.
package store

import (
	"archive/tar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"activemem/internal/telemetry"
)

// Options configures Open.
type Options struct {
	// Schema is the result schema / simulator version stamp (see
	// lab.ResultSchemaVersion). A read-write Open of a store written under
	// a different schema discards its contents — stale results
	// self-invalidate; a read-only Open reports an error instead.
	Schema string
	// ReadOnly opens for inspection: Get and the maintenance scans work,
	// Put/GC/Import fail, and torn tails are tolerated rather than
	// truncated.
	ReadOnly bool
}

// opCounters are the store's cumulative operation counters. They exist so
// tests (and curious callers) can verify the concurrency contract — e.g.
// that a Get of an indexed key acquires no mutex and no file lock — from
// the outside.
type opCounters struct {
	gets         atomic.Uint64
	puts         atomic.Uint64
	snapshotHits atomic.Uint64
	slowGets     atomic.Uint64
	mutexAcqs    atomic.Uint64
	flockAcqs    atomic.Uint64
	groupCommits atomic.Uint64
}

// OpCounters is a point-in-time snapshot of the store's operation
// counters.
type OpCounters struct {
	// Gets and Puts count public Get/Put calls.
	Gets, Puts uint64
	// SnapshotHits counts gets served lock-free from a shard's published
	// index snapshot: no mutex, no file lock, one pread.
	SnapshotHits uint64
	// SlowGets counts gets that fell to a shard's locked slow path (index
	// misses and verification failures).
	SlowGets uint64
	// MutexAcqs counts shard mutex acquisitions across all operations.
	MutexAcqs uint64
	// FlockAcqs counts cross-process file-lock acquisitions (shard locks
	// and the layout lock).
	FlockAcqs uint64
	// GroupCommits counts the segment fsyncs that acknowledged a put: one
	// per put that appended a record.
	GroupCommits uint64
}

// Store is an open result store. Methods are safe for concurrent use.
type Store struct {
	dir      string
	schema   string
	readOnly bool
	reset    bool

	shards  []*shard
	ops     opCounters
	dirLock *os.File
}

// Open opens (creating if necessary, unless read-only) the store in dir.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if opts.Schema == "" {
		return nil, fmt.Errorf("store: empty schema version")
	}
	s := &Store{dir: dir, schema: opts.Schema, readOnly: opts.ReadOnly}
	shardsDir := filepath.Join(dir, shardsDirName)

	if !opts.ReadOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		lockPath := filepath.Join(dir, lockName)
		var err error
		if s.dirLock, err = os.OpenFile(lockPath, os.O_RDWR|os.O_CREATE, 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Layout decisions (fresh creation, discarding a stale layout) are
		// store-wide and must not race sibling processes making the same
		// decision; the per-shard locks only exist after this succeeds.
		s.ops.flockAcqs.Add(1)
		if err := flockHeld(s.dirLock, lockPath, true, func() error {
			return s.prepareLayoutLocked()
		}); err != nil {
			s.dirLock.Close()
			return nil, err
		}
	} else if fi, err := os.Stat(shardsDir); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("store: %s holds no sharded store (a read-write open creates one)", dir)
	} else if err := checkLayoutStamp(filepath.Join(shardsDir, layoutName)); err != nil {
		return nil, err
	}

	s.shards = make([]*shard, 0, numShards)
	for i := 0; i < numShards; i++ {
		sh, err := openShard(shardSegPath(shardsDir, i), shardLockPath(shardsDir, i),
			s.schema, s.readOnly, &s.ops)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
		s.reset = s.reset || sh.reset
	}
	return s, nil
}

// shardFor routes a key to its shard.
func (s *Store) shardFor(key string) *shard {
	return s.shards[shardOf(key)]
}

// Get returns the entry for key, or ok == false when it is absent or its
// record fails verification. A shard-index miss rescans that shard's
// tail, so entries appended by other processes sharing the directory are
// found.
func (s *Store) Get(key string) (typeName string, payload []byte, ok bool) {
	s.ops.gets.Add(1)
	tmGets.Inc()
	var startNs int64
	if telemetry.Active() {
		startNs = telemetry.NowNs()
		defer func() { tmGetSeconds.Observe(shardOf(key), telemetry.NowNs()-startNs) }()
	}
	return s.shardFor(key).get(key)
}

// Put appends an entry to the key's shard, reporting whether it wrote: a
// key already present is left untouched and reports false (results are
// content-addressed — same key, same value — so concurrent writers that
// raced on a computation converge on one record).
func (s *Store) Put(key, typeName string, payload []byte) (added bool, err error) {
	if len(key) == 0 || len(key) > maxKeyLen || len(typeName) > maxTypeLen {
		return false, fmt.Errorf("store: bad key/type length %d/%d", len(key), len(typeName))
	}
	if len(payload) > maxPayload {
		return false, fmt.Errorf("store: payload %d exceeds %d bytes", len(payload), maxPayload)
	}
	s.ops.puts.Add(1)
	tmPuts.Inc()
	var startNs int64
	if telemetry.Active() {
		startNs = telemetry.NowNs()
		defer func() { tmPutSeconds.Observe(shardOf(key), telemetry.NowNs()-startNs) }()
	}
	return s.shardFor(key).put(key, typeName, payload, time.Now().Unix())
}

// Invalidate drops key from its shard's index (so the next Put for it
// appends a fresh record, which last-wins over the old one at every future
// scan). The executor's disk tier uses it when a checksum-valid record
// fails to decode — a stale payload encoding that, left in place, would
// force every future run to recompute the cell without ever being able to
// repair it.
func (s *Store) Invalidate(key string) {
	s.shardFor(key).invalidate(key)
}

// Close releases the store's file handles. Every acknowledged put is
// already durable in its segment, so there is nothing to flush.
func (s *Store) Close() error {
	var err error
	for _, sh := range s.shards {
		sh.lock()
		if cerr := sh.closeFiles(); err == nil {
			err = cerr
		}
		sh.mu.Unlock()
	}
	if s.dirLock != nil {
		if cerr := s.dirLock.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Schema returns the schema version the store was opened with.
func (s *Store) Schema() string { return s.schema }

// Len returns the number of live entries across all shards.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.state.Load().live()
	}
	return n
}

// ResetOnOpen reports whether Open discarded previous contents because
// their format, layout or schema version did not match.
func (s *Store) ResetOnOpen() bool { return s.reset }

// Counters returns a snapshot of the store's operation counters.
func (s *Store) Counters() OpCounters {
	return OpCounters{
		Gets:         s.ops.gets.Load(),
		Puts:         s.ops.puts.Load(),
		SnapshotHits: s.ops.snapshotHits.Load(),
		SlowGets:     s.ops.slowGets.Load(),
		MutexAcqs:    s.ops.mutexAcqs.Load(),
		FlockAcqs:    s.ops.flockAcqs.Load(),
		GroupCommits: s.ops.groupCommits.Load(),
	}
}

// EntryInfo describes one live entry.
type EntryInfo struct {
	Key          string
	Type         string
	PayloadBytes int
	Stamp        time.Time
}

// keyedRef pairs a key with its index entry.
type keyedRef struct {
	key string
	ref entryRef
}

// Entries lists live entries ordered by write stamp (oldest first), with
// the key as tiebreak: with the keyspace spread over shards there is no
// single segment order anymore, so the stamp is the one global ordering
// the store can still promise.
func (s *Store) Entries() []EntryInfo {
	var out []EntryInfo
	for _, sh := range s.shards {
		for k, ref := range sh.state.Load().merged() {
			out = append(out, EntryInfo{Key: k, Type: ref.typeName,
				PayloadBytes: ref.payloadLen, Stamp: time.Unix(ref.stamp, 0)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Stamp.Equal(out[j].Stamp) {
			return out[i].Stamp.Before(out[j].Stamp)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// Summary aggregates the store's state.
type Summary struct {
	Dir     string
	Schema  string
	Entries int
	// Bytes is the total segment file size (headers, live entries, and any
	// stale or corrupt records GC has not yet compacted away).
	Bytes          int64
	PerType        map[string]int
	Oldest, Newest time.Time
	// Shards is the number of segment shards.
	Shards int
}

// Stats returns a summary of the store.
func (s *Store) Stats() Summary {
	sum := Summary{Dir: s.dir, Schema: s.schema, PerType: map[string]int{},
		Shards: len(s.shards)}
	for _, sh := range s.shards {
		st := sh.state.Load()
		if fi, err := st.f.Stat(); err == nil {
			sum.Bytes += fi.Size()
		}
		sum.Entries += st.live()
		for _, ref := range st.merged() {
			sum.PerType[ref.typeName]++
			t := time.Unix(ref.stamp, 0)
			if sum.Oldest.IsZero() || t.Before(sum.Oldest) {
				sum.Oldest = t
			}
			if t.After(sum.Newest) {
				sum.Newest = t
			}
		}
	}
	return sum
}

// VerifyResult reports a full-store checksum scan.
type VerifyResult struct {
	// Records is the number of complete records parsed (live + stale).
	Records int
	// Live is the number of currently reachable entries.
	Live int
	// Corrupt counts records whose checksum failed.
	Corrupt int
	// TornBytes is the total length of unparseable segment tails, zero
	// when every segment ends cleanly.
	TornBytes int64
	// GarbageBytes counts mid-segment bytes the scan had to resynchronise
	// past (e.g. a record whose length fields were corrupted).
	GarbageBytes int64
}

// Verify re-reads every record in every shard and checks its checksum.
func (s *Store) Verify() (VerifyResult, error) {
	var res VerifyResult
	for _, sh := range s.shards {
		if err := sh.verify(&res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// GCPolicy selects which entries a compaction keeps.
type GCPolicy struct {
	// MaxAge evicts entries written longer ago; zero keeps all ages.
	MaxAge time.Duration
	// MaxBytes bounds the surviving record bytes across all shards,
	// evicting oldest-first; zero means unbounded.
	MaxBytes int64
}

// GCResult reports a compaction.
type GCResult struct {
	Kept, Evicted           int
	BytesBefore, BytesAfter int64
}

// GC compacts every shard: stale duplicates, checksum-failed records and
// entries outside the policy are dropped, survivors are rewritten to a
// temporary segment which atomically replaces the old one (temp file +
// rename per shard). The policy is evaluated globally — MaxBytes bounds
// the store, not each shard — in two phases: gather every shard's live
// set, decide the global survivor set, then compact shard by shard.
// Entries appended between the phases are kept unconditionally. Other
// Stores sharing the directory keep reading their old segments until
// they reopen; run GC between campaigns, not during one.
func (s *Store) GC(policy GCPolicy) (GCResult, error) {
	var res GCResult
	if s.readOnly {
		return res, fmt.Errorf("store: read-only")
	}
	// Phase 1: bring every shard's index current and snapshot the live
	// sets (plus each shard's committed size, the fence for "appended
	// after the snapshot").
	type shardSnap struct {
		live []keyedRef
		size int64
	}
	snaps := make([]shardSnap, len(s.shards))
	var all []keyedRef
	for i, sh := range s.shards {
		sh.lock()
		err := func() error {
			if st := sh.state.Load(); st.dead != nil {
				return st.dead
			}
			return sh.withFileLock(true, func() error { return sh.rescanLocked(true) })
		}()
		if err != nil {
			sh.mu.Unlock()
			return res, err
		}
		snaps[i].live = sh.liveRefs()
		snaps[i].size = sh.state.Load().size
		sh.mu.Unlock()
		res.BytesBefore += snaps[i].size
		all = append(all, snaps[i].live...)
	}

	// Decide the global survivor set.
	live := all[:0]
	cutoff := int64(0)
	if policy.MaxAge > 0 {
		cutoff = time.Now().Add(-policy.MaxAge).Unix()
	}
	for _, p := range all {
		if p.ref.stamp < cutoff {
			res.Evicted++
			continue
		}
		live = append(live, p)
	}
	if policy.MaxBytes > 0 {
		// Evict oldest-first until the surviving records fit.
		sort.Slice(live, func(i, j int) bool {
			if live[i].ref.stamp != live[j].ref.stamp {
				return live[i].ref.stamp > live[j].ref.stamp
			}
			return live[i].key > live[j].key
		})
		var total int64
		kept := live[:0]
		for _, p := range live {
			if total+p.ref.recLen > policy.MaxBytes {
				res.Evicted++
				continue
			}
			total += p.ref.recLen
			kept = append(kept, p)
		}
		live = kept
	}
	keep := make(map[string]bool, len(live))
	for _, p := range live {
		keep[p.key] = true
	}

	// Phase 2: compact each shard against the global survivor set. An
	// entry past the phase-1 fence was appended while the policy was
	// being decided and is kept unconditionally.
	for i, sh := range s.shards {
		fence := snaps[i].size
		kept, _, bytesAfter, err := sh.compact(func(key string, ref entryRef) bool {
			return ref.off >= fence || keep[key]
		})
		if err != nil {
			return res, err
		}
		res.Kept += kept
		res.BytesAfter += bytesAfter
	}
	return res, nil
}

// bundleManifest is the first file of an export bundle.
const bundleManifestName = "MANIFEST"

// Export writes every live entry as a tar bundle: a MANIFEST naming the
// format and schema, then one file per record (shard by shard, in each
// shard's write order). Bundles move results between machines; records
// are layout-agnostic, and Import on the receiving side verifies every
// checksum.
func (s *Store) Export(w io.Writer) (int, error) {
	type shardExport struct {
		sh   *shard
		live []keyedRef
	}
	exports := make([]shardExport, 0, len(s.shards))
	total := 0
	for _, sh := range s.shards {
		live := sh.liveRefs()
		exports = append(exports, shardExport{sh, live})
		total += len(live)
	}

	tw := tar.NewWriter(w)
	manifest := fmt.Sprintf("activemem-store-bundle v1\nformat: %s\nschema: %s\nentries: %d\n",
		fileMagic, s.schema, total)
	if err := writeTarFile(tw, bundleManifestName, []byte(manifest)); err != nil {
		return 0, err
	}
	n := 0
	for _, ex := range exports {
		st := ex.sh.state.Load()
		for _, p := range ex.live {
			rec := make([]byte, p.ref.recLen)
			if _, err := st.f.ReadAt(rec, p.ref.off); err != nil {
				return n, fmt.Errorf("store: %w", err)
			}
			if err := writeTarFile(tw, "entries/"+p.key, rec); err != nil {
				return n, err
			}
			n++
		}
	}
	if err := tw.Close(); err != nil {
		return n, fmt.Errorf("store: %w", err)
	}
	return n, nil
}

func writeTarFile(tw *tar.Writer, name string, data []byte) error {
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644,
		Size: int64(len(data))}); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tw.Write(data); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Import reads an Export bundle and appends entries whose keys are absent.
// Records are checksum-verified before they are admitted — original
// stamps and bytes are preserved — and a bundle exported under a
// different schema version is rejected outright. Records are routed to
// their shards and appended one batch per shard.
func (s *Store) Import(r io.Reader) (added, skipped int, err error) {
	if s.readOnly {
		return 0, 0, fmt.Errorf("store: read-only")
	}
	tr := tar.NewReader(r)
	hdr, err := tr.Next()
	if err != nil {
		return 0, 0, fmt.Errorf("store: bad bundle: %w", err)
	}
	if hdr.Name != bundleManifestName {
		return 0, 0, fmt.Errorf("store: bundle starts with %q, want %s", hdr.Name, bundleManifestName)
	}
	manifest, err := io.ReadAll(io.LimitReader(tr, 1<<16))
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	schema, ok := manifestField(string(manifest), "schema")
	if !ok {
		return 0, 0, fmt.Errorf("store: bundle manifest has no schema line")
	}
	if schema != s.schema {
		return 0, 0, fmt.Errorf("store: bundle schema %q does not match store schema %q", schema, s.schema)
	}

	// Verify and route every record first, then append shard by shard.
	perShard := make([][][]byte, len(s.shards))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("store: bad bundle: %w", err)
		}
		if !strings.HasPrefix(hdr.Name, "entries/") {
			continue
		}
		if hdr.Size > fixedHdrLen+maxKeyLen+maxTypeLen+maxPayload+crcLen {
			return 0, 0, fmt.Errorf("store: bundle entry %q too large", hdr.Name)
		}
		rec, err := io.ReadAll(tr)
		if err != nil {
			return 0, 0, fmt.Errorf("store: %w", err)
		}
		parsed, status := parseRecord(rec)
		if status != recGood || parsed.recLen != int64(len(rec)) {
			return 0, 0, fmt.Errorf("store: bundle entry %q fails verification", hdr.Name)
		}
		i := shardOf(parsed.key)
		perShard[i] = append(perShard[i], rec)
	}

	for i, recs := range perShard {
		if len(recs) == 0 {
			continue
		}
		sh := s.shards[i]
		sh.lock()
		if st := sh.state.Load(); st.dead != nil {
			sh.mu.Unlock()
			return added, skipped, st.dead
		}
		err := sh.withFileLock(true, func() error {
			if err := sh.rescanLocked(true); err != nil {
				return err
			}
			a, sk, err := sh.appendBatchLocked(recs)
			added += a
			skipped += sk
			return err
		})
		sh.mu.Unlock()
		if err != nil {
			return added, skipped, err
		}
	}
	return added, skipped, nil
}

// manifestField extracts "name: value" from a bundle manifest.
func manifestField(manifest, name string) (string, bool) {
	for _, line := range strings.Split(manifest, "\n") {
		if rest, ok := strings.CutPrefix(line, name+": "); ok {
			return rest, true
		}
	}
	return "", false
}
