package store

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// shardState is one shard's immutable published view. The maps are never
// mutated after publication — mutators clone and swap the pointer — so a
// reader that loaded a state may use it without any locking: the maps are
// frozen and the segment bytes they point at are committed, hence
// immutable.
//
// The live index is split in two so an append does not clone it whole:
// index holds the bulk, tail chains the last few appends newest-first.
// Publishing an append costs one tailEntry allocation — the chain is
// immutable, the new link just points at the old head — and every tailMax
// appends the chain is folded into a fresh bulk map, keeping lookups
// short. The two are disjoint by construction — Put refuses duplicate
// keys and every fold rebuilds the bulk — so lookups may probe them in
// either order.
type shardState struct {
	f      *os.File
	index  map[string]entryRef
	tail   *tailEntry // recent appends, newest first; nil when empty
	hdrLen int64
	size   int64 // offset one past the last parsed record
	// dead poisons the shard after a partial compaction swap (segment
	// renamed but reopen failed): f then points at the unlinked old inode,
	// where a Put would "succeed" into a file that vanishes at Close.
	// Writes report dead instead; reads miss.
	dead error
}

// tailEntry is one link of the append chain.
type tailEntry struct {
	key  string
	ref  entryRef
	next *tailEntry
	n    int // chain length including this link
}

// tailMax bounds the append chain: one more append folds it into the bulk.
const tailMax = 32

// lookup finds key in the state's live index (tail chain, then bulk).
func (st *shardState) lookup(key string) (entryRef, bool) {
	for e := st.tail; e != nil; e = e.next {
		if e.key == key {
			return e.ref, true
		}
	}
	ref, ok := st.index[key]
	return ref, ok
}

// live is the number of live entries.
func (st *shardState) live() int {
	n := len(st.index)
	if st.tail != nil {
		n += st.tail.n
	}
	return n
}

// merged returns a fresh map holding the full live index (bulk + tail).
func (st *shardState) merged() map[string]entryRef {
	out := make(map[string]entryRef, st.live()+1)
	for k, v := range st.index {
		out[k] = v
	}
	for e := st.tail; e != nil; e = e.next {
		out[e.key] = e.ref
	}
	return out
}

// shard is 1/numShards of the keyspace: its own segment file, its own
// cross-process lock, its own index. Mutators serialise on mu, coordinate
// with sibling processes through the shard's flock, and publish a fresh
// shardState; the hit path loads the current state and reads the segment
// without touching either lock.
type shard struct {
	segPath  string
	lockPath string
	schema   string
	readOnly bool
	ops      *opCounters

	mu    sync.Mutex
	lockF *os.File
	state atomic.Pointer[shardState]
	// fInfo is the published handle's identity (dev+ino), captured when the
	// handle was opened. Together with an unchanged size it proves the
	// segment at segPath is exactly as this handle last left it, letting the
	// per-put rescan get by on a single path stat. Mutated only under mu,
	// alongside every handle swap.
	fInfo os.FileInfo
	// retired holds pre-compaction segment handles until Close: a reader
	// that loaded the old state mid-swap can still finish its read.
	retired []*os.File
	reset   bool
}

// openShard opens one shard's segment + lock pair and builds its index.
func openShard(segPath, lockPath, schema string, readOnly bool, ops *opCounters) (*shard, error) {
	sh := &shard{segPath: segPath, lockPath: lockPath, schema: schema,
		readOnly: readOnly, ops: ops}
	lockFlags := os.O_RDWR | os.O_CREATE
	segFlags := os.O_RDWR | os.O_CREATE
	if readOnly {
		lockFlags, segFlags = os.O_RDONLY, os.O_RDONLY
	}
	var err error
	if sh.lockF, err = os.OpenFile(lockPath, lockFlags, 0o644); err != nil {
		// A directory holding just copied segments (no lock files) is still
		// inspectable: nothing else can be writing it through this
		// directory, so read-only access proceeds lock-free.
		if !(readOnly && os.IsNotExist(err)) {
			return nil, fmt.Errorf("store: %w", err)
		}
		sh.lockF = nil
	}
	var f *os.File
	if f, err = os.OpenFile(segPath, segFlags, 0o644); err != nil {
		sh.closeFiles()
		return nil, fmt.Errorf("store: %w", err)
	}
	sh.state.Store(&shardState{f: f, index: map[string]entryRef{}})
	if fi, err := f.Stat(); err == nil {
		sh.fInfo = fi
	}
	// The opening scan (and a possible schema reset or tail truncation)
	// must not race other writers.
	if err := sh.withFileLock(!readOnly, func() error { return sh.loadLocked() }); err != nil {
		sh.closeFiles()
		return nil, err
	}
	return sh, nil
}

// lock acquires the shard mutex, counting the acquisition.
func (sh *shard) lock() {
	sh.ops.mutexAcqs.Add(1)
	sh.mu.Lock()
}

// withFileLock runs fn while holding the shard's cross-process lock:
// exclusive for writers, shared for readers scanning the tail. In-process
// callers are already serialised by sh.mu, so the flock state of the lock
// descriptor is never manipulated by two goroutines at once.
func (sh *shard) withFileLock(exclusive bool, fn func() error) error {
	if sh.lockF != nil {
		sh.ops.flockAcqs.Add(1)
	}
	return flockHeld(sh.lockF, sh.lockPath, exclusive, fn)
}

// closeFiles closes every file handle the shard holds.
func (sh *shard) closeFiles() error {
	var err error
	if st := sh.state.Load(); st != nil && st.f != nil {
		err = st.f.Close()
	}
	for _, f := range sh.retired {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	sh.retired = nil
	if sh.lockF != nil {
		if cerr := sh.lockF.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// loadLocked validates the header and builds the index. File lock held.
func (sh *shard) loadLocked() error {
	st := sh.state.Load()
	fi, err := st.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() == 0 {
		if sh.readOnly {
			// A brand-new empty file is a valid empty shard; the header is
			// adopted once a writer lays it down.
			return nil
		}
		return sh.writeHeaderLocked()
	}
	onDisk, hdrLen, err := readHeader(st.f)
	switch {
	case err != nil || onDisk != sh.schema:
		if sh.readOnly {
			if err != nil {
				return fmt.Errorf("store: %s: unrecognised format: %w", sh.segPath, err)
			}
			return fmt.Errorf("store: %s holds schema %q, want %q (stale store; a read-write open would reset it)",
				sh.segPath, onDisk, sh.schema)
		}
		// Version-mismatch invalidation: every entry was produced by a
		// different simulator/result version and must not be served.
		sh.reset = true
		if err := st.f.Truncate(0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		return sh.writeHeaderLocked()
	default:
		sh.state.Store(&shardState{f: st.f, index: st.index, hdrLen: hdrLen, size: hdrLen})
		return sh.rescanLocked(!sh.readOnly)
	}
}

// writeHeaderLocked initialises an empty segment. File lock held. The
// header is not fsynced here: the fsync of the shard's first acknowledged
// put makes it durable, and a crash before that leaves an empty or
// unreadable header that the next open lays down again, losing no
// acknowledged put.
func (sh *shard) writeHeaderLocked() error {
	st := sh.state.Load()
	hdr := encodeHeader(sh.schema)
	if _, err := st.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sh.state.Store(&shardState{f: st.f, index: st.index,
		hdrLen: int64(len(hdr)), size: int64(len(hdr))})
	return nil
}

// rescanLocked parses records from the published tail to EOF and publishes
// the extended state. Checksum failures skip the record (its key recomputes,
// and the record's claimed extent is re-synchronised past if its lengths
// were the damaged part); an unparseable tail stops the scan and, when
// truncateTorn, is cut off so appends stay well-formed. Both sh.mu and the
// file lock are held.
func (sh *shard) rescanLocked(truncateTorn bool) error {
	st := sh.state.Load()
	if st.dead != nil {
		return st.dead
	}
	pfi, perr := os.Stat(sh.segPath)
	if perr == nil && st.size > st.hdrLen && st.hdrLen > 0 && sh.fInfo != nil &&
		os.SameFile(pfi, sh.fInfo) && pfi.Size() == st.size {
		// Same inode, same size, and at least one committed record: the
		// segment is byte-for-byte as this handle last published it, so there
		// is nothing to scan, truncate or re-verify — the per-put common
		// case, served by the one stat above. A foreign schema reset shrinks
		// the file to a bare header, which the size check catches; an empty
		// shard skips the fast path entirely because a reset leaves its size
		// unchanged when the schema strings happen to share a length. (Only a
		// reset that regrew the file to the byte-exact old size would slip
		// past; it is caught the moment the size diverges, and checksummed
		// reads fail closed meanwhile.)
		return nil
	}
	fi, err := st.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	// A sibling handle's compaction replaces the segment by rename, leaving
	// this descriptor on the unlinked pre-compaction inode — where a scan
	// sees stale bytes and an append vanishes. Follow the path: reopen,
	// retire the old handle (a concurrent snapshot reader may still be on
	// it), and rebuild from scratch.
	if perr == nil && !os.SameFile(pfi, fi) {
		flags := os.O_RDWR
		if sh.readOnly {
			flags = os.O_RDONLY
		}
		f, err := os.OpenFile(sh.segPath, flags, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		sh.retired = append(sh.retired, st.f)
		st = &shardState{f: f, index: map[string]entryRef{}}
		sh.state.Store(st)
		if fi, err = f.Stat(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		sh.fInfo = fi
	}
	size := fi.Size()
	hdrLen, scanned, index, chain := st.hdrLen, st.size, st.index, st.tail
	if hdrLen == 0 {
		if size == 0 {
			return nil
		}
		// The header did not exist yet when this handle opened: a read-only
		// Open may race a writer's very first open and see a zero-length
		// segment. Once bytes appear, the header must be parsed — and its
		// schema checked — before any of them are read as records.
		onDisk, h, err := readHeader(st.f)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if onDisk != sh.schema {
			return fmt.Errorf("store: %s holds schema %q, want %q", sh.segPath, onDisk, sh.schema)
		}
		hdrLen = h
		if scanned < h {
			scanned = h
		}
	}
	if truncateTorn && hdrLen > 0 {
		// Writers are about to truncate at — and append past — offsets
		// derived from this handle's history, so re-verify that history is
		// still the file's: a reset by a different-schema process can regrow
		// the segment to any size, making the shrink check below
		// insufficient on its own. A header of another schema means every
		// offset we hold is meaningless; fail the write rather than
		// truncate someone else's committed records.
		onDisk, _, err := readHeader(st.f)
		if err != nil {
			return fmt.Errorf("store: segment replaced under this handle: %w", err)
		}
		if onDisk != sh.schema {
			return fmt.Errorf("store: segment reset to schema %q under this %q handle (reopen the store)",
				onDisk, sh.schema)
		}
	}
	if size < scanned {
		// The segment shrank under us (a reset we survived only as a
		// reader): our whole index points at vanished bytes. Drop it and
		// rebuild from the on-disk header, which the checks above proved
		// still carries our schema.
		onDisk, h, err := readHeader(st.f)
		if err != nil {
			return fmt.Errorf("store: segment replaced under this handle: %w", err)
		}
		if onDisk != sh.schema {
			return fmt.Errorf("store: segment reset to schema %q under this %q handle (reopen the store)",
				onDisk, sh.schema)
		}
		index, chain = map[string]entryRef{}, nil
		hdrLen, scanned = h, h
	}
	if size <= scanned {
		if hdrLen != st.hdrLen || scanned != st.size {
			sh.state.Store(&shardState{f: st.f, index: index, tail: chain, hdrLen: hdrLen, size: scanned})
		}
		return nil
	}
	buf := make([]byte, size-scanned)
	if _, err := st.f.ReadAt(buf, scanned); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cloned := make(map[string]entryRef, len(index)+tailMax+1)
	for k, v := range index {
		cloned[k] = v
	}
	for e := chain; e != nil; e = e.next {
		cloned[e.key] = e.ref
	}
	tail, _ := walkRecords(buf, scanned, func(off int64, rec parsedRecord, rst recStatus) {
		if rst == recGood {
			cloned[rec.key] = entryRef{off: off, recLen: rec.recLen,
				typeName: rec.typeName, payloadLen: len(rec.payload), stamp: rec.stamp}
		}
	})
	if tail < size && truncateTorn && !sh.readOnly {
		if err := st.f.Truncate(tail); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	sh.state.Store(&shardState{f: st.f, index: cloned, hdrLen: hdrLen, size: tail})
	return nil
}

// get serves key from the shard. The fast path loads the published state
// and, when the key is indexed, reads and verifies the record with no
// mutex and no flock: committed bytes are immutable, so the snapshot can
// never promise bytes a writer might still change. Anything else — a miss,
// a record that no longer verifies — falls to the locked slow path.
func (sh *shard) get(key string) (typeName string, payload []byte, ok bool) {
	st := sh.state.Load()
	if st.dead == nil {
		if ref, hit := st.lookup(key); hit {
			if p, err := readEntry(st.f, key, ref); err == nil {
				sh.ops.snapshotHits.Add(1)
				tmSnapshotHits.Inc()
				return ref.typeName, p, true
			}
		}
	}
	return sh.getSlow(key)
}

// getSlow is the locked miss path: re-check under the mutex, drop an entry
// whose record no longer verifies (concurrent compaction or bit rot) so
// the cell recomputes, and rescan the tail under a shared flock when the
// segment grew — results appended by sibling processes become visible
// mid-run.
func (sh *shard) getSlow(key string) (string, []byte, bool) {
	sh.ops.slowGets.Add(1)
	tmSlowGets.Inc()
	sh.lock()
	defer sh.mu.Unlock()
	st := sh.state.Load()
	if st.dead != nil {
		return "", nil, false
	}
	if ref, hit := st.lookup(key); hit {
		p, err := readEntry(st.f, key, ref)
		if err == nil {
			return ref.typeName, p, true
		}
		cloned := st.merged()
		delete(cloned, key)
		sh.state.Store(&shardState{f: st.f, index: cloned, hdrLen: st.hdrLen, size: st.size, dead: st.dead})
		st = sh.state.Load()
	}
	if changed, err := sh.segChanged(st); err == nil && changed {
		// Another process appended since our last scan (or compacted the
		// segment out from under our descriptor); committed records are
		// immutable, so a shared lock suffices (and only guards against
		// scanning a record mid-append).
		_ = sh.withFileLock(false, func() error { return sh.rescanLocked(false) })
		st = sh.state.Load()
		if ref, hit := st.lookup(key); hit {
			if p, err := readEntry(st.f, key, ref); err == nil {
				return ref.typeName, p, true
			}
		}
	}
	return "", nil, false
}

// segChanged reports whether the segment at the shard's path no longer
// matches the published state — grown (a sibling appended) or a different
// inode entirely (a sibling compacted).
func (sh *shard) segChanged(st *shardState) (bool, error) {
	pfi, err := os.Stat(sh.segPath)
	if err != nil {
		return false, err
	}
	ffi, err := st.f.Stat()
	if err != nil {
		return true, nil
	}
	return pfi.Size() != st.size || !os.SameFile(pfi, ffi), nil
}

// put appends an entry, reporting whether it wrote: a key already present
// is left untouched and reports false.
func (sh *shard) put(key, typeName string, payload []byte, stamp int64) (added bool, err error) {
	// Snapshot dup check before any lock: records are immutable, so a key
	// present in the published state stays served and the put is a no-op. A
	// stale miss just falls through to the locked re-check.
	if st := sh.state.Load(); st.dead == nil {
		if _, dup := st.lookup(key); dup {
			return false, nil
		}
	}
	rec := encodeRecord(key, typeName, payload, stamp)
	var f *os.File
	sh.lock()
	err = func() error {
		defer sh.mu.Unlock()
		if sh.readOnly {
			return fmt.Errorf("store: read-only")
		}
		if st := sh.state.Load(); st.dead != nil {
			return st.dead
		}
		return sh.withFileLock(true, func() error {
			// Catch up on other writers (and truncate a crashed writer's torn
			// tail) so the append lands at a record boundary.
			if err := sh.rescanLocked(true); err != nil {
				return err
			}
			if _, dup := sh.state.Load().lookup(key); dup {
				return nil
			}
			if err := sh.appendLocked(rec); err != nil {
				return err
			}
			f, added = sh.state.Load().f, true
			return nil
		})
	}()
	if err != nil || !added {
		return added, err
	}
	// Durability is settled outside mu and the flock, so the shard accepts
	// the next append while this fsync is in flight. f stays valid: a
	// compaction that swapped it out in the meantime synced the new
	// segment, this record included, and retired handles stay open until
	// Close.
	if err := faultSync(fpSegFsync, f); err != nil {
		return true, fmt.Errorf("store: %w", err)
	}
	sh.ops.groupCommits.Add(1)
	return true, nil
}

// appendLocked writes one pre-encoded record at the committed tail and
// publishes the extended state. Both sh.mu and the exclusive file lock are
// held, and the published size must equal the file size. Durability is the
// caller's job (put's fsync): in-process readers may briefly see a record
// the disk has not acknowledged, which the crash model already tolerates —
// a torn tail is truncated on the next open.
func (sh *shard) appendLocked(rec []byte) error {
	st := sh.state.Load()
	if err := faultWriteAt(fpSegAppend, st.f, rec, st.size); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	parsed, status := parseRecord(rec)
	if status != recGood {
		return fmt.Errorf("store: internal error: appended record does not verify")
	}
	ref := entryRef{off: st.size, recLen: parsed.recLen,
		typeName: parsed.typeName, payloadLen: len(parsed.payload), stamp: parsed.stamp}
	next := &shardState{f: st.f, index: st.index, hdrLen: st.hdrLen,
		size: st.size + parsed.recLen}
	if st.tail != nil && st.tail.n >= tailMax {
		next.index = st.merged()
		next.index[parsed.key] = ref
	} else {
		chained := 1
		if st.tail != nil {
			chained = st.tail.n + 1
		}
		next.tail = &tailEntry{key: parsed.key, ref: ref, next: st.tail, n: chained}
	}
	sh.state.Store(next)
	return nil
}

// appendBatchLocked appends pre-verified foreign records (an Import),
// deduplicating by key, with one sync and one published state for the
// whole batch. A crash mid-batch leaves a torn tail, which the next open
// truncates — exactly as for a torn single append.
func (sh *shard) appendBatchLocked(recs [][]byte) (added, skipped int, err error) {
	st := sh.state.Load()
	cloned := st.merged()
	size := st.size
	for _, rec := range recs {
		parsed, status := parseRecord(rec)
		if status != recGood {
			return added, skipped, fmt.Errorf("store: internal error: batch record does not verify")
		}
		if _, dup := cloned[parsed.key]; dup {
			skipped++
			continue
		}
		if _, err := st.f.WriteAt(rec, size); err != nil {
			return added, skipped, fmt.Errorf("store: %w", err)
		}
		cloned[parsed.key] = entryRef{off: size, recLen: parsed.recLen,
			typeName: parsed.typeName, payloadLen: len(parsed.payload), stamp: parsed.stamp}
		size += parsed.recLen
		added++
	}
	if added > 0 {
		if err := st.f.Sync(); err != nil {
			return added, skipped, fmt.Errorf("store: %w", err)
		}
		sh.state.Store(&shardState{f: st.f, index: cloned, hdrLen: st.hdrLen, size: size})
	}
	return added, skipped, nil
}

// invalidate drops key from the shard's published index, so the next Put
// for it appends a fresh record, which last-wins over the old one at every
// future scan.
func (sh *shard) invalidate(key string) {
	sh.lock()
	defer sh.mu.Unlock()
	st := sh.state.Load()
	if _, hit := st.lookup(key); !hit {
		return
	}
	cloned := st.merged()
	delete(cloned, key)
	sh.state.Store(&shardState{f: st.f, index: cloned, hdrLen: st.hdrLen,
		size: st.size, dead: st.dead})
}

// verify re-reads every record in the shard's segment and checks its
// checksum, folding the outcome into res.
func (sh *shard) verify(res *VerifyResult) error {
	sh.lock()
	defer sh.mu.Unlock()
	err := sh.withFileLock(false, func() error {
		if err := sh.rescanLocked(false); err != nil {
			return err
		}
		st := sh.state.Load()
		fi, err := st.f.Stat()
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		size := fi.Size()
		if size <= st.hdrLen {
			return nil
		}
		buf := make([]byte, size-st.hdrLen)
		if _, err := st.f.ReadAt(buf, st.hdrLen); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		tail, garbage := walkRecords(buf, st.hdrLen, func(_ int64, rec parsedRecord, rst recStatus) {
			res.Records++
			if rst == recBadCRC {
				res.Corrupt++
			}
		})
		res.TornBytes += size - tail
		res.GarbageBytes += garbage
		return nil
	})
	res.Live += sh.state.Load().live()
	return err
}

// liveRefs returns the shard's live entries in segment (write) order, from
// the published snapshot.
func (sh *shard) liveRefs() []keyedRef {
	st := sh.state.Load()
	all := make([]keyedRef, 0, st.live())
	for k, ref := range st.index {
		all = append(all, keyedRef{k, ref})
	}
	for e := st.tail; e != nil; e = e.next {
		all = append(all, keyedRef{e.key, e.ref})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].ref.off < all[j].ref.off })
	return all
}

// compact rewrites the shard's segment keeping only entries keep admits:
// stale duplicates, checksum-failed records and rejected entries are
// dropped, survivors are rewritten to a temporary segment which atomically
// replaces the old one. The pre-compaction handle is retired, not closed,
// so concurrent snapshot readers finish their reads against the old inode.
func (sh *shard) compact(keep func(key string, ref entryRef) bool) (kept, evicted int, bytesAfter int64, err error) {
	sh.lock()
	defer sh.mu.Unlock()
	err = sh.withFileLock(true, func() error {
		if err := sh.rescanLocked(true); err != nil {
			return err
		}
		st := sh.state.Load()
		all := sh.liveRefs()
		live := all[:0]
		for _, p := range all {
			if !keep(p.key, p.ref) {
				evicted++
				continue
			}
			live = append(live, p)
		}

		tmpPath := sh.segPath + ".tmp"
		tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		defer os.Remove(tmpPath) // no-op after a successful rename
		if _, err := tmp.Write(encodeHeader(sh.schema)); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
		for _, p := range live {
			rec := make([]byte, p.ref.recLen)
			if _, err := st.f.ReadAt(rec, p.ref.off); err != nil {
				tmp.Close()
				return fmt.Errorf("store: %w", err)
			}
			if _, err := tmp.Write(rec); err != nil {
				tmp.Close()
				return fmt.Errorf("store: %w", err)
			}
		}
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return fmt.Errorf("store: %w", err)
		}
		if err := tmp.Close(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := os.Rename(tmpPath, sh.segPath); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		// Swap to the new segment and rebuild the index from it. Failing
		// here leaves the published handle on the unlinked pre-compaction
		// inode, so the shard must die rather than let writes vanish into
		// it.
		f, err := os.OpenFile(sh.segPath, os.O_RDWR, 0o644)
		if err != nil {
			dead := fmt.Errorf("store: segment reopen after compaction failed (reopen the store): %w", err)
			sh.state.Store(&shardState{f: st.f, index: map[string]entryRef{},
				hdrLen: st.hdrLen, size: st.size, dead: dead})
			return dead
		}
		sh.retired = append(sh.retired, st.f)
		hdr, hdrLen, err := readHeader(f)
		if err != nil || hdr != sh.schema {
			f.Close()
			dead := fmt.Errorf("store: compacted segment fails verification (reopen the store): %v", err)
			sh.state.Store(&shardState{f: st.f, index: map[string]entryRef{},
				hdrLen: st.hdrLen, size: st.size, dead: dead})
			return dead
		}
		if nfi, err := f.Stat(); err == nil {
			sh.fInfo = nfi
		}
		sh.state.Store(&shardState{f: f, index: map[string]entryRef{}, hdrLen: hdrLen, size: hdrLen})
		if err := sh.rescanLocked(true); err != nil {
			return err
		}
		st = sh.state.Load()
		kept = st.live()
		bytesAfter = st.size
		return nil
	})
	return kept, evicted, bytesAfter, err
}
