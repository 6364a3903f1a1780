package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const testSchema = "test-schema-v1"

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t *testing.T, s *Store, key, typ, payload string) {
	t.Helper()
	if _, err := s.Put(key, typ, []byte(payload)); err != nil {
		t.Fatal(err)
	}
}

func wantEntry(t *testing.T, s *Store, key, typ, payload string) {
	t.Helper()
	gotTyp, gotPayload, ok := s.Get(key)
	if !ok {
		t.Fatalf("key %q missing", key)
	}
	if gotTyp != typ || string(gotPayload) != payload {
		t.Fatalf("key %q = (%q, %q), want (%q, %q)", key, gotTyp, gotPayload, typ, payload)
	}
}

func wantMiss(t *testing.T, s *Store, key string) {
	t.Helper()
	if _, _, ok := s.Get(key); ok {
		t.Fatalf("key %q unexpectedly present", key)
	}
}

// refOf returns key's index entry and the path of the shard segment holding
// it (white-box: via the published snapshot).
func refOf(t *testing.T, s *Store, key string) (entryRef, string) {
	t.Helper()
	sh := s.shardFor(key)
	ref, ok := sh.state.Load().lookup(key)
	if !ok {
		t.Fatalf("key %q not indexed", key)
	}
	return ref, sh.segPath
}

// backdate rewrites key's in-memory stamp (white-box: GC reads stamps from
// the index, so tests age entries without waiting).
func backdate(t *testing.T, s *Store, key string, stamp int64) {
	t.Helper()
	sh := s.shardFor(key)
	sh.lock()
	defer sh.mu.Unlock()
	st := sh.state.Load()
	ref, ok := st.lookup(key)
	if !ok {
		t.Fatalf("key %q not indexed", key)
	}
	ref.stamp = stamp
	cloned := st.merged()
	cloned[key] = ref
	sh.state.Store(&shardState{f: st.f, index: cloned, hdrLen: st.hdrLen,
		size: st.size, dead: st.dead})
}

// totalSegBytes sums every shard segment's file size.
func totalSegBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, shardsDirName, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// keysInOneShard returns n distinct keys that all route to the same shard,
// for tests that need records to be neighbours in one segment.
func keysInOneShard(n int) []string {
	keys := []string{"key-000"}
	want := shardOf(keys[0])
	for i := 1; len(keys) < n; i++ {
		k := fmt.Sprintf("key-%03d", i)
		if shardOf(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}

func TestPutGetAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "key-a", "t.A", "alpha")
	put(t, s, "key-b", "t.B", "beta")
	wantEntry(t, s, "key-a", "t.A", "alpha")
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	// A duplicate put reports added == false and leaves the original
	// record in place.
	sizeBefore := totalSegBytes(t, dir)
	added, err := s.Put("key-a", "t.A", []byte("alpha"))
	if err != nil || added {
		t.Fatalf("duplicate put = (%v, %v), want (false, nil)", added, err)
	}
	if got := totalSegBytes(t, dir); got != sizeBefore {
		t.Fatalf("duplicate put grew segments %d -> %d", sizeBefore, got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t.A", "alpha")
	wantEntry(t, s2, "key-b", "t.B", "beta")
	if s2.ResetOnOpen() {
		t.Fatal("clean reopen reported a reset")
	}
}

// TestTruncatedSegmentRecovers simulates a crash mid-append: a shard
// segment is cut inside its final record, and the next open must serve
// every earlier entry and accept new appends.
func TestTruncatedSegmentRecovers(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "key-a", "t", "alpha")
	put(t, s, "key-b", "t", "beta")
	put(t, s, "key-c", "t", "gamma")
	_, segC := refOf(t, s, "key-c")
	s.Close()

	fi, err := os.Stat(segC)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segC, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	wantEntry(t, s2, "key-a", "t", "alpha")
	wantEntry(t, s2, "key-b", "t", "beta")
	wantMiss(t, s2, "key-c")
	// The torn tail was truncated, so the store accepts and persists new
	// entries at the recovered boundary.
	put(t, s2, "key-d", "t", "delta")
	s2.Close()

	s3 := openT(t, dir)
	defer s3.Close()
	wantEntry(t, s3, "key-b", "t", "beta")
	wantEntry(t, s3, "key-d", "t", "delta")
}

// TestEmptiedHeaderRelaidOnOpen simulates a crash between laying down a new
// store's shard headers and its first put: headers are not fsynced, so a
// segment may come back with zero bytes. The next open must lay the header
// down again without reporting a reset, and the shard must accept puts.
func TestEmptiedHeaderRelaidOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	seg := s.shardFor("key-a").segPath
	s.Close()
	if err := os.Truncate(seg, 0); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.ResetOnOpen() {
		t.Fatal("re-laying an empty header reported a reset")
	}
	if s2.Len() != 0 {
		t.Fatalf("reopened store holds %d entries, want 0", s2.Len())
	}
	put(t, s2, "key-a", "t", "alpha")
	s2.Close()

	s3 := openT(t, dir)
	defer s3.Close()
	if s3.ResetOnOpen() {
		t.Fatal("reopen after the first put reported a reset")
	}
	wantEntry(t, s3, "key-a", "t", "alpha")
}

// TestFlippedPayloadByteSkipsOnlyThatEntry pins the corruption policy: a
// checksum mismatch drops the damaged entry (its cell recomputes) while
// entries before and after stay reachable.
func TestFlippedPayloadByteSkipsOnlyThatEntry(t *testing.T) {
	// All three keys in one shard, so the damaged record sits mid-segment
	// (a bad-CRC record at a segment tail is truncated as torn instead).
	keys := keysInOneShard(3)
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, keys[0], "t", "alpha")
	put(t, s, keys[1], "t", "beta")
	put(t, s, keys[2], "t", "gamma")
	ref, segB := refOf(t, s, keys[1])
	payloadOff := ref.off + fixedHdrLen + int64(len(keys[1])) + int64(len("t"))
	s.Close()

	f, err := os.OpenFile(segB, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	if _, err := f.ReadAt(buf, payloadOff); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0x40
	if _, err := f.WriteAt(buf, payloadOff); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, keys[0], "t", "alpha")
	wantMiss(t, s2, keys[1]) // checksum mismatch: recompute, not error
	wantEntry(t, s2, keys[2], "t", "gamma")

	res, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 || res.Live != 2 || res.Records != 3 {
		t.Fatalf("verify = %+v, want 3 records / 2 live / 1 corrupt", res)
	}

	// Recomputing the damaged cell repairs the store.
	put(t, s2, keys[1], "t", "beta")
	wantEntry(t, s2, keys[1], "t", "beta")
}

// TestCorruptLengthFieldResyncs pins the scan's resynchronisation: damage
// to a record's length fields desynchronises parsing at that record, but
// the scan recovers at the next record's magic marker, so later entries in
// the same shard stay reachable instead of being truncated away.
func TestCorruptLengthFieldResyncs(t *testing.T) {
	keys := keysInOneShard(3)
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, keys[0], "t", "alpha")
	put(t, s, keys[1], "t", "beta")
	put(t, s, keys[2], "t", "gamma")
	ref, seg := refOf(t, s, keys[1])
	s.Close()

	// Corrupt the middle record's payloadLen (offset 8 within the record):
	// the claimed record extent becomes nonsense, so parsing cannot simply
	// skip it.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE, 0x0F}, ref.off+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, keys[0], "t", "alpha")
	wantMiss(t, s2, keys[1])
	wantEntry(t, s2, keys[2], "t", "gamma") // survived the desync

	res, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != 2 || res.GarbageBytes == 0 || res.TornBytes != 0 {
		t.Fatalf("verify = %+v, want 2 live with mid-segment garbage", res)
	}

	// GC compacts the garbage away and keeps the survivors.
	if _, err := s2.GC(GCPolicy{}); err != nil {
		t.Fatal(err)
	}
	res, err = s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != 2 || res.GarbageBytes != 0 || res.Corrupt != 0 {
		t.Fatalf("post-gc verify = %+v", res)
	}
	wantEntry(t, s2, keys[2], "t", "gamma")
}

// TestSchemaMismatchInvalidates pins version-mismatch invalidation: results
// persisted under an older simulator/result schema are discarded wholesale.
func TestSchemaMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Schema: "sim-v1"})
	if err != nil {
		t.Fatal(err)
	}
	put(t, s, "key-a", "t", "alpha")
	s.Close()

	// Read-only opens refuse rather than reset.
	if _, err := Open(dir, Options{Schema: "sim-v2", ReadOnly: true}); err == nil {
		t.Fatal("read-only open under a new schema succeeded")
	}

	s2, err := Open(dir, Options{Schema: "sim-v2"})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.ResetOnOpen() {
		t.Fatal("schema change did not report a reset")
	}
	if s2.Len() != 0 {
		t.Fatalf("stale entries survived the schema change: %d", s2.Len())
	}
	wantMiss(t, s2, "key-a")
	put(t, s2, "key-a", "t", "alpha-v2")
	s2.Close()

	s3, err := Open(dir, Options{Schema: "sim-v2"})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	wantEntry(t, s3, "key-a", "t", "alpha-v2")
}

func TestReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, "key-a", "t", "alpha")
	s.Close()

	ro, err := Open(dir, Options{Schema: testSchema, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	wantEntry(t, ro, "key-a", "t", "alpha")
	if _, err := ro.Put("key-b", "t", []byte("beta")); err == nil {
		t.Fatal("read-only store accepted a put")
	}
	if _, err := ro.GC(GCPolicy{}); err == nil {
		t.Fatal("read-only store accepted a gc")
	}
}

// TestSharedDirectory exercises the cross-process contract in-process: two
// Stores on one directory, concurrent writers and readers, every entry
// visible to both afterwards. Run under -race in CI.
func TestSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	s1 := openT(t, dir)
	defer s1.Close()
	s2 := openT(t, dir)
	defer s2.Close()

	const n = 40
	var wg sync.WaitGroup
	for w, s := range []*Store{s1, s2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				// Overlapping key ranges: half the keys are written by both.
				key := fmt.Sprintf("key-%03d", i+w*n/2)
				if _, err := s.Put(key, "t", []byte("payload-"+key)); err != nil {
					t.Error(err)
					return
				}
				s.Get(fmt.Sprintf("key-%03d", i)) // interleave reads
			}
		}()
	}
	wg.Wait()

	for _, s := range []*Store{s1, s2} {
		for i := 0; i < n+n/2; i++ {
			key := fmt.Sprintf("key-%03d", i)
			wantEntry(t, s, key, "t", "payload-"+key)
		}
	}
	// Both stores converged on one record per key.
	res, err := s1.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != n+n/2 || res.Corrupt != 0 {
		t.Fatalf("verify = %+v, want %d clean records", res, n+n/2)
	}
}

// TestCrossStoreVisibility pins the mid-run tail rescan: entries appended
// by one store are found by a sibling that had already missed them.
func TestCrossStoreVisibility(t *testing.T) {
	dir := t.TempDir()
	s1 := openT(t, dir)
	defer s1.Close()
	s2 := openT(t, dir)
	defer s2.Close()
	wantMiss(t, s2, "key-a")
	put(t, s1, "key-a", "t", "alpha")
	wantEntry(t, s2, "key-a", "t", "alpha")
}

func TestGCAge(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	put(t, s, "key-old", "t", "old")
	put(t, s, "key-new", "t", "new")
	backdate(t, s, "key-old", time.Now().Add(-48*time.Hour).Unix())

	res, err := s.GC(GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 1 || res.Evicted != 1 {
		t.Fatalf("gc = %+v, want 1 kept / 1 evicted", res)
	}
	wantMiss(t, s, "key-old")
	wantEntry(t, s, "key-new", "t", "new")
}

func TestGCSizeEvictsOldestAndCompacts(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	big := string(bytes.Repeat([]byte("x"), 1000))
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("key-%d", i), "t", big)
		// Distinct stamps so age ordering is well defined.
		backdate(t, s, fmt.Sprintf("key-%d", i), time.Now().Add(time.Duration(i-10)*time.Hour).Unix())
	}
	// Stale duplicates do not exist (puts dedupe), so the store holds 5
	// records; keep roughly two records' worth. MaxBytes is a global
	// bound, applied across shards.
	res, err := s.GC(GCPolicy{MaxBytes: 2200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept != 2 || res.Evicted != 3 {
		t.Fatalf("gc = %+v, want 2 kept / 3 evicted", res)
	}
	if res.BytesAfter >= res.BytesBefore {
		t.Fatalf("compaction did not shrink the segments: %+v", res)
	}
	// The newest two survive.
	wantEntry(t, s, "key-4", "t", big)
	wantEntry(t, s, "key-3", "t", big)
	wantMiss(t, s, "key-0")

	// The compacted segments must be fully valid and reopenable.
	verify, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if verify.Records != 2 || verify.Corrupt != 0 || verify.TornBytes != 0 {
		t.Fatalf("post-gc verify = %+v", verify)
	}
}

func TestExportImport(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	a := openT(t, dirA)
	defer a.Close()
	put(t, a, "key-a", "t.A", "alpha")
	put(t, a, "key-b", "t.B", "beta")

	var bundle bytes.Buffer
	n, err := a.Export(&bundle)
	if err != nil || n != 2 {
		t.Fatalf("export = (%d, %v)", n, err)
	}

	b := openT(t, dirB)
	defer b.Close()
	put(t, b, "key-b", "t.B", "beta") // pre-existing: must be skipped
	added, skipped, err := b.Import(bytes.NewReader(bundle.Bytes()))
	if err != nil || added != 1 || skipped != 1 {
		t.Fatalf("import = (%d, %d, %v), want (1, 1, nil)", added, skipped, err)
	}
	wantEntry(t, b, "key-a", "t.A", "alpha")
	wantEntry(t, b, "key-b", "t.B", "beta")

	// A bundle from a different schema generation is rejected.
	other, err := Open(t.TempDir(), Options{Schema: "other-schema"})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if _, _, err := other.Import(bytes.NewReader(bundle.Bytes())); err == nil {
		t.Fatal("import accepted a bundle from another schema")
	}

	// A corrupted bundle entry is rejected before anything is admitted.
	raw := bundle.Bytes()
	corrupt := bytes.Replace(raw, []byte("alpha"), []byte("alpHa"), 1)
	fresh, err := Open(t.TempDir(), Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, _, err := fresh.Import(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("import accepted a corrupted record")
	}
}

func TestEntriesAndStats(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	put(t, s, "key-a", "t.A", "alpha")
	put(t, s, "key-b", "t.B", "beta")
	put(t, s, "key-c", "t.A", "gamma")

	entries := s.Entries()
	if len(entries) != 3 {
		t.Fatalf("entries = %d", len(entries))
	}
	// Stamp order, key tiebreak: all three share a stamp here, so keys
	// decide.
	if entries[0].Key != "key-a" || entries[2].Key != "key-c" {
		t.Fatalf("entries out of order: %+v", entries)
	}
	sum := s.Stats()
	if sum.Entries != 3 || sum.PerType["t.A"] != 2 || sum.PerType["t.B"] != 1 {
		t.Fatalf("stats = %+v", sum)
	}
	if sum.Bytes != totalSegBytes(t, dir) {
		t.Fatalf("stats bytes = %d, files = %d", sum.Bytes, totalSegBytes(t, dir))
	}
	if sum.Shards != numShards {
		t.Fatalf("stats shards = %d, want %d", sum.Shards, numShards)
	}
}

// writeV1Segment synthesises a legacy v1 store: a single results.seg
// holding one record, beside a LOCK file, with no shards/ directory.
func writeV1Segment(t *testing.T, dir string) {
	t.Helper()
	seg := encodeHeader(testSchema)
	seg = append(seg, encodeRecord("key-a", "t", []byte("alpha"), time.Now().Unix())...)
	if err := os.WriteFile(filepath.Join(dir, v1SegmentName), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, lockName), nil, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyOpenOfBareSegment: a directory holding only a legacy v1
// results.seg (no shards/) is not a store this binary can serve, and a
// read-only open says so instead of touching it.
func TestReadOnlyOpenOfBareSegment(t *testing.T) {
	dir := t.TempDir()
	writeV1Segment(t, dir)
	if ro, err := Open(dir, Options{Schema: testSchema, ReadOnly: true}); err == nil {
		ro.Close()
		t.Fatal("read-only open of a v1 directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, v1SegmentName)); err != nil {
		t.Fatalf("read-only open disturbed the v1 segment: %v", err)
	}
}

// TestV1SegmentDiscardedOnOpen: a read-write open treats a legacy v1
// store like a stale schema — its segment is removed, the open reports a
// reset, and the cells recompute into a fresh sharded store.
func TestV1SegmentDiscardedOnOpen(t *testing.T) {
	dir := t.TempDir()
	writeV1Segment(t, dir)
	s := openT(t, dir)
	if !s.ResetOnOpen() {
		t.Fatal("v1 store did not report a reset")
	}
	if _, err := os.Stat(filepath.Join(dir, v1SegmentName)); !os.IsNotExist(err) {
		t.Fatalf("v1 segment survived the open: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("v1 entries survived: %d", s.Len())
	}
	wantMiss(t, s, "key-a")
	put(t, s, "key-a", "t", "alpha")
	s.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	if s2.ResetOnOpen() {
		t.Fatal("second open reported a reset")
	}
	wantEntry(t, s2, "key-a", "t", "alpha")
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", Options{Schema: "s"}); err == nil {
		t.Fatal("empty dir accepted")
	}
	if _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), Options{Schema: "s", ReadOnly: true}); err == nil {
		t.Fatal("read-only open of a missing store succeeded")
	}
}

func TestPutValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	if _, err := s.Put("", "t", nil); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := s.Put(string(bytes.Repeat([]byte("k"), maxKeyLen+1)), "t", nil); err == nil {
		t.Fatal("oversized key accepted")
	}
	if _, err := s.Put("k", "t", bytes.Repeat([]byte("p"), maxPayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
	// Empty payloads are legal (a unit result).
	put(t, s, "key-empty", "t", "")
	wantEntry(t, s, "key-empty", "t", "")
}

// TestInvalidateAllowsReplacement: dropping a key lets a new Put append a
// record that last-wins at every future scan, in this and sibling handles.
func TestInvalidateAllowsReplacement(t *testing.T) {
	keys := keysInOneShard(2)
	stale, probe := keys[0], keys[1]
	dir := t.TempDir()
	s := openT(t, dir)
	sib := openT(t, dir)
	defer sib.Close()
	put(t, s, stale, "t", "stale")
	wantEntry(t, sib, stale, "t", "stale")

	s.Invalidate(stale)
	wantMiss(t, s, stale)
	added, err := s.Put(stale, "t", []byte("fresh"))
	if err != nil || !added {
		t.Fatalf("replacement put = (%v, %v), want (true, nil)", added, err)
	}
	wantEntry(t, s, stale, "t", "fresh")
	// A sibling handle keeps serving the still-intact old record until its
	// next tail rescan of that shard (any miss routed there triggers one),
	// which adopts the replacement...
	wantMiss(t, sib, probe)
	wantEntry(t, sib, stale, "t", "fresh")
	s.Close()
	// ...and so does a fresh open (the later record wins the index).
	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, stale, "t", "fresh")
}

// TestInBoundsCorruptLengthResyncs is the sharper variant of the length
// corruption test: the corrupted extent stays inside the segment and would
// swallow the following valid record if the scan trusted it.
func TestInBoundsCorruptLengthResyncs(t *testing.T) {
	keys := keysInOneShard(4)
	dir := t.TempDir()
	s := openT(t, dir)
	put(t, s, keys[0], "t", "alpha")
	put(t, s, keys[1], "t", "beta")
	put(t, s, keys[2], "t", "gamma")
	put(t, s, keys[3], "t", "delta")
	ref, seg := refOf(t, s, keys[0])
	s.Close()

	// Grow the first record's payloadLen so its claimed extent ends inside
	// the third record: still within the segment, so the record parses as
	// a checksum failure rather than a torn tail.
	f, err := os.OpenFile(seg, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{byte(len("alpha") + 40)}, ref.off+8); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir)
	defer s2.Close()
	wantMiss(t, s2, keys[0])
	wantEntry(t, s2, keys[1], "t", "beta") // inside the bogus claimed extent
	wantEntry(t, s2, keys[2], "t", "gamma")
	wantEntry(t, s2, keys[3], "t", "delta")
	res, err := s2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Live != 3 || res.Corrupt != 1 {
		t.Fatalf("verify = %+v, want 3 live / 1 corrupt", res)
	}
}

// makeEmptyShardLayout simulates the window where a writer has created the
// sharded layout's files but not yet written their headers.
func makeEmptyShardLayout(t *testing.T, dir string) {
	t.Helper()
	shardsDir := filepath.Join(dir, shardsDirName)
	if err := os.MkdirAll(shardsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < numShards; i++ {
		if err := os.WriteFile(shardSegPath(shardsDir, i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadOnlyOpenOfEmptySegmentAdoptsHeaderLater pins the race where a
// read-only handle opens in the window between a writer creating the
// segment files and writing their headers: once bytes appear, the handle
// must parse (and schema-check) the header instead of scanning it as
// garbage.
func TestReadOnlyOpenOfEmptySegmentAdoptsHeaderLater(t *testing.T) {
	dir := t.TempDir()
	makeEmptyShardLayout(t, dir)
	ro, err := Open(dir, Options{Schema: testSchema, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()

	w := openT(t, dir)
	defer w.Close()
	put(t, w, "key-a", "t", "alpha")

	wantEntry(t, ro, "key-a", "t", "alpha")
	res, err := ro.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 1 || res.GarbageBytes != 0 || res.Corrupt != 0 {
		t.Fatalf("verify through late-adopted header = %+v", res)
	}

	// The same race against a writer of a different schema must refuse,
	// not serve.
	dir2 := t.TempDir()
	makeEmptyShardLayout(t, dir2)
	ro2, err := Open(dir2, Options{Schema: "other-schema", ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro2.Close()
	w2 := openT(t, dir2)
	defer w2.Close()
	put(t, w2, "key-a", "t", "alpha")
	wantMiss(t, ro2, "key-a")
	if _, err := ro2.Verify(); err == nil {
		t.Fatal("verify served a store whose schema never matched")
	}
}

// TestSegmentResetUnderLiveHandle pins the shrink guard: when another
// process resets the store (schema change), a stale handle must refuse
// to append at its old offsets or serve its old index.
func TestSegmentResetUnderLiveHandle(t *testing.T) {
	dir := t.TempDir()
	old, err := Open(dir, Options{Schema: "sim-v1"})
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	put(t, old, "key-a", "t", "alpha")
	put(t, old, "key-b", "t", "beta")

	// A new-schema process resets the store.
	fresh, err := Open(dir, Options{Schema: "sim-v2"})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()

	// The stale handle must fail the write loudly, not punch a hole.
	if _, err := old.Put("key-c", "t", []byte("gamma")); err == nil {
		t.Fatal("stale handle accepted a put into a reset segment")
	}
	size, err := os.Stat(old.shardFor("key-c").segPath)
	if err != nil {
		t.Fatal(err)
	}
	if hdr := int64(len(encodeHeader("sim-v2"))); size.Size() != hdr {
		t.Fatalf("segment is %d bytes after refused put, want bare header %d", size.Size(), hdr)
	}
	// Its stale index self-heals to misses rather than serving vanished
	// bytes.
	wantMiss(t, old, "key-a")
}
