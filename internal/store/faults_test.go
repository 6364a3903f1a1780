// Error-path tests for the put pipeline, driven through the failpoint
// seams (failpoint.go): a segment append or segment fsync that fails must
// surface as a put error, must never leave the store unreadable, and must
// never let a torn record be served.
package store

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

var errInjected = errors.New("injected I/O failure")

// failWrites installs a write fault for one op and removes it when the
// test ends. short > 0 also lands that many leading bytes (a torn
// append).
func failWrites(t *testing.T, op string, short int) {
	t.Helper()
	fn := writeFaultFn(func(gotOp string, b []byte, off int64) (int, error) {
		if gotOp != op {
			return 0, nil
		}
		if short >= len(b) {
			t.Fatalf("short %d >= record length %d", short, len(b))
		}
		return short, errInjected
	})
	writeFault.Store(&fn)
	t.Cleanup(func() { writeFault.Store(nil) })
}

func clearFaults() {
	writeFault.Store(nil)
	fsyncFault.Store(nil)
}

// A torn segment append (half the record lands, then the write fails, as
// a full disk or a crash mid-write leaves it): the put errors, the torn
// record is never served, other entries stay readable, and retrying the
// put truncates the tear and succeeds.
func TestPutSurfacesTornSegmentAppend(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()
	put(t, s, "key-a", "t", "payload-a")

	failWrites(t, fpSegAppend, 10)
	if _, err := s.Put("key-b", "t", []byte("payload-b")); !errors.Is(err, errInjected) {
		t.Fatalf("Put under seg-append fault: err = %v, want %v", err, errInjected)
	}
	clearFaults()

	// The torn half-record sits past the committed tail; it must miss, and
	// must not have taken the rest of the store with it.
	wantMiss(t, s, "key-b")
	wantEntry(t, s, "key-a", "t", "payload-a")

	// The retry rescans under the exclusive lock, truncates the tear and
	// appends at a clean boundary.
	put(t, s, "key-b", "t", "payload-b")
	wantEntry(t, s, "key-b", "t", "payload-b")
	res, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.TornBytes != 0 || res.GarbageBytes != 0 {
		t.Fatalf("after retry: %+v, want no corruption, no torn tail", res)
	}
	if res.Live != 2 {
		t.Fatalf("Live = %d, want 2", res.Live)
	}

	// And the repair survives a reopen.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t", "payload-a")
	wantEntry(t, s2, "key-b", "t", "payload-b")
}

// A segment fsync failure: the put must report it (the record is not
// durably acknowledged) and must not count as an acknowledging fsync,
// while the store stays readable and writable and the record, already
// appended, is served in-process and after a reopen.
func TestPutSurfacesSegmentFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	defer s.Close()

	fn := fsyncFaultFn(func(op string) error {
		if op == fpSegFsync {
			return errInjected
		}
		return nil
	})
	fsyncFault.Store(&fn)
	t.Cleanup(clearFaults)

	if _, err := s.Put("key-a", "t", []byte("payload-a")); !errors.Is(err, errInjected) {
		t.Fatalf("Put under seg-fsync fault: err = %v, want %v", err, errInjected)
	}
	clearFaults()
	if got := s.Counters().GroupCommits; got != 0 {
		t.Fatalf("GroupCommits = %d after a failed fsync, want 0", got)
	}

	put(t, s, "key-b", "t", "payload-b")
	wantEntry(t, s, "key-a", "t", "payload-a")
	wantEntry(t, s, "key-b", "t", "payload-b")
	if got := s.Counters().GroupCommits; got != 1 {
		t.Fatalf("GroupCommits = %d, want 1", got)
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t", "payload-a")
	wantEntry(t, s2, "key-b", "t", "payload-b")
	if res, err := s2.Verify(); err != nil || res.Corrupt != 0 || res.Live != 2 {
		t.Fatalf("verify = (%+v, %v), want 2 live, no corruption", res, err)
	}
}

// TestPutIsDurableWithoutClose: a put is acknowledged by one fsync of its
// own segment, so a store that is never closed — no flush at exit, no
// second file to replay — leaves it for the next open to serve. A
// duplicate put writes nothing and fsyncs nothing.
func TestPutIsDurableWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir) // deliberately never closed
	put(t, s, "key-a", "t", "payload-a")
	if added, err := s.Put("key-a", "t", []byte("payload-a")); err != nil || added {
		t.Fatalf("duplicate put = (%v, %v), want (false, nil)", added, err)
	}
	if got := s.Counters().GroupCommits; got != 1 {
		t.Fatalf("GroupCommits = %d after one put, want 1", got)
	}
	for _, name := range []string{"commit.log", "commit.lock"} {
		if _, err := os.Stat(filepath.Join(dir, shardsDirName, name)); !os.IsNotExist(err) {
			t.Fatalf("open created %s (err = %v)", name, err)
		}
	}

	s2 := openT(t, dir)
	defer s2.Close()
	wantEntry(t, s2, "key-a", "t", "payload-a")
}
