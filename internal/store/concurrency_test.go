package store

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestGetIndexedKeyIsLockFree pins the tentpole guarantee with the store's
// own op counters: once a key is indexed in a shard's published snapshot,
// Get touches no mutex and no flock.
func TestGetIndexedKeyIsLockFree(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		put(t, s, keys[i], "t", fmt.Sprintf("payload-%03d", i))
	}

	before := s.Counters()
	const rounds = 100
	for r := 0; r < rounds; r++ {
		for _, k := range keys {
			if _, _, ok := s.Get(k); !ok {
				t.Fatalf("indexed key %q missed", k)
			}
		}
	}
	after := s.Counters()

	n := uint64(rounds * len(keys))
	if got := after.Gets - before.Gets; got != n {
		t.Fatalf("gets delta = %d, want %d", got, n)
	}
	if got := after.SnapshotHits - before.SnapshotHits; got != n {
		t.Fatalf("snapshot hits delta = %d, want %d (every Get must stay on the fast path)", got, n)
	}
	if got := after.MutexAcqs - before.MutexAcqs; got != 0 {
		t.Fatalf("%d mutex acquisitions during indexed Gets, want 0", got)
	}
	if got := after.FlockAcqs - before.FlockAcqs; got != 0 {
		t.Fatalf("%d flock acquisitions during indexed Gets, want 0", got)
	}
	if got := after.SlowGets - before.SlowGets; got != 0 {
		t.Fatalf("%d slow-path Gets, want 0", got)
	}
}

// TestSnapshotReadsDontBlockOnWriterLocks: a reader serving an indexed key
// from its snapshot must not queue behind a writer holding the shard's
// exclusive lock. The test parks a lock holder inside flockHeld on the
// key's own shard lock and demands the Get complete while it is held.
func TestSnapshotReadsDontBlockOnWriterLocks(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	put(t, s, "key-a", "t", "alpha")
	sh := s.shardFor("key-a")

	lf, err := os.OpenFile(sh.lockPath, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	acquired := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- flockHeld(lf, sh.lockPath, true, func() error {
			close(acquired)
			<-release
			return nil
		})
	}()
	<-acquired

	got := make(chan bool, 1)
	go func() {
		_, _, ok := s.Get("key-a")
		got <- ok
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Fatal("Get missed while the shard lock was held")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get blocked behind an exclusive shard lock")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentPutsAndGets hammers one handle from many goroutines:
// writers spread across all shards, writers colliding on one shard, and
// readers racing the appends. Run under -race this doubles as the memory
// model check for the snapshot-publication scheme.
func TestConcurrentPutsAndGets(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	const writers, perWriter = 8, 40
	put(t, s, "key-hot", "t", "resident")

	var readers, writersWG sync.WaitGroup
	stop := make(chan struct{})
	// Readers race every append, half on the stable key, half on keys that
	// appear mid-run.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if r%2 == 0 {
					if _, _, ok := s.Get("key-hot"); !ok {
						t.Error("stable key vanished mid-run")
						return
					}
				} else {
					s.Get(fmt.Sprintf("w%d-k%03d", i%writers, i%perWriter))
				}
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				// Even writers spread across shards; odd writers all collide
				// on writer 1's key space to serialise on one shard lock.
				key := fmt.Sprintf("w%d-k%03d", w, i)
				if w%2 == 1 {
					key = fmt.Sprintf("w1-k%03d-%d", i, w)
				}
				if _, err := s.Put(key, "t", []byte(key)); err != nil {
					t.Errorf("put %q: %v", key, err)
					return
				}
			}
		}(w)
	}
	// Wait for writers, then stop the readers.
	writersWG.Wait()
	close(stop)
	readers.Wait()

	if t.Failed() {
		return
	}
	// No lost records: every write is present and intact.
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			key := fmt.Sprintf("w%d-k%03d", w, i)
			if w%2 == 1 {
				key = fmt.Sprintf("w1-k%03d-%d", i, w)
			}
			typ, payload, ok := s.Get(key)
			if !ok || typ != "t" || string(payload) != key {
				t.Fatalf("lost or damaged record %q: (%q, %q, %v)", key, typ, payload, ok)
			}
		}
	}
	if res, err := s.Verify(); err != nil || res.Corrupt != 0 {
		t.Fatalf("verify after concurrent writes = (%+v, %v)", res, err)
	}
}

// TestRescanRacingGC: one handle runs GC (compaction: truncate-and-swap of
// every shard file) while a second handle on the same directory keeps
// reading and writing. Records younger than the age cutoff must all
// survive.
func TestRescanRacingGC(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir)
	defer a.Close()
	b := openT(t, dir)
	defer b.Close()

	const keys = 48
	for i := 0; i < keys; i++ {
		put(t, a, fmt.Sprintf("old-%03d", i), "t", "old")
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for round := 0; round < 6; round++ {
			if _, err := a.GC(GCPolicy{MaxAge: time.Hour}); err != nil {
				t.Errorf("gc round %d: %v", round, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("new-%03d", i)
			if _, err := b.Put(key, "t", []byte("new")); err != nil {
				t.Errorf("put during gc: %v", err)
				return
			}
			b.Get(fmt.Sprintf("old-%03d", i))
			b.Get(key)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	for i := 0; i < keys; i++ {
		wantEntry(t, a, fmt.Sprintf("old-%03d", i), "t", "old")
		wantEntry(t, a, fmt.Sprintf("new-%03d", i), "t", "new")
		wantEntry(t, b, fmt.Sprintf("new-%03d", i), "t", "new")
	}
	if res, err := a.Verify(); err != nil || res.Live != 2*keys || res.Corrupt != 0 {
		t.Fatalf("verify after gc races = (%+v, %v)", res, err)
	}
}

const stressDirEnv = "ACTIVEMEM_STORE_STRESS_DIR"

// TestTwoProcessSharedDir re-execs the test binary so a genuinely separate
// process hammers the same directory through the kernel's flocks while
// this one does the same. Both processes' full write sets must survive.
func TestTwoProcessSharedDir(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary:", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestStoreStressHelper$", "-test.v")
	cmd.Env = append(os.Environ(), stressDirEnv+"="+dir)
	outc := make(chan []byte, 1)
	errc := make(chan error, 1)
	go func() {
		out, err := cmd.CombinedOutput()
		outc <- out
		errc <- err
	}()

	s := openT(t, dir)
	defer s.Close()
	const n = 60
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("parent-%03d", i)
		if _, err := s.Put(key, "t", []byte(key)); err != nil {
			t.Fatalf("parent put: %v", err)
		}
		s.Get(fmt.Sprintf("child-%03d", i))
		s.Get(key)
	}
	out := <-outc
	if err := <-errc; err != nil {
		t.Fatalf("child process failed: %v\n%s", err, out)
	}

	for i := 0; i < n; i++ {
		wantEntry(t, s, fmt.Sprintf("parent-%03d", i), "t", fmt.Sprintf("parent-%03d", i))
		wantEntry(t, s, fmt.Sprintf("child-%03d", i), "t", fmt.Sprintf("child-%03d", i))
	}
	if res, err := s.Verify(); err != nil || res.Corrupt != 0 || res.Live != 2*n {
		t.Fatalf("verify after two-process stress = (%+v, %v)\nchild output:\n%s", res, err, out)
	}
}

// TestStoreStressHelper is the child side of TestTwoProcessSharedDir; it
// only runs when re-exec'd with the shared directory in the environment.
func TestStoreStressHelper(t *testing.T) {
	dir := os.Getenv(stressDirEnv)
	if dir == "" {
		t.Skip("helper: run via TestTwoProcessSharedDir")
	}
	s, err := Open(dir, Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("child-%03d", i)
		if _, err := s.Put(key, "t", []byte(key)); err != nil {
			t.Fatalf("child put: %v", err)
		}
		s.Get(fmt.Sprintf("parent-%03d", i))
		s.Get(key)
	}
}

const killDirEnv = "ACTIVEMEM_STORE_KILL_DIR"

// TestSIGKILLedWriterLosesNoAcknowledgedPut re-execs the test binary as a
// writer that prints each key only after its Put returned, SIGKILLs it
// mid-stream, and reopens the directory both read-only and read-write:
// every printed key must be served and no record may fail its checksum.
// A torn tail (the put the kill interrupted) is allowed.
func TestSIGKILLedWriterLosesNoAcknowledgedPut(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	exe, err := os.Executable()
	if err != nil {
		t.Skip("cannot locate test binary:", err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestStoreKillHelper$")
	cmd.Env = append(os.Environ(), killDirEnv+"="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const killAfter = 60
	var acked []string
	sc := bufio.NewScanner(stdout)
	for len(acked) < killAfter && sc.Scan() {
		if key, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			acked = append(acked, key)
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	for sc.Scan() { // keys acknowledged before the kill landed
		if key, ok := strings.CutPrefix(sc.Text(), "acked "); ok {
			acked = append(acked, key)
		}
	}
	cmd.Wait()
	if len(acked) < killAfter {
		t.Fatalf("writer died after %d acknowledged puts, before the kill", len(acked))
	}

	check := func(s *Store) {
		t.Helper()
		for _, k := range acked {
			wantEntry(t, s, k, "t", "payload-"+k)
		}
		res, err := s.Verify()
		if err != nil || res.Corrupt != 0 || res.Live < len(acked) {
			t.Fatalf("verify after SIGKILL = (%+v, %v), want >= %d live, 0 corrupt", res, err, len(acked))
		}
	}
	ro, err := Open(dir, Options{Schema: testSchema, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	check(ro)
	ro.Close()
	rw := openT(t, dir)
	defer rw.Close()
	check(rw)
}

// TestStoreKillHelper is the writer side of
// TestSIGKILLedWriterLosesNoAcknowledgedPut; it only runs when re-exec'd
// with the directory in the environment, and writes until it is killed.
func TestStoreKillHelper(t *testing.T) {
	dir := os.Getenv(killDirEnv)
	if dir == "" {
		t.Skip("helper: run via TestSIGKILLedWriterLosesNoAcknowledgedPut")
	}
	s, err := Open(dir, Options{Schema: testSchema})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("kill-%d-%04d", g, i)
				if _, err := s.Put(key, "t", []byte("payload-"+key)); err != nil {
					t.Error(err)
					return
				}
				fmt.Fprintf(os.Stdout, "acked %s\n", key)
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentGetsSpanShardsLockFree: many goroutines reading indexed
// keys across every shard stay on the snapshot path — under -race this
// exercises concurrent loads of the published states.
func TestConcurrentGetsSpanShardsLockFree(t *testing.T) {
	s := openT(t, t.TempDir())
	defer s.Close()
	keys := make([]string, numShards*4)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
		put(t, s, keys[i], "t", "v")
	}
	before := s.Counters()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g*31+i)%len(keys)]
				if _, _, ok := s.Get(k); !ok {
					t.Errorf("missed indexed key %q", k)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	after := s.Counters()
	if got := after.MutexAcqs - before.MutexAcqs; got != 0 {
		t.Fatalf("%d mutex acquisitions across concurrent Gets, want 0", got)
	}
	if got := after.FlockAcqs - before.FlockAcqs; got != 0 {
		t.Fatalf("%d flock acquisitions across concurrent Gets, want 0", got)
	}
}
