package lab

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"activemem/internal/store"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, err := store.Open(dir, store.Options{Schema: ResultSchemaVersion})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type cacheResult struct {
	A int
	B float64
	C []float64
}

func init() {
	RegisterResult[cacheResult]("lab.cacheResult")
}

// TestDiskTierResumes is the resume contract in miniature: a second
// executor on a fresh process-equivalent (new store handle, empty memory
// memo) serves every cell from disk, value-identical, without computing.
func TestDiskTierResumes(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e1 := New(Config{Cache: st})
	var calls atomic.Int64
	want := cacheResult{A: 7, B: 0.1 + 0.2, C: []float64{1.5, -0}}
	key := KeyOf("cell", 1)
	v1, err := Memo(e1, key, func() (cacheResult, error) {
		calls.Add(1)
		return want, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e1.Stats(); s.Computed != 1 || s.Persisted != 1 {
		t.Fatalf("cold stats = %+v", s)
	}
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	e2 := New(Config{Cache: st2})
	v2, err := Memo(e2, key, func() (cacheResult, error) {
		calls.Add(1)
		return cacheResult{}, fmt.Errorf("must not run")
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 {
		t.Fatalf("cell computed %d times", calls.Load())
	}
	if s := e2.Stats(); s.Computed != 0 || s.DiskHits != 1 {
		t.Fatalf("warm stats = %+v", s)
	}
	// Bit-exact round trip, including the float sum's low bits.
	if v1.A != v2.A || v1.B != v2.B || len(v2.C) != 2 || v2.C[0] != 1.5 {
		t.Fatalf("round trip changed the value: %+v vs %+v", v1, v2)
	}
	// A further call on the same executor is a memory hit, not a disk hit.
	if _, err := Memo(e2, key, func() (cacheResult, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	if s := e2.Stats(); s.Hits != 1 || s.DiskHits != 1 {
		t.Fatalf("stats after memory hit = %+v", s)
	}
}

// TestDiskTierScalar pins the built-in scalar codecs (the §III-A ladder
// persists float64 levels).
func TestDiskTierScalar(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	e1 := New(Config{Cache: st})
	if _, err := Memo(e1, KeyOf("f"), func() (float64, error) { return 2.782, nil }); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	e2 := New(Config{Cache: st2})
	v, err := Memo(e2, KeyOf("f"), func() (float64, error) { return 0, fmt.Errorf("must not run") })
	if err != nil || v != 2.782 {
		t.Fatalf("scalar round trip = (%v, %v)", v, err)
	}
}

type unregisteredResult struct{ X int }

// TestUnregisteredTypeStaysMemoryOnly: cells whose result type has no codec
// still memoize in memory but are never persisted.
func TestUnregisteredTypeStaysMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	e := New(Config{Cache: st})
	key := KeyOf("unregistered")
	if _, err := Memo(e, key, func() (unregisteredResult, error) { return unregisteredResult{1}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := Memo(e, key, func() (unregisteredResult, error) { return unregisteredResult{2}, nil }); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Computed != 1 || s.Hits != 1 || s.Persisted != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if st.Len() != 0 {
		t.Fatalf("unregistered result reached the store (%d entries)", st.Len())
	}
}

// TestErrorsAreNotPersisted: only successful results reach the disk tier,
// so a transient failure retries on the next run.
func TestErrorsAreNotPersisted(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	e := New(Config{Cache: st})
	key := KeyOf("fails")
	if _, err := Memo(e, key, func() (float64, error) { return 0, fmt.Errorf("boom") }); err == nil {
		t.Fatal("error swallowed")
	}
	if st.Len() != 0 {
		t.Fatal("failed cell persisted")
	}
}

// TestRegisterResultConflicts pins the registry's safety checks.
func TestRegisterResultConflicts(t *testing.T) {
	RegisterResult[cacheResult]("lab.cacheResult") // same type + name: no-op
	mustPanic(t, "same name, different type", func() {
		RegisterResult[unregisteredResult]("lab.cacheResult")
	})
	mustPanic(t, "same type, different name", func() {
		RegisterResult[cacheResult]("lab.cacheResultRenamed")
	})
}

// TestTwoExecutorsShareCacheDir runs two executors (each with its own
// store handle, as two CLI processes would) over overlapping cells
// concurrently; every cell must compute at most twice (once per executor
// at worst, when both race before either persists) and both executors must
// agree on the values. Run under -race in CI.
func TestTwoExecutorsShareCacheDir(t *testing.T) {
	dir := t.TempDir()
	st1, st2 := openStore(t, dir), openStore(t, dir)
	defer st1.Close()
	defer st2.Close()
	e1 := New(Config{Workers: 4, Cache: st1})
	e2 := New(Config{Workers: 4, Cache: st2})

	const cells = 30
	var computes atomic.Int64
	results := [2][cells]float64{}
	var wg sync.WaitGroup
	for w, e := range []*Executor{e1, e2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := e.Run(cells, func(i int) error {
				v, err := Memo(e, KeyOf("shared-cell", i), func() (float64, error) {
					computes.Add(1)
					return float64(i) * 1.25, nil
				})
				results[w][i] = v
				return err
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if n := computes.Load(); n > 2*cells {
		t.Fatalf("%d computations for %d cells", n, cells)
	}
	for i := 0; i < cells; i++ {
		if results[0][i] != float64(i)*1.25 || results[1][i] != float64(i)*1.25 {
			t.Fatalf("cell %d diverged: %v vs %v", i, results[0][i], results[1][i])
		}
	}
	// Everything computed by either executor is on disk for the next run.
	st3 := openStore(t, dir)
	defer st3.Close()
	e3 := New(Config{Cache: st3})
	err := e3.Run(cells, func(i int) error {
		_, err := Memo(e3, KeyOf("shared-cell", i), func() (float64, error) {
			return 0, fmt.Errorf("cell %d not persisted", i)
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := e3.Stats(); s.DiskHits != cells {
		t.Fatalf("third executor stats = %+v, want %d disk hits", s, cells)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", name)
		}
	}()
	fn()
}

// TestKeyOfRejectsUnstableArguments pins the fingerprinting guard: maps and
// pointers render iteration order or addresses, so KeyOf must refuse them
// loudly instead of minting unstable keys.
func TestKeyOfRejectsUnstableArguments(t *testing.T) {
	x := 7
	type inner struct{ M map[string]int }
	type outer struct{ I inner }
	type withPtr struct{ P *int }
	cases := []struct {
		name string
		arg  any
	}{
		{"map", map[string]int{"a": 1}},
		{"pointer", &x},
		{"func", func() {}},
		{"chan", make(chan int)},
		{"nested map field", outer{inner{M: map[string]int{}}}},
		{"pointer field", withPtr{P: &x}},
		{"slice of pointers", []*int{&x}},
		{"interface holding map", any(map[int]int{})},
	}
	for _, c := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: KeyOf did not panic", c.name)
					return
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "fingerprint") {
					t.Errorf("%s: unclear panic message %q", c.name, msg)
				}
			}()
			KeyOf("prefix", c.arg)
		}()
	}
}

// TestKeyOfAcceptsStableArguments: everything the experiment configs are
// made of passes, including nil interfaces and primitive slices.
func TestKeyOfAcceptsStableArguments(t *testing.T) {
	type spec struct {
		Name   string
		Sizes  [3]int64
		Nested struct{ F float64 }
	}
	a := KeyOf(spec{Name: "m"}, nil, []int64{1, 2}, []string{"x"}, [][]float64{{1}}, 3.5, true)
	b := KeyOf(spec{Name: "m"}, nil, []int64{1, 2}, []string{"x"}, [][]float64{{1}}, 3.5, true)
	if a != b {
		t.Fatal("stable arguments produced unstable keys")
	}
}

// TestSecondExecutorServedFromDisk: a second executor on the same store
// has its own empty memo, so it serves a cell persisted by the first from
// the disk tier rather than recomputing it.
func TestSecondExecutorServedFromDisk(t *testing.T) {
	st, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e1 := New(Config{Cache: st})
	want := cacheResult{A: 3, B: 1.25, C: []float64{9}}
	key := KeyOf("disk-cell", 1)
	if _, err := Memo(e1, key, func() (cacheResult, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}

	e2 := New(Config{Cache: st})
	v, err := Memo(e2, key, func() (cacheResult, error) {
		return cacheResult{}, fmt.Errorf("must not run")
	})
	if err != nil || v.A != want.A || v.B != want.B {
		t.Fatalf("disk tier round trip = (%+v, %v)", v, err)
	}
	if s := e2.Stats(); s.DiskHits != 1 || s.Computed != 0 {
		t.Fatalf("warm stats = %+v, want the one call to be a disk hit", s)
	}
}

// TestCacheSummaryReportsTiers pins the epilogue format CI parses.
func TestCacheSummaryReportsTiers(t *testing.T) {
	st, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(Config{Cache: st})
	if _, err := Memo(e, KeyOf("s"), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	got := e.CacheSummary()
	want := "cache: computed=1 disk_hits=0 mem_hits=0 persisted=1"
	if got != want {
		t.Fatalf("CacheSummary = %q, want %q", got, want)
	}
}
