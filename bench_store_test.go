package activemem

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"activemem/internal/lab"
	"activemem/internal/store"
)

// storeBenchKey renders content-address-shaped keys (hex digests) so the
// benchmark load spreads over the keyspace the way real lab.Keys do.
func storeBenchKey(i int) string {
	h := sha256.Sum256([]byte(fmt.Sprintf("bench-cell-%d", i)))
	return hex.EncodeToString(h[:])
}

// benchKeys precomputes b.N keys before the timer starts, so the loop
// measures store operations rather than SHA-256 key construction.
func benchKeys(n, base int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = storeBenchKey(base + i)
	}
	return keys
}

// runStoreBench fans b.N operations over g goroutines via a shared claim
// counter and reports aggregate ops/sec.
func runStoreBench(b *testing.B, g int, fn func(i int)) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= b.N {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkStoreConcurrent measures the sharded store under goroutine
// fan-out at three concurrency levels. The get numbers isolate the
// lock-free snapshot read path; put throughput scales with the number of
// shard flocks whose fsyncs can overlap.
func BenchmarkStoreConcurrent(b *testing.B) {
	const prePopulated = 2048
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	open := func(b *testing.B, dir string) *store.Store {
		b.Helper()
		s, err := store.Open(dir, store.Options{Schema: "bench-v1"})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	keys := benchKeys(prePopulated, 0)
	prep := func(b *testing.B, s *store.Store) {
		b.Helper()
		for _, k := range keys {
			if _, err := s.Put(k, "bench.T", payload); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("get/g=%d", g), func(b *testing.B) {
			s := open(b, b.TempDir())
			defer s.Close()
			prep(b, s)
			runStoreBench(b, g, func(i int) {
				if _, _, ok := s.Get(keys[i%prePopulated]); !ok {
					b.Error("miss")
				}
			})
		})
		b.Run(fmt.Sprintf("put/g=%d", g), func(b *testing.B) {
			s := open(b, b.TempDir())
			defer s.Close()
			fresh := benchKeys(b.N, 1<<20)
			runStoreBench(b, g, func(i int) {
				if _, err := s.Put(fresh[i], "bench.T", payload); err != nil {
					b.Error(err)
				}
			})
		})
		b.Run(fmt.Sprintf("mixed/g=%d", g), func(b *testing.B) {
			s := open(b, b.TempDir())
			defer s.Close()
			prep(b, s)
			fresh := benchKeys(b.N/8+1, 1<<20)
			runStoreBench(b, g, func(i int) {
				if i%8 == 7 {
					if _, err := s.Put(fresh[i/8], "bench.T", payload); err != nil {
						b.Error(err)
					}
					return
				}
				if _, _, ok := s.Get(keys[i%prePopulated]); !ok {
					b.Error("miss")
				}
			})
		})
	}
}

// benchReplayResult approximates a persisted experiment-cell result: a few
// KB of gob-encoded slices, like a sweep's per-level metrics.
type benchReplayResult struct {
	Levels []float64
	Counts []int64
}

func init() {
	lab.RegisterResult[benchReplayResult]("bench.ReplayResult")
}

// BenchmarkWarmCampaignReplay measures the executor path a resumed
// campaign takes: every cell already persisted, a fresh executor per
// iteration (cold in-process memo, like a new process) re-serving the
// whole campaign from the disk tier, decoding every cell.
func BenchmarkWarmCampaignReplay(b *testing.B) {
	const cells = 256
	mk := func(i int) benchReplayResult {
		r := benchReplayResult{Levels: make([]float64, 256), Counts: make([]int64, 64)}
		for j := range r.Levels {
			r.Levels[j] = float64(i*len(r.Levels) + j)
		}
		for j := range r.Counts {
			r.Counts[j] = int64(i + j)
		}
		return r
	}
	dir := b.TempDir()
	st, err := lab.OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	seed := lab.New(lab.Config{Workers: 2, Cache: st})
	for i := 0; i < cells; i++ {
		i := i
		if _, err := lab.Memo(seed, lab.KeyOf("replay-cell", i), func() (benchReplayResult, error) {
			return mk(i), nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()
	st.Close()

	// Reopen once: the store handle persists across replays (the
	// resident-pool model), but each iteration's executor starts with an
	// empty in-process memo, so every cell goes to the store.
	st, err = lab.OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ex := lab.New(lab.Config{Workers: 2, Cache: st})
		for i := 0; i < cells; i++ {
			v, err := lab.Memo(ex, lab.KeyOf("replay-cell", i), func() (benchReplayResult, error) {
				return benchReplayResult{}, fmt.Errorf("warm replay must not compute")
			})
			if err != nil || len(v.Levels) != 256 {
				b.Fatal("cell not served from cache")
			}
		}
		stats := ex.Stats()
		if stats.Computed != 0 {
			b.Fatalf("replay computed %d cells", stats.Computed)
		}
		ex.Close()
	}
}
