// The executor's persistent cache tiers. The in-memory memo (lab.go) makes
// identical cells run once per process; attaching a store.Store makes them
// run once per cache directory; attaching a remote.Client makes them run
// once per labcached deployment: Do consults the in-process memo, then
// disk, then the remote cache, then computes — persisting what it computed
// to the local store and (asynchronously, best-effort) to the remote one.
// Values cross the disk and wire boundaries through a registry of typed
// codecs, so every result struct that flows through Memo (core.Metrics,
// cluster.Result, …) registers itself once and round-trips exactly (gob
// preserves float64 bit patterns), keeping warm reruns byte-identical to
// cold ones — wherever the bytes came from.

package lab

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"reflect"
	"sync"

	"activemem/internal/remote"
	"activemem/internal/store"
)

// ResultSchemaVersion stamps every content-addressed Key (and the disk
// store's header) with the simulator/result-schema generation. Bump it
// whenever a change alters what any experiment cell computes — simulator
// semantics, measurement definitions, or the layout of a registered result
// struct — and every previously persisted result self-invalidates: old
// keys become unreachable and a read-write store open under the new
// version discards the stale segment. The golden tests (golden_test.go)
// pin simulator outputs, so a change that trips them is exactly a change
// that needs this bump.
const ResultSchemaVersion = "am-results-v1"

// resultCodec encodes/decodes one registered result type.
type resultCodec struct {
	name   string
	typ    reflect.Type
	encode func(any) ([]byte, error)
	decode func([]byte) (any, error)
}

var (
	codecMu     sync.RWMutex
	codecByType = map[reflect.Type]*resultCodec{}
	codecByName = map[string]*resultCodec{}
)

// RegisterResult makes T persistable by the executor's disk tier under the
// given stable name (by convention "package.Type"). Packages register
// their result types in an init function; registering the same T twice
// with the same name is a no-op, while name or type conflicts panic — they
// would corrupt the cache's type dispatch. Unregistered result types are
// still memoized in memory, just never persisted.
func RegisterResult[T any](name string) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	c := &resultCodec{
		name: name,
		typ:  t,
		encode: func(v any) ([]byte, error) {
			tv, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("lab: encode %s: value has type %T", name, v)
			}
			var b bytes.Buffer
			if err := gob.NewEncoder(&b).Encode(tv); err != nil {
				return nil, err
			}
			return b.Bytes(), nil
		},
		decode: func(p []byte) (any, error) {
			var v T
			if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&v); err != nil {
				return nil, err
			}
			return v, nil
		},
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if prev, ok := codecByName[name]; ok {
		if prev.typ == t {
			return
		}
		panic(fmt.Sprintf("lab: result name %q registered for both %v and %v", name, prev.typ, t))
	}
	if prev, ok := codecByType[t]; ok {
		panic(fmt.Sprintf("lab: result type %v registered as both %q and %q", t, prev.name, name))
	}
	codecByName[name] = c
	codecByType[t] = c
}

// Scalar results (e.g. the §III-A bandwidth ladder's per-level float64)
// belong to no package; the registry owns them.
func init() {
	RegisterResult[float64]("go.float64")
	RegisterResult[int]("go.int")
	RegisterResult[int64]("go.int64")
	RegisterResult[string]("go.string")
	RegisterResult[bool]("go.bool")
}

// cacheGet looks key up in the cache tiers, nearest first: the disk
// segments, then the remote cache. Any failure — no cache, a miss, an
// unregistered type name, a decode error, a sick remote server — reports
// a miss and lets the cell recompute. A disk record that decodes no
// longer (a payload encoding from before an incompatible type change) is
// invalidated so the recomputed result can replace it; an unknown type
// name is left alone, since a different binary sharing the directory may
// still decode it. The tier return distinguishes the tiers for Stats
// (tierDisk or tierRemote).
func (e *Executor) cacheGet(key Key) (v any, tier int, ok bool) {
	if e.cache != nil {
		if typeName, payload, ok := e.cache.Get(string(key)); ok {
			if v, ok := decodePayload(typeName, payload); ok {
				return v, tierDisk, true
			}
			e.cache.Invalidate(string(key))
		}
	}
	if e.remote != nil {
		if typeName, payload, ok := e.remote.Get(string(key)); ok {
			if v, ok := decodePayload(typeName, payload); ok {
				// Pull the record into the local store so the next process
				// on this cache dir never crosses the network for it again.
				if e.cache != nil {
					e.cache.Put(string(key), typeName, payload)
				}
				return v, tierRemote, true
			}
		}
	}
	return nil, 0, false
}

// decodePayload dispatches a stored record through the codec registry.
// The payload's checksum has already been verified by whichever tier
// produced it (store CRC, remote body checksum); this is purely the
// type-name → value step.
func decodePayload(typeName string, payload []byte) (any, bool) {
	codecMu.RLock()
	c := codecByName[typeName]
	codecMu.RUnlock()
	if c == nil {
		return nil, false
	}
	v, err := c.decode(payload)
	if err != nil {
		return nil, false
	}
	return v, true
}

// cachePut persists a freshly computed result, reporting whether a record
// was actually written locally (a concurrent writer may have stored the
// key first). The encoded payload is also offered to the remote tier as
// an asynchronous, best-effort write-back — a slow or dead server drops
// it without ever blocking the cell. Persistence is best-effort
// throughout: an unregistered type or a write failure leaves the result
// memory-only rather than failing the experiment.
func (e *Executor) cachePut(key Key, v any) bool {
	return e.cachePutMode(key, v, false)
}

// cachePutMode is cachePut with the remote leg's mode explicit. Fleet
// workers publish synchronously (syncRemote) before acking a lease: the
// coordinator tells waiting peers "done", so the bytes must already be
// on the server — an async queue ack would race the peers' fetches.
func (e *Executor) cachePutMode(key Key, v any, syncRemote bool) bool {
	if (e.cache == nil && e.remote == nil) || v == nil {
		return false
	}
	codecMu.RLock()
	c := codecByType[reflect.TypeOf(v)]
	codecMu.RUnlock()
	if c == nil {
		return false
	}
	payload, err := c.encode(v)
	if err != nil {
		return false
	}
	added := false
	if e.cache != nil {
		if added, err = e.cache.Put(string(key), c.name, payload); err != nil {
			added = false
		}
	}
	if e.remote != nil {
		if syncRemote {
			e.remote.Put(string(key), c.name, payload)
		} else {
			e.remote.PutAsync(string(key), c.name, payload)
		}
	}
	return added
}

// Cache returns the executor's disk tier, or nil.
func (e *Executor) Cache() *store.Store { return e.cache }

// Remote returns the executor's remote tier, or nil.
func (e *Executor) Remote() *remote.Client { return e.remote }

// OpenRemote resolves a -cache-url / $ACTIVEMEM_CACHE_URL setting into a
// remote-tier client under the current ResultSchemaVersion, with tuning
// knobs from the environment (remote.OptionsFromEnv). An empty URL
// returns (nil, nil): no remote tier. The only error is a malformed URL;
// a server that is down, slow or wrong merely degrades every lookup to a
// miss at runtime.
func OpenRemote(urlStr string) (*remote.Client, error) {
	if urlStr == "" {
		return nil, nil
	}
	return remote.New(remote.OptionsFromEnv(urlStr, ResultSchemaVersion))
}

// OpenCache opens the persistent result store in dir under the current
// ResultSchemaVersion — the one way the CLIs and the facade resolve a
// -cache-dir / MeasureOptions.CacheDir setting, so the schema stamp can
// never diverge between them. An empty dir returns (nil, nil): caching
// disabled.
func OpenCache(dir string) (*store.Store, error) {
	if dir == "" {
		return nil, nil
	}
	return store.Open(dir, store.Options{Schema: ResultSchemaVersion})
}

// OpenCacheSized and HotBytesFromEnv are kept only for perfbench's store
// probes, which predate the removal of the store's sized memory tier; the
// size is ignored. New callers use OpenCache.
func OpenCacheSized(dir string, _ int64) (*store.Store, error) { return OpenCache(dir) }
func HotBytesFromEnv() int64                                   { return 0 }

// CacheSummary renders the memo counters in the machine-readable form the
// CLIs print (and CI's resume-smoke step parses) when a cache directory is
// configured: every Do call was either computed, served from the
// in-process memo, or served from a cache tier. The line's original
// key set is stable for CI; remote_hits rides at the end so older
// parsers that walk key=value pairs keep working.
func (e *Executor) CacheSummary() string {
	st := e.Stats()
	s := fmt.Sprintf("cache: computed=%d disk_hits=%d mem_hits=%d persisted=%d",
		st.Computed, st.DiskHits, st.Hits, st.Persisted)
	if e.remote != nil {
		s += fmt.Sprintf(" remote_hits=%d", st.RemoteHits)
	}
	return s
}

// RemoteSummary renders the remote tier's counters in the same
// machine-readable key=value form as CacheSummary (CI's remote-smoke
// step parses the hits field).
func (e *Executor) RemoteSummary() string {
	rs := e.remote.Stats()
	return fmt.Sprintf("remote: gets=%d hits=%d misses=%d errors=%d corrupt=%d breaker_opens=%d breaker_fastfails=%d puts_stored=%d puts_dropped=%d puts_shed=%d url=%s",
		rs.Gets, rs.Hits, rs.Misses, rs.Errors, rs.Corrupt, rs.BreakerOpens,
		rs.BreakerFastFails, rs.PutsStored, rs.PutsDropped, rs.PutsShed, e.remote.BaseURL())
}

// StoreOpsSummary renders the disk tier's operation counters in the same
// machine-readable key=value form as CacheSummary: where gets were served
// (lock-free snapshot / locked slow path) and how many segment fsyncs
// acknowledged puts (group_commits).
func (e *Executor) StoreOpsSummary() string {
	c := e.cache.Counters()
	return fmt.Sprintf("store: gets=%d puts=%d snapshot_hits=%d slow_gets=%d group_commits=%d",
		c.Gets, c.Puts, c.SnapshotHits, c.SlowGets, c.GroupCommits)
}

// PrintCacheSummary writes the cache epilogue every CLI prints to w, or
// nothing when no cache tier is attached. The "cache:" line is parsed by
// CI's resume-smoke step — new facts go on their own lines after it.
func (e *Executor) PrintCacheSummary(w io.Writer) {
	if e.cache == nil && e.remote == nil {
		return
	}
	if e.cache != nil {
		fmt.Fprintf(w, "%s entries=%d dir=%s\n", e.CacheSummary(), e.cache.Len(), e.cache.Dir())
		fmt.Fprintf(w, "%s\n", e.StoreOpsSummary())
	} else {
		fmt.Fprintf(w, "%s\n", e.CacheSummary())
	}
	if e.remote != nil {
		fmt.Fprintf(w, "%s\n", e.RemoteSummary())
		// Shed write-backs are silent by design at runtime (they must never
		// block a cell); the epilogue is where they become visible.
		if rs := e.remote.Stats(); rs.PutsDropped+rs.PutsShed > 0 {
			fmt.Fprintf(w, "remote: warning: %d computed results never reached the cache server (%d dropped queue-full, %d shed while the tier was down or disabled)\n",
				rs.PutsDropped+rs.PutsShed, rs.PutsDropped, rs.PutsShed)
		}
	}
	if e.fleet != nil {
		fmt.Fprintf(w, "%s\n", e.FleetSummary())
	}
}

// PoolSummary renders the resident worker-pool counters in the form the
// CLIs print under -progress: how many worker goroutines the campaign
// spawned and how many batches reused the already-resident pool.
func (e *Executor) PoolSummary() string {
	st := e.Stats()
	return fmt.Sprintf("pool: workers=%d worker_spawns=%d group_reuses=%d",
		e.workers, st.WorkerSpawns, st.GroupReuses)
}

// PrintPoolSummary writes the pool epilogue the CLIs print when progress
// reporting is enabled.
func (e *Executor) PrintPoolSummary(w io.Writer) {
	fmt.Fprintf(w, "%s\n", e.PoolSummary())
}
