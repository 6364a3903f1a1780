// Command labcache inspects and maintains the persistent experiment-result
// cache that cmd/validate, cmd/appstudy and cmd/activemem populate through
// -cache-dir (see internal/store for the on-disk format).
//
// Usage:
//
//	labcache stats   [-dir DIR]
//	labcache ls      [-dir DIR] [-type NAME] [-n N] [-full]
//	labcache verify  [-dir DIR]
//	labcache gc      [-dir DIR] [-max-age DUR] [-max-size BYTES]
//	labcache export  [-dir DIR] [-o FILE]
//	labcache import  [-dir DIR] [-i FILE]
//
// Every subcommand defaults -dir to $ACTIVEMEM_CACHE_DIR. verify exits
// non-zero when any record fails its checksum, gc compacts the shard
// segments (dropping stale duplicates and entries outside the age/size
// policy), and export/import move results between machines as a
// checksum-verified tar bundle:
//
//	machine-a$ labcache export -dir ~/.cache/activemem -o results.tar
//	machine-b$ labcache import -dir ~/.cache/activemem -i results.tar
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"activemem/internal/lab"
	"activemem/internal/store"
	"activemem/internal/units"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("labcache: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "stats":
		cmdStats(args)
	case "ls":
		cmdLs(args)
	case "verify":
		cmdVerify(args)
	case "gc":
		cmdGC(args)
	case "export":
		cmdExport(args)
	case "import":
		cmdImport(args)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: labcache <stats|ls|verify|gc|export|import> [-dir DIR] [flags]
run "labcache <subcommand> -h" for subcommand flags`)
	os.Exit(2)
}

// newFlags builds a subcommand flag set with the shared -dir flag.
func newFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	dir := fs.String("dir", os.Getenv("ACTIVEMEM_CACHE_DIR"),
		"cache directory (default $ACTIVEMEM_CACHE_DIR)")
	return fs, dir
}

// open opens the store, read-only for inspection subcommands.
func open(dir string, readOnly bool) *store.Store {
	if dir == "" {
		log.Fatal("no cache directory: pass -dir or set $ACTIVEMEM_CACHE_DIR")
	}
	s, err := store.Open(dir, store.Options{Schema: lab.ResultSchemaVersion, ReadOnly: readOnly})
	if err != nil {
		log.Fatal(err)
	}
	return s
}

func cmdStats(args []string) {
	fs, dir := newFlags("stats")
	fs.Parse(args)
	s := open(*dir, true)
	defer s.Close()
	sum := s.Stats()
	fmt.Printf("dir:     %s\n", sum.Dir)
	fmt.Printf("schema:  %s\n", sum.Schema)
	fmt.Printf("shards:  %d\n", sum.Shards)
	fmt.Printf("entries: %d\n", sum.Entries)
	fmt.Printf("size:    %s\n", units.FormatBytes(sum.Bytes))
	if sum.Entries > 0 {
		fmt.Printf("oldest:  %s\n", sum.Oldest.Format(time.RFC3339))
		fmt.Printf("newest:  %s\n", sum.Newest.Format(time.RFC3339))
	}
	types := make([]string, 0, len(sum.PerType))
	for t := range sum.PerType {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("  %-24s %d\n", t, sum.PerType[t])
	}
	// Operation counters for this open: stats itself does a shard scan, so
	// the numbers show what inspecting the store cost (the campaign CLIs
	// print their own cumulative "store:" epilogue line; see also /statusz
	// under -telemetry).
	ops := s.Counters()
	fmt.Printf("ops (this open):\n")
	fmt.Printf("  gets=%d puts=%d snapshot_hits=%d slow_gets=%d\n",
		ops.Gets, ops.Puts, ops.SnapshotHits, ops.SlowGets)
	fmt.Printf("  mutex_acqs=%d flock_acqs=%d group_commits=%d\n",
		ops.MutexAcqs, ops.FlockAcqs, ops.GroupCommits)
}

func cmdLs(args []string) {
	fs, dir := newFlags("ls")
	typeFilter := fs.String("type", "", "only list entries of this result type")
	limit := fs.Int("n", 0, "list at most N entries (0 = all)")
	full := fs.Bool("full", false, "print full keys instead of a 12-character prefix")
	fs.Parse(args)
	s := open(*dir, true)
	defer s.Close()
	n := 0
	for _, e := range s.Entries() {
		if *typeFilter != "" && e.Type != *typeFilter {
			continue
		}
		if *limit > 0 && n >= *limit {
			fmt.Println("...")
			break
		}
		key := e.Key
		if !*full && len(key) > 12 {
			key = key[:12] + "…"
		}
		fmt.Printf("%-14s %-24s %8s  %s\n", key, e.Type,
			units.FormatBytes(int64(e.PayloadBytes)), e.Stamp.Format(time.RFC3339))
		n++
	}
}

func cmdVerify(args []string) {
	fs, dir := newFlags("verify")
	fs.Parse(args)
	// verify has a pinned exit-code contract for scripts and CI: 0 means
	// every record in every segment checks out, 1 means
	// corruption was found, 2 means the store could not be read at all. It
	// therefore opens the store itself instead of going through open(),
	// whose log.Fatal would fold I/O errors into exit 1.
	if *dir == "" {
		log.Println("no cache directory: pass -dir or set $ACTIVEMEM_CACHE_DIR")
		os.Exit(2)
	}
	s, err := store.Open(*dir, store.Options{Schema: lab.ResultSchemaVersion, ReadOnly: true})
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	defer s.Close()
	res, err := s.Verify()
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
	fmt.Printf("records: %d (%d live, %d superseded)\n", res.Records, res.Live,
		res.Records-res.Live-res.Corrupt)
	fmt.Printf("corrupt: %d\n", res.Corrupt)
	if res.GarbageBytes > 0 {
		fmt.Printf("garbage: %s of unparseable mid-segment bytes (gc will drop them)\n",
			units.FormatBytes(res.GarbageBytes))
	}
	if res.TornBytes > 0 {
		fmt.Printf("torn tail: %s (a read-write open will truncate it)\n",
			units.FormatBytes(res.TornBytes))
	}
	if res.Corrupt > 0 || res.TornBytes > 0 || res.GarbageBytes > 0 {
		os.Exit(1)
	}
	fmt.Println("ok")
}

func cmdGC(args []string) {
	fs, dir := newFlags("gc")
	maxAge := fs.Duration("max-age", 0, "evict entries older than this (0 = keep all ages)")
	maxSize := fs.Int64("max-size", 0, "evict oldest entries until this many bytes remain (0 = unbounded)")
	fs.Parse(args)
	s := open(*dir, false)
	defer s.Close()
	res, err := s.GC(store.GCPolicy{MaxAge: *maxAge, MaxBytes: *maxSize})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kept %d entries, evicted %d; segment %s -> %s\n",
		res.Kept, res.Evicted, units.FormatBytes(res.BytesBefore), units.FormatBytes(res.BytesAfter))
}

func cmdExport(args []string) {
	fs, dir := newFlags("export")
	out := fs.String("o", "", "bundle file to write (default stdout)")
	fs.Parse(args)
	s := open(*dir, true)
	defer s.Close()
	var w io.Writer = os.Stdout
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
		w = f
	}
	n, err := s.Export(w)
	if err != nil {
		log.Fatal(err)
	}
	// A failed close means buffered bytes never reached the disk: the
	// bundle is truncated, so report it instead of claiming success.
	if f != nil {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "exported %d entries\n", n)
}

func cmdImport(args []string) {
	fs, dir := newFlags("import")
	in := fs.String("i", "", "bundle file to read (default stdin)")
	fs.Parse(args)
	s := open(*dir, false)
	defer s.Close()
	var r io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}
	added, skipped, err := s.Import(r)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "imported %d entries (%d already present)\n", added, skipped)
}
