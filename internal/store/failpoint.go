// Test-only failure seams for the write path. The durability claims in
// this package ("puts surface errors, the store stays readable, no torn
// record is ever served") are only claims until a test can make a write
// or fsync fail on demand; these hooks are that switch. Production code
// never installs a hook — the functions below collapse to the plain
// *os.File operations — and the hooks are atomic pointers so tests can
// install/clear them around operations without racing concurrent puts.

package store

import (
	"os"
	"sync/atomic"
)

// Operations a hook can intercept, passed as the op argument.
const (
	fpSegAppend = "seg-append" // shard segment record append
	fpSegFsync  = "seg-fsync"  // shard segment fsync acknowledging a put
)

// writeFaultFn decides the fate of one write: err != nil fails it, and
// short > 0 additionally lands that many leading bytes first — a torn
// append, exactly what a crash mid-write leaves behind.
type writeFaultFn func(op string, b []byte, off int64) (short int, err error)

// fsyncFaultFn fails an fsync before it reaches the disk.
type fsyncFaultFn func(op string) error

var (
	writeFault atomic.Pointer[writeFaultFn]
	fsyncFault atomic.Pointer[fsyncFaultFn]
)

// faultWriteAt is f.WriteAt(b, off) behind the write seam.
func faultWriteAt(op string, f *os.File, b []byte, off int64) error {
	if fp := writeFault.Load(); fp != nil {
		if short, err := (*fp)(op, b, off); err != nil {
			if short > 0 && short < len(b) {
				f.WriteAt(b[:short], off)
			}
			return err
		}
	}
	_, err := f.WriteAt(b, off)
	return err
}

// faultSync is f.Sync() behind the fsync seam.
func faultSync(op string, f *os.File) error {
	if fp := fsyncFault.Load(); fp != nil {
		if err := (*fp)(op); err != nil {
			return err
		}
	}
	return f.Sync()
}
