package store

import (
	"bytes"
	"testing"
)

// FuzzWalkRecords feeds arbitrary bytes to the scan that every open,
// rescan, verify and import runs over disk or bundle contents. Seeds live
// in testdata/fuzz/FuzzWalkRecords: a good record, a torn tail, a flipped
// CRC and a corrupted length field.
func FuzzWalkRecords(f *testing.F) {
	f.Fuzz(func(t *testing.T, buf []byte) {
		prev := int64(-1)
		tail, garbage := walkRecords(buf, 0, func(off int64, rec parsedRecord, st recStatus) {
			if off <= prev || off >= int64(len(buf)) {
				t.Fatalf("record at %d after %d in %d bytes", off, prev, len(buf))
			}
			prev = off
			if st != recGood {
				return
			}
			// A good record is exactly the bytes its fields encode to.
			if off+rec.recLen > int64(len(buf)) {
				t.Fatalf("good record [%d,+%d) overruns %d bytes", off, rec.recLen, len(buf))
			}
			raw := buf[off : off+rec.recLen]
			if got := encodeRecord(rec.key, rec.typeName, rec.payload, rec.stamp); !bytes.Equal(got, raw) {
				t.Fatalf("record at %d re-encodes to %x, want %x", off, got, raw)
			}
		})
		if tail < 0 || tail > int64(len(buf)) {
			t.Fatalf("tail %d outside [0, %d]", tail, len(buf))
		}
		if garbage < 0 || garbage > tail {
			t.Fatalf("garbage %d outside [0, tail %d]", garbage, tail)
		}
		if rec, st := parseRecord(buf); st == recGood && rec.recLen > int64(len(buf)) {
			t.Fatalf("parseRecord claims %d bytes of %d", rec.recLen, len(buf))
		}
	})
}
