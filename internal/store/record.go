// On-disk record format shared by every shard segment and export bundle:
// the same self-delimiting checksummed records behind one header, so bytes
// move between stores and machines without re-encoding.
package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

const (
	// fileMagic names the binary format; bump the trailing digits when the
	// record layout changes.
	fileMagic = "AMSTOR01"

	// v1SegmentName is the legacy single-segment layout's one data file; a
	// read-write Open discards it as it discards a stale schema.
	v1SegmentName = "results.seg"
	// lockName is the store-wide lock file, held only for layout-level
	// operations (fresh creation, discarding a stale layout).
	lockName = "LOCK"

	// shardsDirName holds the sharded layout: one segment + lock file pair
	// per key-hash shard, plus the layout stamp.
	shardsDirName = "shards"
	layoutName    = "LAYOUT"

	// numShards partitions the keyspace; each shard owns its segment file,
	// its lock and its index, so writers to different shards never contend.
	// The routing (shardOf) is baked into the layout — layoutStamp records
	// it so a binary with a different constant refuses to mix layouts.
	numShards = 16

	entryMagic  = uint32(0x414D4345) // "AMCE"
	fixedHdrLen = 4 + 2 + 2 + 4 + 8
	crcLen      = 4

	maxKeyLen  = 1 << 10
	maxTypeLen = 1 << 10
	maxPayload = 1 << 26
)

// layoutStamp is the exact content of the LAYOUT file; any other content
// means the directory was written by an incompatible shard routing.
var layoutStamp = fmt.Sprintf("amshards v1\nshards: %d\n", numShards)

// shardOf routes a key to its shard (FNV-1a over the key bytes).
func shardOf(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % numShards)
}

// entryRef locates one live record in a segment.
type entryRef struct {
	off        int64 // record start
	recLen     int64
	typeName   string
	payloadLen int
	stamp      int64
}

// encodeHeader renders the segment header: magic, schema length, schema.
func encodeHeader(schema string) []byte {
	b := make([]byte, 0, len(fileMagic)+2+len(schema))
	b = append(b, fileMagic...)
	var lenBuf [2]byte
	binary.LittleEndian.PutUint16(lenBuf[:], uint16(len(schema)))
	b = append(b, lenBuf[:]...)
	return append(b, schema...)
}

// readHeader parses a segment header, returning the stored schema and
// header length.
func readHeader(f *os.File) (schema string, hdrLen int64, err error) {
	buf := make([]byte, len(fileMagic)+2)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(len(buf))), buf); err != nil {
		return "", 0, fmt.Errorf("short header: %w", err)
	}
	if string(buf[:len(fileMagic)]) != fileMagic {
		return "", 0, fmt.Errorf("bad magic %q", buf[:len(fileMagic)])
	}
	n := int(binary.LittleEndian.Uint16(buf[len(fileMagic):]))
	sb := make([]byte, n)
	off := int64(len(buf))
	if _, err := io.ReadFull(io.NewSectionReader(f, off, int64(n)), sb); err != nil {
		return "", 0, fmt.Errorf("short schema: %w", err)
	}
	return string(sb), off + int64(n), nil
}

// encodeRecord renders one record; see the package comment for the layout.
func encodeRecord(key, typeName string, payload []byte, stamp int64) []byte {
	n := fixedHdrLen + len(key) + len(typeName) + len(payload) + crcLen
	b := make([]byte, 0, n)
	var u4 [4]byte
	var u8 [8]byte
	binary.LittleEndian.PutUint32(u4[:], entryMagic)
	b = append(b, u4[:]...)
	binary.LittleEndian.PutUint16(u4[:2], uint16(len(key)))
	b = append(b, u4[:2]...)
	binary.LittleEndian.PutUint16(u4[:2], uint16(len(typeName)))
	b = append(b, u4[:2]...)
	binary.LittleEndian.PutUint32(u4[:], uint32(len(payload)))
	b = append(b, u4[:]...)
	binary.LittleEndian.PutUint64(u8[:], uint64(stamp))
	b = append(b, u8[:]...)
	b = append(b, key...)
	b = append(b, typeName...)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(u4[:], crc32.ChecksumIEEE(b))
	return append(b, u4[:]...)
}

// recStatus classifies one scanned record.
type recStatus int

const (
	recGood recStatus = iota
	recBadCRC
	recTorn // incomplete or unparseable from here on
)

// parsedRecord is the outcome of scanning one record.
type parsedRecord struct {
	key      string
	typeName string
	payload  []byte
	stamp    int64
	recLen   int64
}

// entryMagicBytes is the on-disk rendering of entryMagic, the marker the
// scan resynchronises on after unparseable bytes.
var entryMagicBytes = binary.LittleEndian.AppendUint32(nil, entryMagic)

// parseRecord parses one record at the start of b. recTorn means no
// complete record starts here: a clean end of input, a torn append, or
// garbage (including a record whose corrupted length fields point past the
// available bytes).
func parseRecord(b []byte) (parsedRecord, recStatus) {
	if len(b) < fixedHdrLen || binary.LittleEndian.Uint32(b) != entryMagic {
		return parsedRecord{}, recTorn
	}
	keyLen := int(binary.LittleEndian.Uint16(b[4:]))
	typeLen := int(binary.LittleEndian.Uint16(b[6:]))
	payloadLen := int(binary.LittleEndian.Uint32(b[8:]))
	if keyLen == 0 || keyLen > maxKeyLen || typeLen > maxTypeLen || payloadLen > maxPayload {
		return parsedRecord{}, recTorn
	}
	total := fixedHdrLen + keyLen + typeLen + payloadLen + crcLen
	if len(b) < total {
		return parsedRecord{}, recTorn
	}
	rec := parsedRecord{
		key:      string(b[fixedHdrLen : fixedHdrLen+keyLen]),
		typeName: string(b[fixedHdrLen+keyLen : fixedHdrLen+keyLen+typeLen]),
		payload:  b[fixedHdrLen+keyLen+typeLen : total-crcLen],
		stamp:    int64(binary.LittleEndian.Uint64(b[12:])),
		recLen:   int64(total),
	}
	if crc32.ChecksumIEEE(b[:total-crcLen]) != binary.LittleEndian.Uint32(b[total-crcLen:total]) {
		return rec, recBadCRC
	}
	return rec, recGood
}

// walkRecords scans buf (whose first byte sits at file offset base),
// invoking fn for every intact record and for the first checksum-failed
// record of each damaged region. A failed checksum vouches for nothing —
// least of all the record's own length fields — so the scan never advances
// by a corrupt record's claimed extent; it resynchronises on the next
// entry magic instead, which keeps every intact record after the damage
// reachable. It returns the file offset where a trailing unparseable
// region begins (base+len(buf) when the buffer ends at a record boundary)
// and the number of mid-buffer garbage bytes skipped.
func walkRecords(buf []byte, base int64, fn func(off int64, rec parsedRecord, st recStatus)) (tail, garbage int64) {
	off, garbageStart := 0, -1
	for off < len(buf) {
		rec, st := parseRecord(buf[off:])
		if st == recGood {
			if garbageStart >= 0 {
				garbage += int64(off - garbageStart)
				garbageStart = -1
			}
			fn(base+int64(off), rec, st)
			off += int(rec.recLen)
			continue
		}
		if garbageStart < 0 {
			garbageStart = off
			if st == recBadCRC {
				// The first failure of a region at a plausible record
				// boundary is the damaged record itself; report it once.
				fn(base+int64(off), rec, st)
			}
		}
		idx := bytes.Index(buf[off+1:], entryMagicBytes)
		if idx < 0 {
			break // unparseable through to the end: a torn tail
		}
		off += 1 + idx
	}
	if garbageStart >= 0 {
		return base + int64(garbageStart), garbage
	}
	return base + int64(len(buf)), garbage
}

// readEntry reads and re-verifies one record, returning its payload. The
// parsed record must be the very record the index promised — same key,
// same extent — not merely a valid record: after a compaction rewrites a
// segment, a stale offset can land on a different, perfectly well-formed
// record, and serving that one would cross result generations.
func readEntry(f *os.File, key string, ref entryRef) ([]byte, error) {
	buf := make([]byte, ref.recLen)
	if _, err := f.ReadAt(buf, ref.off); err != nil {
		return nil, err
	}
	rec, status := parseRecord(buf)
	if status != recGood || rec.key != key || rec.recLen != ref.recLen {
		return nil, fmt.Errorf("store: record at %d failed verification", ref.off)
	}
	return rec.payload, nil
}
