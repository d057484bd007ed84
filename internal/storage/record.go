package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Disk-segment record layout. Every record is a fixed header followed by the
// key bytes and the payload bytes:
//
//	magic   u32  "CSG1"
//	type    u8   recData | recDead | recRemote
//	keyLen  u16
//	dataLen u32
//	epoch   i64  time-step tag driving the prefetcher (-1 = untagged)
//	paySum  u64  scrub.Checksum of the payload (CRC-32 IEEE high, CRC-32C low)
//	hdrCRC  u32  CRC32 (IEEE) of the preceding 27 header bytes
//
// The two checksums split failure modes: a bad header means the log ends
// here (torn tail — everything after an interrupted append is garbage), a
// bad payload under a good header means localized rot, so the record is
// quarantined and the scan continues with the next one.
const (
	recMagic   = 0x43534731 // "CSG1"
	headerSize = 31

	// recData carries a live payload for its key.
	recData = byte(1)
	// recDead is a tombstone: the key's earlier records are dead. Written
	// on delete and on in-memory overwrite of a disk- or remote-backed key
	// so a crash-restart cannot resurrect the superseded value.
	recDead = byte(2)
	// recRemote is a manifest: the key's payload lives in the remote store;
	// the 16-byte payload is the remote object's checksum and size.
	recRemote = byte(3)

	// maxKeyLen and maxDataLen bound what a scan will believe. Headers
	// claiming more are treated as corruption, never allocated or read.
	maxKeyLen  = 4096
	maxDataLen = 1 << 30

	manifestSize = 16
)

var (
	errShortHeader = errors.New("storage: short record header")
	errBadMagic    = errors.New("storage: bad record magic")
	errBadHeader   = errors.New("storage: record header CRC mismatch")
	errBadLength   = errors.New("storage: record length out of range")
	errBadPayload  = errors.New("storage: record payload checksum mismatch")
	errSegGone     = errors.New("storage: segment dropped")
)

type recordHeader struct {
	typ     byte
	keyLen  int
	dataLen int
	epoch   int64
	paySum  uint64
}

// recordLen returns the full on-disk length of the record this header
// describes.
func (h recordHeader) recordLen() int64 {
	return headerSize + int64(h.keyLen) + int64(h.dataLen)
}

// encodeHeader serializes h into a fresh headerSize-byte slice.
func encodeHeader(h recordHeader) []byte {
	b := make([]byte, headerSize)
	binary.BigEndian.PutUint32(b[0:], recMagic)
	b[4] = h.typ
	binary.BigEndian.PutUint16(b[5:], uint16(h.keyLen))
	binary.BigEndian.PutUint32(b[7:], uint32(h.dataLen))
	binary.BigEndian.PutUint64(b[11:], uint64(h.epoch))
	binary.BigEndian.PutUint64(b[19:], h.paySum)
	binary.BigEndian.PutUint32(b[27:], crc32.ChecksumIEEE(b[:27]))
	return b
}

// decodeHeader parses and validates a record header. It never reads past
// headerSize bytes and never trusts a length field before the header CRC
// and range checks pass, so corrupt input can neither panic nor cause an
// oversized allocation.
func decodeHeader(b []byte) (recordHeader, error) {
	if len(b) < headerSize {
		return recordHeader{}, errShortHeader
	}
	if binary.BigEndian.Uint32(b[0:]) != recMagic {
		return recordHeader{}, errBadMagic
	}
	if binary.BigEndian.Uint32(b[27:]) != crc32.ChecksumIEEE(b[:27]) {
		return recordHeader{}, errBadHeader
	}
	h := recordHeader{
		typ:     b[4],
		keyLen:  int(binary.BigEndian.Uint16(b[5:])),
		dataLen: int(binary.BigEndian.Uint32(b[7:])),
		epoch:   int64(binary.BigEndian.Uint64(b[11:])),
		paySum:  binary.BigEndian.Uint64(b[19:]),
	}
	if h.keyLen == 0 || h.keyLen > maxKeyLen || h.dataLen > maxDataLen {
		return recordHeader{}, errBadLength
	}
	switch h.typ {
	case recData, recDead, recRemote:
	default:
		return recordHeader{}, errBadHeader
	}
	return h, nil
}

// encodeManifest packs a remote manifest payload (checksum + object size).
func encodeManifest(sum uint64, size int64) []byte {
	b := make([]byte, manifestSize)
	binary.BigEndian.PutUint64(b[0:], sum)
	binary.BigEndian.PutUint64(b[8:], uint64(size))
	return b
}

// decodeManifest unpacks a remote manifest payload. A negative size can
// only come from corruption that slipped past the checksums, so it is
// rejected here rather than poisoning the byte accounting.
func decodeManifest(b []byte) (sum uint64, size int64, ok bool) {
	if len(b) != manifestSize {
		return 0, 0, false
	}
	size = int64(binary.BigEndian.Uint64(b[8:]))
	if size < 0 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(b[0:]), size, true
}
