// Package store is the durability layer: an append-only, CRC-framed journal
// with periodic compacted snapshots and crash-safe recovery. The extraction
// service persists cache entries through it, the fleet manager persists
// per-device calibration state and its event log, and internal/trace borrows
// the frame codec for probe-trace files.
//
// On disk a store directory holds two files in the same format:
//
//	journal.snap   the last compacted snapshot (written atomically via rename)
//	journal.log    records appended since that snapshot
//
// Both start with a 4-byte magic and a little-endian uint32 format version,
// followed by frames of [uint32 length | uint32 CRC-32C | payload]. A record
// payload is [1 byte kind | uvarint key length | key | data]; a batch
// (Store.PutBatch) is one such record whose data holds several
// length-prefixed record payloads under the frame's single CRC. Recovery
// truncates a torn tail — a partial or CRC-failing trailing frame, the
// signature of a crash mid-append — instead of failing, so a restarted
// daemon always loads the longest clean prefix, and a batch loads whole or
// not at all.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// FormatVersion is the on-disk format version of every file this repository
// persists — the journal snapshot, the journal log and probe-trace files all
// stamp and check this one constant.
const FormatVersion = 1

// File magics. Both file kinds share the frame codec and FormatVersion.
const (
	JournalMagic = "FVGJ" // journal.snap and journal.log
	TraceMagic   = "FVGT" // probe-trace files (internal/trace)
)

// fileHeaderLen is magic (4) + version (uint32).
const fileHeaderLen = 8

// frameHeaderLen is length (uint32) + CRC (uint32).
const frameHeaderLen = 8

// MaxFramePayload bounds a single frame so a corrupt length field can never
// drive a huge allocation.
const MaxFramePayload = 1 << 26

// ErrTorn marks a partial or corrupt trailing region: the expected outcome
// of a crash mid-append. Loaders recover by truncating to the last clean
// frame.
var ErrTorn = errors.New("store: torn frame")

// ErrFormat marks a file that is not a clean prefix of a valid file — wrong
// magic or an unsupported version. Unlike ErrTorn this is never produced by
// truncating a valid file (beyond the header), so it is not recovered from.
var ErrFormat = errors.New("store: bad file format")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFileHeader appends the magic + FormatVersion header to buf.
func AppendFileHeader(buf []byte, magic string) []byte {
	buf = append(buf, magic...)
	return binary.LittleEndian.AppendUint32(buf, FormatVersion)
}

// CheckFileHeader validates the header and returns the remaining bytes.
// A file shorter than the header is torn (ErrTorn); a full-length header
// with the wrong magic or version is ErrFormat.
func CheckFileHeader(b []byte, magic string) ([]byte, error) {
	if len(b) < fileHeaderLen {
		return nil, fmt.Errorf("%w: %d-byte header", ErrTorn, len(b))
	}
	if string(b[:4]) != magic {
		return nil, fmt.Errorf("%w: magic %q, want %q", ErrFormat, b[:4], magic)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != FormatVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrFormat, v, FormatVersion)
	}
	return b[fileHeaderLen:], nil
}

// AppendFrame appends one CRC frame carrying payload to buf.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// sealFrame completes a frame encoded in place — a frameHeaderLen
// placeholder followed by the payload — by filling in its header.
func sealFrame(frame []byte) {
	payload := frame[frameHeaderLen:]
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
}

// NextFrame decodes the first frame of b, returning its payload and the
// remaining bytes. An empty b is the clean end of the file (payload nil,
// err nil). A partial frame, an oversized length or a CRC mismatch return
// ErrTorn; the caller decides whether that is recoverable (a log tail) or
// fatal.
func NextFrame(b []byte) (payload, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, nil
	}
	if len(b) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d-byte frame header", ErrTorn, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxFramePayload {
		return nil, nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrTorn, n)
	}
	if len(b) < frameHeaderLen+int(n) {
		return nil, nil, fmt.Errorf("%w: %d of %d payload bytes", ErrTorn, len(b)-frameHeaderLen, n)
	}
	payload = b[frameHeaderLen : frameHeaderLen+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, nil, fmt.Errorf("%w: CRC mismatch", ErrTorn)
	}
	return payload, b[frameHeaderLen+int(n):], nil
}

// ReadFileHeader reads and validates the magic + version header from r —
// the streaming counterpart of CheckFileHeader, for readers that must not
// load a whole file (trace sample iteration).
func ReadFileHeader(r io.Reader, magic string) error {
	var hdr [fileHeaderLen]byte
	n, err := io.ReadFull(r, hdr[:])
	if err != nil {
		return fmt.Errorf("%w: %d-byte header", ErrTorn, n)
	}
	_, err = CheckFileHeader(hdr[:], magic)
	return err
}

// ReadFrame reads and verifies one frame from r — the streaming counterpart
// of NextFrame. A clean end of stream returns (nil, nil); a partial frame,
// an oversized length or a CRC mismatch return ErrTorn.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: frame header: %v", ErrTorn, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFramePayload {
		return nil, fmt.Errorf("%w: frame length %d exceeds limit", ErrTorn, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: frame payload: %v", ErrTorn, err)
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrTorn)
	}
	return payload, nil
}

// appendRecordPayload encodes a record as a frame payload.
func appendRecordPayload(buf []byte, rec Record) []byte {
	buf = append(buf, byte(rec.Kind))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Key)))
	buf = append(buf, rec.Key...)
	return append(buf, rec.Data...)
}

// decodeRecordPayload is the inverse of appendRecordPayload. The returned
// record aliases p.
func decodeRecordPayload(p []byte) (Record, error) {
	if len(p) < 1 {
		return Record{}, fmt.Errorf("%w: empty record", ErrTorn)
	}
	kind := Kind(p[0])
	keyLen, n := binary.Uvarint(p[1:])
	if n <= 0 || keyLen > uint64(len(p)-1-n) {
		return Record{}, fmt.Errorf("%w: record key length", ErrTorn)
	}
	body := p[1+n:]
	return Record{Kind: kind, Key: string(body[:keyLen]), Data: body[keyLen:]}, nil
}

// appendBatchPayload encodes recs as one kindBatch record payload: an
// empty key, then each member as a uvarint length and its record payload.
func appendBatchPayload(buf []byte, recs []Record) []byte {
	buf = append(buf, byte(kindBatch), 0)
	var tmp [binary.MaxVarintLen64]byte
	for _, rec := range recs {
		n := 1 + binary.PutUvarint(tmp[:], uint64(len(rec.Key))) + len(rec.Key) + len(rec.Data)
		buf = binary.AppendUvarint(buf, uint64(n))
		buf = appendRecordPayload(buf, rec)
	}
	return buf
}

// decodeBatch splits a kindBatch record's data into its members. A member
// that does not decode, or one of the store's internal kinds, makes the
// whole batch corrupt. The returned records alias data.
func decodeBatch(data []byte) ([]Record, error) {
	var recs []Record
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 || n > uint64(len(data)-k) {
			return nil, fmt.Errorf("%w: batch member length", ErrTorn)
		}
		rec, err := decodeRecordPayload(data[k : k+int(n)])
		if err != nil {
			return nil, err
		}
		if rec.Kind.internal() {
			return nil, fmt.Errorf("%w: batch member of internal kind %d", ErrTorn, rec.Kind)
		}
		recs = append(recs, rec)
		data = data[k+int(n):]
	}
	return recs, nil
}
