package persist

import (
	"errors"
	"fmt"

	"joinopt/internal/plancache"
)

// Snapshot shipping: the wire form of a plan-cache snapshot, used by
// the cluster's warm-start protocol (GET /snapshot → bulk cache load
// on a joining or recovering peer).
//
// The bytes are exactly the on-disk snapshot container (12-byte
// schema-versioned header + CRC-framed records), so a peer's /snapshot
// response and its plans.snap file are interchangeable. What differs
// is the *decode policy*: disk recovery (replay) is torn-tolerant —
// a crash legitimately truncates the tail, and the longest valid
// prefix is the right answer — but a network transfer has no such
// excuse. A snapshot that arrives torn means the donor died mid-send
// or the stream was mangled; warming a half cache and calling the peer
// ready would silently serve a cold shard. DecodeSnapshotStrict
// therefore refuses the whole payload on any defect, and the
// warm-start layer moves on to the next donor.

// ErrTruncatedSnapshot reports a shipped snapshot that ended
// mid-record or carried a corrupt frame: the transfer is unusable as a
// whole (strict decode — no prefix salvage on the wire).
var ErrTruncatedSnapshot = errors.New("persist: truncated or corrupt shipped snapshot")

// EncodeSnapshot renders entries in the snapshot container format:
// the bytes Store.Snapshot writes to disk and the /snapshot wire
// payload alike. Nil entries and entries without plans are skipped.
func EncodeSnapshot(entries []*plancache.Entry) []byte {
	size := headerLen
	for _, e := range entries {
		if e != nil && e.Plan != nil {
			size += recordLen(e)
		}
	}
	buf := appendHeader(make([]byte, 0, size), magicSnapshot)
	for _, e := range entries {
		if e != nil && e.Plan != nil {
			buf = appendEntry(buf, e)
		}
	}
	return buf
}

// DecodeSnapshotStrict parses a shipped snapshot payload. Unlike disk
// recovery it accepts no damage at all:
//
//   - a short, torn or foreign header is an error (ErrTruncatedSnapshot
//     or the header's own magic error);
//   - a schema or container-version mismatch is ErrSchemaMismatch —
//     plans fingerprinted under another canonicalization must never be
//     warmed in;
//   - any torn frame, bad checksum or undecodable record rejects the
//     whole payload with ErrTruncatedSnapshot.
//
// On success every record is returned in stream order.
func DecodeSnapshotStrict(data []byte) ([]*plancache.Entry, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the %d-byte header", ErrTruncatedSnapshot, len(data), headerLen)
	}
	ok, err := checkHeader(data, magicSnapshot)
	if err != nil {
		return nil, err // foreign magic or ErrSchemaMismatch, already loud
	}
	if !ok {
		return nil, fmt.Errorf("%w: header checksum invalid", ErrTruncatedSnapshot)
	}
	entries, discarded, torn := replay(nil, data[headerLen:])
	if discarded > 0 || torn > 0 {
		return nil, fmt.Errorf("%w: %d valid records, then %d corrupt and %d torn bytes",
			ErrTruncatedSnapshot, len(entries), discarded, torn)
	}
	return entries, nil
}
