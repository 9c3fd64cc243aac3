package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"slices"

	"joinopt/internal/catalog"
	"joinopt/internal/fingerprint"
	"joinopt/internal/parallel"
	"joinopt/internal/plan"
	"joinopt/internal/plancache"
)

// File format
//
// Both the journal and the snapshot share one layout:
//
//	header:  magic[4] version[1] schema[1] reserved[2] crc32(prev 8)[4]
//	record*: length[4] crc32(payload)[4] payload[length]
//
// magic distinguishes the two files ("LJQJ" journal, "LJQS" snapshot),
// version is the container format version, schema is the fingerprint
// schema version (fingerprint.SchemaVersion) — plans keyed under a
// different canonicalization are meaningless, so a mismatch refuses the
// whole file rather than admitting plans under wrong keys.
//
// The record payload is a deterministic binary encoding of one cache
// entry. Floats are stored as IEEE-754 bit patterns, so a plan round-
// trips exactly and the daemon serves a byte-identical Explain after a
// restart. All integers are little-endian; counts are uvarints.
//
//	fingerprint[32]
//	budgetUsed[8]          (uint64 two's-complement of int64)
//	flags[1]               (bit0: degraded; bits1-2: planning tier)
//	reasonLen uvarint, reason bytes
//	totalCost[8]           (Float64bits)
//	crossCost[8]           (Float64bits)
//	ncomp uvarint
//	ncomp × { cost[8] (Float64bits); plen uvarint; plen × rel uvarint }
//
// Decoding is defensive: every length is bounds-checked against hard
// caps and against the bytes left in the record before allocation,
// trailing bytes are an error, the components together must hold each
// plan position 0..n−1 exactly once, and no input — truncated,
// bit-flipped, or adversarial — may panic (FuzzJournalReplay enforces
// this).

const (
	headerLen = 12
	frameLen  = 8 // length[4] + crc[4]

	formatVersion = 1

	// MaxRecordBytes caps one record's payload. A plan over the
	// catalog's relation limit encodes far below this; anything larger
	// in a length prefix is corruption, not data.
	MaxRecordBytes = 16 << 20

	// maxComponents / maxPermLen bound decoded allocations. They are
	// far above anything the optimizer produces (catalog queries top
	// out at hundreds of relations) while keeping a hostile length
	// prefix from allocating gigabytes.
	maxComponents = 1 << 16
	maxPermLen    = 1 << 20
	maxReasonLen  = 1 << 12

	// minPayloadLen is the shortest record payload: every fixed field,
	// an empty reason and zero components.
	minPayloadLen = fingerprint.Size + 8 + 1 + 1 + 8 + 8 + 1
)

var (
	magicJournal  = [4]byte{'L', 'J', 'Q', 'J'}
	magicSnapshot = [4]byte{'L', 'J', 'Q', 'S'}
)

// crcTable is the Castagnoli polynomial: hardware-accelerated on
// amd64/arm64, and the conventional choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrSchemaMismatch reports a journal or snapshot written under a
// different fingerprint schema or container format version. Recovery
// refuses such files loudly (cold start) instead of admitting plans
// under reinterpreted keys.
var ErrSchemaMismatch = errors.New("persist: file written under a different schema version")

// errCorrupt marks a record rejected during replay (bad CRC, bad
// framing, undecodable payload). It is internal: replay truncates at
// the first corrupt record rather than surfacing the error.
var errCorrupt = errors.New("persist: corrupt record")

// appendHeader appends the 12-byte file header for the given magic.
func appendHeader(dst []byte, magic [4]byte) []byte {
	at := len(dst)
	dst = append(dst, magic[:]...)
	// Two reserved bytes, zero.
	dst = append(dst, formatVersion, fingerprint.SchemaVersion, 0, 0)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[at:], crcTable))
}

// checkHeader validates a file's header. Returns:
//
//   - ok=true: header valid, payload starts at headerLen.
//   - ok=false, err=nil: the header is torn (file shorter than a full
//     header, or checksum failure on a correct magic) — the file is
//     treated as empty, which is the crash-mid-creation case.
//   - err != nil: the file is affirmatively not ours (magic mismatch)
//     or written under another schema — refuse loudly.
func checkHeader(data []byte, magic [4]byte) (ok bool, err error) {
	if len(data) == 0 {
		return false, nil
	}
	n := len(data)
	if n > headerLen {
		n = headerLen
	}
	// Compare however much magic we have: a torn header still starts
	// with our magic bytes; anything else is a foreign file.
	for i := 0; i < n && i < 4; i++ {
		if data[i] != magic[i] {
			return false, fmt.Errorf("persist: bad magic %q (not a plan-cache file)", data[:n])
		}
	}
	if len(data) < headerLen {
		return false, nil // torn header: crash while creating the file
	}
	if binary.LittleEndian.Uint32(data[8:12]) != crc32.Checksum(data[:8], crcTable) {
		return false, nil // torn header write
	}
	if data[4] != formatVersion || data[5] != fingerprint.SchemaVersion {
		return false, fmt.Errorf("%w: file has format=%d schema=%d, this binary speaks format=%d schema=%d",
			ErrSchemaMismatch, data[4], data[5], formatVersion, fingerprint.SchemaVersion)
	}
	return true, nil
}

// appendEntry appends one cache entry to dst as a framed record
// (length, crc, payload): the payload is written in place after a
// placeholder frame, whose length and checksum are filled in last.
func appendEntry(dst []byte, e *plancache.Entry) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, frameLen)...)
	pl := e.Plan
	dst = append(dst, e.Fingerprint[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(e.BudgetUsed))
	var flags byte
	if pl.Degraded {
		flags |= 1
	}
	// Planning tier rides in bits 1-2, stored verbatim: a zero Tier
	// stays zero so pre-tiering files round-trip byte-identically (no
	// format/schema version bump needed; decoders rank zero as full via
	// plancache.TierRank at the point of use).
	flags |= (e.Tier & 3) << 1
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(pl.DegradeReason)))
	dst = append(dst, pl.DegradeReason...)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pl.TotalCost))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(pl.CrossCost))
	dst = binary.AppendUvarint(dst, uint64(len(pl.Components)))
	for _, c := range pl.Components {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(c.Cost))
		dst = binary.AppendUvarint(dst, uint64(len(c.Perm)))
		for _, r := range c.Perm {
			dst = binary.AppendUvarint(dst, uint64(r))
		}
	}
	payload := dst[at+frameLen:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// recordLen returns the exact number of bytes appendEntry appends for
// e, frame included.
func recordLen(e *plancache.Entry) int {
	pl := e.Plan
	n := frameLen + fingerprint.Size + 8 + 1 +
		uvarintLen(uint64(len(pl.DegradeReason))) + len(pl.DegradeReason) +
		8 + 8 + uvarintLen(uint64(len(pl.Components)))
	for _, c := range pl.Components {
		n += 8 + uvarintLen(uint64(len(c.Perm)))
		for _, r := range c.Perm {
			n += uvarintLen(uint64(r))
		}
	}
	return n
}

// uvarintLen returns the length of v's uvarint encoding.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}

// decoder is a bounds-checked cursor over one record payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) bytes(n int) ([]byte, error) {
	if n < 0 || d.off+n > len(d.b) {
		return nil, errCorrupt
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out, nil
}

func (d *decoder) u64() (uint64, error) {
	b, err := d.bytes(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (d *decoder) uvarint(max uint64) (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || v > max {
		return 0, errCorrupt
	}
	d.off += n
	return v, nil
}

// count reads a length prefix of items that take at least minBytes each
// and refuses one the rest of the payload cannot hold, so a hostile
// prefix never sizes an allocation.
func (d *decoder) count(max uint64, minBytes int) (int, error) {
	n, err := d.uvarint(max)
	if err != nil {
		return 0, err
	}
	if n > uint64((len(d.b)-d.off)/minBytes) {
		return 0, errCorrupt
	}
	return int(n), nil
}

// decodedEntry is the storage of one decoded record: the entry, its
// plan and its first component share one allocation, since most plans
// have a single connected component. The permutations are cut from one
// further allocation.
type decodedEntry struct {
	entry plancache.Entry
	plan  plan.Plan
	comp  [1]plan.Result
}

// decodeEntry parses one record payload. It never panics; any
// malformed input returns errCorrupt, and so does a plan whose
// components do not hold each position 0..n−1 exactly once, which no
// planner produces and whose response would index past its shape.
func decodeEntry(payload []byte) (*plancache.Entry, error) {
	d := decoder{b: payload}
	fpb, err := d.bytes(fingerprint.Size)
	if err != nil {
		return nil, err
	}
	bu, err := d.u64()
	if err != nil {
		return nil, err
	}
	flagb, err := d.bytes(1)
	if err != nil {
		return nil, err
	}
	reasonLen, err := d.uvarint(maxReasonLen)
	if err != nil {
		return nil, err
	}
	reason, err := d.bytes(int(reasonLen))
	if err != nil {
		return nil, err
	}
	total, err := d.u64()
	if err != nil {
		return nil, err
	}
	cross, err := d.u64()
	if err != nil {
		return nil, err
	}
	// A component takes at least 9 bytes: cost[8] and a 1-byte length.
	ncomp, err := d.count(maxComponents, 9)
	if err != nil {
		return nil, err
	}
	rec := &decodedEntry{
		entry: plancache.Entry{BudgetUsed: int64(bu), Tier: (flagb[0] >> 1) & 3},
		plan: plan.Plan{
			TotalCost:     math.Float64frombits(total),
			CrossCost:     math.Float64frombits(cross),
			Degraded:      flagb[0]&1 != 0,
			DegradeReason: string(reason),
		},
	}
	copy(rec.entry.Fingerprint[:], fpb)
	rec.entry.Plan = &rec.plan
	switch {
	case ncomp == 1:
		rec.plan.Components = rec.comp[:]
	case ncomp > 1:
		rec.plan.Components = make([]plan.Result, ncomp)
	}
	// A relation takes at least one byte, so the bytes left after the
	// components' fixed parts bound the relations they can hold: every
	// permutation is cut from one array of that size, exact for plans
	// under 128 relations.
	var rels plan.Perm
	if room := len(payload) - d.off - 9*ncomp; room > 0 {
		rels = make(plan.Perm, 0, min(room, maxPermLen))
	}
	for i := range rec.plan.Components {
		costBits, err := d.u64()
		if err != nil {
			return nil, err
		}
		plen, err := d.count(maxPermLen, 1)
		if err != nil {
			return nil, err
		}
		if plen > cap(rels)-len(rels) {
			return nil, errCorrupt
		}
		start := len(rels)
		rels = rels[:start+plen]
		perm := rels[start:len(rels):len(rels)]
		for j := range perm {
			// Most positions are under 128: one byte, its own uvarint,
			// read inline so replay stays as fast as before the
			// position check below.
			if d.off < len(payload) && payload[d.off] < 0x80 {
				perm[j] = catalog.RelID(payload[d.off])
				d.off++
				continue
			}
			r, err := d.uvarint(math.MaxUint32)
			if err != nil {
				return nil, err
			}
			perm[j] = catalog.RelID(r)
		}
		rec.plan.Components[i] = plan.Result{Perm: perm, Cost: math.Float64frombits(costBits)}
	}
	if d.off != len(payload) {
		return nil, errCorrupt // trailing garbage: reject the record
	}
	if !isPermutation(rels) {
		return nil, errCorrupt
	}
	return &rec.entry, nil
}

// isPermutation reports whether perm holds each position
// 0..len(perm)−1 exactly once. It marks position v seen by
// complementing perm[v], which makes it negative, so it needs no memory
// of its own. On true every mark is cleared again; on false perm is
// left marked, for its decoder to discard.
func isPermutation(perm plan.Perm) bool {
	n := catalog.RelID(len(perm))
	for _, r := range perm {
		if r < 0 {
			r = ^r // an earlier position marked this slot
		}
		if r >= n || perm[r] < 0 {
			return false
		}
		perm[r] = ^perm[r]
	}
	// Each slot was marked exactly once.
	for i := range perm {
		perm[i] = ^perm[i]
	}
	return true
}

// replay decodes the framed records after a validated header and
// appends each record that passes its checksum and decodes cleanly to
// dst. It stops — truncating the rest — at the first torn or corrupt
// record. replay never fails: a damaged file yields the longest valid
// prefix, per the recovery contract. discarded counts
// affirmatively-corrupt records hit (0 or 1: replay stops at the
// first), and tornBytes counts every byte not consumed as a valid
// record.
//
// The frame headers are walked first, on the calling goroutine; then
// contiguous runs of frames are checksummed and decoded on
// parallel.Workers(frames) workers. The result is the one a single
// front-to-back pass gives: records past the first bad one are dropped
// whichever worker decoded them.
func replay(dst []*plancache.Entry, data []byte) (out []*plancache.Entry, discarded, tornBytes int) {
	return replayOn(dst, data, parallel.Workers)
}

// replayOn is replay with the worker count chosen by workers(frames).
func replayOn(dst []*plancache.Entry, data []byte, workers func(frames int) int) (out []*plancache.Entry, discarded, tornBytes int) {
	offs, discarded, tornBytes := scanFrames(data)
	n := len(offs)
	base := len(dst)
	out = slices.Grow(dst, n)[:base+n]
	w := workers(n)
	// firstBad[k] is the first frame of worker k's run that fails its
	// checksum or decode, or the run's end if none does.
	firstBad := make([]int, w)
	parallel.Do(w, func(k int) {
		lo, hi := k*n/w, (k+1)*n/w
		firstBad[k] = hi
		for i := lo; i < hi; i++ {
			e, err := decodeFrame(data, offs[i])
			if err != nil {
				firstBad[k] = i
				return
			}
			out[base+i] = e
		}
	})
	for k, bad := range firstBad {
		if bad < (k+1)*n/w {
			// Bytes past a corrupt record have no trustworthy framing.
			clear(out[base+bad:])
			return out[:base+bad], 1, len(data) - offs[bad]
		}
	}
	return out, discarded, tornBytes
}

// scanFrames walks the frame headers and returns the offset of every
// complete frame, in order. It reads only the lengths: a torn frame
// header or torn payload ends the walk with its bytes counted torn, and
// a length over MaxRecordBytes ends it as one discarded record, since
// everything from there on is untrustworthy.
func scanFrames(data []byte) (offs []int, discarded, tornBytes int) {
	// Every frame is at least a header and a minimal payload long.
	offs = make([]int, 0, len(data)/(frameLen+minPayloadLen))
	off := 0
	for {
		rest := len(data) - off
		if rest == 0 {
			return offs, 0, 0
		}
		if rest < frameLen {
			return offs, 0, rest // torn frame header
		}
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if length > MaxRecordBytes {
			return offs, 1, rest
		}
		if rest < frameLen+length {
			return offs, 0, rest // torn payload
		}
		offs = append(offs, off)
		off += frameLen + length
	}
}

// decodeFrame checksums and decodes the complete frame at off. A bad
// checksum and an undecodable payload (a foreign or future record
// kind) are both corruption: never admitted.
func decodeFrame(data []byte, off int) (*plancache.Entry, error) {
	length := int(binary.LittleEndian.Uint32(data[off : off+4]))
	payload := data[off+frameLen : off+frameLen+length]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return nil, errCorrupt
	}
	return decodeEntry(payload)
}
