package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Key-level deltas. A checkpoint of a large store should cost what changed
// since the previous checkpoint, not what the store holds, so a state
// machine that knows which keys it wrote (DeltaSnapshotter) hands the
// snapshot layer a KeyDelta instead of its whole encoding, and the full
// state is materialized from deltas only when someone needs it
// (MergeKeyDeltas).
//
// This works for states in the keyed layout:
//
//	state := header(KeyedHeaderLen) count(u32) entry* tail
//	entry := keyLen(u32) key valueLen(u32) value
//
// with entries in strictly ascending byte order of key and an opaque tail
// (kv.Store keeps its duplicate-suppression tables there). A delta carries
// the header, one record per written key — its new value, or its deletion
// — and the tail as an rsync delta (EncodeDelta) against the previous
// tail, so a tail that mostly survives between checkpoints costs only its
// new bytes.

// KeyedHeaderLen is the length of a keyed state's header (kv.Store's
// version magic).
const KeyedHeaderLen = 8

// KeyChange is one key's record in a KeyDelta.
type KeyChange struct {
	Key, Value string
	// Deleted marks a key that no longer exists (Value is unused).
	Deleted bool
}

// KeyDelta is the change of a keyed state between two checkpoints.
type KeyDelta struct {
	// Header is the new state's header, KeyedHeaderLen bytes.
	Header string
	// Full reports that Changes lists every key and TailDelta diffs
	// against an empty tail: the delta applies to the empty state.
	Full bool
	// Changes holds one record per key written since the previous
	// checkpoint, in strictly ascending key order.
	Changes []KeyChange
	// TailDelta is EncodeDelta(previous tail, new tail).
	TailDelta []byte
}

// DeltaSnapshotter is a Snapshotter that tracks the keys it writes, so
// that checkpoints encode only what changed. Its states are in the keyed
// layout, and for a state s and the delta d returned next,
// MergeKeyDeltas(s, AppendKeyDelta(nil, d)) equals SnapshotState().
type DeltaSnapshotter interface {
	Snapshotter
	// SnapshotDelta returns the changes since the previous SnapshotDelta
	// or RestoreState call and starts the next interval. The first call
	// on a state machine that was never restored returns a Full delta.
	SnapshotDelta() *KeyDelta
}

// Key-delta record ops.
const (
	keySet = 1
	keyDel = 2
)

// AppendKeyDelta appends the encoding of d to dst — the payload of a
// key-delta checkpoint link:
//
//	payload := header(KeyedHeaderLen) count(u32) record* tailDelta
//	record  := op(u8: 1 set, 2 delete) keyLen(u32) key [valueLen(u32) value]
func AppendKeyDelta(dst []byte, d *KeyDelta) []byte {
	dst = append(dst, d.Header...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(d.Changes)))
	for _, c := range d.Changes {
		if c.Deleted {
			dst = append(dst, keyDel)
			dst = appendLenString(dst, c.Key)
			continue
		}
		dst = append(dst, keySet)
		dst = appendLenString(dst, c.Key)
		dst = appendLenString(dst, c.Value)
	}
	return append(dst, d.TailDelta...)
}

func appendLenString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// keyRecord is one decoded key-delta record; key and value alias the
// payload.
type keyRecord struct {
	key, value []byte
	deleted    bool
}

// parsedDelta is a decoded key-delta payload.
type parsedDelta struct {
	header    []byte
	records   []keyRecord
	tailDelta []byte
}

func parseKeyDelta(p []byte) (parsedDelta, error) {
	var d parsedDelta
	if len(p) < KeyedHeaderLen+4 {
		return d, fmt.Errorf("%w: key delta of %d bytes", ErrMalformed, len(p))
	}
	d.header = p[:KeyedHeaderLen]
	n := binary.BigEndian.Uint32(p[KeyedHeaderLen:])
	rest := p[KeyedHeaderLen+4:]
	if uint64(n) > uint64(len(rest)/5) { // every record is at least 5 bytes
		return d, fmt.Errorf("%w: %d key records in %d bytes", ErrMalformed, n, len(rest))
	}
	d.records = make([]keyRecord, n)
	var ok bool
	for i := range d.records {
		r := &d.records[i]
		if len(rest) == 0 || (rest[0] != keySet && rest[0] != keyDel) {
			return d, fmt.Errorf("%w: bad key record %d", ErrMalformed, i)
		}
		r.deleted = rest[0] == keyDel
		if r.key, rest, ok = cutLenBytes(rest[1:]); !ok {
			return d, fmt.Errorf("%w: truncated key record %d", ErrMalformed, i)
		}
		if !r.deleted {
			if r.value, rest, ok = cutLenBytes(rest); !ok {
				return d, fmt.Errorf("%w: truncated key record %d", ErrMalformed, i)
			}
		}
		if i > 0 && bytes.Compare(d.records[i-1].key, r.key) >= 0 {
			return d, fmt.Errorf("%w: key records out of order at %d", ErrMalformed, i)
		}
	}
	d.tailDelta = rest
	return d, nil
}

// cutLenBytes splits a u32-length-prefixed byte string off b.
func cutLenBytes(b []byte) (s, rest []byte, ok bool) {
	if len(b) < 4 {
		return nil, nil, false
	}
	n := binary.BigEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, nil, false
	}
	return b[4 : 4+n], b[4+n:], true
}

// combineRecords merges two ascending record lists; on equal keys the
// newer record wins.
func combineRecords(older, newer []keyRecord) []keyRecord {
	out := make([]keyRecord, 0, len(older)+len(newer))
	i, j := 0, 0
	for i < len(older) && j < len(newer) {
		switch c := bytes.Compare(older[i].key, newer[j].key); {
		case c < 0:
			out = append(out, older[i])
			i++
		case c > 0:
			out = append(out, newer[j])
			j++
		default:
			out = append(out, newer[j])
			i++
			j++
		}
	}
	out = append(out, older[i:]...)
	return append(out, newer[j:]...)
}

// MergeKeyDeltas applies key-delta payloads, oldest first, to a keyed
// state and returns the resulting state. A nil base is the empty state.
// The base is walked once however many payloads are merged, so folding a
// run of deltas costs one pass over the state plus the deltas.
func MergeKeyDeltas(base []byte, payloads ...[]byte) ([]byte, error) {
	var records []keyRecord
	var header []byte
	tailDeltas := make([][]byte, 0, len(payloads))
	for _, p := range payloads {
		d, err := parseKeyDelta(p)
		if err != nil {
			return nil, err
		}
		records = combineRecords(records, d.records)
		header = d.header
		tailDeltas = append(tailDeltas, d.tailDelta)
	}
	if header == nil {
		return append([]byte(nil), base...), nil
	}

	var entries []byte // the base's entries and tail
	var baseCount uint32
	if len(base) > 0 {
		if len(base) < KeyedHeaderLen+4 {
			return nil, fmt.Errorf("%w: keyed state of %d bytes", ErrMalformed, len(base))
		}
		baseCount = binary.BigEndian.Uint32(base[KeyedHeaderLen:])
		entries = base[KeyedHeaderLen+4:]
	}

	out := make([]byte, 0, len(base)+len(payloads[len(payloads)-1]))
	out = append(out, header...)
	countAt := len(out)
	out = append(out, 0, 0, 0, 0)
	count := uint32(0)
	// Unchanged base entries are copied in bulk: run marks the first one
	// not yet copied, and place flushes the run up to a record's position
	// before writing the record.
	run, pos, next := 0, 0, 0
	place := func(at int) {
		out = append(out, entries[run:at]...)
		run = at
		if r := records[next]; !r.deleted {
			out = binary.BigEndian.AppendUint32(out, uint32(len(r.key)))
			out = append(out, r.key...)
			out = binary.BigEndian.AppendUint32(out, uint32(len(r.value)))
			out = append(out, r.value...)
			count++
		}
		next++
	}
	for i := uint32(0); i < baseCount; i++ {
		key, rest, ok := cutLenBytes(entries[pos:])
		if ok {
			_, rest, ok = cutLenBytes(rest)
		}
		if !ok {
			return nil, fmt.Errorf("%w: truncated keyed state entry %d", ErrMalformed, i)
		}
		end := len(entries) - len(rest)
		for next < len(records) && bytes.Compare(records[next].key, key) < 0 {
			place(pos)
		}
		if next < len(records) && bytes.Equal(records[next].key, key) {
			place(pos)
			run = end // the record replaces this entry
		} else {
			count++
		}
		pos = end
	}
	for next < len(records) {
		place(pos)
	}
	out = append(out, entries[run:pos]...)
	binary.BigEndian.PutUint32(out[countAt:], count)

	tail := entries[pos:]
	for _, td := range tailDeltas {
		var err error
		if tail, err = ApplyDelta(tail, td); err != nil {
			return nil, err
		}
	}
	out = append(out, tail...)
	if len(out) > MaxStateBytes {
		return nil, fmt.Errorf("%w: merged state of %d bytes", ErrTooLarge, len(out))
	}
	return out, nil
}
