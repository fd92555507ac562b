package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// Incremental checkpoints: a large state machine should not pay a full
// re-encode (and a full disk write, and a full transfer) every interval when
// only a sliver of it changed. A Checkpoint is therefore one link of a
// chain: a full state encoding, or a delta against the previous link's
// state, with a periodic full link bounding every recovery chain and a
// chain digest binding each link to its whole ancestry, so a corrupted or
// substituted link is detected before it can poison a restore.
//
// Two delta formats exist, told apart by the link's magic version:
//
//   - GCCKPT2 key-delta links (KeyDeltaCheckpoint) are what checkpoints
//     write: the keys written since the previous link (see keyed.go), so
//     a link costs what changed, not what the store holds. The chain
//     digest covers the link's payload, so building a link never hashes
//     the whole state.
//   - GCCKPT1 byte-diff links (DeltaCheckpoint) are an rsync-shaped binary
//     diff between two whole state encodings, with a chain digest over
//     each reconstructed state. IncrementalEncoder produces them from full
//     snapshots; stores only read them, so data directories written before
//     key deltas still load.
//
// Full links keep the GCCKPT1 encoding, byte for byte.
//
// The byte-diff codec: the base is cut into fixed-size blocks indexed by a
// rolling hash, the target is scanned with the same rolling hash, and
// matches become COPY ops (extended greedily in both value and length)
// while unmatched bytes become literals. A key-sorted state perturbed in a
// few keys re-synchronizes right after each change.

// CheckpointKind discriminates full checkpoints from deltas.
type CheckpointKind uint8

// Checkpoint kinds.
const (
	// FullCheckpoint carries the complete state encoding.
	FullCheckpoint CheckpointKind = 1
	// DeltaCheckpoint carries a byte diff against the previous
	// checkpoint's state (identified by BaseInstance).
	DeltaCheckpoint CheckpointKind = 2
	// KeyDeltaCheckpoint carries an AppendKeyDelta payload against the
	// previous checkpoint's state (identified by BaseInstance).
	KeyDeltaCheckpoint CheckpointKind = 3
)

// Checkpoint is one link of an incremental checkpoint chain.
type Checkpoint struct {
	// Kind says whether Payload is a full state or a delta.
	Kind CheckpointKind
	// LastInstance / LogIndex mirror Snapshot: the consensus watermark and
	// global log index this checkpoint covers.
	LastInstance uint64
	LogIndex     uint64
	// BaseInstance is the LastInstance of the checkpoint the delta was
	// computed against (zero for full checkpoints).
	BaseInstance uint64
	// Chain is the chain digest through this checkpoint:
	// sha256(chainTag ‖ Digest(snapshot)) for a full checkpoint,
	// sha256(prevChain ‖ Digest(snapshot)) for a byte-diff delta, and
	// sha256(prevChain ‖ the link) for a key delta (KeyDeltaLink). A
	// decoder that tracks the chain verifies every link against it.
	Chain [32]byte
	// Payload is the full state encoding or the delta bytes.
	Payload []byte
}

// Checkpoint magics: the version selects the delta format and chain rule.
const (
	ckptMagic   = "GCCKPT1\n" // full and byte-diff links
	ckptMagicV2 = "GCCKPT2\n" // key-delta links
)

// chainTag seeds the chain digest at every full checkpoint, domain-separating
// it from raw snapshot digests; keyChainTag separates key-delta link digests.
const (
	chainTag    = "genconsensus/chain/full\n"
	keyChainTag = "genconsensus/chain/keydelta\n"
)

// MaxDeltaBytes bounds the payload a checkpoint decoder accepts: a delta is
// at worst the whole target as one literal plus framing, so anything past
// MaxStateBytes plus slack is hostile.
const MaxDeltaBytes = MaxStateBytes + 4096

// AppendCheckpoint appends the deterministic serialization of c to dst and
// returns the extended slice (the repo-wide append codec convention):
//
//	enc := magic kind(u8) lastInstance(u64) logIndex(u64) baseInstance(u64)
//	       chain(32) payloadLen(u32) payload
//
// where magic is GCCKPT2 for key-delta links and GCCKPT1 otherwise.
func AppendCheckpoint(dst []byte, c *Checkpoint) []byte {
	return append(AppendCheckpointHeader(dst, c), c.Payload...)
}

// AppendCheckpointHeader appends AppendCheckpoint's encoding of c up to,
// not including, the payload — for writers that hand the payload to the
// medium without copying it.
func AppendCheckpointHeader(dst []byte, c *Checkpoint) []byte {
	if c.Kind == KeyDeltaCheckpoint {
		dst = append(dst, ckptMagicV2...)
	} else {
		dst = append(dst, ckptMagic...)
	}
	dst = append(dst, byte(c.Kind))
	dst = binary.BigEndian.AppendUint64(dst, c.LastInstance)
	dst = binary.BigEndian.AppendUint64(dst, c.LogIndex)
	dst = binary.BigEndian.AppendUint64(dst, c.BaseInstance)
	dst = append(dst, c.Chain[:]...)
	return binary.BigEndian.AppendUint32(dst, uint32(len(c.Payload)))
}

// EncodeCheckpoint serializes a checkpoint into a fresh buffer.
//
// Deprecated: use AppendCheckpoint to reuse a caller-owned buffer.
func EncodeCheckpoint(c *Checkpoint) []byte {
	return AppendCheckpoint(make([]byte, 0, len(ckptMagic)+61+len(c.Payload)), c)
}

// DecodeCheckpoint parses an EncodeCheckpoint result, rejecting truncated,
// oversized, trailing-byte or unknown-kind encodings, and kinds the magic
// version does not carry.
func DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	header := len(ckptMagic) + 61
	if len(data) < header {
		return nil, fmt.Errorf("%w: %d checkpoint bytes", ErrMalformed, len(data))
	}
	rest := data[len(ckptMagic):]
	c := &Checkpoint{Kind: CheckpointKind(rest[0])}
	switch string(data[:len(ckptMagic)]) {
	case ckptMagic:
		if c.Kind != FullCheckpoint && c.Kind != DeltaCheckpoint {
			return nil, fmt.Errorf("%w: checkpoint kind %d", ErrMalformed, c.Kind)
		}
	case ckptMagicV2:
		if c.Kind != KeyDeltaCheckpoint {
			return nil, fmt.Errorf("%w: checkpoint kind %d", ErrMalformed, c.Kind)
		}
	default:
		return nil, fmt.Errorf("%w: bad checkpoint magic", ErrMalformed)
	}
	c.LastInstance = binary.BigEndian.Uint64(rest[1:9])
	c.LogIndex = binary.BigEndian.Uint64(rest[9:17])
	c.BaseInstance = binary.BigEndian.Uint64(rest[17:25])
	copy(c.Chain[:], rest[25:57])
	payloadLen := binary.BigEndian.Uint32(rest[57:61])
	if payloadLen > MaxDeltaBytes {
		return nil, fmt.Errorf("%w: %d payload bytes", ErrTooLarge, payloadLen)
	}
	rest = rest[61:]
	if len(rest) != int(payloadLen) {
		return nil, fmt.Errorf("%w: payload length %d, have %d", ErrMalformed, payloadLen, len(rest))
	}
	c.Payload = append([]byte(nil), rest...)
	return c, nil
}

// chainAfter computes the chain digest for snap given the previous link
// (zero prev with full=true starts a fresh chain).
func chainAfter(prev [32]byte, snap *Snapshot, full bool) [32]byte {
	return chainAfterDigest(prev, Digest(snap), full)
}

func chainAfterDigest(prev, d [32]byte, full bool) [32]byte {
	h := sha256.New()
	if full {
		h.Write([]byte(chainTag))
	} else {
		h.Write(prev[:])
	}
	h.Write(d[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// keyDeltaChain is the chain digest of key-delta link c after a link whose
// chain digest is prev: sha256(prev ‖ tag ‖ lastInstance ‖ logIndex ‖
// baseInstance ‖ payload). It covers the link, not the state it yields, so
// it costs a hash of the payload only.
func keyDeltaChain(prev [32]byte, c *Checkpoint) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write([]byte(keyChainTag))
	var hdr [24]byte
	binary.BigEndian.PutUint64(hdr[0:], c.LastInstance)
	binary.BigEndian.PutUint64(hdr[8:], c.LogIndex)
	binary.BigEndian.PutUint64(hdr[16:], c.BaseInstance)
	h.Write(hdr[:])
	h.Write(c.Payload)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// FullLink returns the full link for snap, which starts a new chain, and
// snap's Digest, which the link's chain digest is built on. The link's
// payload aliases snap.State.
func FullLink(snap *Snapshot) (*Checkpoint, [32]byte) {
	d := Digest(snap)
	return &Checkpoint{
		Kind:         FullCheckpoint,
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
		Chain:        chainAfterDigest([32]byte{}, d, true),
		Payload:      snap.State,
	}, d
}

// KeyDeltaLink returns the key-delta link carrying payload (an
// AppendKeyDelta encoding) that extends the chain whose newest link is
// prev.
func KeyDeltaLink(prev *Checkpoint, lastInstance, logIndex uint64, payload []byte) *Checkpoint {
	c := &Checkpoint{
		Kind:         KeyDeltaCheckpoint,
		LastInstance: lastInstance,
		LogIndex:     logIndex,
		BaseInstance: prev.LastInstance,
		Payload:      payload,
	}
	c.Chain = keyDeltaChain(prev.Chain, c)
	return c
}

// IncrementalEncoder turns a stream of full snapshots into a byte-diff
// checkpoint chain: every FullEvery-th checkpoint is full, the rest are
// deltas against their immediate predecessor. The zero value (or
// FullEvery ≤ 1) emits only full checkpoints. It diffs whole states, so
// every link costs a pass over the state; checkpoints on the commit path
// use key-delta links instead. Not safe for concurrent use.
type IncrementalEncoder struct {
	// FullEvery is the full-snapshot period: 4 means full, delta, delta,
	// delta, full, … Values ≤ 1 disable deltas.
	FullEvery int

	count int
	base  *Snapshot
	chain [32]byte
}

// Encode emits the next link of the chain for snap.
func (e *IncrementalEncoder) Encode(snap *Snapshot) *Checkpoint {
	full := e.base == nil || e.FullEvery <= 1 || e.count%e.FullEvery == 0
	c := &Checkpoint{
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
	}
	if full {
		c.Kind = FullCheckpoint
		c.Payload = append([]byte(nil), snap.State...)
	} else {
		c.Kind = DeltaCheckpoint
		c.BaseInstance = e.base.LastInstance
		c.Payload = EncodeDelta(e.base.State, snap.State)
	}
	e.chain = chainAfter(e.chain, snap, full)
	c.Chain = e.chain
	e.base = &Snapshot{
		LastInstance: snap.LastInstance,
		LogIndex:     snap.LogIndex,
		State:        append([]byte(nil), snap.State...),
	}
	e.count++
	return c
}

// Errors returned by the incremental decoder.
var (
	// ErrChainBroken reports a checkpoint whose chain digest does not match
	// the reconstructed state's ancestry — corruption, truncation or
	// substitution somewhere in the chain.
	ErrChainBroken = fmt.Errorf("snapshot: checkpoint chain digest mismatch")
	// ErrNoBase reports a delta checkpoint applied without its base.
	ErrNoBase = fmt.Errorf("snapshot: delta checkpoint without its base")
)

// IncrementalDecoder replays a checkpoint chain back into snapshots,
// verifying every link's chain digest. Apply a full checkpoint first, then
// each delta in order; byte-diff and key-delta links may both follow a
// full link. Not safe for concurrent use.
type IncrementalDecoder struct {
	snap  *Snapshot
	chain [32]byte
}

// Apply reconstructs the snapshot a checkpoint stands for and advances the
// chain. Full checkpoints restart the chain; deltas require the immediately
// preceding checkpoint to have been applied.
func (d *IncrementalDecoder) Apply(c *Checkpoint) (*Snapshot, error) {
	if c.Kind != FullCheckpoint {
		if d.snap == nil {
			return nil, ErrNoBase
		}
		if d.snap.LastInstance != c.BaseInstance {
			return nil, fmt.Errorf("%w: delta bases on instance %d, have %d",
				ErrNoBase, c.BaseInstance, d.snap.LastInstance)
		}
	}
	var state []byte
	var err error
	switch c.Kind {
	case FullCheckpoint:
		state = append([]byte(nil), c.Payload...)
	case DeltaCheckpoint:
		state, err = ApplyDelta(d.snap.State, c.Payload)
	case KeyDeltaCheckpoint:
		// The chain covers the payload: check it before parsing.
		if keyDeltaChain(d.chain, c) != c.Chain {
			return nil, fmt.Errorf("%w: instance %d", ErrChainBroken, c.LastInstance)
		}
		state, err = MergeKeyDeltas(d.snap.State, c.Payload)
	default:
		return nil, fmt.Errorf("%w: checkpoint kind %d", ErrMalformed, c.Kind)
	}
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{LastInstance: c.LastInstance, LogIndex: c.LogIndex, State: state}
	if c.Kind != KeyDeltaCheckpoint && chainAfter(d.chain, snap, c.Kind == FullCheckpoint) != c.Chain {
		return nil, fmt.Errorf("%w: instance %d", ErrChainBroken, c.LastInstance)
	}
	d.snap = snap
	d.chain = c.Chain
	return snap, nil
}

// Delta codec: magic, base/target lengths (sanity against applying a delta
// to the wrong base), then COPY/LIT ops.
const (
	deltaMagic = "GCDIFF1\n"
	opCopy     = 0x01
	opLiteral  = 0x02

	// deltaBlock is the rolling-hash block size: small enough that a single
	// mutated value costs at most a few blocks of literals, large enough
	// that the block index and op framing stay cheap.
	deltaBlock = 64
)

// rollPrime drives the polynomial rolling hash.
const rollPrime = 16777619

// rollPow is rollPrime^(deltaBlock-1) mod 2^32, precomputed for rolling out
// the leading byte.
var rollPow = func() uint32 {
	p := uint32(1)
	for i := 0; i < deltaBlock-1; i++ {
		p *= rollPrime
	}
	return p
}()

// rollHash hashes one full block.
func rollHash(b []byte) uint32 {
	var h uint32
	for _, c := range b {
		h = h*rollPrime + uint32(c)
	}
	return h
}

// EncodeDelta computes a binary delta such that
// ApplyDelta(base, EncodeDelta(base, target)) == target. Worst case (nothing
// matches) the delta is the target plus a few bytes of framing.
func EncodeDelta(base, target []byte) []byte {
	buf := make([]byte, 0, len(deltaMagic)+16+len(target)/8)
	buf = append(buf, deltaMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(base)))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(target)))

	// Index the base's aligned blocks by weak hash.
	index := make(map[uint32][]int, len(base)/deltaBlock+1)
	for off := 0; off+deltaBlock <= len(base); off += deltaBlock {
		h := rollHash(base[off : off+deltaBlock])
		index[h] = append(index[h], off)
	}

	emitLiteral := func(lit []byte) []byte {
		if len(lit) > 0 {
			buf = append(buf, opLiteral)
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(lit)))
			buf = append(buf, lit...)
		}
		return buf
	}

	litStart := 0
	i := 0
	var h uint32
	hashed := false
	for i+deltaBlock <= len(target) {
		if !hashed {
			h = rollHash(target[i : i+deltaBlock])
			hashed = true
		}
		matched := false
		for _, off := range index[h] {
			if !bytes.Equal(base[off:off+deltaBlock], target[i:i+deltaBlock]) {
				continue
			}
			// Extend the match greedily past the block.
			length := deltaBlock
			for off+length < len(base) && i+length < len(target) &&
				base[off+length] == target[i+length] {
				length++
			}
			buf = emitLiteral(target[litStart:i])
			buf = append(buf, opCopy)
			buf = binary.BigEndian.AppendUint32(buf, uint32(off))
			buf = binary.BigEndian.AppendUint32(buf, uint32(length))
			i += length
			litStart = i
			hashed = false
			matched = true
			break
		}
		if !matched {
			// Roll the hash one byte forward.
			if i+deltaBlock < len(target) {
				h = (h-uint32(target[i])*rollPow)*rollPrime + uint32(target[i+deltaBlock])
			}
			i++
		}
	}
	buf = emitLiteral(target[litStart:])
	return buf
}

// ApplyDelta reconstructs the target from the base and a delta, rejecting
// malformed frames, wrong-base deltas and out-of-bounds copies.
func ApplyDelta(base, delta []byte) ([]byte, error) {
	if len(delta) < len(deltaMagic)+8 || string(delta[:len(deltaMagic)]) != deltaMagic {
		return nil, fmt.Errorf("%w: bad delta frame", ErrMalformed)
	}
	rest := delta[len(deltaMagic):]
	baseLen := binary.BigEndian.Uint32(rest[0:4])
	targetLen := binary.BigEndian.Uint32(rest[4:8])
	if int(baseLen) != len(base) {
		return nil, fmt.Errorf("%w: delta bases on %d bytes, have %d", ErrMalformed, baseLen, len(base))
	}
	if targetLen > MaxStateBytes {
		return nil, fmt.Errorf("%w: %d target bytes", ErrTooLarge, targetLen)
	}
	rest = rest[8:]
	out := make([]byte, 0, targetLen)
	for len(rest) > 0 {
		op := rest[0]
		rest = rest[1:]
		switch op {
		case opCopy:
			if len(rest) < 8 {
				return nil, fmt.Errorf("%w: truncated copy op", ErrMalformed)
			}
			off := binary.BigEndian.Uint32(rest[0:4])
			length := binary.BigEndian.Uint32(rest[4:8])
			rest = rest[8:]
			if uint64(off)+uint64(length) > uint64(len(base)) {
				return nil, fmt.Errorf("%w: copy [%d, %d) past base end %d",
					ErrMalformed, off, off+length, len(base))
			}
			out = append(out, base[off:off+length]...)
		case opLiteral:
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: truncated literal op", ErrMalformed)
			}
			length := binary.BigEndian.Uint32(rest[0:4])
			rest = rest[4:]
			if uint32(len(rest)) < length {
				return nil, fmt.Errorf("%w: literal of %d bytes, %d left", ErrMalformed, length, len(rest))
			}
			out = append(out, rest[:length]...)
			rest = rest[length:]
		default:
			return nil, fmt.Errorf("%w: delta op %#x", ErrMalformed, op)
		}
		if uint32(len(out)) > targetLen {
			return nil, fmt.Errorf("%w: delta overruns target length %d", ErrMalformed, targetLen)
		}
	}
	if uint32(len(out)) != targetLen {
		return nil, fmt.Errorf("%w: delta yields %d bytes, declared %d", ErrMalformed, len(out), targetLen)
	}
	return out, nil
}
