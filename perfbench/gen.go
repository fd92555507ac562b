package main

import (
	"fmt"
	"strconv"
	"strings"
)

// Everything the cluster receives is a pure function of the workload seed:
// which key each write targets, the value it carries and which key each
// anonymous read asks for. Keys are fixed-width, values exactly valueBytes
// long, and every value names its key, the client that wrote it and the
// client sequence it was written under, so a read can be checked against
// the generator without any shared state.

const (
	// preloadKeys is the working set: written once during set-up, then
	// overwritten and read for the rest of the run.
	preloadKeys = 100_000
	valueBytes  = 64
)

// Client ids. Each writer owns a session sequence space, so two writers
// never share one.
const (
	writerClient  uint32 = 1 // saturating or open-loop writer
	preloadClient uint32 = 3 // set-up preload
)

// gen derives the workload's inputs from its seed.
type gen struct {
	seed uint64
	keys int
	// a and c define the affine permutation k ↦ a·k + c (mod keys) that
	// the open-loop writer walks: a is a unit mod keys, so no key is
	// written twice within the first keys writes.
	a, c uint64
}

func newGen(seed int64, keys int) *gen {
	g := &gen{seed: uint64(seed), keys: keys}
	g.a = mix(g.seed^0xa5a5)%uint64(keys) | 1
	for gcd(g.a, uint64(keys)) != 1 {
		g.a += 2
	}
	g.c = mix(g.seed^0x5a5a) % uint64(keys)
	return g
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// mix is the splitmix64 finalizer: a cheap bijective hash with good
// avalanche, so neighbouring inputs give unrelated outputs.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func dataKey(id int) string { return fmt.Sprintf("k%07d", id) }

// uniformKey is the key the saturating writer overwrites at seq: uniform
// over the working set, with replacement.
func (g *gen) uniformKey(seq uint64) int {
	return int(mix(g.seed^uint64(writerClient)<<56^seq) % uint64(g.keys))
}

// permKey is the key the open-loop writer writes at seq (1-based): a
// seeded permutation of the working set, so no two writes of one run
// touch the same key and a read-your-writes reply can only carry the
// value its own write put there.
func (g *gen) permKey(seq uint64) int {
	return int((g.a*((seq-1)%uint64(g.keys)) + g.c) % uint64(g.keys))
}

// readKey is the key of the i-th anonymous read: uniform over the working
// set.
func (g *gen) readKey(i uint64) int {
	return int(mix(g.seed^0xfeed<<40^i) % uint64(g.keys))
}

// value is the 64-byte value client writes to key at seq:
// "<key>.c<client>.s<seq>." followed by seeded filler.
func (g *gen) value(key string, client uint32, seq uint64) string {
	var b strings.Builder
	b.Grow(valueBytes)
	b.WriteString(key)
	b.WriteString(".c")
	b.WriteString(strconv.FormatUint(uint64(client), 10))
	b.WriteString(".s")
	b.WriteString(strconv.FormatUint(seq, 10))
	b.WriteByte('.')
	const hexdigits = "0123456789abcdef"
	h := mix(g.seed ^ uint64(client)<<48 ^ seq)
	for i := 0; b.Len() < valueBytes; i++ {
		if i%16 == 0 && i > 0 {
			h = mix(h)
		}
		b.WriteByte(hexdigits[h>>(4*(i%16))&0xf])
	}
	return b.String()
}

// parseValue splits a generated value into its key, client and seq.
func parseValue(v string) (key string, client uint32, seq uint64, ok bool) {
	parts := strings.SplitN(v, ".", 4)
	if len(parts) != 4 || len(parts[1]) < 2 || parts[1][0] != 'c' || len(parts[2]) < 2 || parts[2][0] != 's' {
		return "", 0, 0, false
	}
	c, err := strconv.ParseUint(parts[1][1:], 10, 32)
	if err != nil {
		return "", 0, 0, false
	}
	s, err := strconv.ParseUint(parts[2][1:], 10, 64)
	if err != nil {
		return "", 0, 0, false
	}
	return parts[0], uint32(c), s, true
}

// checkDataValue reports whether v is a value the generator wrote to the
// working-set key id: the preload's value, or a writer value whose seq maps
// to id under keyOf and was actually sent (seq ≤ maxSent).
func (g *gen) checkDataValue(id int, v string, keyOf func(uint64) int, maxSent uint64) bool {
	key, client, seq, ok := parseValue(v)
	if !ok || key != dataKey(id) || v != g.value(key, client, seq) {
		return false
	}
	switch client {
	case preloadClient:
		return seq == uint64(id)+1
	case writerClient:
		return keyOf != nil && seq >= 1 && seq <= maxSent && keyOf(seq) == id
	}
	return false
}
