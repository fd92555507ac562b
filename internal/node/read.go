package node

import (
	"fmt"
	"strings"
	"time"

	"genconsensus/internal/kv"
	"genconsensus/internal/wire"
)

// This file is the server half of the read plane: READ and MREAD serve
// linearizable reads off the consensus critical path via a read-index
// capture — no consensus instance, no log entry, just "wait until the
// local apply watermark passes everything this replica knows is decided,
// then serve". The stamped replies additionally carry (group, applied
// instance), which is what lets clients assemble the Byzantine-safe b+1
// certificates (internal/readq) out of plain single-replica reads.

// readIndex captures the group's current read index: the highest instance
// this replica knows has decided. Two sources fold together — the commit
// queue's view (committed watermark plus decisions buffered behind a gap,
// e.g. a WAL-replay frontier) and the transport's observed-instance high
// (peer frames, releases, recorded decisions). The transport half is what
// makes a lagging replica block: under concurrent writes it hears peer
// frames for head instances long before it commits them, so a READ
// captured here waits for the catch-up instead of serving the stale
// prefix. A replica that is both lagging and hearing nothing can still
// serve its committed prefix — freshness then needs the quorum flavor.
func (g *group) readIndex() uint64 {
	ri := g.commits.ReadIndex()
	if high := g.n.tn.GroupInstanceHigh(g.id); high > ri {
		ri = high
	}
	return ri
}

// waitReadIndex blocks until the group's apply watermark passes the read
// index (and, for sessions, every write the connection had accepted on the
// group), reporting the applied instance to stamp the reply with. The
// empty-string error return is "" on success, or the protocol error line
// on timeout.
func (c *clientConn) waitReadIndex(g *group, deadline time.Time) (uint64, string) {
	// Read-your-writes: every write the session had accepted on this group
	// must be applied before the read serves, even if the read index was
	// captured before the writes' instances existed. The loop re-arms on
	// every watermark advance; capturing the watermark before the probe
	// closes the probe-then-wait race.
	if c.sessioned && len(c.wrote[g.id]) > 0 {
		for {
			wm := g.commits.NextCommit()
			pending := c.appliedPrefixDropped(g)
			c.wrote[g.id] = pending
			if len(pending) == 0 {
				break
			}
			if !g.commits.WaitApplied(wm, deadline) {
				return 0, "ERR read timeout"
			}
		}
	}
	if !g.commits.WaitApplied(g.readIndex(), deadline) {
		return 0, "ERR read timeout"
	}
	return g.commits.NextCommit() - 1, ""
}

// handleRead serves one read-index read:
//
//	READ <key> → "VAL <group> <inst> <value>" | "NF <group> <inst>" | "ERR read timeout"
//
// The stamp is the group-local instance the store had applied when the
// value was taken.
func handleRead(c *clientConn, fields []string) string {
	if len(fields) != 1 {
		return "ERR usage: READ <key>"
	}
	g := c.n.groups[wire.GroupForKey(fields[0], c.n.cfg.Shards)]
	store, ok := g.sm.(*kv.Store)
	if !ok {
		return "ERR not a kv store"
	}
	start := time.Now()
	applied, errResp := c.waitReadIndex(g, start.Add(c.n.cfg.ReadTimeout))
	if errResp != "" {
		return errResp
	}
	g.readWaitNS.ObserveSince(start)
	g.reads.Inc()
	if v, ok := store.Get(fields[0]); ok {
		return fmt.Sprintf("VAL %d %d %s", g.id, applied, v)
	}
	return fmt.Sprintf("NF %d %d", g.id, applied)
}

// handleMRead answers many keys in one round-trip with one read-index
// capture (and one store read-lock acquisition) per touched group:
//
//	MREAD <k1> <k2> ... → one VAL/NF line per key, request order, then "END"
//
// Groups are visited in group-id order, so a batch spanning shards waits
// each group's index exactly once no matter how the keys interleave.
func handleMRead(c *clientConn, fields []string) string {
	if len(fields) == 0 {
		return "ERR usage: MREAD <key> [key ...]"
	}
	type span struct {
		keys []string
		pos  []int
	}
	spans := make(map[wire.GroupID]*span)
	for i, key := range fields {
		gid := wire.GroupForKey(key, c.n.cfg.Shards)
		sp := spans[gid]
		if sp == nil {
			sp = &span{}
			spans[gid] = sp
		}
		sp.keys = append(sp.keys, key)
		sp.pos = append(sp.pos, i)
	}
	lines := make([]string, len(fields))
	for _, g := range c.n.groups {
		sp, ok := spans[g.id]
		if !ok {
			continue
		}
		store, ok := g.sm.(*kv.Store)
		if !ok {
			return "ERR not a kv store"
		}
		start := time.Now()
		applied, errResp := c.waitReadIndex(g, start.Add(c.n.cfg.ReadTimeout))
		if errResp != "" {
			return errResp
		}
		g.readWaitNS.ObserveSince(start)
		g.reads.Add(uint64(len(sp.keys)))
		for i, res := range store.GetMany(sp.keys) {
			if res.Found {
				lines[sp.pos[i]] = fmt.Sprintf("VAL %d %d %s", g.id, applied, res.Value)
			} else {
				lines[sp.pos[i]] = fmt.Sprintf("NF %d %d", g.id, applied)
			}
		}
	}
	return strings.Join(lines, "\n") + "\nEND"
}
