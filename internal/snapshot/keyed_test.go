package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"genconsensus/internal/auth"
	"genconsensus/internal/kv"
	"genconsensus/internal/model"
	"genconsensus/internal/snapshot"
)

// deltaMode is one kv dedup configuration the delta path must handle.
type deltaMode struct {
	name  string
	prune int  // PruneApplied(prune) at every checkpoint (0 = never)
	auth  bool // authenticated mode with small, sliding client windows
}

var deltaModes = []deltaMode{
	{name: "legacy-unbounded"},
	{name: "legacy-pruned", prune: 50},
	{name: "auth-windows", auth: true},
}

const (
	deltaAuthSeed = 7
	deltaWindow   = 16
)

// deltaStore is a kv store in the given mode plus a command source for it.
type deltaStore struct {
	mode    deltaMode
	st      *kv.Store
	signers []*auth.ClientSigner
	seqs    []uint64
	n       int
}

func newDeltaStore(mode deltaMode) *deltaStore {
	d := &deltaStore{mode: mode, st: kv.NewStore()}
	if mode.auth {
		d.st.EnableClientAuth(auth.NewClientKeyring(deltaAuthSeed, 4), deltaWindow)
		for c := uint32(1); c <= 3; c++ {
			d.signers = append(d.signers, auth.NewClientSigner(deltaAuthSeed, c))
			d.seqs = append(d.seqs, 0)
		}
	}
	return d
}

// apply runs one SET or DEL through the store's apply path.
func (d *deltaStore) apply(t *testing.T, op, key, value string) {
	t.Helper()
	d.n++
	var cmd model.Value
	if d.mode.auth {
		c := d.n % len(d.signers)
		d.seqs[c]++
		var err error
		if cmd, err = kv.SignedCommand(d.signers[c], d.seqs[c], op, key, value); err != nil {
			t.Fatal(err)
		}
	} else {
		cmd = kv.Command(fmt.Sprintf("req-%08d", d.n), op, key, value)
	}
	d.st.Apply(cmd)
}

// checkpoint prunes like the snapshot manager and returns the key delta.
func (d *deltaStore) checkpoint() *snapshot.KeyDelta {
	if d.mode.prune > 0 {
		d.st.PruneApplied(d.mode.prune)
	}
	return d.st.SnapshotDelta()
}

// TestKeyDeltaDeterminism drives random SET/DEL sequences through kv in
// every dedup mode, with a RestoreState to an earlier checkpoint partway
// through, and checks at each checkpoint that the previous full state
// merged with kv's delta, the key-delta chain decoded link by link, and
// the whole-state byte-diff chain all reproduce SnapshotState exactly.
func TestKeyDeltaDeterminism(t *testing.T) {
	for _, mode := range deltaModes {
		t.Run(mode.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			d := newDeltaStore(mode)
			var prev []byte // the previous checkpoint's full state
			var states [][]byte
			var tip *snapshot.Checkpoint
			var keyDec, byteDec snapshot.IncrementalDecoder
			byteEnc := &snapshot.IncrementalEncoder{FullEvery: 4}
			for ckpt := 1; ckpt <= 40; ckpt++ {
				if ckpt == 25 {
					// Install an earlier checkpoint, as a recovering
					// replica does: the restored state is the next base.
					restored := newDeltaStore(mode)
					restored.n, restored.seqs = d.n, d.seqs
					if err := restored.st.RestoreState(states[15]); err != nil {
						t.Fatal(err)
					}
					d, prev = restored, states[15]
					link, _ := snapshot.FullLink(&snapshot.Snapshot{LastInstance: uint64(ckpt*10 - 5), State: prev})
					if _, err := keyDec.Apply(link); err != nil {
						t.Fatal(err)
					}
					tip = link
				}
				for i := rng.Intn(40); i >= 0; i-- {
					key := fmt.Sprintf("k%03d", rng.Intn(120))
					if rng.Intn(4) == 0 {
						d.apply(t, "DEL", key, "")
					} else {
						d.apply(t, "SET", key, fmt.Sprintf("v%d", rng.Intn(1000)))
					}
				}
				delta := d.checkpoint()
				want := d.st.SnapshotState()
				if delta.Full != (ckpt == 1) {
					t.Fatalf("checkpoint %d: Full = %v", ckpt, delta.Full)
				}
				payload := snapshot.AppendKeyDelta(nil, delta)
				merged, err := snapshot.MergeKeyDeltas(prev, payload)
				if err != nil {
					t.Fatalf("checkpoint %d: %v", ckpt, err)
				}
				if !bytes.Equal(merged, want) {
					t.Fatalf("checkpoint %d: merged delta differs from SnapshotState", ckpt)
				}

				instance := uint64(ckpt * 10)
				var link *snapshot.Checkpoint
				if tip == nil {
					link, _ = snapshot.FullLink(&snapshot.Snapshot{LastInstance: instance, State: want})
				} else {
					link = snapshot.KeyDeltaLink(tip, instance, 0, payload)
				}
				decoded, err := snapshot.DecodeCheckpoint(snapshot.EncodeCheckpoint(link))
				if err != nil {
					t.Fatalf("checkpoint %d: %v", ckpt, err)
				}
				got, err := keyDec.Apply(decoded)
				if err != nil || !bytes.Equal(got.State, want) {
					t.Fatalf("checkpoint %d: key-delta chain diverged (err %v)", ckpt, err)
				}
				tip = link

				got, err = byteDec.Apply(byteEnc.Encode(&snapshot.Snapshot{LastInstance: instance, State: want}))
				if err != nil || !bytes.Equal(got.State, want) {
					t.Fatalf("checkpoint %d: byte-diff chain diverged (err %v)", ckpt, err)
				}
				prev = want
				states = append(states, want)
			}
		})
	}
}

// TestKeyDeltaSizeIndependentOfStore: the same 1k writes cost the same
// delta-link payload on a 10k-key and a 200k-key store, in every dedup
// mode — a checkpoint costs what changed, not what the store holds.
func TestKeyDeltaSizeIndependentOfStore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 200k-key stores")
	}
	for _, mode := range deltaModes {
		t.Run(mode.name, func(t *testing.T) {
			size := func(keys int) int {
				d := newDeltaStore(mode)
				for i := 0; i < keys; i++ {
					d.apply(t, "SET", fmt.Sprintf("key-%07d", i), fmt.Sprintf("preload-%07d", i))
				}
				d.checkpoint()
				for i := 0; i < 1000; i++ {
					key := fmt.Sprintf("key-%07d", i*7)
					if i%10 == 0 {
						d.apply(t, "DEL", key, "")
					} else {
						d.apply(t, "SET", key, fmt.Sprintf("write-%04d", i))
					}
				}
				return len(snapshot.AppendKeyDelta(nil, d.checkpoint()))
			}
			small, large := size(10_000), size(200_000)
			t.Logf("delta payload: %d bytes at 10k keys, %d at 200k", small, large)
			if small != large {
				t.Fatalf("delta payload %d bytes at 10k keys but %d at 200k", small, large)
			}
		})
	}
}
