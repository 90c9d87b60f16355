package netsim

import (
	"fmt"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
)

// partitionRule splits {0,1} from {2,3} until heal time.
func partitionRule(heal int64) DropRule {
	side := func(p history.ProcID) int {
		if p <= 1 {
			return 0
		}
		return 1
	}
	return func(m Message, now int64) bool {
		return now < heal && side(m.From) != side(m.To)
	}
}

// partitionNet builds 4 replicas where procs 0 and 2 (one per side) create
// blocks; the network is partitioned until heal.
func partitionNet(heal int64, resyncAt int64, seed uint64) (*Sim, map[history.ProcID]*Replica) {
	s := New(Lossy{Inner: Synchronous{Delta: 4}, Rule: partitionRule(heal)}, seed)
	reps := map[history.ProcID]*Replica{}
	for i := 0; i < 4; i++ {
		id := history.ProcID(i)
		rep := NewReplica(id, blocktree.LongestChain{}, s.Recorder())
		reps[id] = rep
		creator := i == 0 || i == 2
		count := 0
		s.Register(id, HandlerFuncs{
			Message: func(sim *Sim, m Message) { rep.OnMessage(sim, m) },
			Timer: func(sim *Sim, tag string) {
				switch tag {
				case "create":
					if creator && count < 8 {
						parent := rep.Selected().Tip()
						b := blocktree.Block{
							ID:       blocktree.BlockID(fmt.Sprintf("c%d-%02d", id, count)),
							Parent:   parent.ID,
							Proposer: int(id),
							Token:    uint64(100*int(id) + count + 1),
						}
						count++
						rep.CreateAndBroadcast(sim, parent.ID, b)
						sim.TimerAt(id, sim.Now()+12, "create")
					}
				case "read":
					rep.Read()
					sim.TimerAt(id, sim.Now()+9, "read")
				case "resync":
					rep.Resync(sim)
				}
			},
		})
		if creator {
			s.TimerAt(id, 1, "create")
		}
		s.TimerAt(id, 2+int64(i), "read")
		if resyncAt > 0 {
			s.TimerAt(id, resyncAt, "resync")
		}
	}
	return s, reps
}

// TestPartitionWithResyncConverges: a healed partition followed by an
// anti-entropy resync restores agreement — all replicas end on the same
// chain and the post-heal history satisfies Eventual Prefix.
func TestPartitionWithResyncConverges(t *testing.T) {
	const heal = 120
	s, reps := partitionNet(heal, heal+4, 51)
	s.Run(600)
	for _, p := range s.Procs() {
		reps[p].Read()
	}
	// All replicas converge to the identical tree.
	want := reps[0].Tree().Size()
	if want < 17 { // genesis + 8 + 8
		t.Fatalf("replica 0 tree size = %d, missing blocks", want)
	}
	for p, r := range reps {
		if got := r.Tree().Size(); got != want {
			t.Fatalf("replica %d size %d ≠ %d", p, got, want)
		}
	}
	chains := map[string]bool{}
	for _, r := range reps {
		chains[r.Read().String()] = true
	}
	if len(chains) != 1 {
		t.Fatalf("replicas disagree after heal+resync: %v", chains)
	}
	// The overall history converges within a window covering the
	// partition interval.
	h := s.Recorder().Snapshot()
	opts := consistency.Options{GraceWindow: len(h.Reads()) * 3 / 4}
	if v := consistency.EventualPrefix(h, opts); !v.Satisfied {
		t.Fatalf("healed run violates Eventual Prefix: %s", v)
	}
}

// TestPartitionWithoutResyncDiverges: healing the links without exchanging
// the missed blocks leaves the two sides permanently divergent — the
// partition-prone scenario behind the related-work remark that nothing
// stronger than MPC is implementable in partition-prone systems, and
// behind Theorem 4.7 (the dropped updates were sent by correct processes).
func TestPartitionWithoutResyncDiverges(t *testing.T) {
	const heal = 120
	s, reps := partitionNet(heal, 0, 51)
	s.Run(600)
	for _, p := range s.Procs() {
		reps[p].Read()
	}
	c0, c2 := reps[0].Read().IDs(), reps[2].Read().IDs()
	if c0.HasPrefix(c2) || c2.HasPrefix(c0) {
		t.Fatalf("sides agree without resync: %s vs %s", c0, c2)
	}
	h := s.Recorder().Snapshot()
	opts := consistency.Options{GraceWindow: 8}
	if v := consistency.EventualPrefix(h, opts); v.Satisfied {
		t.Fatal("divergent run satisfies Eventual Prefix")
	}
	if v := consistency.LRC(h, opts); v.Satisfied {
		t.Fatal("partition run satisfies LRC")
	}
}

// TestResyncIdempotent: resyncing twice adds nothing.
func TestResyncIdempotent(t *testing.T) {
	s := New(Synchronous{Delta: 2}, 3)
	a := NewReplica(0, blocktree.LongestChain{}, s.Recorder())
	b := NewReplica(1, blocktree.LongestChain{}, s.Recorder())
	s.Register(0, HandlerFuncs{Message: func(sim *Sim, m Message) { a.OnMessage(sim, m) }})
	s.Register(1, HandlerFuncs{Message: func(sim *Sim, m Message) { b.OnMessage(sim, m) }})
	a.CreateAndBroadcast(s, blocktree.GenesisID, blocktree.Block{ID: "x", Parent: blocktree.GenesisID, Proposer: 0})
	s.Run(50)
	a.Resync(s)
	a.Resync(s)
	s.Run(200)
	if b.Tree().Size() != 2 {
		t.Fatalf("tree size = %d", b.Tree().Size())
	}
	// The update event for x at b must be recorded exactly once.
	h := s.Recorder().Snapshot()
	updates := 0
	for _, id := range h.OpsOfKind(history.KindUpdate) {
		if op := h.Op(id); op.Proc == 1 && h.Name(op.Block) == "x" {
			updates++
		}
	}
	if updates != 1 {
		t.Fatalf("update events = %d, want 1 (idempotence)", updates)
	}
}
