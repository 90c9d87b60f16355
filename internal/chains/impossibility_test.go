package chains

import (
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// TestTheorem48ForkImpossibility executes the proof construction of
// Theorem 4.8: two correct processes i and j, synchronous channels, an LRC
// primitive, and an oracle that allows forks (here Θ_F,k=2). At the same
// instant t0 both invoke append on b0; both tokens are consumable (k = 2),
// both updates are exchanged, and at a time t < t0+δ — before the remote
// updates are delivered — each process reads its own branch: the reads
// return b0⌢b_i at i and b0⌢b_j at j, neither a prefix of the other. Strong
// Prefix is violated even in a fault-free synchronous environment,
// demonstrating that no Θ ≠ Θ_F,k=1 refinement implements BT-ADT_SC.
func TestTheorem48ForkImpossibility(t *testing.T) {
	const delta = 10
	sim := netsim.New(netsim.Synchronous{Delta: delta, Min: delta}, 1)
	orc := oracle.NewFrugal(2, 1, 1, 1) // k=2: forks allowed
	rec := sim.Recorder()

	reps := map[history.ProcID]*netsim.Replica{}
	for _, p := range []history.ProcID{0, 1} {
		rep := netsim.NewReplica(p, blocktree.LongestChain{}, rec)
		reps[p] = rep
		p := p
		sim.Register(p, netsim.HandlerFuncs{
			Message: func(s *netsim.Sim, m netsim.Message) { rep.OnMessage(s, m) },
			Timer: func(s *netsim.Sim, tag string) {
				switch tag {
				case "append":
					// append(b_p) at time t0: getToken on the local
					// tip (b0 at both), consume (k=2 admits both),
					// update locally and broadcast via LRC.
					parent := rep.Selected().Tip()
					id := blocktree.BlockID("b_" + string(rune('i'+p)))
					tok, ok := orc.GetToken(int(p), parent.ID, id)
					if !ok {
						t.Errorf("token refused at p%d", p)
						return
					}
					op := rec.Invoke(p, history.Label{Kind: history.KindAppend, Block: id})
					_, inserted, err := orc.ConsumeToken(tok)
					rec.Respond(op, history.Label{Kind: history.KindAppend, Block: id, Parent: parent.ID, OK: inserted && err == nil})
					if inserted && err == nil {
						rep.CreateAndBroadcast(s, parent.ID, blocktree.Block{ID: id, Parent: parent.ID, Token: tok.ID})
					}
				case "read":
					rep.Read()
				}
			},
		})
	}

	const t0 = 5
	sim.TimerAt(0, t0, "append")
	sim.TimerAt(1, t0, "append")
	// Reads at t < t0 + δ: the remote updates (delay exactly δ) have not
	// arrived, so each process sees only its own block.
	sim.TimerAt(0, t0+delta/2, "read")
	sim.TimerAt(1, t0+delta/2, "read")
	sim.Run(t0 + 4*delta)

	h := rec.Snapshot()
	reads := h.Reads()
	if len(reads) != 2 {
		t.Fatalf("reads = %d", len(reads))
	}
	c0, c1 := h.Chain(h.Op(reads[0]).Chain), h.Chain(h.Op(reads[1]).Chain)
	if c0.HasPrefix(c1) || c1.HasPrefix(c0) {
		t.Fatalf("the construction failed to diverge: %s vs %s", c0, c1)
	}
	if v := consistency.StrongPrefix(h, consistency.Options{}); v.Satisfied {
		t.Fatal("Strong Prefix holds — Theorem 4.8's construction broken")
	}
	// Both appends succeeded: the k=2 oracle admitted the fork.
	if got := len(h.SuccessfulAppends()); got != 2 {
		t.Fatalf("successful appends = %d, want 2", got)
	}
	// Sanity: the same construction under Θ_F,k=1 cannot diverge — the
	// second consume is refused, so one branch never exists
	// (Corollary 4.8.1: Θ_F,k=1 is necessary for Strong Prefix).
	if !orc.KForkCoherent() {
		t.Fatal("oracle exceeded its own bound")
	}
}

// TestCorollary481K1PreventsTheFork re-runs the Theorem 4.8 schedule with
// Θ_F,k=1: exactly one of the two simultaneous appends succeeds, the tree
// never forks, and the reads are prefix-related.
func TestCorollary481K1PreventsTheFork(t *testing.T) {
	const delta = 10
	sim := netsim.New(netsim.Synchronous{Delta: delta, Min: delta}, 1)
	orc := oracle.NewFrugal(1, 1, 1, 1)
	rec := sim.Recorder()

	reps := map[history.ProcID]*netsim.Replica{}
	for _, p := range []history.ProcID{0, 1} {
		rep := netsim.NewReplica(p, blocktree.LongestChain{}, rec)
		reps[p] = rep
		p := p
		sim.Register(p, netsim.HandlerFuncs{
			Message: func(s *netsim.Sim, m netsim.Message) { rep.OnMessage(s, m) },
			Timer: func(s *netsim.Sim, tag string) {
				switch tag {
				case "append":
					parent := rep.Selected().Tip()
					id := blocktree.BlockID("b_" + string(rune('i'+p)))
					tok, ok := orc.GetToken(int(p), parent.ID, id)
					if !ok {
						return
					}
					op := rec.Invoke(p, history.Label{Kind: history.KindAppend, Block: id})
					_, inserted, err := orc.ConsumeToken(tok)
					rec.Respond(op, history.Label{Kind: history.KindAppend, Block: id, Parent: parent.ID, OK: inserted && err == nil})
					if inserted && err == nil {
						rep.CreateAndBroadcast(s, parent.ID, blocktree.Block{ID: id, Parent: parent.ID, Token: tok.ID})
					}
				case "read":
					rep.Read()
				}
			},
		})
	}

	const t0 = 5
	sim.TimerAt(0, t0, "append")
	sim.TimerAt(1, t0, "append")
	sim.TimerAt(0, t0+delta/2, "read")
	sim.TimerAt(1, t0+delta/2, "read")
	// Post-convergence reads.
	sim.TimerAt(0, t0+3*delta, "read")
	sim.TimerAt(1, t0+3*delta, "read")
	sim.Run(t0 + 4*delta)

	h := rec.Snapshot()
	if got := len(h.SuccessfulAppends()); got != 1 {
		t.Fatalf("successful appends = %d, want 1 under k=1", got)
	}
	if v := consistency.StrongPrefix(h, consistency.Options{}); !v.Satisfied {
		t.Fatalf("Strong Prefix violated under k=1: %s", v)
	}
	for p, rep := range reps {
		if rep.Tree().MaxFanout() > 1 {
			t.Fatalf("replica %d forked under k=1", p)
		}
	}
}
