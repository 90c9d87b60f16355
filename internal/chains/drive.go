package chains

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// This file is the one simulation driver. The paper gives every system
// the same structure: a refinement R(BT-ADT, Θ) is a set of processes
// that call getToken/consumeToken on an oracle Θ, apply a selection
// function f and read a shared BlockTree. Only the per-process behaviour
// and the oracle vary, so they are data here: a run value names the
// oracle, the selector and a constructor for each process's
// netsim.Handler, and drive executes it. The Table 1 systems, every link
// and topology composition, both withholding adversaries and the
// PBFT-committed chain all run through drive.

// run is one simulation as data: the defaulted params plus everything
// that differs between the systems drive executes.
type run struct {
	p Params
	// name, refinement, sel and k label the Result; the oracle label is
	// orc's name, or oracle when the run commits without a token oracle.
	name, refinement, oracle string
	sel                      blocktree.Selector
	k                        int
	// orc is the token oracle every process shares (nil for PBFTChain).
	orc *oracle.Oracle
	// links is the link model (nil: synchronous with bound δ). topo,
	// when set, switches replicas to gossip flooding over it.
	links netsim.LinkModel
	topo  netsim.Topology
	// step is the slice between progress checks: 64 ticks, or 3δ for
	// round- and slot-based systems.
	step int64
	// tail is the fixed drain once mining stops; 0 drains to idle.
	tail int64
	// node builds process pr.merit's handler around its peer state.
	node func(s *netsim.Sim, pr peer) process
	// beforeDrain, when set, runs once mining stops, before the drain.
	beforeDrain func(s *netsim.Sim)
	// census, when set, fills Result.Adversary from the final replicas.
	census func(h *history.History, reps []*netsim.Replica) *AdversaryStats
}

// process is a handler drive can start: start schedules its first
// timers.
type process interface {
	netsim.Handler
	start(s *netsim.Sim)
}

// drive executes a run. Processes are built, registered and started in
// id order, each one's start timers right after its Register, so event
// sequence numbers and rng draws follow process ids. The run proceeds in
// slices of step until the best replica holds TargetBlocks blocks, then
// stops mining, drains, and takes one final read per process so the
// history exhibits convergence.
func drive(r run) Result {
	p := r.p
	links := r.links
	if links == nil {
		links = netsim.Synchronous{Delta: p.Delta}
	}
	sim := netsim.New(links, p.Seed)
	done := false
	reps := make([]*netsim.Replica, p.N)
	for i := range reps {
		id := history.ProcID(i)
		reps[i] = netsim.NewReplicaCap(id, r.sel, sim.Recorder(), p.TargetBlocks+p.TargetBlocks/2)
		if r.topo != nil {
			reps[i].EnableGossip(r.topo)
		}
		h := r.node(sim, peer{rep: reps[i], orc: r.orc, merit: i, params: p, done: &done})
		sim.Register(id, h)
		h.start(sim)
	}

	var t int64
	for t = 0; t < p.MaxTicks; t += r.step {
		sim.Run(t + r.step)
		if blocks, _ := bestReplica(reps); blocks >= p.TargetBlocks {
			break
		}
	}
	done = true
	if r.beforeDrain != nil {
		r.beforeDrain(sim)
	}
	if r.tail > 0 {
		sim.Run(t + r.step + r.tail)
	} else {
		// Drain every in-flight message before the final reads. A fixed
		// window is wrong under heavy-tail links: a Jitter straggler or
		// an Asynchronous tail can exceed any constant multiple of δ,
		// leaving deliveries pending when the reads run. RunToIdle stops
		// at the last real delivery; the cap only bounds runaway
		// schedules.
		sim.RunToIdle(t + r.step + p.MaxTicks)
	}
	for _, rep := range reps {
		rep.ReadIDs()
	}

	blocks, forks := bestReplica(reps)
	res := Result{
		System:       r.name,
		Refinement:   r.refinement,
		OracleName:   r.oracle,
		SelectorName: r.sel.Name(),
		K:            r.k,
		History:      sim.Recorder().Finalize(),
		Blocks:       blocks,
		Forks:        forks,
		Ticks:        sim.Now(),
		Delivered:    sim.Delivered,
		Dropped:      sim.Dropped,
		Bytes:        sim.Bytes,
	}
	if r.orc != nil {
		res.OracleName = r.orc.Name()
	}
	if r.census != nil {
		res.Adversary = r.census(res.History, reps)
	}
	return res
}

// peer is the state every simulated process starts from: its replica,
// the run's shared oracle and params, its merit index (its process id)
// and the run's stop flag. The handlers embed it.
type peer struct {
	rep    *netsim.Replica
	orc    *oracle.Oracle
	merit  int
	params Params
	// counter numbers the process's granted tokens; it is the last
	// component of its block ids.
	counter int
	names   nameMemo
	done    *bool
}

const (
	mineTimer = "mine"
	readTimer = "read"
)

// startReads schedules the first read timer, staggered by process id.
func (n *peer) startReads(s *netsim.Sim) {
	s.TimerAt(n.rep.ID(), 2+int64(n.merit)%n.params.ReadEvery, readTimer)
}

// read performs one read() and re-arms the read timer until the run
// stops.
func (n *peer) read(s *netsim.Sim) {
	n.rep.ReadIDs()
	if !*n.done {
		s.TimerAt(n.rep.ID(), s.Now()+n.params.ReadEvery, readTimer)
	}
}

// tryAppend is one append attempt on the oracle: getToken for candidate
// on parent and, when granted, consumeToken inside a recorded append
// operation. It returns the valid block, ready to broadcast, or false when
// no token was granted or the consume failed (a k-bounded oracle refuses
// it; the failed append stays in the history).
func (n *peer) tryAppend(s *netsim.Sim, parent blocktree.Block, candidate blocktree.BlockID) (blocktree.Block, bool) {
	tok, ok := n.orc.GetToken(n.merit, parent.ID, candidate)
	if !ok {
		return blocktree.Block{}, false
	}
	n.counter++
	rec := s.Recorder()
	op := rec.Invoke(n.rep.ID(), history.Label{Kind: history.KindAppend, Block: candidate})
	_, inserted, err := n.orc.ConsumeToken(tok)
	ok = err == nil && inserted
	rec.Respond(op, history.Label{Kind: history.KindAppend, Block: candidate, Parent: parent.ID, OK: ok})
	return blocktree.Block{ID: candidate, Parent: parent.ID, Work: 1, Token: tok.ID, Proposer: n.merit}, ok
}
