package chains

import (
	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// This file holds the permissionless proof-of-work systems. Their
// behaviour is powNode, the honest miner; powRun hands it to the one
// driver (drive.go) with the prodigal oracle Θ_P and the system's
// selection function. The same run, with a link model or a topology
// added, is what Execute runs for every non-default network.

// powNode is a proof-of-work miner: at every mining tick it invokes
// getToken on the tip of its locally selected chain (the PoW attempt,
// Section 5.1); a granted token is consumed (always possible with Θ_P) and
// the resulting valid block is flooded with the LRC broadcast.
type powNode struct{ peer }

func (n *powNode) start(s *netsim.Sim) {
	s.TimerAt(n.rep.ID(), 1+int64(n.merit)%n.params.MineInterval, mineTimer)
	n.startReads(s)
}

// OnTimer implements netsim.Handler.
func (n *powNode) OnTimer(s *netsim.Sim, tag string) {
	switch tag {
	case mineTimer:
		if !*n.done {
			n.mine(s)
			s.TimerAt(n.rep.ID(), s.Now()+n.params.MineInterval, mineTimer)
		}
	case readTimer:
		n.read(s)
	}
}

// OnMessage implements netsim.Handler.
func (n *powNode) OnMessage(s *netsim.Sim, m netsim.Message) {
	n.rep.OnMessage(s, m)
}

func (n *powNode) mine(s *netsim.Sim) {
	parent := n.rep.SelectedTip()
	if b, ok := n.tryAppend(s, parent, n.names.get(parent.Height+1, n.rep.ID(), n.counter)); ok {
		n.rep.CreateAndBroadcast(s, parent.ID, b)
	}
}

// powRun is the run of a permissionless PoW network of honest miners
// over synchronous links, drained to idle once the target is reached.
func powRun(sys System, sel blocktree.Selector, p Params) run {
	p = p.withDefaults()
	return run{
		p: p, name: sys.Name(), refinement: sys.Refinement(), orc: newProdigal(p),
		sel: sel, k: oracle.Unbounded, step: 64,
		node: func(_ *netsim.Sim, pr peer) process { return &powNode{pr} },
	}
}

// Bitcoin is Section 5.1: permissionless, merits are hashing power, the
// getToken operation is proof-of-work, consumeToken returns true for all
// valid blocks (no bound on consumed tokens ⇒ prodigal oracle Θ_P), and f
// selects the chain that required the most work. Bitcoin implements
// R(BT-ADT_EC, Θ_P): Eventual consistency only.
type Bitcoin struct{}

// Name implements System.
func (Bitcoin) Name() string { return "Bitcoin" }

// Refinement implements System.
func (Bitcoin) Refinement() string { return "R(BT-ADT_EC, Θ_P)" }

// Expected implements System.
func (Bitcoin) Expected() consistency.Level { return consistency.LevelEC }

// Run implements System.
func (Bitcoin) Run(p Params) Result {
	return drive(powRun(Bitcoin{}, blocktree.HeaviestChain{}, p))
}

// Ethereum is Section 5.2: as Bitcoin but the merit parameter models
// memory-bound work and f is implemented through the GHOST algorithm.
// Ethereum implements R(BT-ADT_EC, Θ_P).
type Ethereum struct{}

// Name implements System.
func (Ethereum) Name() string { return "Ethereum" }

// Refinement implements System.
func (Ethereum) Refinement() string { return "R(BT-ADT_EC, Θ_P)" }

// Expected implements System.
func (Ethereum) Expected() consistency.Level { return consistency.LevelEC }

// Run implements System.
func (Ethereum) Run(p Params) Result {
	return drive(powRun(Ethereum{}, blocktree.GHOST{}, p))
}
