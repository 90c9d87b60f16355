package chains

import (
	"fmt"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
	"blockadt/internal/oracle"
)

// This file implements the selfish-mining strategy (Eyal & Sirer) inside
// the framework: an adversarial miner that withholds its proof-of-work
// blocks and publishes them reactively to orphan honest work. The paper
// leaves fairness as future work but notes the merit parameter supports
// defining it (and cites FruitChain, whose purpose is exactly to defeat
// this strategy); the experiment shows the BT-ADT machinery *measuring*
// the attack: the realized block distribution of the selfish run deviates
// from the merit entitlement (chain quality loss), while the criteria
// checkers still classify the run as eventually consistent — fairness and
// consistency are orthogonal, which is why the paper needs a separate
// fairness notion.
//
// Strategy state machine (lead = private tip height − public tip height):
//
//	adversary finds a block   → extend the private branch, withhold;
//	honest block arrives:
//	  lead was 0  → adopt the honest chain (discard private work);
//	  lead was 1  → publish the private branch (race, here won by the
//	                adversary's broadcast reaching everyone within δ);
//	  lead was 2  → publish everything (overrides the honest block);
//	  lead  > 2   → publish enough blocks to stay one ahead.
type selfishMiner struct {
	peer                       // rep is the public view (honest chain as received)
	private  *blocktree.Tree   // public view + withheld private branch
	withheld []blocktree.Block // private blocks not yet published
}

func (m *selfishMiner) start(s *netsim.Sim) { s.TimerAt(m.rep.ID(), 1, mineTimer) }

func (m *selfishMiner) publicTip() blocktree.Block {
	return blocktree.HeaviestChain{}.Select(m.rep.Tree()).Tip()
}

func (m *selfishMiner) privateTip() blocktree.Block {
	return blocktree.HeaviestChain{}.Select(m.private).Tip()
}

// OnTimer implements netsim.Handler.
func (m *selfishMiner) OnTimer(s *netsim.Sim, tag string) {
	if tag != mineTimer || *m.done {
		return
	}
	defer s.TimerAt(m.rep.ID(), s.Now()+m.params.MineInterval, mineTimer)

	parent := m.privateTip()
	// Adversary blocks carry a "z" marker that wins the deterministic
	// lexicographic tie-break of the selectors: this models γ = 1 of the
	// Eyal–Sirer analysis (every honest miner that sees both blocks of a
	// race mines on the adversary's), the strategy's best case.
	candidate := blocktree.BlockID(fmt.Sprintf("b%04d-z%02d-%04d", parent.Height+1, m.rep.ID(), m.counter))
	b, ok := m.tryAppend(s, parent, candidate)
	if !ok || m.private.Insert(b) != nil {
		return
	}
	m.withheld = append(m.withheld, b)
}

// OnMessage implements netsim.Handler: honest blocks update the public
// view and trigger the reactive publication policy.
func (m *selfishMiner) OnMessage(s *netsim.Sim, msg netsim.Message) {
	if msg.Kind != netsim.UpdateMsg {
		return
	}
	b, ok := msg.Payload.(blocktree.Block)
	if !ok {
		return
	}
	if msg.Origin == m.rep.ID() {
		m.rep.OnMessage(s, msg) // own published block echoing back
		return
	}
	leadBefore := m.privateTip().Height - m.publicTip().Height
	m.rep.OnMessage(s, msg)
	if m.private.Has(b.Parent) && !m.private.Has(b.ID) {
		bb := b
		m.private.Insert(bb)
	}

	switch {
	case leadBefore <= 0:
		// Nothing withheld worth defending: adopt the honest chain.
		m.withheld = nil
		m.resyncPrivate()
	case leadBefore == 1, leadBefore == 2:
		m.publish(s, len(m.withheld)) // race / override
	default:
		m.publish(s, 1) // stay ahead, reveal one
	}
}

// resyncPrivate rebuilds the private tree from the public view (discarding
// abandoned withheld work). The clone matters: Replica.Tree() exposes the
// live tree, and the private branch must not leak into the public view.
func (m *selfishMiner) resyncPrivate() {
	m.private = m.rep.Tree().Clone()
}

// publish releases the first n withheld blocks through the regular update
// broadcast.
func (m *selfishMiner) publish(s *netsim.Sim, n int) {
	if n > len(m.withheld) {
		n = len(m.withheld)
	}
	for _, b := range m.withheld[:n] {
		m.rep.CreateAndBroadcast(s, b.Parent, b)
	}
	m.withheld = m.withheld[n:]
}

// withholding is the run of a withholding plan: N-1 honest miners
// against the plan's withholding miner at process 0, which holds fraction
// alpha of the aggregate attempt rate. Both plans share its process-count
// normalization and merit split. Once mining stops the adversary
// publishes its remaining lead so the run ends in a quiescent state; the
// plan's census lands on Result.Adversary.
func withholding(a AdversaryPlan, sp ScenarioParams) run {
	p, alpha := sp.Params, sp.Alpha
	p.N = NormalizeSelfishN(p.N)
	p = p.withDefaults()
	total := p.TokenProb * float64(p.N)
	p.Merits = make([]float64, p.N)
	p.Merits[0] = total * alpha
	for i := 1; i < p.N; i++ {
		p.Merits[i] = total * (1 - alpha) / float64(p.N-1)
	}
	var adv *selfishMiner
	return run{
		p: p, name: fmt.Sprintf(a.label, alpha), refinement: a.refinement, orc: newProdigal(p),
		sel: blocktree.HeaviestChain{}, k: oracle.Unbounded, step: 64, tail: 16 * p.Delta,
		node: func(_ *netsim.Sim, pr peer) process {
			if pr.merit != 0 {
				return a.honest(pr)
			}
			h, m := a.adversary(pr)
			m.private = m.rep.Tree().Clone()
			adv = m
			return h
		},
		beforeDrain: func(s *netsim.Sim) { adv.publish(s, len(adv.withheld)) },
		census: func(h *history.History, reps []*netsim.Replica) *AdversaryStats {
			return a.census(alpha, h, blocktree.HeaviestChain{}.Select(reps[1].Tree()))
		},
	}
}

// selfishCensus counts mined blocks and main-chain authorship at an
// honest replica's final chain.
func selfishCensus(alpha float64, h *history.History, final blocktree.Chain) *AdversaryStats {
	stats := &AdversaryStats{AdversaryMerit: alpha, MainChainByProc: map[history.ProcID]int{}}
	for _, b := range final[1:] {
		stats.MainChainByProc[history.ProcID(b.Proposer)]++
	}
	for _, id := range h.SuccessfulAppends() {
		if h.Op(id).Proc == 0 {
			stats.AdversaryMined++
		} else {
			stats.HonestMined++
		}
	}
	mainLen := len(final) - 1
	if advBlocks := stats.MainChainByProc[0]; mainLen > 0 {
		stats.AdversaryShare = float64(advBlocks) / float64(mainLen)
		stats.HonestShare = float64(mainLen-advBlocks) / float64(mainLen)
	}
	stats.Orphaned = stats.AdversaryMined + stats.HonestMined - mainLen
	return stats
}
