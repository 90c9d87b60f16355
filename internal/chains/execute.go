package chains

import (
	"fmt"
	"sort"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
	"blockadt/internal/netsim"
)

// This file is the unified scenario executor: one driver, four
// orthogonal strategy axes. A Scenario composes a System (mining and
// selection behavior), a LinkPlan (the channel model of Section 4.2),
// an AdversaryPlan (the fault model) and a TopologyPlan (the
// dissemination graph); Execute turns the composition into one run
// value for the one simulation driver, drive (drive.go). A new axis
// value is a plan value, and the façade registries (pkg/blockadt)
// compose plans by name with no driver changes.

// ScenarioParams is the unified parameter set of the executor: the core
// run shape (Params) plus every knob the link, adversary and topology
// plans read. The per-regime *Params structs this replaces each carried
// two or three of these fields; here they share one struct, and each
// plan documents which fields it reads and how zero values default.
type ScenarioParams struct {
	Params
	// MaxDelay is the asynchronous common-case delay bound (AsyncLinks;
	// 0 defaults inside netsim to 64).
	MaxDelay int64
	// TailProb is the straggler probability: AsyncLinks takes it
	// literally (0 = no stragglers); JitterLinks defaults 0 to 0.05.
	TailProb float64
	// GST is the absolute global stabilization time (PsyncLinks; 0
	// defaults to 8·δ).
	GST int64
	// GSTDeltas is the stabilization time in units of the defaulted δ
	// (LossyPsyncLinks; 0 defaults to 8). It stays distinct from GST
	// because the lossy+psync grid keys scenario identity in δ units.
	GSTDeltas int64
	// PreMax bounds the common-case delay before GST (PsyncLinks; 0
	// defaults inside netsim to 8·δ).
	PreMax int64
	// Rate is the per-message drop probability: LossyLinks defaults
	// 0 to DefaultLossRate; LossyPsyncLinks takes it literally (0 =
	// reliable channels, the p=0 boundary row).
	Rate float64
	// Start and Heal bound the partition interval [Start, Heal)
	// (PartitionLinks; zero values default to [8δ, 24δ)).
	Start, Heal int64
	// Split is the partition cut — processes with id < Split on one
	// side (PartitionLinks; 0 defaults to N/2).
	Split int
	// TailFactor multiplies a straggler's delay (JitterLinks; 0
	// defaults inside netsim to 10).
	TailFactor int64
	// Alpha is the adversary's merit share (adversary plans only).
	Alpha float64
}

// LinkPlan is the channel-model axis: how to build the netsim link
// model from the (defaulted) params, plus the labels the regime stamps
// on results. The zero value is the synchronous default — the system's
// own Run executes untouched.
type LinkPlan struct {
	// Regime tags the result's System field ("Bitcoin/async") and names
	// the regime in unknown-system errors.
	Regime string
	// Refinement replaces the system's refinement string on results.
	Refinement string
	// Build constructs the link model. p carries the defaulted core
	// Params, so δ-scaled defaults can be computed here.
	Build func(p ScenarioParams) netsim.LinkModel
	// Heal reports the partition heal time the result should carry
	// (PartitionLinks); nil for regimes without one.
	Heal func(p ScenarioParams) int64
}

// AdversaryPlan is the fault-model axis. The zero value runs every
// process honestly. A non-zero plan replaces process 0's handler with a
// withholding miner, gives it merit share Params.Alpha, and adds a
// census of the run to Result.Adversary; drive runs it like any other
// system. Adversary plans run over the synchronous complete-graph
// network (their analyses assume it); Execute rejects compositions with
// non-default links or topologies.
type AdversaryPlan struct {
	// Name labels the plan in composition errors.
	Name string
	// label formats the result's System name from alpha; refinement is
	// the result's refinement.
	label, refinement string
	// honest builds the miners at processes 1..N-1; adversary builds
	// process 0's handler and returns the withholding miner inside it.
	honest    func(pr peer) process
	adversary func(pr peer) (process, *selfishMiner)
	// census reads the adversarial census off an honest replica's
	// final main chain.
	census func(alpha float64, h *history.History, final blocktree.Chain) *AdversaryStats
}

// TopologyPlan is the dissemination-graph axis. The zero value is the
// complete graph. Graph reroutes block updates through Gossiper
// flooding restricted to the topology's neighbor sets; WrapLinks
// decorates the link model (latency matrices). Either or both may be
// set.
type TopologyPlan struct {
	// Name tags the result's System field ("Bitcoin@ring(k=3)").
	Name string
	// Graph, when set, switches replicas to gossip dissemination over
	// this topology.
	Graph netsim.Topology
	// WrapLinks, when set, decorates the link model after the link plan
	// built it. p carries the defaulted core Params.
	WrapLinks func(links netsim.LinkModel, p ScenarioParams) netsim.LinkModel
}

// GossipTopology returns the degree-k ring-gossip plan: each process
// sends direct copies to its k ring successors and the flooding relays
// carry updates the rest of the way.
func GossipTopology(k int) TopologyPlan {
	return TopologyPlan{
		Name:  fmt.Sprintf("gossip%d", k),
		Graph: netsim.RingK{K: k},
	}
}

// ClusteredTopology returns the clustered-latency plan: processes are
// grouped into `clusters` equal-width id clusters and cross-cluster
// deliveries pay extraDeltas·δ on top of the link model.
func ClusteredTopology(clusters int, extraDeltas int64) TopologyPlan {
	if clusters < 1 {
		clusters = 1
	}
	return TopologyPlan{
		Name: fmt.Sprintf("clustered%d", clusters),
		WrapLinks: func(links netsim.LinkModel, p ScenarioParams) netsim.LinkModel {
			size := (p.N + clusters - 1) / clusters
			return netsim.ClusterLatency{Inner: links, Size: size, Extra: extraDeltas * p.Delta}
		},
	}
}

// Scenario is one composed execution: a system and one value per
// strategy axis. Zero-valued axes select the defaults (synchronous
// links, honest processes, complete graph), in which case Execute runs
// the system's own Table 1 simulator unchanged.
type Scenario struct {
	System    System
	Links     LinkPlan
	Adversary AdversaryPlan
	Topology  TopologyPlan
	Params    ScenarioParams
}

// UnknownSystemError reports a composition naming a system that has no
// run for the requested axis: the non-default link and topology plans
// compose only with the permissionless PoW systems (SupportsPoWLinks —
// committee systems assume synchronous rounds and complete
// dissemination).
type UnknownSystemError struct {
	// System is the name that missed.
	System string
	// Regime is the link regime (or "sync") that was requested.
	Regime string
	// Known lists the systems the non-default axes do support.
	Known []string
}

// Error keeps the message of the panic this error replaced.
func (e *UnknownSystemError) Error() string {
	return "chains: no " + e.Regime + " runner for system " + e.System
}

// PoWSystems returns the sorted names of the PoW systems — the support
// set of every non-default link and topology plan.
func PoWSystems() []string {
	out := make([]string, 0, len(powSelectors))
	for name := range powSelectors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Execute runs a composed scenario. Default-axes scenarios dispatch to
// the system's own Run (the Table 1 path); non-default links or
// topologies run the PoW system's run with the link model and topology
// added; a non-default adversary runs its withholding run. All three
// reach the same driver. The one error surface is composition: a
// system outside the PoW support set under a non-default link/topology
// (*UnknownSystemError), an adversary composed with a non-default
// network, or a scenario with no system.
func Execute(sc Scenario) (Result, error) {
	if sc.Adversary.adversary != nil {
		if sc.Links.Build != nil || sc.Links.Regime != "" || sc.Topology.Graph != nil || sc.Topology.WrapLinks != nil {
			return Result{}, fmt.Errorf("chains: adversary %q composes only with synchronous complete-graph networks", sc.Adversary.Name)
		}
		return drive(withholding(sc.Adversary, sc.Params)), nil
	}
	if sc.System == nil {
		return Result{}, fmt.Errorf("chains: scenario names no system")
	}
	defaultLinks := sc.Links.Build == nil && sc.Links.Regime == ""
	defaultTopo := sc.Topology.Graph == nil && sc.Topology.WrapLinks == nil
	if defaultLinks && defaultTopo {
		// The Table 1 path: the system's own Run, raw params (it applies
		// its own defaults).
		return sc.System.Run(sc.Params.Params), nil
	}
	name := sc.System.Name()
	sel, ok := powSelectors[name]
	if !ok {
		regime := sc.Links.Regime
		if regime == "" {
			regime = "sync"
		}
		return Result{}, &UnknownSystemError{System: name, Regime: regime, Known: PoWSystems()}
	}
	p := sc.Params
	p.Params = p.Params.withDefaults()
	r := powRun(sc.System, sel, p.Params)
	if sc.Links.Build != nil {
		r.links = sc.Links.Build(p)
	}
	if r.links == nil {
		r.links = netsim.Synchronous{Delta: p.Delta}
	}
	if sc.Topology.WrapLinks != nil {
		r.links = sc.Topology.WrapLinks(r.links, p)
	}
	r.topo = sc.Topology.Graph
	if sc.Links.Regime != "" {
		r.name += "/" + sc.Links.Regime
	}
	if sc.Links.Refinement != "" {
		r.refinement = sc.Links.Refinement
	}
	if sc.Topology.Name != "" {
		r.name += "@" + sc.Topology.Name
	}
	res := drive(r)
	if sc.Links.Heal != nil {
		res.PartitionHeal = sc.Links.Heal(p)
	}
	return res, nil
}

// The six link plans of the Section 4.2 channel models. SWEEP_baseline.json
// pins each Build's defaulting and netsim construction: changing either
// changes results and the rng streams behind them.
var (
	// AsyncLinks is the asynchronous regime of the Section 4.2 open
	// issues: common-case delay MaxDelay, TailProb stragglers at 10×.
	AsyncLinks = LinkPlan{
		Regime:     "async",
		Refinement: "R(BT-ADT_EC, Θ_P) — async regime",
		Build: func(p ScenarioParams) netsim.LinkModel {
			return netsim.Asynchronous{MaxDelay: p.MaxDelay, TailProb: p.TailProb}
		},
	}
	// PsyncLinks is the weakly synchronous regime: asynchronous before
	// GST (0 → 8δ), δ-bounded after, pre-GST sends delivered by GST+δ.
	PsyncLinks = LinkPlan{
		Regime:     "psync",
		Refinement: "R(BT-ADT_EC, Θ_P) — weakly synchronous (GST) regime",
		Build: func(p ScenarioParams) netsim.LinkModel {
			gst := p.GST
			if gst <= 0 {
				gst = 8 * p.Delta
			}
			return netsim.WeaklySynchronous{GST: gst, Delta: p.Delta, PreMax: p.PreMax}
		},
	}
	// LossyLinks drops each message with probability Rate (0 →
	// DefaultLossRate), never retransmitting — the Theorem 4.7 channels.
	LossyLinks = LinkPlan{
		Regime:     "lossy",
		Refinement: "R(BT-ADT_EC, Θ_P) — lossy channels (Theorem 4.7 regime)",
		Build: func(p ScenarioParams) netsim.LinkModel {
			rate := p.Rate
			if rate <= 0 {
				rate = DefaultLossRate
			}
			return netsim.LossyRate{Inner: netsim.Synchronous{Delta: p.Delta}, P: rate}
		},
	}
	// LossyPsyncLinks combines per-message drops at Rate (taken
	// literally: 0 = reliable) with weak synchrony stabilizing at
	// GSTDeltas·δ (0 → 8) — the Theorem 4.7 phase-boundary grid.
	LossyPsyncLinks = LinkPlan{
		Regime:     "lossy+psync",
		Refinement: "R(BT-ADT_EC, Θ_P) — lossy weakly-synchronous regime (Theorem 4.7 boundary)",
		Build: func(p ScenarioParams) netsim.LinkModel {
			gstDeltas := p.GSTDeltas
			if gstDeltas <= 0 {
				gstDeltas = 8
			}
			return netsim.LossyRate{
				Inner: netsim.WeaklySynchronous{GST: gstDeltas * p.Delta, Delta: p.Delta},
				P:     p.Rate,
			}
		},
	}
	// PartitionLinks bisects the network over [Start, Heal) (0 →
	// [8δ, 24δ)) at cut Split (0 → N/2), deferring cross-cut deliveries
	// until the cut heals.
	PartitionLinks = LinkPlan{
		Regime:     "partition",
		Refinement: "R(BT-ADT_EC, Θ_P) — healed partition regime",
		Build: func(p ScenarioParams) netsim.LinkModel {
			start, heal := partitionWindow(p)
			split := p.Split
			if split <= 0 {
				split = p.N / 2
			}
			return netsim.PartitionModel{
				Inner: netsim.Synchronous{Delta: p.Delta},
				Split: history.ProcID(split),
				Start: start,
				Heal:  heal,
				Defer: true,
			}
		},
		Heal: func(p ScenarioParams) int64 {
			_, heal := partitionWindow(p)
			return heal
		},
	}
	// JitterLinks stretches a TailProb (0 → 0.05) fraction of
	// deliveries by TailFactor× (0 → 10) over synchronous links.
	JitterLinks = LinkPlan{
		Regime:     "jitter",
		Refinement: "R(BT-ADT_EC, Θ_P) — heavy-tail jitter regime",
		Build: func(p ScenarioParams) netsim.LinkModel {
			tail := p.TailProb
			if tail <= 0 {
				tail = 0.05
			}
			return netsim.Jitter{Inner: netsim.Synchronous{Delta: p.Delta}, TailProb: tail, TailFactor: p.TailFactor}
		},
	}
)

// partitionWindow resolves the partition interval's δ-scaled defaults.
func partitionWindow(p ScenarioParams) (start, heal int64) {
	start, heal = p.Start, p.Heal
	if start <= 0 {
		start = 8 * p.Delta
	}
	if heal <= start {
		heal = start + 16*p.Delta
	}
	return start, heal
}

// The two adversary plans: the Eyal–Sirer withholding miner over plain
// Bitcoin and over FruitChain's fruit-reward scheme.
var (
	// SelfishWithholding replaces process 0 with a selfish miner holding
	// merit share Params.Alpha.
	SelfishWithholding = AdversaryPlan{
		Name: "selfish", label: "Bitcoin+selfish(α=%.2f)",
		refinement: "R(BT-ADT_EC, Θ_P) under adversarial withholding",
		honest:     func(pr peer) process { return &powNode{pr} },
		adversary: func(pr peer) (process, *selfishMiner) {
			m := &selfishMiner{peer: pr}
			return m, m
		},
		census: selfishCensus,
	}
	// FruitWithholding runs the same withholding miner against honest
	// FruitChain miners; its withheld blocks include only its own fruits.
	FruitWithholding = AdversaryPlan{
		Name: "fruit-selfish", label: "FruitChain+selfish(α=%.2f)",
		refinement: "R(BT-ADT_EC, Θ_P) — fair rewards via fruits",
		honest:     newFruitNode, adversary: newFruitSelfishMiner, census: fruitCensus,
	}
)
