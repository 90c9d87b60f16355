package history_test

import (
	"slices"
	"testing"

	"blockadt/internal/chains"
	"blockadt/internal/history"
	"blockadt/pkg/blockadt"
)

// clock replays the event times of a recorded run, one per Now call.
type clock struct {
	times []int64
	next  int
}

func (c *clock) Now() int64 {
	c.next++
	return c.times[c.next-1]
}

// call is one recorder call of a replayed run.
type call struct {
	kind   history.EventType
	record bool // Record: both events in one call
	proc   history.ProcID
	op     history.OpID
	label  history.Label
	// tip and height: a read response replayed through RespondTip.
	tip    history.BlockRef
	height int
}

// bitcoinRun simulates Bitcoin with n=8 and 30 blocks over the given
// dissemination topology, the shape of the CI sweep matrix.
func bitcoinRun(tb testing.TB, topo chains.TopologyPlan) *history.History {
	tb.Helper()
	p := chains.ScenarioParams{Params: chains.Params{N: 8, TargetBlocks: 30, Seed: 42}}
	res, err := chains.Execute(chains.Scenario{System: chains.Bitcoin{}, Topology: topo, Params: p})
	if err != nil {
		tb.Fatal(err)
	}
	return res.History
}

// opStream recovers the recorder calls that produced h, and the event
// times its clock returned: send, receive and update events were Record
// calls, reads were answered with their tip as replicas do, everything
// else went through Invoke and Respond.
func opStream(h *history.History) ([]call, []int64) {
	ev := h.Events()
	var out []call
	times := make([]int64, len(ev))
	for i, e := range ev {
		times[i] = e.Time
	}
	for i := 0; i < len(ev); i++ {
		e := ev[i]
		c := call{kind: e.Type, proc: e.Proc, op: e.Op, label: e.Label}
		switch k := e.Label.Kind; {
		case k == history.KindSend || k == history.KindReceive || k == history.KindUpdate:
			c.record = true
			i++ // the response event of the same call
		case k == history.KindRead:
			c.label.Chain = nil
			if chain := h.Op(e.Op).Chain; e.Type == history.Response && chain >= 0 {
				c.tip, c.height = h.Name(history.Ref(chain)), h.ChainLen(chain)-1
			}
		}
		out = append(out, c)
	}
	return out, times
}

// replay feeds calls to a fresh recorder, unsized like the simulators'
// recorders, and returns the history.
func replay(calls []call, times []int64, ids []history.OpID) *history.History {
	r := history.NewRecorderWithClock(&clock{times: times})
	for i := range calls {
		switch c := &calls[i]; {
		case c.record:
			r.Record(c.proc, c.label)
		case c.kind == history.Invocation:
			ids[c.op] = r.Invoke(c.proc, c.label)
		case c.tip != "":
			r.RespondTip(ids[c.op], c.tip, c.height)
		default:
			r.Respond(ids[c.op], c.label)
		}
	}
	return r.Finalize()
}

var topologies = []struct {
	name string
	plan chains.TopologyPlan
}{
	{"complete", chains.TopologyPlan{}},
	{"clustered2", chains.ClusteredTopology(2, 4)},
}

// BenchmarkRecord replays the recorder calls of a Bitcoin run (n=8, 30
// blocks) on the complete graph and on two latency clusters, the latter
// recording about twice as many operations.
func BenchmarkRecord(b *testing.B) {
	for _, topo := range topologies {
		h := bitcoinRun(b, topo.plan)
		calls, times := opStream(h)
		ids := make([]history.OpID, len(h.Ops()))
		b.Run(topo.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if replay(calls, times, ids).Len() != h.Len() {
					b.Fatal("replay lost events")
				}
			}
		})
	}
}

// recordedRun is the history of one simulated run, named for diagnostics.
type recordedRun struct {
	name string
	h    *history.History
}

// TestReplayMatchesRecordedRun pins the replay BenchmarkRecord times: the
// calls recovered from the derived event view rebuild the run's history
// record for record. It runs on the benchmark's two histories and on every
// run of CI's sweep matrix over its three topologies, seeds 1–4, where it
// also checks that no simulator reserves its log ahead of the run: the
// log grows by append, so its capacity stays under twice its length.
func TestReplayMatchesRecordedRun(t *testing.T) {
	var runs []recordedRun
	for _, topo := range topologies {
		runs = append(runs, recordedRun{topo.name, bitcoinRun(t, topo.plan)})
	}
	if !testing.Short() {
		runs = append(runs, ciRuns(t)...)
	}
	for _, r := range runs {
		h := r.h
		calls, times := opStream(h)
		got := replay(calls, times, make([]history.OpID, len(h.Ops())))
		if !slices.Equal(got.Ops(), h.Ops()) || !slices.Equal(got.Reads(), h.Reads()) || got.Len() != h.Len() {
			t.Fatalf("%s: replayed history differs from the recorded run", r.name)
		}
		for _, id := range h.Reads() {
			if a, b := got.Chain(got.Op(id).Chain).String(), h.Chain(h.Op(id).Chain).String(); a != b {
				t.Fatalf("%s: read %d replayed as %s, recorded %s", r.name, id, a, b)
			}
		}
		if n := len(h.Ops()); cap(h.Ops()) >= 2*n {
			t.Errorf("%s: log of %d ops has capacity %d", r.name, n, cap(h.Ops()))
		}
	}
}

// ciRuns simulates every run of CI's sweep matrix on the three
// topologies, seeds 1–4.
func ciRuns(t *testing.T) []recordedRun {
	m := blockadt.Matrix{
		Links: []string{blockadt.LinkSync, blockadt.LinkAsync, blockadt.LinkPsync,
			blockadt.LinkLossy, blockadt.LinkPartition, blockadt.LinkJitter},
		Adversaries:  []string{blockadt.AdvNone, blockadt.AdvSelfish},
		Topologies:   []string{blockadt.TopoComplete, blockadt.TopoGossip, blockadt.TopoClustered},
		Ns:           []int{8},
		Seeds:        4,
		TargetBlocks: 30,
	}
	configs, err := m.Configs()
	if err != nil {
		t.Fatal(err)
	}
	var out []recordedRun
	for _, cfg := range configs {
		opts := []blockadt.Option{blockadt.WithN(cfg.N), blockadt.WithBlocks(cfg.Blocks),
			blockadt.WithSeed(cfg.Seed), blockadt.WithLink(cfg.Link)}
		var h *history.History
		if cfg.Adversary != blockadt.AdvNone {
			res, err := blockadt.SimulateAdversary(cfg.System, cfg.Adversary, append(opts, blockadt.WithAlpha(cfg.Alpha))...)
			if err != nil {
				t.Fatal(err)
			}
			h = res.History
		} else {
			sim, err := blockadt.Simulate(cfg.System, append(opts, blockadt.WithTopology(cfg.Topology))...)
			if err != nil {
				t.Fatal(err)
			}
			h = sim.History
		}
		out = append(out, recordedRun{cfg.Key(), h})
	}
	return out
}
