package chains

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"blockadt/internal/history"
)

// digestCases lists every driver configuration TestDriverDigests pins:
// the seven Table 1 systems, the PoW systems under each link plan and
// each topology plan, both withholding plans and the PBFT-committed
// chain.
func digestCases() []struct {
	name string
	sc   Scenario
} {
	type dc = struct {
		name string
		sc   Scenario
	}
	p := ScenarioParams{Params: Params{N: 6, TargetBlocks: 20}}
	var out []dc
	for _, sys := range All() {
		out = append(out, dc{sys.Name(), Scenario{System: sys, Params: p}})
	}
	links := []LinkPlan{AsyncLinks, PsyncLinks, LossyLinks, LossyPsyncLinks, PartitionLinks, JitterLinks}
	topos := []TopologyPlan{GossipTopology(3), ClusteredTopology(2, 2)}
	for _, sys := range []System{Bitcoin{}, Ethereum{}} {
		for _, l := range links {
			out = append(out, dc{sys.Name() + "/" + l.Regime, Scenario{System: sys, Links: l, Params: p}})
		}
		for _, tp := range topos {
			out = append(out, dc{sys.Name() + "@" + tp.Name, Scenario{System: sys, Topology: tp, Params: p}})
		}
	}
	adv := p
	adv.Alpha = 0.34
	out = append(out,
		dc{"SelfishWithholding", Scenario{Adversary: SelfishWithholding, Params: adv}},
		dc{"FruitWithholding", Scenario{Adversary: FruitWithholding, Params: adv}},
		dc{"PBFTChain", Scenario{System: PBFTChain{}, Params: ScenarioParams{Params: Params{N: 4, TargetBlocks: 15}}}},
	)
	return out
}

// dumpResult writes a canonical rendering of everything a run produced:
// every scalar field, every history record with its names and read chain
// rendered, and the adversarial census with its maps sorted.
func dumpResult(w io.Writer, r Result) {
	fmt.Fprintf(w, "%q %q %q %q k=%d blocks=%d forks=%d ticks=%d delivered=%d dropped=%d bytes=%d heal=%d metrics=%d\n",
		r.System, r.Refinement, r.OracleName, r.SelectorName, r.K, r.Blocks, r.Forks, r.Ticks,
		r.Delivered, r.Dropped, r.Bytes, r.PartitionHeal, len(r.Metrics))
	h := r.History
	fmt.Fprintf(w, "events=%d ops=%d reads=%d\n", h.Len(), len(h.Ops()), len(h.Reads()))
	for i := range h.Ops() {
		op := h.Op(history.OpID(i))
		fmt.Fprintf(w, "%d p%d %s %d/%d %d/%d tok=%d origin=%d %s<-%s ok=%v complete=%v chain=%v\n",
			i, op.Proc, op.Kind, op.InvSeq, op.InvTime, op.RspSeq, op.RspTime, op.Token, op.Origin,
			h.Name(op.Block), h.Name(op.Parent), op.OK, op.Complete, h.Chain(op.Chain))
	}
	a := r.Adversary
	if a == nil {
		return
	}
	fmt.Fprintf(w, "adv mined=%d/%d share=%v/%v merit=%v orphaned=%d block=%v reward=%v final=%v\n",
		a.AdversaryMined, a.HonestMined, a.AdversaryShare, a.HonestShare, a.AdversaryMerit,
		a.Orphaned, a.AdversaryBlockShare, a.AdversaryRewardShare, a.FinalChain.IDs())
	for _, m := range []struct {
		name   string
		counts map[history.ProcID]int
	}{{"main", a.MainChainByProc}, {"blocks", a.BlockShareByProc}, {"rewards", a.FruitRewardByProc}} {
		procs := make([]int, 0, len(m.counts))
		for p := range m.counts {
			procs = append(procs, int(p))
		}
		sort.Ints(procs)
		fmt.Fprintf(w, "%s nil=%v", m.name, m.counts == nil)
		for _, p := range procs {
			fmt.Fprintf(w, " p%d=%d", p, m.counts[history.ProcID(p)])
		}
		fmt.Fprintln(w)
	}
}

// TestDriverDigests pins every simulation driver byte for byte: the
// SHA-256 of each run's canonical dump must match the digest recorded in
// testdata/driver_digests.golden. A refactor of the drivers that moves a
// single event sequence number, rng draw, history record or census count
// fails here. Regenerate deliberately with:
// go test ./internal/chains -run TestDriverDigests -update
func TestDriverDigests(t *testing.T) {
	var lines []string
	for _, c := range digestCases() {
		for seed := uint64(1); seed <= 3; seed++ {
			sc := c.sc
			sc.Params.Seed = seed
			h := sha256.New()
			dumpResult(h, execScenario(t, sc))
			lines = append(lines, fmt.Sprintf("%s seed=%d %x", c.name, seed, h.Sum(nil)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "driver_digests.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read digests: %v (regenerate with -update)", err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d digests, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("driver output drifted:\n got  %s\n want %s", lines[i], want[i])
		}
	}
}
