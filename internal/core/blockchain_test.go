package core

import (
	"fmt"
	"sync"
	"testing"

	"blockadt/internal/blocktree"
	"blockadt/internal/consistency"
	"blockadt/internal/history"
	"blockadt/internal/oracle"
)

func TestDefaults(t *testing.T) {
	bc := New(Config{})
	if bc.Oracle().K() != 1 {
		t.Fatalf("default oracle k = %d, want 1", bc.Oracle().K())
	}
	if bc.Selector().Name() != "longest" {
		t.Fatalf("default selector = %s", bc.Selector().Name())
	}
	if bc.Recorder() == nil {
		t.Fatal("default recorder missing")
	}
}

// TestFig7AppendRefinementPath reproduces Figure 7: the refined append's
// path through the combined transition system — getToken on the tip of
// f(bt), then consumeToken inserting into K, then the concatenation — made
// observable through the recorded history and the oracle state.
func TestFig7AppendRefinementPath(t *testing.T) {
	orc := oracle.NewFrugal(2, 42, 1)
	bc := New(Config{Oracle: orc})

	ok, err := bc.Append(0, blocktree.Block{ID: "bk"})
	if err != nil || !ok {
		t.Fatalf("append(bk): ok=%v err=%v", ok, err)
	}
	// Oracle state ξ'1/b: K[b0] = {bk}.
	if set := orc.ConsumedSet("b0"); len(set) != 1 || set[0] != "bk" {
		t.Fatalf("K[b0] = %v, want {bk}", set)
	}
	// read()/b0⌢bk.
	if got := bc.Read(0).String(); got != "b0⌢bk" {
		t.Fatalf("read = %s", got)
	}
	// Second append chains to the new tip.
	ok, err = bc.Append(0, blocktree.Block{ID: "b2"})
	if err != nil || !ok {
		t.Fatalf("append(b2): ok=%v err=%v", ok, err)
	}
	if got := bc.Read(0).String(); got != "b0⌢bk⌢b2" {
		t.Fatalf("read = %s", got)
	}

	// The recorded history carries the same path.
	h := bc.History()
	appends := h.SuccessfulAppends()
	if len(appends) != 2 {
		t.Fatalf("successful appends = %d", len(appends))
	}
	p0, p1 := h.Name(h.Op(appends[0]).Parent), h.Name(h.Op(appends[1]).Parent)
	if p0 != "b0" || p1 != "bk" {
		t.Fatalf("append parents = %s, %s", p0, p1)
	}
}

func TestAppendedBlockCarriesToken(t *testing.T) {
	bc := New(Config{})
	if ok, _ := bc.Append(0, blocktree.Block{ID: "a"}); !ok {
		t.Fatal("append failed")
	}
	b, ok := bc.Tree().Get("a")
	if !ok {
		t.Fatal("block missing from tree")
	}
	if !blocktree.RequireToken(b) {
		t.Fatal("appended block has no oracle token: not in B′")
	}
}

func TestFrugalK1RefusesSecondChild(t *testing.T) {
	// Two appends race for the same parent under k=1: the loser's append
	// returns false (evaluate fails) and the tree stays a single chain.
	orc := oracle.NewFrugal(1, 7, 1, 1)
	bc := New(Config{Oracle: orc})
	ok1, _ := bc.Append(0, blocktree.Block{ID: "x"})
	// Force the second append onto the same parent by reading the
	// oracle: after x's insertion, the selected tip is x, so to contend
	// on b0 we use a fresh object directly.
	tok, granted := orc.GetToken(1, "b0", "y")
	if !granted {
		t.Fatal("token refused")
	}
	_, inserted, err := orc.ConsumeToken(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !ok1 {
		t.Fatal("first append failed")
	}
	if inserted {
		t.Fatal("k=1 oracle allowed a second child of b0")
	}
}

func TestAppendTokenExhaustion(t *testing.T) {
	orc := oracle.New(oracle.Config{K: 1, Merits: []float64{0}, Seed: 1})
	bc := New(Config{Oracle: orc, MaxTokenAttempts: 5})
	ok, err := bc.Append(0, blocktree.Block{ID: "never"})
	if ok || err != ErrTokenExhausted {
		t.Fatalf("ok=%v err=%v, want token exhaustion", ok, err)
	}
	// The failed append is still recorded (purged histories drop it).
	h := bc.History()
	if len(h.Appends()) != 1 || h.Op(h.Appends()[0]).OK {
		t.Fatalf("appends = %+v", h.Appends())
	}
}

func TestReadRecordsHistory(t *testing.T) {
	bc := New(Config{})
	bc.Read(3)
	h := bc.History()
	reads := h.Reads()
	if len(reads) != 1 || h.Op(reads[0]).Proc != 3 {
		t.Fatalf("reads = %+v", reads)
	}
	if got := h.Chain(h.Op(reads[0]).Chain); got.String() != "b0" {
		t.Fatalf("initial read = %s", got)
	}
}

// TestConcurrentAppendsProduceSCHistory: with the frugal k=1 oracle, fully
// concurrent appenders and readers still yield a history satisfying BT
// Strong Consistency — the shared-memory counterpart of Corollary 4.8.1.
func TestConcurrentAppendsProduceSCHistory(t *testing.T) {
	const procs = 8
	merits := make([]float64, procs)
	for i := range merits {
		merits[i] = 1
	}
	orc := oracle.New(oracle.Config{K: 1, Merits: merits, Seed: 21})
	bc := New(Config{Oracle: orc})

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := blocktree.BlockID(fmt.Sprintf("p%d-%d", p, i))
				bc.Append(history.ProcID(p), blocktree.Block{ID: id})
				bc.Read(history.ProcID(p))
			}
		}(p)
	}
	wg.Wait()

	h := bc.History()
	rep := consistency.CheckSC(h, consistency.Options{})
	if !rep.Satisfied() {
		t.Fatalf("concurrent k=1 run violates SC:\n%s", rep)
	}
	// The tree must be a single chain: k=1 everywhere.
	if bc.Tree().MaxFanout() > 1 {
		t.Fatalf("fanout = %d under k=1", bc.Tree().MaxFanout())
	}
}

// TestConcurrentProdigalKeepsECProperties: with Θ_P the same workload may
// fork, but Block Validity and Local Monotonic Read always hold.
func TestConcurrentProdigalKeepsECProperties(t *testing.T) {
	const procs = 8
	merits := make([]float64, procs)
	for i := range merits {
		merits[i] = 1
	}
	orc := oracle.NewProdigal(5, merits...)
	bc := New(Config{Oracle: orc})

	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := blocktree.BlockID(fmt.Sprintf("q%d-%d", p, i))
				if ok, err := bc.Append(history.ProcID(p), blocktree.Block{ID: id}); err != nil || !ok {
					t.Errorf("prodigal append refused: ok=%v err=%v", ok, err)
					return
				}
				bc.Read(history.ProcID(p))
			}
		}(p)
	}
	wg.Wait()

	h := bc.History()
	opts := consistency.Options{}
	if v := consistency.BlockValidity(h, opts); !v.Satisfied {
		t.Fatalf("block validity: %s", v)
	}
	if v := consistency.LocalMonotonicRead(h, opts); !v.Satisfied {
		t.Fatalf("local monotonic read: %s", v)
	}
	if got := len(h.SuccessfulAppends()); got != procs*20 {
		t.Fatalf("successful appends = %d, want %d (Θ_P never refuses)", got, procs*20)
	}
}
