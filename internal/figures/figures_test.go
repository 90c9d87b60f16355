package figures

import (
	"testing"

	"blockadt/internal/history"
)

func TestFig2Shape(t *testing.T) {
	h := Fig2(0)
	reads := h.Reads()
	if len(reads) != 6 {
		t.Fatalf("reads = %d, want 6", len(reads))
	}
	if got := h.Chain(h.Op(reads[0]).Chain).String(); got != "b0⌢1" {
		t.Fatalf("first read = %s", got)
	}
	if got := h.Chain(h.Op(reads[5]).Chain).String(); got != "b0⌢1⌢2⌢3⌢4" {
		t.Fatalf("last read = %s", got)
	}
	if got := len(h.SuccessfulAppends()); got != 4 {
		t.Fatalf("appends = %d, want 4", got)
	}
}

func TestFig2TailGrows(t *testing.T) {
	h := Fig2(5)
	reads := h.Reads()
	last := h.Chain(h.Op(reads[len(reads)-1]).Chain)
	if len(last) != 1+4+5 {
		t.Fatalf("final chain length = %d, want 10", len(last))
	}
	if got := len(h.SuccessfulAppends()); got != 9 {
		t.Fatalf("appends = %d, want 9", got)
	}
}

func TestFig3DivergenceThenConvergence(t *testing.T) {
	h := Fig3(3)
	reads := h.Reads()
	// First two reads diverge.
	a, b := h.Chain(h.Op(reads[0]).Chain), h.Chain(h.Op(reads[1]).Chain)
	if a.HasPrefix(b) || b.HasPrefix(a) {
		t.Fatalf("first reads must diverge: %s vs %s", a, b)
	}
	// Last two reads agree.
	n := len(reads)
	x, y := h.Chain(h.Op(reads[n-1]).Chain), h.Chain(h.Op(reads[n-2]).Chain)
	if x.String() != y.String() {
		t.Fatalf("final reads must converge: %s vs %s", x, y)
	}
}

func TestFig4PersistentDivergence(t *testing.T) {
	h := Fig4(4)
	reads := h.Reads()
	n := len(reads)
	// The two final reads (one per process) still diverge.
	var lastI, lastJ history.Chain
	for _, id := range reads {
		if r := h.Op(id); r.Proc == ProcI {
			lastI = h.Chain(r.Chain)
		} else {
			lastJ = h.Chain(r.Chain)
		}
	}
	if lastI.HasPrefix(lastJ) || lastJ.HasPrefix(lastI) {
		t.Fatalf("final reads converged: %s vs %s", lastI, lastJ)
	}
	if n < 10 {
		t.Fatalf("reads = %d", n)
	}
}

func TestFiguresReadsAreProcessMonotone(t *testing.T) {
	for name, h := range map[string]*history.History{
		"fig2": Fig2(6), "fig3": Fig3(6), "fig4": Fig4(6),
	} {
		last := map[history.ProcID]int{}
		for _, id := range h.Reads() {
			r := h.Op(id)
			s := h.ChainLen(r.Chain)
			if prev, ok := last[r.Proc]; ok && s < prev {
				t.Fatalf("%s: process %d read scores regress", name, r.Proc)
			}
			last[r.Proc] = s
		}
	}
}

func TestCustomBuilder(t *testing.T) {
	h := NewCustom().
		At(5).AppendOK(2, "b0", "z").
		At(9).Read(2, "b0", "z").
		History()
	reads := h.Reads()
	if len(reads) != 1 || h.Op(reads[0]).InvTime != 9 {
		t.Fatalf("reads = %+v", reads)
	}
	appends := h.SuccessfulAppends()
	if len(appends) != 1 || h.Op(appends[0]).InvTime != 5 {
		t.Fatalf("appends = %+v", appends)
	}
}
