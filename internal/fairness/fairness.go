// Package fairness analyzes proposer fairness — the paper leaves fairness
// unformalized but provides "a generic merit parameter that can be used to
// define fairness" (Section 1, related-work discussion of [1]). This
// package defines the natural notion that parameter supports: a run is
// α-fair when each process's share of committed blocks matches its merit
// share, which is the chain-quality property of the Bitcoin backbone line
// of work.
package fairness

import (
	"fmt"
	"sort"
	"strings"

	"blockadt/internal/history"
	"blockadt/internal/metrics"
)

// Share is one process's realized vs entitled proportion of blocks.
type Share struct {
	Proc history.ProcID
	// Blocks is the number of committed blocks proposed by the process.
	Blocks int
	// Realized is Blocks / total.
	Realized float64
	// Entitled is the process's normalized merit αᵢ / Σαⱼ.
	Entitled float64
}

// Report is the fairness analysis of a history.
type Report struct {
	// Shares holds one entry per process with positive merit or blocks.
	Shares []Share
	// Total is the number of committed blocks counted.
	Total int
	// TVD is the total variation distance between the realized and
	// entitled distributions: ½·Σ|realized−entitled| ∈ [0,1].
	TVD float64
	// ChiSquare is Σ (observedᵢ − expectedᵢ)² / expectedᵢ over processes
	// with positive entitlement.
	ChiSquare float64
}

// Fair reports whether the realized distribution is within tolerance of
// the entitlement in total variation distance.
func (r Report) Fair(tolerance float64) bool { return r.TVD <= tolerance }

// String renders the report as an aligned table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %8s %10s %10s\n", "proc", "blocks", "realized", "entitled")
	for _, s := range r.Shares {
		fmt.Fprintf(&b, "p%-5d %8d %9.1f%% %9.1f%%\n", s.Proc, s.Blocks, 100*s.Realized, 100*s.Entitled)
	}
	fmt.Fprintf(&b, "total %d blocks, TVD %.4f, χ² %.3f\n", r.Total, r.TVD, r.ChiSquare)
	return b.String()
}

// Analyze counts, per process, the successful appends in the history and
// compares the realized block shares against the merit entitlement.
// merits[i] is αᵢ for process i; processes beyond the slice have merit 0.
//
// Note this measures *production* fairness (who got blocks validated). For
// chain quality — whose blocks survive onto the selected chain, the measure
// selfish mining attacks — count main-chain authorship and use FromCounts.
func Analyze(h *history.History, merits []float64) Report {
	counts := map[history.ProcID]int{}
	seen := map[history.Ref]bool{}
	for _, id := range h.SuccessfulAppends() {
		a := h.Op(id)
		if seen[a.Block] {
			continue
		}
		seen[a.Block] = true
		counts[a.Proc]++
	}
	return FromCounts(counts, merits)
}

// FromCounts compares an arbitrary per-process block census (e.g.
// main-chain authorship) against the merit entitlement.
func FromCounts(counts map[history.ProcID]int, merits []float64) Report {
	total := 0
	for _, n := range counts {
		total += n
	}

	var meritSum float64
	for _, m := range merits {
		meritSum += m
	}

	procs := map[history.ProcID]bool{}
	for p := range counts {
		procs[p] = true
	}
	for i := range merits {
		if merits[i] > 0 {
			procs[history.ProcID(i)] = true
		}
	}
	ids := make([]history.ProcID, 0, len(procs))
	for p := range procs {
		ids = append(ids, p)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	rep := Report{Total: total}
	// Assemble the aligned realized/entitled distributions, then hand
	// the distance statistics to the metrics subsystem (the single
	// implementation the sweep aggregation uses too).
	realized := make([]float64, 0, len(ids))
	entitled := make([]float64, 0, len(ids))
	observedCounts := make([]float64, 0, len(ids))
	expectedCounts := make([]float64, 0, len(ids))
	for _, p := range ids {
		s := Share{Proc: p, Blocks: counts[p]}
		if total > 0 {
			s.Realized = float64(counts[p]) / float64(total)
		}
		if int(p) < len(merits) && meritSum > 0 {
			s.Entitled = merits[p] / meritSum
		}
		rep.Shares = append(rep.Shares, s)
		realized = append(realized, s.Realized)
		entitled = append(entitled, s.Entitled)
		if total > 0 {
			observedCounts = append(observedCounts, float64(counts[p]))
			expectedCounts = append(expectedCounts, s.Entitled*float64(total))
		}
	}
	rep.TVD = metrics.TVD(realized, entitled)
	rep.ChiSquare = metrics.ChiSquare(observedCounts, expectedCounts)
	return rep
}
