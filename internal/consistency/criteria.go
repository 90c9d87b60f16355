package consistency

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"blockadt/internal/blocktree"
	"blockadt/internal/history"
)

// scorer scores a history's chains: by length when Options.Score is nil,
// which needs no names, otherwise by the caller's Score on the rendered
// chain.
type scorer struct {
	h     *history.History
	score blocktree.Score
}

// chain scores chain c.
func (s scorer) chain(c history.ChainID) int {
	return s.prefix(c, s.h.ChainLen(c))
}

// prefix scores the first n blocks of chain c.
func (s scorer) prefix(c history.ChainID, n int) int {
	if s.score == nil {
		return max(n-1, 0) // blocktree.LengthScore
	}
	return s.score(s.h.Chain(c)[:n])
}

// BlockValidity checks the Block validity property of Definition 3.2: every
// block in a chain returned by a read() is valid and was inserted via an
// append() whose invocation program-order-precedes the read's response.
// Replicated histories (Section 4.2) insert remote blocks via update
// events, so an update of the block before the read response at any process
// also witnesses insertion — updates only carry oracle-validated blocks in
// this reproduction (Definition 4.2 restricts E to appends of valid
// blocks).
func BlockValidity(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}

	// earliest[b] = earliest time block b entered the system via an
	// append invocation or an update event; math.MaxInt64 if never.
	earliest := make([]int64, h.NumRefs())
	for i := range earliest {
		earliest[i] = math.MaxInt64
	}
	ops := h.Ops()
	for i := range ops {
		op := &ops[i]
		if (op.Kind == history.KindAppend || op.Kind == history.KindUpdate) &&
			op.Block != history.NoRef && op.InvTime < earliest[op.Block] {
			earliest[op.Block] = op.InvTime
		}
	}

	genesis := h.Lookup(blocktree.GenesisID)
	checked := 0
	var chain []history.Ref
	for _, id := range h.Reads() {
		r := &ops[id]
		chain = h.AppendChain(chain[:0], r.Chain)
		for _, b := range chain {
			if b == genesis {
				continue
			}
			checked++
			t := earliest[b]
			if t == math.MaxInt64 {
				sink.add(func() string {
					return fmt.Sprintf("read by p%d returned %s containing %s, never appended", r.Proc, h.Chain(r.Chain), string(h.Name(b)))
				})
				continue
			}
			if t > r.RspTime {
				sink.add(func() string {
					return fmt.Sprintf("read by p%d (rsp t=%d) returned %s before its append/update (t=%d)", r.Proc, r.RspTime, string(h.Name(b)), t)
				})
			}
		}
	}
	return sink.verdict("BlockValidity", checked)
}

// LocalMonotonicRead checks Definition 3.2's Local monotonic read: along
// each process's sequence of reads (process order ↦→), the score of the
// returned blockchain never decreases.
func LocalMonotonicRead(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	sc := scorer{h, opts.Score}
	ops, reads := h.Ops(), h.Reads()
	checked := 0
	// Process order groups each process's reads together, so the
	// previous read of the same process is the previous element.
	var prev *history.Op
	prevScore := 0
	for _, i := range readsByProcessOrder(h) {
		r := &ops[reads[i]]
		s := sc.chain(r.Chain)
		if prev != nil && prev.Proc == r.Proc {
			checked++
			if s < prevScore {
				sink.add(func() string {
					return fmt.Sprintf("p%d read %s (score %d) after %s (score %d)", r.Proc, h.Chain(r.Chain), s, h.Chain(prev.Chain), prevScore)
				})
			}
		}
		prev, prevScore = r, s
	}
	return sink.verdict("LocalMonotonicRead", checked)
}

// readsByProcessOrder returns the indexes into h.Reads() sorted by (proc,
// invocation sequence): the per-process order ↦→. History.Reads returns
// the history's own slice, so the permutation is sorted instead. No two
// reads share a key, so any sort algorithm yields this one order.
func readsByProcessOrder(h *history.History) []int32 {
	ops, reads := h.Ops(), h.Reads()
	order := make([]int32, len(reads))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		a, b := &ops[reads[i]], &ops[reads[j]]
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.InvSeq, b.InvSeq))
	})
	return order
}

// StrongPrefix checks Definition 3.2's Strong prefix: for every pair of
// reads, one returned blockchain is a prefix of the other. The check sorts
// chains by length and verifies each is a prefix of the next longer one:
// prefix order is total on a set iff adjacent elements in length order are
// related, which brings the pairwise O(N²) property to O(N log N + N·L).
func StrongPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	ops, reads := h.Ops(), h.Reads()
	chains := make([]history.ChainID, len(reads))
	lens := make([]int, len(reads))
	for i, id := range reads {
		chains[i] = ops[id].Chain
		lens[i] = h.ChainLen(chains[i])
	}
	order := make([]int, len(chains))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return lens[order[a]] < lens[order[b]] })
	checked := 0
	for i := 1; i < len(order); i++ {
		a, b := chains[order[i-1]], chains[order[i]]
		checked++
		if !h.IsPrefix(a, b) {
			sink.add(func() string {
				return fmt.Sprintf("neither of %s and %s prefixes the other", h.Chain(a), h.Chain(b))
			})
		}
	}
	return sink.verdict("StrongPrefix", checked)
}

// EverGrowingTree checks Definition 3.2's Ever growing tree under the
// finitization documented in the package comment: a read rᵢ with score s
// may be followed by at most W-1 reads before every later read whose
// invocation the response of rᵢ program-order-precedes returns a score
// strictly greater than s.
//
// The paper quantifies the property over E(a∗, r∗) — histories with
// infinitely many appends. A finite recorded prefix inevitably ends with a
// plateau (reads after the final append legitimately stop growing), so the
// checker constrains only reads followed by at least W growth events
// (successful appends or updates): those are the reads for which the
// recorded prefix still witnesses the infinite-append regime.
func EverGrowingTree(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	sc := scorer{h, opts.Score}
	ops, reads := h.Ops(), h.Reads() // response order
	w := opts.window(len(reads))
	scores := make([]int, len(reads))
	for i, id := range reads {
		scores[i] = sc.chain(ops[id].Chain)
	}
	// growthTimes holds the invocation times of growth events, sorted.
	growthTimes := make([]int64, 0, len(ops))
	for i := range ops {
		op := &ops[i]
		if op.Kind == history.KindUpdate || op.Kind == history.KindAppend && op.Complete && op.OK {
			growthTimes = append(growthTimes, op.InvTime)
		}
	}
	slices.Sort(growthTimes)
	growthAfter := func(t int64) int {
		// Number of growth events invoked strictly after t.
		lo, hi := 0, len(growthTimes)
		for lo < hi {
			mid := (lo + hi) / 2
			if growthTimes[mid] <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return len(growthTimes) - lo
	}
	checked := 0
	for i, ri := range reads {
		if growthAfter(ops[ri].RspTime) < w {
			continue // plateau region of the finite prefix: exempt
		}
		checked++
		for j := i + w; j < len(reads); j++ {
			if scores[j] > scores[i] {
				continue
			}
			if !history.RespondedBefore(ops[ri], ops[reads[j]]) {
				continue
			}
			sink.add(func() string {
				return fmt.Sprintf("read#%d by p%d score %d still matched by read#%d by p%d score %d after grace window %d",
					i, ops[ri].Proc, scores[i], j, ops[reads[j]].Proc, scores[j], w)
			})
			break
		}
	}
	return sink.verdict("EverGrowingTree", checked)
}

// EventualPrefix checks Definition 3.3's Eventual prefix under the
// finitization documented in the package comment: for a read rᵢ with score
// s, every pair of reads responding at least W positions after rᵢ must
// share a maximal common prefix of score at least s.
//
// The pairwise quantification collapses to a suffix computation: prefix
// score is an ultrametric (mcps(a,c) ≥ min(mcps(a,b), mcps(b,c))), so the
// minimum pairwise mcps over a set of chains equals the score of the
// common prefix of the whole set, computable right-to-left in O(N·L).
func EventualPrefix(h *history.History, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	sc := scorer{h, opts.Score}
	ops, reads := h.Ops(), h.Reads()
	w := opts.window(len(reads))
	n := len(reads)
	chains := make([]history.ChainID, n)
	for i, id := range reads {
		chains[i] = ops[id].Chain
	}
	// The common prefix of chains[j..n-1] is the first cpLen blocks of
	// the last chain; suffixCPScore[j] is its score.
	suffixCPScore := make([]int, n+1)
	cpLen := 0
	for j := n - 1; j >= 0; j-- {
		if j == n-1 {
			cpLen = h.ChainLen(chains[j])
		} else {
			cpLen = min(cpLen, h.CommonPrefixLen(chains[n-1], chains[j]))
		}
		suffixCPScore[j] = sc.prefix(chains[n-1], cpLen)
	}
	suffixCPScore[n] = int(^uint(0) >> 1) // empty suffix: vacuously ∞
	checked := 0
	for i := range chains {
		checked++
		s := sc.chain(chains[i])
		j := i + w
		if j >= n {
			continue // no mature pairs after rᵢ: vacuously satisfied
		}
		if suffixCPScore[j] < s {
			sink.add(func() string {
				// Locate a concrete violating pair for the report.
				hi, ki := findDivergentPair(sc, chains[j:], s)
				return fmt.Sprintf("read#%d score %d: reads #%d and #%d past window %d share prefix score %d < %d",
					i, s, j+hi, j+ki, w, suffixCPScore[j], s)
			})
		}
	}
	return sink.verdict("EventualPrefix", checked)
}

// findDivergentPair returns indices (relative to chains) of a pair whose
// mcps is below s; it exists whenever the suffix common-prefix score is
// below s.
func findDivergentPair(sc scorer, chains []history.ChainID, s int) (int, int) {
	for i := 1; i < len(chains); i++ {
		if sc.prefix(chains[0], sc.h.CommonPrefixLen(chains[0], chains[i])) < s {
			return 0, i
		}
	}
	// The first chain agrees with everyone: divergence is among the
	// rest; recurse linearly.
	if len(chains) > 1 {
		a, b := findDivergentPair(sc, chains[1:], s)
		return a + 1, b + 1
	}
	return 0, 0
}

// KForkCoherence checks Definition 3.9: at most k append() operations
// return ⊤ for the same token target (the block the token was granted on,
// recorded as the Parent of a successful append response). Replicated
// histories additionally count distinct child blocks per predecessor among
// update events. Θ_P corresponds to k = Unbounded (pass k ≤ 0 to skip the
// bound and always succeed).
func KForkCoherence(h *history.History, k int, opts Options) Verdict {
	sink := &violationSink{max: opts.maxViolations()}
	if k <= 0 {
		return sink.verdict("KForkCoherence(∞)", 0)
	}
	children := map[history.Ref]map[history.Ref]bool{}
	ops := h.Ops()
	for i := range ops {
		op := &ops[i]
		if op.Kind != history.KindUpdate && (op.Kind != history.KindAppend || !op.Complete || !op.OK) {
			continue
		}
		if op.Parent == history.NoRef || op.Block == history.NoRef {
			continue
		}
		m, ok := children[op.Parent]
		if !ok {
			m = map[history.Ref]bool{}
			children[op.Parent] = m
		}
		m[op.Block] = true
	}
	checked := 0
	for parent, kids := range children {
		checked++
		if len(kids) > k {
			sink.addf("block %s has %d successful extensions, bound k=%d", string(h.Name(parent)), len(kids), k)
		}
	}
	return sink.verdict("KForkCoherence", checked)
}
