package history

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func chainOf(ids ...string) Chain {
	c := make(Chain, len(ids))
	for i, s := range ids {
		c[i] = BlockRef(s)
	}
	return c
}

func TestChainHasPrefix(t *testing.T) {
	c := chainOf("b0", "1", "2", "3")
	cases := []struct {
		prefix Chain
		want   bool
	}{
		{chainOf(), true},
		{chainOf("b0"), true},
		{chainOf("b0", "1"), true},
		{chainOf("b0", "1", "2", "3"), true},
		{chainOf("b0", "2"), false},
		{chainOf("b0", "1", "2", "3", "4"), false},
		{chainOf("1"), false},
	}
	for _, tc := range cases {
		if got := c.HasPrefix(tc.prefix); got != tc.want {
			t.Errorf("HasPrefix(%v) = %v, want %v", tc.prefix, got, tc.want)
		}
	}
}

func TestChainCommonPrefix(t *testing.T) {
	a := chainOf("b0", "1", "2", "3")
	b := chainOf("b0", "1", "9")
	cp := a.CommonPrefix(b)
	if cp.String() != "b0⌢1" {
		t.Fatalf("common prefix = %s, want b0⌢1", cp)
	}
	if got := a.CommonPrefix(a); len(got) != len(a) {
		t.Fatalf("self common prefix length = %d, want %d", len(got), len(a))
	}
	if got := a.CommonPrefix(chainOf("x")); len(got) != 0 {
		t.Fatalf("disjoint common prefix length = %d, want 0", len(got))
	}
}

func TestChainClone(t *testing.T) {
	a := chainOf("b0", "1")
	b := a.Clone()
	b[1] = "2"
	if a[1] != "1" {
		t.Fatal("Clone aliases the original")
	}
}

// TestProperty_CommonPrefixIsPrefixOfBoth: the common prefix prefixes both
// inputs and is maximal (extending it by one block breaks the property).
func TestProperty_CommonPrefixIsPrefixOfBoth(t *testing.T) {
	f := func(a, b []uint8) bool {
		ca := make(Chain, len(a))
		for i, v := range a {
			ca[i] = BlockRef(string(rune('a' + v%4)))
		}
		cb := make(Chain, len(b))
		for i, v := range b {
			cb[i] = BlockRef(string(rune('a' + v%4)))
		}
		cp := ca.CommonPrefix(cb)
		if !ca.HasPrefix(cp) || !cb.HasPrefix(cp) {
			return false
		}
		// Maximality.
		if len(cp) < len(ca) && len(cp) < len(cb) && ca[len(cp)] == cb[len(cp)] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestProperty_PrefixUltrametric: lcp(a,c) ≥ min(lcp(a,b), lcp(b,c)), the
// inequality the EventualPrefix checker's suffix optimization relies on.
func TestProperty_PrefixUltrametric(t *testing.T) {
	mk := func(v []uint8) Chain {
		c := make(Chain, len(v))
		for i, x := range v {
			c[i] = BlockRef(string(rune('a' + x%3)))
		}
		return c
	}
	f := func(a, b, c []uint8) bool {
		ca, cb, cc := mk(a), mk(b), mk(c)
		lab := len(ca.CommonPrefix(cb))
		lbc := len(cb.CommonPrefix(cc))
		lac := len(ca.CommonPrefix(cc))
		minv := lab
		if lbc < minv {
			minv = lbc
		}
		return lac >= minv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderBasicOps(t *testing.T) {
	r := NewRecorder()
	id := r.Invoke(0, Label{Kind: KindRead})
	r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0", "1")})
	r.Record(1, Label{Kind: KindSend, Block: "1", Parent: "b0", Origin: 1})
	h := r.Snapshot()

	if h.Len() != 4 {
		t.Fatalf("events = %d, want 4 (inv+rsp, send collapsed pair)", h.Len())
	}
	reads := h.Reads()
	if len(reads) != 1 {
		t.Fatalf("reads = %d, want 1", len(reads))
	}
	if got := h.Chain(h.Op(reads[0]).Chain).String(); got != "b0⌢1" {
		t.Fatalf("read chain = %s", got)
	}
	sends := h.OpsOfKind(KindSend)
	if len(sends) != 1 || h.Op(sends[0]).Origin != 1 {
		t.Fatalf("sends = %+v", sends)
	}
}

func TestRecorderPendingOperation(t *testing.T) {
	r := NewRecorder()
	r.Invoke(0, Label{Kind: KindAppend, Block: "1"})
	h := r.Snapshot()
	if got := len(h.Appends()); got != 0 {
		t.Fatalf("incomplete append counted: %d", got)
	}
	ops := h.Ops()
	if len(ops) != 1 || ops[0].Complete {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestSuccessfulAppendsPurge(t *testing.T) {
	r := NewRecorder()
	a := r.Invoke(0, Label{Kind: KindAppend, Block: "x"})
	r.Respond(a, Label{Kind: KindAppend, Block: "x", OK: false})
	b := r.Invoke(0, Label{Kind: KindAppend, Block: "y"})
	r.Respond(b, Label{Kind: KindAppend, Block: "y", OK: true})
	h := r.Snapshot()
	if got := len(h.Appends()); got != 2 {
		t.Fatalf("appends = %d, want 2", got)
	}
	ok := h.SuccessfulAppends()
	if len(ok) != 1 || h.Name(h.Op(ok[0]).Block) != "y" {
		t.Fatalf("successful appends = %+v", ok)
	}
}

func TestOrders(t *testing.T) {
	r := NewRecorder()
	op1 := r.Invoke(0, Label{Kind: KindRead})
	r.Respond(op1, Label{Kind: KindRead, Chain: chainOf("b0")})
	op2 := r.Invoke(1, Label{Kind: KindRead})
	r.Respond(op2, Label{Kind: KindRead, Chain: chainOf("b0")})
	h := r.Snapshot()
	ev := h.Events()

	// Process order: events 0,1 belong to proc 0; 2,3 to proc 1.
	if !ProcessOrdered(ev[0], ev[1]) {
		t.Fatal("invocation should process-precede own response")
	}
	if ProcessOrdered(ev[0], ev[2]) {
		t.Fatal("different processes are never process-ordered")
	}
	// Operation order: inv ≺ rsp of same op; rsp(op1) ≺ inv(op2) since
	// op1 responded before op2 was invoked.
	if !OperationOrdered(ev[0], ev[1]) {
		t.Fatal("inv should operation-precede its response")
	}
	if !OperationOrdered(ev[1], ev[2]) {
		t.Fatal("earlier response should operation-precede later invocation")
	}
	if OperationOrdered(ev[2], ev[1]) {
		t.Fatal("operation order must not be symmetric")
	}
	// Program order is their union.
	if !ProgramOrdered(ev[0], ev[1]) || !ProgramOrdered(ev[1], ev[2]) {
		t.Fatal("program order must contain both orders")
	}

	ops := h.Ops()
	if !RespondedBefore(ops[0], ops[1]) {
		t.Fatal("op1 responded before op2 invoked")
	}
	if RespondedBefore(ops[1], ops[0]) {
		t.Fatal("RespondedBefore must not be symmetric")
	}
}

func TestRecorderConcurrentSafety(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const procs, opsPerProc = 8, 50
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p ProcID) {
			defer wg.Done()
			for i := 0; i < opsPerProc; i++ {
				id := r.Invoke(p, Label{Kind: KindRead})
				r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0")})
			}
		}(ProcID(p))
	}
	wg.Wait()
	h := r.Snapshot()
	if got := len(h.Reads()); got != procs*opsPerProc {
		t.Fatalf("reads = %d, want %d", got, procs*opsPerProc)
	}
	// Per-process invariants: events strictly ordered, times
	// non-decreasing.
	last := map[ProcID]int{}
	for _, e := range h.Events() {
		if prev, ok := last[e.Proc]; ok && e.Seq <= prev {
			t.Fatal("per-process sequence not increasing")
		}
		last[e.Proc] = e.Seq
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	r := NewRecorder()
	id := r.Invoke(0, Label{Kind: KindRead})
	h1 := r.Snapshot()
	r.Respond(id, Label{Kind: KindRead, Chain: chainOf("b0")})
	if h1.Ops()[0].Complete {
		t.Fatal("snapshot mutated by later Respond")
	}
	h2 := r.Snapshot()
	if !h2.Ops()[0].Complete {
		t.Fatal("second snapshot missing the response")
	}
}

func TestKindString(t *testing.T) {
	if KindRead.String() != "read" || KindConsumeToken.String() != "consumeToken" {
		t.Fatal("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Fatal("unknown kind must render something")
	}
}

func TestChainString(t *testing.T) {
	for _, tc := range []struct {
		chain Chain
		want  string
	}{
		{nil, ""},
		{chainOf("b0"), "b0"},
		{chainOf("b0", "b0001-p01-0000", "x"), "b0⌢b0001-p01-0000⌢x"},
	} {
		if got := tc.chain.String(); got != tc.want {
			t.Errorf("%q.String() = %q, want %q", []BlockRef(tc.chain), got, tc.want)
		}
	}
}

// readChain records a read returning c and returns its ChainID.
func readChain(r *Recorder, p ProcID, c Chain) ChainID {
	id := r.Invoke(p, Label{Kind: KindRead})
	r.Respond(id, Label{Kind: KindRead, Chain: c})
	return r.h.ops[id].Chain
}

// TestReadChainsFollowRecordedParents: a read whose chain follows the
// parents the labels named is stored as its tip; one that contradicts
// them is kept verbatim; both render back to the recorded chain.
func TestReadChainsFollowRecordedParents(t *testing.T) {
	r := NewRecorder()
	r.Record(0, Label{Kind: KindUpdate, Parent: "b0", Block: "1"})
	r.Record(0, Label{Kind: KindUpdate, Parent: "1", Block: "2"})
	tip := readChain(r, 0, chainOf("b0", "1", "2"))
	odd := readChain(r, 1, chainOf("b0", "2")) // 2's recorded parent is 1
	empty := readChain(r, 1, Chain{})
	h := r.Snapshot()
	if tip < 0 || odd >= EmptyChain || empty != EmptyChain {
		t.Fatalf("chain ids = %d, %d, %d; want tip, arena, empty", tip, odd, empty)
	}
	for c, want := range map[ChainID]string{tip: "b0⌢1⌢2", odd: "b0⌢2", empty: ""} {
		if got := h.Chain(c).String(); got != want {
			t.Errorf("Chain(%d) = %s, want %s", c, got, want)
		}
	}
	if h.ChainLen(tip) != 3 || h.ChainLen(odd) != 2 || h.ChainLen(empty) != 0 {
		t.Fatal("chain lengths wrong")
	}
	if !h.IsPrefix(empty, odd) || h.IsPrefix(odd, tip) || h.CommonPrefixLen(odd, tip) != 1 {
		t.Fatal("prefix relations across representations wrong")
	}
}

// TestRespondTip: a tip read derives the chain the recorded updates
// imply, and declines — recording nothing — when the height disagrees or
// when some block was given two parents.
func TestRespondTip(t *testing.T) {
	r := NewRecorder()
	r.Record(0, Label{Kind: KindUpdate, Parent: "b0", Block: "1"})
	r.Record(0, Label{Kind: KindUpdate, Parent: "1", Block: "2"})
	id := r.Invoke(0, Label{Kind: KindRead})
	if r.RespondTip(id, "2", 3) || r.RespondTip(id, "2", 1) {
		t.Fatal("tip accepted at the wrong height")
	}
	if !r.RespondTip(id, "2", 2) {
		t.Fatal("tip at its recorded height declined")
	}
	id = r.Invoke(1, Label{Kind: KindRead})
	if !r.RespondTip(id, "b0", 0) {
		t.Fatal("genesis read declined")
	}
	h := r.Snapshot()
	if got := h.Chain(h.Op(h.Reads()[0]).Chain).String(); got != "b0⌢1⌢2" {
		t.Fatalf("tip read = %s", got)
	}
	if h.Len() != 8 || len(h.Reads()) != 2 {
		t.Fatalf("declined tips left events: len %d, reads %d", h.Len(), len(h.Reads()))
	}
	// A second parent for block 1 makes every later tip read decline.
	r.Record(1, Label{Kind: KindSend, Parent: "x", Block: "1"})
	id = r.Invoke(0, Label{Kind: KindRead})
	if r.RespondTip(id, "2", 2) {
		t.Fatal("tip accepted after a block was given two parents")
	}
	// b0 became a root when read; naming a parent for it also forks.
	r2 := NewRecorder()
	readChain(r2, 0, chainOf("b0"))
	r2.Record(0, Label{Kind: KindUpdate, Parent: "z", Block: "b0"})
	if id := r2.Invoke(0, Label{Kind: KindRead}); r2.RespondTip(id, "b0", 0) {
		t.Fatal("tip accepted after a root was given a parent")
	}
}

// TestProperty_ChainQueriesMatchNames: on random label sets and random
// reads, the Ref-level chain queries agree with the name-level Chain
// methods, whichever representation each read was stored in.
func TestProperty_ChainQueriesMatchNames(t *testing.T) {
	name := func(v uint8) BlockRef { return BlockRef(string(rune('a' + v%6))) }
	f := func(edges [][2]uint8, reads [][]uint8) bool {
		r := NewRecorder()
		for _, e := range edges {
			r.Record(0, Label{Kind: KindUpdate, Parent: name(e[0]), Block: name(e[1])})
		}
		var want []Chain
		for _, rd := range reads {
			c := make(Chain, len(rd))
			for i, v := range rd {
				c[i] = name(v)
			}
			readChain(r, 0, c)
			want = append(want, c)
		}
		h := r.Snapshot()
		ids := h.Reads()
		for i, a := range ids {
			ca := h.Op(a).Chain
			if h.Chain(ca).String() != want[i].String() || h.ChainLen(ca) != len(want[i]) {
				return false
			}
			for j, b := range ids {
				cb := h.Op(b).Chain
				if h.CommonPrefixLen(ca, cb) != len(want[i].CommonPrefix(want[j])) ||
					h.IsPrefix(ca, cb) != want[j].HasPrefix(want[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEventsDerivedFromOps: the event view places both events of every
// operation at their sequence numbers, pending operations contributing
// their invocation only; invocations carry the arguments, responses the
// whole label.
func TestEventsDerivedFromOps(t *testing.T) {
	r := NewRecorder()
	a := r.Invoke(0, Label{Kind: KindAppend, Block: "1"})
	r.Record(1, Label{Kind: KindSend, Parent: "b0", Block: "1", Origin: 1})
	r.Respond(a, Label{Kind: KindAppend, Block: "1", Parent: "b0", OK: true})
	r.Invoke(2, Label{Kind: KindRead})
	h := r.Snapshot()
	ev := h.Events()
	if len(ev) != h.Len() || h.Len() != 5 {
		t.Fatalf("events = %d, Len = %d, want 5", len(ev), h.Len())
	}
	want := []struct {
		typ  EventType
		op   OpID
		proc ProcID
	}{{Invocation, 0, 0}, {Invocation, 1, 1}, {Response, 1, 1}, {Response, 0, 0}, {Invocation, 2, 2}}
	for i, w := range want {
		if e := ev[i]; e.Seq != i || e.Type != w.typ || e.Op != w.op || e.Proc != w.proc {
			t.Fatalf("event %d = %+v, want %+v", i, e, w)
		}
	}
	if l := ev[3].Label; l.Block != "1" || l.Parent != "b0" || !l.OK {
		t.Fatalf("append response label = %+v", l)
	}
	if l := ev[0].Label; !reflect.DeepEqual(l, Label{Kind: KindAppend, Block: "1"}) {
		t.Fatalf("append invocation label = %+v, want its arguments only", l)
	}
	if l := ev[1].Label; !reflect.DeepEqual(l, ev[2].Label) || l.Parent != "b0" || l.Origin != 1 {
		t.Fatalf("send labels = %+v, %+v, want the whole label on both", l, ev[2].Label)
	}
	if l := h.Label(1); l.Origin != 1 || l.Kind != KindSend {
		t.Fatalf("send label = %+v", l)
	}
}

// recorded returns a recorder holding n record pairs over a chain of
// distinct blocks, with one read per pair.
func recorded(n int) *Recorder {
	r := NewRecorder()
	prev := BlockRef("b0")
	for i := 0; i < n; i++ {
		b := BlockRef(fmt.Sprintf("c%d", i))
		r.Record(0, Label{Kind: KindUpdate, Parent: prev, Block: b})
		id := r.Invoke(0, Label{Kind: KindRead})
		r.RespondTip(id, b, i+1)
		prev = b
	}
	return r
}

// TestRecordAllocs: within the log's capacity, recording allocates
// nothing — the records hold no pointers and names are interned once.
func TestRecordAllocs(t *testing.T) {
	r := recorded(4)
	r.h.ops = slices.Grow(r.h.ops, 2048)
	r.h.reads = slices.Grow(r.h.reads, 1024)
	update := Label{Kind: KindUpdate, Parent: "c2", Block: "c3"}
	read := Label{Kind: KindRead}
	invoked := Label{Kind: KindAppend, Block: "c3"}
	appended := Label{Kind: KindAppend, Block: "c3", Parent: "c2", OK: true}
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(1, update)
		id := r.Invoke(1, read)
		r.RespondTip(id, "c3", 4)
		id = r.Invoke(1, invoked)
		r.Respond(id, appended)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %.1f objects per round, want 0", allocs)
	}
}

// TestFinalizeAllocs: Finalize hands the tables over; the only allocation
// is the History header.
func TestFinalizeAllocs(t *testing.T) {
	recs := make([]*Recorder, 101)
	for i := range recs {
		recs[i] = recorded(64)
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		recs[i].Finalize()
		i++
	})
	if allocs > 1 {
		t.Fatalf("Finalize allocated %.1f objects, want ≤ 1", allocs)
	}
}

// TestSnapshotAllocs: a snapshot copies each table once, so its
// allocation count does not depend on the history's length.
func TestSnapshotAllocs(t *testing.T) {
	short, long := recorded(8), recorded(4096)
	a := testing.AllocsPerRun(20, func() { short.Snapshot() })
	b := testing.AllocsPerRun(20, func() { long.Snapshot() })
	if a != b || b > 6 {
		t.Fatalf("Snapshot allocated %.1f objects on 8 pairs and %.1f on 4096, want equal and ≤ 6", a, b)
	}
}
