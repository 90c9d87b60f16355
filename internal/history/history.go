// Package history implements the concurrent-history formalism of
// Definition 2.4 of "Blockchain Abstract Data Type" (Anceaume et al.).
//
// A concurrent history H = ⟨Σ, E, Λ, ↦→, ≺, ր⟩ consists of a set of events
// E (invocations and responses of ADT operations, plus the message-passing
// events of Definition 4.2: send, receive and update), the labelling Λ, the
// process order ↦→ (events of the same process), the operation order ≺
// (invocation precedes its response; a response at real time t precedes any
// invocation at t' > t), and the program order ր, the union of the two.
//
// Histories are produced by a Recorder, which concurrent objects call around
// each operation, and consumed immutably by the consistency checkers in
// internal/consistency.
//
// # Representation
//
// A history is one append-only log of fixed-size Op records holding no
// pointers: the invocation and response of an operation share a record,
// and the event set E is derived from it (History.Events). Block names are
// interned: records carry Refs into a per-history name table, so checkers
// compare int32s and render names only in diagnostics. A read's result is
// a ChainID, normally the tip of the chain: the parent relation the
// recorder learns from append, send, receive and update labels turns the
// tip back into the whole chain, and prefix tests become ancestor walks.
// Chains that do not follow the recorded parents (hand-built histories)
// are kept verbatim in a side arena.
package history

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ProcID identifies a sequential process.
type ProcID int

// BlockRef names a block; the empty string is reserved for "no block".
type BlockRef string

// Chain is a blockchain value as returned by read(): the genesis-rooted
// sequence of block references {b0}⌢…
type Chain []BlockRef

// Clone returns an independent copy of the chain.
func (c Chain) Clone() Chain {
	out := make(Chain, len(c))
	copy(out, c)
	return out
}

// HasPrefix reports whether p is a prefix of c (p ⊑ c).
func (c Chain) HasPrefix(p Chain) bool {
	if len(p) > len(c) {
		return false
	}
	for i := range p {
		if c[i] != p[i] {
			return false
		}
	}
	return true
}

// CommonPrefix returns the maximal common prefix of c and other.
func (c Chain) CommonPrefix(other Chain) Chain {
	n := len(c)
	if len(other) < n {
		n = len(other)
	}
	i := 0
	for i < n && c[i] == other[i] {
		i++
	}
	return c[:i]
}

// String renders the chain with the paper's b0⌢b1⌢… concatenation syntax.
func (c Chain) String() string {
	n := 0
	for _, ref := range c {
		n += len(ref) + len("⌢")
	}
	var b strings.Builder
	b.Grow(n)
	for i, ref := range c {
		if i > 0 {
			b.WriteString("⌢")
		}
		b.WriteString(string(ref))
	}
	return b.String()
}

// Kind enumerates the operation kinds that appear in the histories of this
// reproduction.
type Kind uint8

// Operation kinds. Read and Append are the BT-ADT operations
// (Definition 3.1); GetToken and ConsumeToken are the oracle operations
// (Definition 3.5); Send, Receive and Update are the replicated-object
// events of Definitions 4.2 and 4.3.
const (
	KindRead Kind = iota
	KindAppend
	KindGetToken
	KindConsumeToken
	KindSend
	KindReceive
	KindUpdate
	KindPropose
	KindDecide
)

var kindNames = map[Kind]string{
	KindRead:         "read",
	KindAppend:       "append",
	KindGetToken:     "getToken",
	KindConsumeToken: "consumeToken",
	KindSend:         "send",
	KindReceive:      "receive",
	KindUpdate:       "update",
	KindPropose:      "propose",
	KindDecide:       "decide",
}

// String returns the paper's name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Label is Λ(e): the operation an event belongs to, with its arguments and —
// on responses — its result. It is the Recorder's input vocabulary; a
// recorded history stores labels as Op records.
type Label struct {
	Kind Kind
	// Block is the block argument of append/send/receive/update/propose,
	// or the proposed block of getToken.
	Block BlockRef
	// Parent is the predecessor argument bg of send/receive/update and of
	// getToken (the block the token is requested for).
	Parent BlockRef
	// Chain is the blockchain returned by a read response (or decided by
	// a decide event).
	Chain Chain
	// OK is the boolean result of an append response.
	OK bool
	// Token identifies the oracle token involved in
	// getToken/consumeToken responses.
	Token uint64
	// Origin is the process that generated the block carried by a
	// send/receive/update event (the i of b_i in Definition 4.3); it is
	// meaningful only for those kinds.
	Origin ProcID
}

// EventType distinguishes invocation and response events.
type EventType int

// Event types.
const (
	Invocation EventType = iota
	Response
)

// String returns "inv" or "rsp".
func (t EventType) String() string {
	if t == Invocation {
		return "inv"
	}
	return "rsp"
}

// OpID identifies an operation: its index in History.Ops.
type OpID int32

// Event is an element of E.
type Event struct {
	// Seq is the event's position in the global record; it is consistent
	// with real time (Time) and with per-process order.
	Seq int
	// Type says whether this is the invocation or the response event.
	Type EventType
	// Proc is the process that produced the event.
	Proc ProcID
	// Op identifies the operation this event belongs to.
	Op OpID
	// Label is Λ(e).
	Label Label
	// Time is the real (or virtual) timestamp used by the operation
	// order ≺.
	Time int64
}

// String renders the event compactly for diagnostics.
func (e Event) String() string {
	return fmt.Sprintf("e%d[p%d %s %s(%s) t=%d]", e.Seq, e.Proc, e.Type, e.Label.Kind, string(e.Label.Block), e.Time)
}

// Ref is an interned block name: an index into the history's name table
// (History.Name renders it).
type Ref int32

// NoRef is the Ref of the empty block name.
const NoRef Ref = -1

// unknownParent marks a Ref whose predecessor no label has named yet.
// NoRef in the parent table marks a chain root.
const unknownParent Ref = -2

// ChainID identifies the blockchain a read returned. A non-negative value
// is the chain's tip: the chain is the tip's root path in the history's
// parent relation. EmptyChain is the empty chain; values below it index
// the arena of chains kept verbatim.
type ChainID int32

// EmptyChain is the ChainID of the empty chain (and of every operation
// that returned none).
const EmptyChain ChainID = -1

// Op is one operation of a history: its invocation and, once recorded,
// its response, folded into one fixed-size record that holds no
// pointers. Fields come from the invocation label, overridden by the
// non-zero fields of the response label.
type Op struct {
	InvTime, RspTime int64
	// Token identifies the oracle token of getToken/consumeToken.
	Token uint64
	Proc  ProcID
	// Origin is the process that generated the block of a
	// send/receive/update.
	Origin         ProcID
	InvSeq, RspSeq int32
	// Block and Parent are the block and predecessor arguments; NoRef
	// when the labels named none.
	Block, Parent Ref
	// Chain is the blockchain a read returned.
	Chain ChainID
	Kind  Kind
	// OK is the boolean result of an append.
	OK bool
	// Complete reports whether a response was recorded.
	Complete bool
}

// History is an immutable concurrent history H.
//
// Ops and Reads return the history's own slices without copying: callers
// must not mutate or reorder them (sort an index permutation instead, as
// readsByProcessOrder in internal/consistency does).
type History struct {
	ops []Op
	// reads lists the completed read operations in response order.
	reads  []OpID
	events int
	// names is the intern table; parent and depth are indexed by Ref.
	// parent holds a block's predecessor (NoRef: a chain root). depth
	// holds the block's position in its chain, or -1 while no recorded
	// read has fixed the block's root path.
	names  []BlockRef
	parent []Ref
	depth  []int32
	// arena holds the chains that do not follow the recorded parents,
	// each as its length followed by its Refs.
	arena []Ref
}

// Ops returns all operations in invocation order.
func (h *History) Ops() []Op { return h.ops }

// Op returns operation id.
func (h *History) Op(id OpID) *Op { return &h.ops[id] }

// Len returns the number of events: two per completed operation, one per
// pending one.
func (h *History) Len() int { return h.events }

// Reads returns the completed read() operations in response order (the
// order their responses occurred), which is the order the consistency
// criteria quantify over.
func (h *History) Reads() []OpID { return h.reads }

// Appends returns the completed append() operations in invocation order.
func (h *History) Appends() []OpID {
	return h.filter(func(op *Op) bool { return op.Kind == KindAppend && op.Complete })
}

// SuccessfulAppends returns the appends whose response is true. The
// hierarchy results (Section 3.4) consider histories purged of
// unsuccessful append responses; this accessor implements that purge.
func (h *History) SuccessfulAppends() []OpID {
	return h.filter(func(op *Op) bool { return op.Kind == KindAppend && op.Complete && op.OK })
}

// OpsOfKind returns the operations (complete or pending) with the given
// kind, in invocation order.
func (h *History) OpsOfKind(k Kind) []OpID {
	return h.filter(func(op *Op) bool { return op.Kind == k })
}

func (h *History) filter(keep func(*Op) bool) []OpID {
	var out []OpID
	for i := range h.ops {
		if keep(&h.ops[i]) {
			out = append(out, OpID(i))
		}
	}
	return out
}

// Name returns the block name r stands for ("" for NoRef).
func (h *History) Name(r Ref) BlockRef {
	if r < 0 {
		return ""
	}
	return h.names[r]
}

// Lookup returns the Ref of a block name, or NoRef when the history never
// mentions it. It scans the name table, so callers look up once per pass.
func (h *History) Lookup(name BlockRef) Ref {
	for i, n := range h.names {
		if n == name {
			return Ref(i)
		}
	}
	return NoRef
}

// NumRefs returns the size of the name table: every Ref of the history is
// below it, so per-block state fits in a slice of this length.
func (h *History) NumRefs() int { return len(h.names) }

// Label reconstructs the label of operation id: its invocation arguments
// merged with its response results, names rendered.
func (h *History) Label(id OpID) Label {
	op := &h.ops[id]
	l := Label{Kind: op.Kind, Block: h.Name(op.Block), Parent: h.Name(op.Parent),
		OK: op.OK, Token: op.Token, Origin: op.Origin}
	if op.Chain != EmptyChain {
		l.Chain = h.Chain(op.Chain)
	}
	return l
}

// Events derives the event set E in global (Seq) order. A response event
// carries the operation's Label. An invocation event carries its
// arguments only: the Label without the results, which are a read's
// Chain, an append's Parent and OK, and a Token.
func (h *History) Events() []Event {
	out := make([]Event, h.events)
	for i := range h.ops {
		op := &h.ops[i]
		l := h.Label(OpID(i))
		if op.Complete {
			out[op.RspSeq] = Event{Seq: int(op.RspSeq), Type: Response, Proc: op.Proc, Op: OpID(i), Label: l, Time: op.RspTime}
		}
		l.Chain, l.OK, l.Token = nil, false, 0
		if l.Kind == KindAppend {
			l.Parent = ""
		}
		out[op.InvSeq] = Event{Seq: int(op.InvSeq), Type: Invocation, Proc: op.Proc, Op: OpID(i), Label: l, Time: op.InvTime}
	}
	return out
}

// ChainLen returns the number of blocks of chain c.
func (h *History) ChainLen(c ChainID) int {
	switch {
	case c >= 0:
		return int(h.depth[c]) + 1
	case c == EmptyChain:
		return 0
	default:
		return int(h.arena[-2-c])
	}
}

// AppendChain appends the Refs of chain c, genesis first, to buf.
func (h *History) AppendChain(buf []Ref, c ChainID) []Ref {
	n := h.ChainLen(c)
	if c < EmptyChain {
		off := int(-2-c) + 1
		return append(buf, h.arena[off:off+n]...)
	}
	start := len(buf)
	buf = slices.Grow(buf, n)[:start+n]
	x := Ref(c)
	for i := start + n - 1; i >= start; i-- {
		buf[i] = x
		x = h.parent[x]
	}
	return buf
}

// Chain renders chain c as block names.
func (h *History) Chain(c ChainID) Chain {
	var buf [64]Ref
	refs := h.AppendChain(buf[:0], c)
	out := make(Chain, len(refs))
	for i, r := range refs {
		out[i] = h.names[r]
	}
	return out
}

// CommonPrefixLen returns the length of the maximal common prefix of
// chains a and b. On tip chains it is an ancestor walk: lift the deeper
// tip to the other's depth, then climb both until they meet.
func (h *History) CommonPrefixLen(a, b ChainID) int {
	if a < 0 || b < 0 {
		ra, rb := h.AppendChain(nil, a), h.AppendChain(nil, b)
		n := 0
		for n < len(ra) && n < len(rb) && ra[n] == rb[n] {
			n++
		}
		return n
	}
	x, y := Ref(a), Ref(b)
	for h.depth[x] > h.depth[y] {
		x = h.parent[x]
	}
	for h.depth[y] > h.depth[x] {
		y = h.parent[y]
	}
	for x != y {
		x, y = h.parent[x], h.parent[y]
	}
	if x < 0 {
		return 0
	}
	return int(h.depth[x]) + 1
}

// IsPrefix reports whether chain p is a prefix of chain c (p ⊑ c).
func (h *History) IsPrefix(p, c ChainID) bool {
	n := h.ChainLen(p)
	return n <= h.ChainLen(c) && h.CommonPrefixLen(p, c) == n
}

// ProcessOrdered reports a ↦→ b: both events belong to the same process and
// a precedes b in that process's sequence.
func ProcessOrdered(a, b Event) bool {
	return a.Proc == b.Proc && a.Seq < b.Seq
}

// OperationOrdered reports a ≺ b per Definition 2.4: either a is the
// invocation and b the response of the same operation, or a is a response
// occurring strictly before the invocation b in real time.
func OperationOrdered(a, b Event) bool {
	if a.Op == b.Op && a.Type == Invocation && b.Type == Response {
		return true
	}
	return a.Type == Response && b.Type == Invocation && a.Time < b.Time
}

// ProgramOrdered reports a ր b: the union of process order and operation
// order (Definition 2.4). It is the order the consistency criteria use to
// relate a read response to later read invocations.
func ProgramOrdered(a, b Event) bool {
	if a.Seq == b.Seq {
		return false
	}
	return ProcessOrdered(a, b) || OperationOrdered(a, b)
}

// RespondedBefore reports whether op a's response program-order-precedes op
// b's invocation: ersp(a) ր einv(b). Both operations must be complete.
func RespondedBefore(a, b Op) bool {
	if !a.Complete {
		return false
	}
	// Same process: compare per-process sequence.
	if a.Proc == b.Proc {
		return a.RspSeq < b.InvSeq
	}
	return a.RspTime < b.InvTime
}

// Recorder accumulates events concurrently. The zero value is not usable;
// create one with NewRecorder.
type Recorder struct {
	mu    sync.Mutex
	clock Clock
	// h is the history under construction; index maps names to Refs.
	h     History
	index map[BlockRef]Ref
	// forked records that two labels named different parents for one
	// block, after which RespondTip no longer vouches for any tip.
	forked bool
}

// Clock supplies timestamps for the operation order ≺. Virtual-time
// simulators supply their own clock; real concurrent runs use a monotonic
// counter.
type Clock interface {
	// Now returns the current time; values must be non-decreasing.
	Now() int64
}

// counterClock is a monotonic logical clock: each call returns a strictly
// larger value, which linearizes real concurrent runs by recording order.
type counterClock struct {
	mu sync.Mutex
	t  int64
}

func (c *counterClock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t++
	return c.t
}

// NewRecorder returns a recorder using a monotonic logical clock.
func NewRecorder() *Recorder {
	return &Recorder{clock: &counterClock{}}
}

// NewRecorderWithClock returns a recorder stamped by the given clock (used
// by the virtual-time netsim).
func NewRecorderWithClock(c Clock) *Recorder {
	return &Recorder{clock: c}
}

// intern returns the Ref of a block name, adding it to the table.
func (r *Recorder) intern(name BlockRef) Ref {
	if name == "" {
		return NoRef
	}
	if x, ok := r.index[name]; ok {
		return x
	}
	if r.index == nil {
		r.index = map[BlockRef]Ref{}
	}
	x := Ref(len(r.h.names))
	r.index[name] = x
	r.h.names = append(r.h.names, name)
	r.h.parent = append(r.h.parent, unknownParent)
	r.h.depth = append(r.h.depth, -1)
	return x
}

// apply folds the non-zero fields of l into op and learns the
// (Parent, Block) edge it names. The first parent named for a block is
// the one kept.
func (r *Recorder) apply(op *Op, l *Label) {
	if l.Block != "" {
		op.Block = r.intern(l.Block)
	}
	if l.Parent != "" {
		op.Parent = r.intern(l.Parent)
	}
	if l.Origin != 0 {
		op.Origin = l.Origin
	}
	if l.Token != 0 {
		op.Token = l.Token
	}
	if l.OK {
		op.OK = true
	}
	if l.Chain != nil {
		op.Chain = r.internChain(l.Chain)
	}
	if op.Block != NoRef && op.Parent != NoRef {
		switch r.h.parent[op.Block] {
		case op.Parent:
		case unknownParent:
			r.h.parent[op.Block] = op.Parent
		default:
			r.forked = true
		}
	}
}

// internChain returns the ChainID of c: its tip when every block follows
// its recorded parent (learning the parents no label named yet), the
// chain copied into the arena otherwise.
func (r *Recorder) internChain(c Chain) ChainID {
	if len(c) == 0 {
		return EmptyChain
	}
	prev := NoRef
	for i, name := range c {
		x := r.intern(name)
		if r.h.parent[x] == unknownParent {
			r.h.parent[x] = prev
		}
		if r.h.parent[x] != prev {
			off := len(r.h.arena)
			r.h.arena = append(r.h.arena, Ref(len(c)))
			for _, name := range c {
				r.h.arena = append(r.h.arena, r.intern(name))
			}
			return ChainID(-2 - off)
		}
		r.h.depth[x] = int32(i)
		prev = x
	}
	return ChainID(prev)
}

// Invoke records the invocation event of a new operation and returns its
// OpID, to be passed to Respond.
func (r *Recorder) Invoke(p ProcID, l Label) OpID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := OpID(len(r.h.ops))
	r.h.ops = append(r.h.ops, Op{Kind: l.Kind, Proc: p, InvTime: r.clock.Now(), InvSeq: int32(r.h.events),
		Block: NoRef, Parent: NoRef, Chain: EmptyChain})
	r.h.events++
	r.apply(&r.h.ops[id], &l)
	return id
}

// Respond records the response event of operation id with the given result
// label.
func (r *Recorder) Respond(id OpID, result Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.apply(r.complete(id), &result)
}

// complete stamps the response event of operation id. Caller holds the
// lock.
func (r *Recorder) complete(id OpID) *Op {
	op := &r.h.ops[id]
	op.RspSeq = int32(r.h.events)
	op.RspTime = r.clock.Now()
	op.Complete = true
	r.h.events++
	if op.Kind == KindRead {
		r.h.reads = append(r.h.reads, id)
	}
	return op
}

// RespondTip records the response of read operation id returning the
// root path of block tip, which lies height blocks above the root. It is
// Respond without materializing the chain, for replicas whose every block
// entered through a recorded label. It records nothing and returns false
// when the recorded parents cannot vouch for that chain — two labels
// named different parents for one block, or tip's recorded path is not
// height blocks long — and the caller must Respond with the chain.
func (r *Recorder) RespondTip(id OpID, tip BlockRef, height int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.forked {
		return false
	}
	t := r.intern(tip)
	// Climb to the first block whose depth a recorded read fixed, or
	// to a parentless root.
	x, d := t, int32(height)
	for r.h.depth[x] < 0 && r.h.parent[x] >= 0 {
		if d == 0 {
			return false
		}
		x, d = r.h.parent[x], d-1
	}
	switch {
	case r.h.depth[x] >= 0:
		if r.h.depth[x] != d {
			return false
		}
	case d != 0:
		return false
	default:
		r.h.parent[x], r.h.depth[x] = NoRef, 0
	}
	for y, dy := t, int32(height); y != x; y, dy = r.h.parent[y], dy-1 {
		r.h.depth[y] = dy
	}
	r.complete(id).Chain = ChainID(t)
	return true
}

// Record records an instantaneous (invocation+response collapsed) event,
// used for send/receive/update events which have no call/return structure.
// It is equivalent to Invoke+Respond with the same label (including
// drawing two clock values) under one lock acquisition.
func (r *Recorder) Record(p ProcID, l Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := OpID(len(r.h.ops))
	seq := int32(r.h.events)
	tInv := r.clock.Now()
	r.h.ops = append(r.h.ops, Op{Kind: l.Kind, Proc: p, InvTime: tInv, RspTime: r.clock.Now(),
		InvSeq: seq, RspSeq: seq + 1, Complete: true,
		Block: NoRef, Parent: NoRef, Chain: EmptyChain})
	r.h.events += 2
	r.apply(&r.h.ops[id], &l)
	if l.Kind == KindRead {
		r.h.reads = append(r.h.reads, id)
	}
}

// Snapshot returns an immutable copy of the history recorded so far. The
// copy is one allocation per table, whatever the history's length.
func (r *Recorder) Snapshot() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	return &History{
		ops:    slices.Clone(r.h.ops),
		reads:  slices.Clone(r.h.reads),
		events: r.h.events,
		names:  slices.Clone(r.h.names),
		parent: slices.Clone(r.h.parent),
		depth:  slices.Clone(r.h.depth),
		arena:  slices.Clone(r.h.arena),
	}
}

// Finalize returns the recorded history by transferring ownership of the
// recorder's tables — no copy — and resets the recorder to empty.
// Single-use harnesses (one recorder per simulation run) call this
// instead of Snapshot to avoid duplicating the log at the end of every
// run.
func (r *Recorder) Finalize() *History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.h
	r.h, r.index, r.forked = History{}, nil, false
	return &h
}
