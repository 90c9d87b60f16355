package netsim

import (
	"testing"

	"blockadt/internal/history"
	"blockadt/internal/prng"
)

// collector records deliveries with their times.
type collector struct {
	got []Message
	at  []int64
}

func (c *collector) OnMessage(s *Sim, m Message) {
	c.got = append(c.got, m)
	c.at = append(c.at, s.Now())
}
func (c *collector) OnTimer(*Sim, string) {}

func TestSynchronousDeliveryWithinDelta(t *testing.T) {
	const delta = 5
	s := New(Synchronous{Delta: delta}, 1)
	c := &collector{}
	s.Register(0, HandlerFuncs{})
	s.Register(1, c)
	for i := 0; i < 100; i++ {
		s.Send(Message{From: 0, To: 1, Kind: "x", Round: i})
	}
	s.Run(1000)
	if len(c.got) != 100 {
		t.Fatalf("delivered = %d, want 100", len(c.got))
	}
	for _, at := range c.at {
		if at < 1 || at > delta {
			t.Fatalf("delivery at t=%d outside (0,%d]", at, delta)
		}
	}
}

func TestAsynchronousDeliversEventually(t *testing.T) {
	s := New(Asynchronous{MaxDelay: 32, TailProb: 0.1}, 2)
	c := &collector{}
	s.Register(1, c)
	for i := 0; i < 200; i++ {
		s.Send(Message{From: 0, To: 1})
	}
	s.Run(1 << 20)
	if len(c.got) != 200 {
		t.Fatalf("delivered = %d, want 200 (async drops nothing)", len(c.got))
	}
}

func TestWeaklySynchronousAfterGST(t *testing.T) {
	const gst, delta = 100, 4
	s := New(WeaklySynchronous{GST: gst, Delta: delta, PreMax: 50}, 3)
	c := &collector{}
	s.Register(1, c)
	// Schedule sends after GST via a timer at proc 0.
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) {
		for i := 0; i < 50; i++ {
			s.Send(Message{From: 0, To: 1})
		}
	}})
	s.TimerAt(0, gst+1, "go")
	s.Run(10000)
	if len(c.got) != 50 {
		t.Fatalf("delivered = %d", len(c.got))
	}
	for _, at := range c.at {
		if at > gst+1+delta {
			t.Fatalf("post-GST delivery at %d exceeds bound %d", at, gst+1+delta)
		}
	}
}

func TestLossyDropsSelectedMessages(t *testing.T) {
	rule := func(m Message, _ int64) bool { return m.To == 2 }
	s := New(Lossy{Inner: Synchronous{Delta: 3}, Rule: rule}, 4)
	c1, c2 := &collector{}, &collector{}
	s.Register(1, c1)
	s.Register(2, c2)
	s.Send(Message{From: 0, To: 1})
	s.Send(Message{From: 0, To: 2})
	s.Run(100)
	if len(c1.got) != 1 || len(c2.got) != 0 {
		t.Fatalf("deliveries = %d,%d want 1,0", len(c1.got), len(c2.got))
	}
	if s.Dropped != 1 || s.Delivered != 1 {
		t.Fatalf("dropped=%d delivered=%d", s.Dropped, s.Delivered)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := New(Synchronous{Delta: 9}, 42)
		c := &collector{}
		s.Register(1, c)
		for i := 0; i < 50; i++ {
			s.Send(Message{From: 0, To: 1, Round: i})
		}
		s.Run(100)
		return c.at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different delivery counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different schedules")
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	s := New(Synchronous{Delta: 2}, 5)
	c := &collector{}
	s.Register(1, c)
	s.Send(Message{From: 0, To: 1})
	s.Run(10)
	s.Crash(1)
	s.Send(Message{From: 0, To: 1})
	s.Run(20)
	if len(c.got) != 1 {
		t.Fatalf("deliveries = %d, want 1 (post-crash dropped)", len(c.got))
	}
	if !s.Crashed(1) || s.Crashed(0) {
		t.Fatal("crash bookkeeping")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	s := New(Synchronous{Delta: 1}, 6)
	var fired []string
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) {
		fired = append(fired, tag)
	}})
	s.TimerAt(0, 30, "c")
	s.TimerAt(0, 10, "a")
	s.TimerAt(0, 20, "b")
	s.Run(100)
	if len(fired) != 3 || fired[0] != "a" || fired[1] != "b" || fired[2] != "c" {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerInPastClamped(t *testing.T) {
	s := New(Synchronous{Delta: 1}, 6)
	fired := false
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) { fired = true }})
	s.Run(50) // now = 50
	s.TimerAt(0, 10, "late")
	s.Run(100)
	if !fired {
		t.Fatal("past timer never fired")
	}
}

func TestBroadcastReachesAllIncludingSender(t *testing.T) {
	s := New(Synchronous{Delta: 4}, 7)
	cs := map[history.ProcID]*collector{}
	for p := history.ProcID(0); p < 4; p++ {
		c := &collector{}
		cs[p] = c
		s.Register(p, c)
	}
	s.Broadcast(0, Message{Kind: "hello"})
	s.Run(100)
	for p, c := range cs {
		if len(c.got) != 1 {
			t.Fatalf("p%d deliveries = %d", p, len(c.got))
		}
		if c.got[0].From != 0 {
			t.Fatalf("p%d sender = %d", p, c.got[0].From)
		}
	}
}

func TestRunStopsAtDeadline(t *testing.T) {
	s := New(Synchronous{Delta: 1}, 8)
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) {}})
	s.TimerAt(0, 500, "later")
	n := s.Run(100)
	if n != 0 {
		t.Fatalf("processed = %d before deadline", n)
	}
	if s.Now() != 100 {
		t.Fatalf("now = %d, want 100", s.Now())
	}
	n = s.Run(1000)
	if n != 1 {
		t.Fatalf("processed = %d after extension", n)
	}
}

func TestRecorderUsesVirtualClock(t *testing.T) {
	s := New(Synchronous{Delta: 1}, 9)
	s.Register(0, HandlerFuncs{Timer: func(s *Sim, tag string) {
		s.Recorder().Record(0, history.Label{Kind: history.KindSend, Block: "b"})
	}})
	s.TimerAt(0, 77, "stamp")
	s.Run(100)
	h := s.Recorder().Snapshot()
	ops := h.OpsOfKind(history.KindSend)
	if len(ops) != 1 || h.Op(ops[0]).InvTime != 77 {
		t.Fatalf("ops = %+v", ops)
	}
}

func TestLinkModelNames(t *testing.T) {
	models := []LinkModel{
		Synchronous{Delta: 3},
		Asynchronous{},
		WeaklySynchronous{GST: 10, Delta: 2},
		Lossy{Inner: Synchronous{Delta: 1}},
	}
	seen := map[string]bool{}
	for _, m := range models {
		if m.Name() == "" || seen[m.Name()] {
			t.Fatalf("bad name %q", m.Name())
		}
		seen[m.Name()] = true
	}
}

func TestSynchronousPlanRespectsMin(t *testing.T) {
	l := Synchronous{Delta: 10, Min: 4}
	rng := prng.New(1)
	for i := 0; i < 200; i++ {
		d, drop := l.Plan(rng, Message{}, 0)
		if drop || d < 4 || d > 10 {
			t.Fatalf("delay = %d drop=%v", d, drop)
		}
	}
}
