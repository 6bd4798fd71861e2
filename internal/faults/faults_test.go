package faults

import (
	"net"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Profile
		ok   bool
	}{
		{"zero", Profile{}, true},
		{"light-ish", Profile{Delay: 0.1, MaxDelay: time.Millisecond, Drop: 0.01}, true},
		{"negative", Profile{Drop: -0.1}, false},
		{"over-one", Profile{Drop: 1.5}, false},
		{"sum-over-one", Profile{Drop: 0.6, Corrupt: 0.6}, false},
		{"delay-no-max", Profile{Delay: 0.1}, false},
		{"bad-crash", Profile{Crashes: map[int]int{-1: 0}}, false},
		{"slowdown", Profile{Slowdowns: map[int]int{0: 5}, SlowDelay: time.Millisecond}, true},
		{"slowdown-no-delay", Profile{Slowdowns: map[int]int{0: 5}}, false},
		{"bad-slowdown", Profile{Slowdowns: map[int]int{0: -1}, SlowDelay: time.Millisecond}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%t", tc.name, err, tc.ok)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"", "none", "light", "heavy", "chaos", "slowdown"} {
		p, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ByName(%q) profile invalid: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}

// TestDecideDeterministic is the framework's core property: the decision
// is a pure function of (seed, op), so two injectors with the same seed
// agree on every operation, and a different seed disagrees somewhere.
func TestDecideDeterministic(t *testing.T) {
	prof := Profile{
		Delay: 0.2, MaxDelay: time.Millisecond,
		Drop: 0.1, Reset: 0.05, Corrupt: 0.1, Truncate: 0.05,
	}
	a, err := New(11, prof)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(11, prof)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(12, prof)
	if err != nil {
		t.Fatal(err)
	}
	diff := false
	for w := 0; w < 4; w++ {
		for seq := uint64(0); seq < 200; seq++ {
			op := Op{Transport: "tcp", Worker: w, Dir: "out", Seq: seq}
			fa, fb, fc := a.Decide(op), b.Decide(op), c.Decide(op)
			if fa != fb {
				t.Fatalf("same seed disagrees at %s: %+v vs %+v", op, fa, fb)
			}
			if fa != fc {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical 800-op schedules")
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatal("same seed produced different event logs")
	}
}

// TestDecideRetryDedup: re-deciding the same logical op (a retry) returns
// the same fault but records no new event, so event logs are identical no
// matter how often timeouts force re-attempts.
func TestDecideRetryDedup(t *testing.T) {
	in, err := New(3, Profile{Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Transport: "tcp", Worker: 0, Dir: "out", Seq: 9}
	f1 := in.Decide(op)
	f2 := in.Decide(op)
	if f1 != f2 {
		t.Fatalf("retry decision changed: %+v vs %+v", f1, f2)
	}
	if got := len(in.Events()); got != 1 {
		t.Fatalf("retries recorded %d events, want 1", got)
	}
}

func TestPlannedMatchesDecide(t *testing.T) {
	prof := Profile{Drop: 0.3, Corrupt: 0.3}
	in, err := New(5, prof)
	if err != nil {
		t.Fatal(err)
	}
	var ops []Op
	for seq := uint64(0); seq < 50; seq++ {
		ops = append(ops, Op{Transport: "tcp", Worker: 1, Dir: "out", Seq: seq})
	}
	planned := in.Planned(ops)
	if len(in.Events()) != 0 {
		t.Fatal("Planned recorded events")
	}
	for _, op := range ops {
		in.Decide(op)
	}
	// Events() canonicalises by op identity; apply the same order to the
	// plan before comparing.
	sort.Slice(planned, func(i, j int) bool { return planned[i].Op.String() < planned[j].Op.String() })
	if got := in.Events(); !reflect.DeepEqual(got, planned) {
		t.Fatalf("executed events diverge from plan:\nplan: %+v\ngot:  %+v", planned, got)
	}
	if len(planned) == 0 {
		t.Fatal("plan injected nothing at 60% fault probability over 50 ops")
	}
}

func TestWorkerFilterAndCrash(t *testing.T) {
	in, err := New(1, Profile{Drop: 1, Workers: []int{2}, Crashes: map[int]int{3: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if f := in.Decide(Op{Transport: "tcp", Worker: 1, Dir: "out", Seq: 0}); f.Class != "" {
		t.Fatalf("ineligible worker got fault %+v", f)
	}
	if f := in.Decide(Op{Transport: "tcp", Worker: 2, Dir: "out", Seq: 0}); f.Class != ClassDrop {
		t.Fatalf("eligible worker got %+v, want drop", f)
	}
	if in.CrashAt(3, 4) || in.CrashAt(2, 5) {
		t.Fatal("crash fired at wrong (worker, step)")
	}
	if !in.CrashAt(3, 5) {
		t.Fatal("scheduled crash did not fire")
	}
	if got := in.CountByClass(); got[ClassCrash] != 1 || got[ClassDrop] != 1 {
		t.Fatalf("CountByClass = %v", got)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	if f := in.Decide(Op{}); f.Class != "" {
		t.Fatal("nil injector decided a fault")
	}
	if in.CrashAt(0, 0) {
		t.Fatal("nil injector crashed a worker")
	}
	if in.Events() != nil || in.Planned([]Op{{}}) != nil {
		t.Fatal("nil injector recorded events")
	}
}

// TestInjectorCounters: CountByClass counts each executed fault once
// under its class, a retried operation included. exttrainfaults copies
// these counts into Result.Stats as faults_<class>, the numbers that
// `make chaos` checks in the run's manifest.
func TestInjectorCounters(t *testing.T) {
	in, err := New(1, Profile{Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Transport: "tcp", Worker: 0, Dir: "out", Seq: 1}
	in.Decide(op)
	in.Decide(op) // a retry of the same logical operation
	in.Decide(Op{Transport: "tcp", Worker: 0, Dir: "out", Seq: 2})
	got := in.CountByClass()
	if len(got) != 1 || got[ClassDrop] != 2 {
		t.Fatalf("CountByClass = %v, want drop=2", got)
	}
}

// TestConnWriteFaults drives the net.Conn wrapper over a real loopback
// socket pair, one fault class at a time.
func TestConnWriteFaults(t *testing.T) {
	cases := []struct {
		name  string
		prof  Profile
		class Class
	}{
		{"drop", Profile{Drop: 1}, ClassDrop},
		{"reset", Profile{Reset: 1}, ClassReset},
		{"truncate", Profile{Truncate: 1}, ClassTruncate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := loopbackPair(t)
			in, err := New(7, tc.prof)
			if err != nil {
				t.Fatal(err)
			}
			fc := WrapConn(client, in, "tcp", 0).(*Conn)
			fc.SetWriteSeq(0)
			msg := []byte("0123456789abcdef")
			_, werr := fc.Write(msg)
			var ie *InjectedError
			switch tc.class {
			case ClassTruncate:
				if !asInjected(werr, &ie) || ie.Class != ClassTruncate {
					t.Fatalf("Write() err = %v, want injected truncate", werr)
				}
				buf := make([]byte, len(msg))
				n, _ := server.Read(buf)
				if n >= len(msg) || n == 0 {
					t.Fatalf("peer read %d bytes of a truncated frame (len %d)", n, len(msg))
				}
			default:
				if !asInjected(werr, &ie) || ie.Class != tc.class {
					t.Fatalf("Write() err = %v, want injected %s", werr, tc.class)
				}
				if _, rerr := server.Read(make([]byte, 1)); rerr == nil {
					t.Fatal("peer read from a dropped/reset connection")
				}
			}
		})
	}
}

func TestConnCorruptPreservesLength(t *testing.T) {
	client, server := loopbackPair(t)
	in, err := New(7, Profile{Corrupt: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc := WrapConn(client, in, "tcp", 0).(*Conn)
	fc.SetWriteSeq(0)
	msg := []byte("0123456789abcdef")
	if _, err := fc.Write(msg); err != nil {
		t.Fatalf("corrupting write failed: %v", err)
	}
	buf := make([]byte, len(msg))
	if _, err := readFullConn(server, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) == string(msg) {
		t.Fatal("payload not corrupted")
	}
	if string(buf[:4]) != string(msg[:4]) {
		t.Fatal("corruption hit the first 4 bytes (the frame length prefix)")
	}
	diff := 0
	for i := range buf {
		if buf[i] != msg[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
}

// TestConnContinuationPassesThrough: only the first Read/Write of a
// logical op consults the injector; resumed calls of the same op pass
// through, so partial-frame retries cannot shift the schedule.
func TestConnContinuationPassesThrough(t *testing.T) {
	client, server := loopbackPair(t)
	in, err := New(7, Profile{Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	fc := WrapConn(server, in, "tcp", 0).(*Conn)
	fc.SetReadSeq(4)
	if _, rerr := fc.Read(make([]byte, 4)); rerr == nil {
		t.Fatal("first read of the op should hit the injected drop")
	}
	_ = client.Close()
	// Same logical op again: injector must not be consulted a second time
	// (the conn is closed, so the underlying error surfaces instead).
	_, rerr := fc.Read(make([]byte, 4))
	var ie *InjectedError
	if asInjected(rerr, &ie) {
		t.Fatalf("continuation read re-injected: %v", rerr)
	}
	if got := len(in.Events()); got != 1 {
		t.Fatalf("continuation recorded %d events, want 1", got)
	}
}

// --- helpers ---

// loopbackPair returns two ends of a real TCP connection, closed at
// cleanup.
func loopbackPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		server, err = l.Accept()
	}()
	client, derr := net.Dial("tcp", l.Addr().String())
	<-done
	if derr != nil || err != nil {
		t.Fatalf("loopback pair: dial=%v accept=%v", derr, err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	_ = server.SetDeadline(time.Now().Add(5 * time.Second))
	_ = client.SetDeadline(time.Now().Add(5 * time.Second))
	return client, server
}

func asInjected(err error, target **InjectedError) bool {
	ie, ok := err.(*InjectedError)
	if ok {
		*target = ie
	}
	return ok
}

func readFullConn(c net.Conn, buf []byte) (int, error) {
	off := 0
	for off < len(buf) {
		n, err := c.Read(buf[off:])
		off += n
		if err != nil {
			return off, err
		}
	}
	return off, nil
}

// TestSlowAt: a slowdown schedule is silent before its onset step, then
// slows every subsequent step by exactly SlowDelay, recording each
// slowed step once (dedup across retries like every other event).
func TestSlowAt(t *testing.T) {
	prof, err := ByName("slowdown")
	if err != nil {
		t.Fatal(err)
	}
	in, err := New(1, prof)
	if err != nil {
		t.Fatal(err)
	}
	onset := prof.Slowdowns[0]
	for step := 0; step < onset; step++ {
		if d := in.SlowAt(0, step); d != 0 {
			t.Fatalf("step %d slowed by %v before onset %d", step, d, onset)
		}
	}
	for step := onset; step < onset+3; step++ {
		if d := in.SlowAt(0, step); d != prof.SlowDelay {
			t.Fatalf("step %d: SlowAt = %v, want %v", step, d, prof.SlowDelay)
		}
		// A retried step decides identically and records nothing new.
		if d := in.SlowAt(0, step); d != prof.SlowDelay {
			t.Fatalf("step %d retry: SlowAt = %v", step, d)
		}
	}
	if d := in.SlowAt(1, onset+1); d != 0 {
		t.Errorf("unscheduled worker slowed by %v", d)
	}
	if got := in.CountByClass()[ClassSlow]; got != 3 {
		t.Errorf("slow events = %d, want 3 (one per slowed step)", got)
	}
	var nil_ *Injector
	if d := nil_.SlowAt(0, 10); d != 0 {
		t.Errorf("nil injector slowed by %v", d)
	}
}
