package faults

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"
)

// InjectedError marks an error as deliberately injected, carrying the
// class and operation so transports can attribute blame and tests can
// distinguish injected failures from real ones.
type InjectedError struct {
	Class Class
	Op    Op
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected %s at %s", e.Class, e.Op)
}

// Conn wraps a net.Conn with fault injection. The transport assigns each
// logical chunk operation a sequence number via SetReadSeq/SetWriteSeq
// before performing it; the first Read/Write of that logical operation
// consults the injector, and continuation calls (a frame's later Reads)
// pass through untouched — so however the bytes arrive, the fault
// schedule does not shift.
type Conn struct {
	net.Conn
	in        *Injector
	transport string
	worker    int

	readSeq, writeSeq   atomic.Uint64 // current logical op seq (+1; 0 = unset)
	readDone, writeDone atomic.Uint64 // last seq whose fault was applied (+1)
}

// WrapConn attaches an injector to a connection. With a nil injector the
// connection is returned unwrapped, so the fault-free path costs nothing.
func WrapConn(c net.Conn, in *Injector, transport string, worker int) net.Conn {
	if in == nil {
		return c
	}
	return &Conn{Conn: c, in: in, transport: transport, worker: worker}
}

// SetReadSeq declares the logical sequence number of the next read op.
func (c *Conn) SetReadSeq(seq uint64) { c.readSeq.Store(seq + 1) }

// SetWriteSeq declares the logical sequence number of the next write op.
func (c *Conn) SetWriteSeq(seq uint64) { c.writeSeq.Store(seq + 1) }

// Read injects read-side faults (delay, drop, reset) on the first call
// of each logical operation, then delegates to the wrapped connection.
func (c *Conn) Read(p []byte) (int, error) {
	if seq := c.readSeq.Load(); seq != 0 && c.readDone.Swap(seq) != seq {
		op := Op{Transport: c.transport, Worker: c.worker, Dir: "in", Seq: seq - 1}
		switch f := c.in.Decide(op); f.Class {
		case ClassDelay:
			sleep(f.Delay)
		case ClassDrop, ClassTruncate:
			_ = c.Conn.Close()
			return 0, &InjectedError{Class: ClassDrop, Op: op}
		case ClassReset:
			c.reset()
			return 0, &InjectedError{Class: ClassReset, Op: op}
		}
		// Corrupt is a write-side fault: flipping received bytes here
		// would blame the wrong link. Treat it as a pass on reads.
	}
	return c.Conn.Read(p)
}

// Write injects write-side faults on the first call of each logical
// operation: delay, payload corruption (CRC must catch it downstream),
// truncation (partial frame then close), drop and reset.
func (c *Conn) Write(p []byte) (int, error) {
	seq := c.writeSeq.Load()
	if seq == 0 || c.writeDone.Swap(seq) == seq {
		return c.Conn.Write(p)
	}
	op := Op{Transport: c.transport, Worker: c.worker, Dir: "out", Seq: seq - 1}
	switch f := c.in.Decide(op); f.Class {
	case ClassDelay:
		sleep(f.Delay)
	case ClassCorrupt:
		// Flip one bit beyond the length prefix so framing survives and
		// the receiver's CRC check is what has to catch it.
		if len(p) > 5 {
			buf := append([]byte(nil), p...)
			idx := 4 + int(f.Arg%uint64(len(p)-4))
			buf[idx] ^= 1 << (f.Arg % 8)
			return c.Conn.Write(buf)
		}
	case ClassTruncate:
		if len(p) > 1 {
			n, _ := c.Conn.Write(p[:len(p)/2])
			_ = c.Conn.Close()
			return n, &InjectedError{Class: ClassTruncate, Op: op}
		}
	case ClassDrop:
		_ = c.Conn.Close()
		return 0, &InjectedError{Class: ClassDrop, Op: op}
	case ClassReset:
		c.reset()
		return 0, &InjectedError{Class: ClassReset, Op: op}
	}
	return c.Conn.Write(p)
}

// sleep pauses for an injected delay, ignoring non-positive durations.
func sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// reset closes the connection abruptly: for TCP, linger 0 makes the
// close send an RST so the peer sees ECONNRESET instead of EOF.
func (c *Conn) reset() {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
}
