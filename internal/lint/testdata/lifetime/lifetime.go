// Package lifetime seeds the lifetime analyzer's fixture findings:
// acquire→release obligations leaked on some path, discarded acquire
// results, WaitGroup accounting hazards — plus the exempt idioms
// (defer, error guards, ownership transfer, releasing helpers) and a
// named suppression.
package lifetime

import (
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"time"
)

// --- true positives ---------------------------------------------------

// leakOnEarlyReturn loses the file on the strict-mode path: the error
// guard is fine, but the second return leaves Close unreachable.
func leakOnEarlyReturn(p string, bad bool) error {
	f, err := os.Create(p) // want lifetime
	if err != nil {
		return err
	}
	if bad {
		return errors.New("bad")
	}
	return f.Close()
}

// discardTicker drops the only handle that could ever stop the ticker.
func discardTicker(d time.Duration) {
	time.NewTicker(d) // want lifetime
}

// blankCancel throws away the cancel func: the derived context can now
// never be released before its parent dies.
func blankCancel(ctx context.Context) context.Context {
	c, _ := context.WithCancel(ctx) // want lifetime
	return c
}

// cancelOnePath calls cancel on the fast path only; the slow path
// leaks the timer the context holds.
func cancelOnePath(ctx context.Context, fast bool) error {
	ctx2, cancel := context.WithCancel(ctx) // want lifetime
	if fast {
		cancel()
		return ctx2.Err()
	}
	return ctx2.Err()
}

// leakViaConstructor leaks a file acquired through a same-package
// constructor: inference gives openLog's callers os.OpenFile's
// obligation.
func leakViaConstructor(dir string, strict bool) error {
	f, err := openLog(dir) // want lifetime
	if err != nil {
		return err
	}
	if strict {
		return errors.New("strict mode rejects logs")
	}
	return f.Close()
}

// addInsideGoroutine races Wait: nothing guarantees the Add runs
// before the spawner's Wait returns.
func addInsideGoroutine() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want lifetime
		defer wg.Done()
	}()
	wg.Wait()
}

// doneAfterReturn can skip the Done when the guard trips, hanging the
// spawner's Wait forever.
func doneAfterReturn(ok bool) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		if !ok {
			return
		}
		wg.Done() // want lifetime
	}()
	wg.Wait()
}

// --- exempt idioms ----------------------------------------------------

// deferClose is the canonical clean shape: the deferred release covers
// every path, including the error returns below it.
func deferClose(p string) ([]byte, error) {
	f, err := os.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, 8)
	if _, err := f.Read(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// errGuard releases on the success path; on the error path the
// connection was never established, so there is nothing to close.
func errGuard(addr string) error {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	return c.Close()
}

// openLog transfers ownership by returning: the caller owes the Close
// (and inference marks this function a constructor).
func openLog(dir string) (*os.File, error) {
	return os.OpenFile(dir+"/log", os.O_CREATE, 0o644)
}

// newServer escapes the listener into the struct it returns: the
// lifecycle belongs to the server's own Close contract now.
type server struct{ ln net.Listener }

func newServer(addr string) (*server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &server{ln: ln}, nil
}

// closeQuietly releases its parameter, so helperRelease's obligation is
// discharged interprocedurally.
func closeQuietly(f *os.File) {
	_ = f.Close()
}

func helperRelease(p string) error {
	f, err := os.Open(p)
	if err != nil {
		return err
	}
	closeQuietly(f)
	return nil
}

// --- suppression ------------------------------------------------------

// tickForever leaks by design; the named directive records why.
func tickForever(d time.Duration) {
	//lint:ignore lifetime ticker deliberately runs for the process lifetime
	time.NewTicker(d)
}

// --- select exhaustiveness --------------------------------------------

// backoffWait releases the timer in every select clause. A select runs
// exactly one clause, so the clause set is exhaustive and the
// obligation is discharged on every path — no finding. (exempt)
func backoffWait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	select {
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	case <-t.C:
		t.Stop()
	}
	return nil
}

// lopsidedWait stops the timer on the cancellation arm only; the
// fall-through arm leaks it.
func lopsidedWait(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d) // want lifetime
	select {
	case <-ctx.Done():
		t.Stop()
		return ctx.Err()
	case <-t.C:
	}
	return nil
}
