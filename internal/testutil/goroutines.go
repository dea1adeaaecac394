// Package testutil holds small helpers shared by test files across packages.
package testutil

import (
	"runtime"
	"testing"
	"time"
)

// WaitGoroutines polls until the goroutine count drops back to the baseline,
// failing with a full stack dump when it does not within five seconds.
// Released worker goroutines need a few scheduler passes to actually exit,
// so leak tests must poll rather than snapshot.
func WaitGoroutines(t testing.TB, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d goroutines, baseline %d\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
