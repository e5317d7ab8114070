package rt

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Goroutine-leak checker for the shutdown-sensitive suites (close,
// chaos, domain death). Stdlib only: the goroutine population is read
// from runtime.Stack(all=true) and bucketed by creation site, so a
// leak report names the function that spawned the stragglers instead
// of printing a bare count. Tests opt in with leakCheck(t) as their
// first statement; the check runs in t.Cleanup, after the test's own
// defers and after the cleanups registered later — newSystem's Close and
// audit among them — have finished.
//
// The checker tolerates goroutines that exist at entry (the test
// binary's own plumbing) and retries for a grace period before
// failing: worker exit is asynchronous by design — Close returns when
// the queues are drained, not when every worker has finished dying.

// leakGrace is how long a leaked-looking goroutine gets to finish
// dying before the checker calls it a leak.
const leakGrace = 3 * time.Second

// goroutineSites returns the current goroutine population bucketed by
// creation site ("created by ..." line; the main goroutine, which has
// none, buckets under its top frame). Buckets, not totals, are what
// make the diff robust: an unrelated goroutine appearing while another
// exits would fool a NumGoroutine comparison but not a per-site one.
func goroutineSites() map[string]int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	sites := make(map[string]int)
	for _, g := range strings.Split(string(buf), "\n\n") {
		lines := strings.Split(g, "\n")
		site := ""
		for _, ln := range lines {
			if strings.HasPrefix(ln, "created by ") {
				site = strings.TrimPrefix(ln, "created by ")
				break
			}
		}
		if site == "" && len(lines) > 1 {
			site = strings.TrimSpace(lines[1])
		}
		if site != "" {
			sites[site]++
		}
	}
	return sites
}

// leakDiff reports sites with more goroutines now than in base,
// ignoring the checker's own frame and the testing machinery.
func leakDiff(base map[string]int) []string {
	var leaks []string
	for site, n := range goroutineSites() {
		if strings.Contains(site, "testing.") || strings.Contains(site, "runtime.") {
			continue
		}
		if extra := n - base[site]; extra > 0 {
			leaks = append(leaks, fmt.Sprintf("%d leaked from %s", extra, site))
		}
	}
	return leaks
}

// leakCheck snapshots the goroutine population and registers a cleanup
// that fails the test if goroutines created during it outlive it (after
// leakGrace). Call it before constructing the System under test.
func leakCheck(t *testing.T) {
	t.Helper()
	base := goroutineSites()
	t.Cleanup(func() {
		deadline := time.Now().Add(leakGrace)
		leaks := leakDiff(base)
		for len(leaks) > 0 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
			leaks = leakDiff(base)
		}
		if len(leaks) > 0 {
			t.Errorf("goroutine leak after %v grace:\n\t%s",
				leakGrace, strings.Join(leaks, "\n\t"))
		}
	})
}
