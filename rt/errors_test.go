package rt

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"testing"
	"time"
)

// errorTaxonomy is every exported rt sentinel with its class. A
// transient error clears on its own — a ring drains, a health gate
// probes, a token bucket refills — so a caller may back off and
// resubmit; every other error is terminal for the request, and
// ErrClientAbandoned for the client as well. rt/README.md's error
// taxonomy table documents the same classes.
var errorTaxonomy = []struct {
	name      string
	err       error
	transient bool
}{
	{"ErrBadEntryPoint", ErrBadEntryPoint, false},
	{"ErrKilled", ErrKilled, false},
	{"ErrPermissionDenied", ErrPermissionDenied, false},
	{"ErrNameTaken", ErrNameTaken, false},
	{"ErrUnknownName", ErrUnknownName, false},
	{"ErrServerFault", ErrServerFault, false},
	{"ErrClosed", ErrClosed, false},
	{"ErrBackpressure", ErrBackpressure, true},
	{"ErrDrainTimeout", ErrDrainTimeout, false},
	{"ErrDeadline", ErrDeadline, false},
	{"ErrServiceUnhealthy", ErrServiceUnhealthy, true},
	{"ErrPayloadTooLarge", ErrPayloadTooLarge, false},
	{"ErrArenaFull", ErrArenaFull, false},
	{"ErrShed", ErrShed, true},
	{"ErrClientAbandoned", ErrClientAbandoned, false},
}

// transient is the tests' classifier: err is, or wraps, a sentinel the
// taxonomy marks transient.
func transient(err error) bool {
	for _, row := range errorTaxonomy {
		if row.transient && errors.Is(err, row.err) {
			return true
		}
	}
	return false
}

// TestErrorTaxonomy pins the errors.Is/As contract for every exported
// rt error (the table in rt/README.md): sentinels match themselves and
// wrapped copies, no sentinel accidentally matches another, and exactly
// ErrBackpressure, ErrServiceUnhealthy and ErrShed are transient —
// bare, wrapped, and in the README's Transient column.
func TestErrorTaxonomy(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	wantTransient := map[error]bool{ErrBackpressure: true, ErrServiceUnhealthy: true, ErrShed: true}
	if transient(nil) {
		t.Fatal("transient(nil) = true")
	}
	for i, row := range errorTaxonomy {
		t.Run(row.name, func(t *testing.T) {
			s := row.err
			if !errors.Is(s, s) {
				t.Fatalf("errors.Is(%v, itself) = false", s)
			}
			wrapped := fmt.Errorf("wrapped: %w", s)
			if !errors.Is(wrapped, s) {
				t.Fatalf("wrapped %v does not match", s)
			}
			for j, other := range errorTaxonomy {
				if i != j && errors.Is(s, other.err) {
					t.Fatalf("%v matches %v", s, other.err)
				}
			}
			if s.Error() == "" || s.Error()[:4] != "rt: " {
				t.Fatalf("%q does not carry the rt: prefix", s.Error())
			}
			if row.transient != wantTransient[s] {
				t.Fatalf("taxonomy marks %s transient = %v", row.name, row.transient)
			}
			if transient(s) != row.transient || transient(wrapped) != row.transient {
				t.Fatalf("transient(%s) = %v, wrapped %v; want %v", row.name, transient(s), transient(wrapped), row.transient)
			}
			doc := "no"
			if row.transient {
				doc = "**yes**"
			}
			if !regexp.MustCompile("(?m)^\\| `" + row.name + "` \\|.*\\| " + regexp.QuoteMeta(doc) + " \\|$").Match(readme) {
				t.Fatalf("rt/README.md's taxonomy row for %s does not end in | %s |", row.name, doc)
			}
		})
	}
}

// TestRetryableError pins which errors a caller may back off on and
// resubmit: the transient ones, bare or wrapped, and never a terminal
// error or nil.
func TestRetryableError(t *testing.T) {
	for _, e := range []error{ErrBackpressure, ErrServiceUnhealthy, ErrShed} {
		if !transient(e) || !transient(fmt.Errorf("wrapped: %w", e)) {
			t.Fatalf("%v must be retryable", e)
		}
	}
	for _, e := range []error{nil, ErrServerFault, ErrKilled, ErrDeadline, ErrClosed} {
		if transient(e) {
			t.Fatalf("%v must not be retryable", e)
		}
	}
}

func TestFaultErrorIsAndAs(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	svc, err := sys.Bind(ServiceConfig{Name: "panicky", Handler: func(ctx *Ctx, args *Args) {
		panic("the payload")
	}})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{Shard: -1})
	defer c.Release()
	var args Args
	callErr := c.Call(svc.EP(), &args)
	if !errors.Is(callErr, ErrServerFault) {
		t.Fatalf("fault does not match ErrServerFault: %v", callErr)
	}
	var fe *FaultError
	if !errors.As(callErr, &fe) {
		t.Fatalf("errors.As(*FaultError) failed on %v", callErr)
	}
	if fe.Val != "the payload" {
		t.Fatalf("FaultError.Val = %v", fe.Val)
	}
	// Wrapping preserves both matches.
	wrapped := fmt.Errorf("caller context: %w", callErr)
	if !errors.Is(wrapped, ErrServerFault) || !errors.As(wrapped, &fe) {
		t.Fatal("wrapping broke the fault taxonomy")
	}
}

func TestDeadlineErrorWrapsContextCause(t *testing.T) {
	// The CallContext error path must satisfy errors.Is for BOTH the rt
	// sentinel and the context cause (see deadline_test.go for the
	// live-path version; this pins the shape).
	err := fmt.Errorf("%w: %w", ErrDeadline, errTestCause)
	if !errors.Is(err, ErrDeadline) || !errors.Is(err, errTestCause) {
		t.Fatal("composite deadline error does not match both causes")
	}
}

var errTestCause = errors.New("cause")

func TestErrorsSurfaceOnRightPaths(t *testing.T) {
	sys := newSystem(t, Options{Shards: 1})
	block := make(chan struct{})
	defer close(block)
	svc, err := sys.Bind(ServiceConfig{
		Name:    "mixedbag",
		Handler: func(ctx *Ctx, args *Args) { <-block },
	})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.NewClientWith(ClientOptions{})
	if err := c.Call(999, &Args{}); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("bad EP: %v", err)
	}
	if err := c.CallDeadline(svc.EP(), &Args{}, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("deadline: %v", err)
	}
	if err := sys.Kill(svc.EP(), true); err != nil {
		t.Fatal(err)
	}
	// A killed entry point is retracted from the shard tables, so later
	// calls see ErrBadEntryPoint (ErrKilled surfaces only on the
	// admission race itself).
	if err := c.Call(svc.EP(), &Args{}); !errors.Is(err, ErrBadEntryPoint) {
		t.Fatalf("killed: %v", err)
	}
	// Payload sizing errors surface at allocation, before any lease is
	// taken: a request above the slab capacity is ErrPayloadTooLarge.
	if _, _, err := c.AllocPayload(arenaSlabBytes + 1); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized payload: %v", err)
	}
	if st := sys.Stats()[0]; st.LeasesActive != 0 {
		t.Fatalf("failed allocation took a lease: %+v", st)
	}
}
