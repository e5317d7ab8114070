//go:build amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x || wasm

package rt

// admit is the synchronous admission leg of every synchronous path, on the
// stripe of the descriptor that runs the call: increment-then-check, so a
// soft kill either sees this call in flight and waits for it, or stored the
// killed state first and the call backs out here (false: fail with
// ErrKilled, the back-out accounted). The increment is a plain write — the
// descriptor's serial owner is its only writer — and the fence between it
// and the state load is Kill's heavyBarrier, which the race detector does
// not model: hence go:norace (docs/INVARIANTS.md, "The asymmetric fence").
//
//ppc:hotpath
//go:norace
func (s *Service) admit(st *callStripe) bool {
	st.admitted++
	if s.state.Load() != svcActive {
		s.backOut(st)
		return false
	}
	return true
}

// complete is the matching completion leg, a synchronous call's one
// counter write, plain on the same argument: it takes the call out of the
// in-flight count a draining Kill polls.
//
//ppc:hotpath
//go:norace
func (s *Service) complete(st *callStripe) { st.completed++ }
