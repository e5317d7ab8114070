//go:build !(amd64 || arm64 || loong64 || mips64 || mips64le || ppc64 || ppc64le || riscv64 || s390x || wasm)

package rt

import "sync/atomic"

// admit is leg_plain.go's leg on a 32-bit GOARCH, where a plain int64
// increment is two stores a drain could read between: the locked leg, not
// to tear.
//
//ppc:hotpath
func (s *Service) admit(st *callStripe) bool { return s.admitShared(st) }

// complete is leg_plain.go's completion leg, locked for the same reason.
//
//ppc:hotpath
func (s *Service) complete(st *callStripe) { atomic.AddInt64(&st.completed, 1) }
