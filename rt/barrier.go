package rt

import "runtime"

// heavyBarrier is the slow side of the asymmetric fence (docs/INVARIANTS.md):
// by its return every thread of the process has executed a full barrier
// since the call, so a plain write another goroutine made before that point
// is visible here, and a load it makes after sees what was stored here
// before the call. Soft Kill calls it twice, and in exchange a synchronous
// admission and completion on a descriptor's stripe take no locked
// instruction (Service.admit).
//
// It stops the world and starts it again (ReadMemStats does): every P
// parks through the scheduler's locked instructions, on every platform.
func heavyBarrier() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
}
