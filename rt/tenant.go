package rt

import (
	"fmt"
	"math"
	"sync/atomic"
)

// Per-tenant token-bucket admission — QoS layered on the existing
// striped counters. A tenant is a caller aggregate (a user, a job, an
// upstream) that must not be able to crowd every other tenant out of a
// shard just by calling faster; the bucket gives each tenant a
// sustained rate plus a burst allowance, and a tenant past its budget
// is shed with ErrShed *before* admission — no in-flight accounting,
// no ring slot, no handler time.
//
// Design rules, same as the health gate's:
//
//   - The warm admitted path is one fetch-add on the tenant's token
//     word (takeN) — no lock, no clock read, no allocation. ppclint's
//     hot-path analyzer checks this.
//   - Refill is lazy: only the throttled path (takeSlowN) refills, from
//     a fresh clock reading, by whole intervals (the cursor CAS settles
//     racing refillers); no tick walks the buckets. A full bucket earns
//     nothing: the take that moves it off full restarts the cursor
//     (restartRefill, cold), so an idle tenant admits exactly Burst.
//   - Budgets are striped per shard, exactly like the health gate and
//     the admission counters: each shard holds its own bucket replica,
//     so a tenant's configured rate is per shard and the token word is
//     only ever contended by callers of one shard. Cross-shard global
//     budgets would reintroduce the shared hot line the paper forbids.
//
// Buckets are published like service-table entries: ConfigureTenant
// builds fresh per-shard buckets under the control-plane mutex and
// stores them into each shard's table; the call path does one atomic
// pointer load to find its bucket, so a reconfigured budget takes
// effect on the very next call.

// TenantID names a tenant. Zero means "no tenant": the client skips
// admission entirely (one predictable branch).
type TenantID uint32

// MaxTenants bounds the per-shard tenant table, like MaxEntryPoints
// bounds the service table.
const MaxTenants = 256

// tenantTable is one shard's bucket table, indexed by TenantID. The
// shard reaches it through an atomic pointer: the first ConfigureTenant
// publishes it under calls that are already looking.
type tenantTable [MaxTenants]atomic.Pointer[tenantBucket]

// TenantConfig is a tenant's per-shard admission budget.
type TenantConfig struct {
	// Rate is the sustained admission rate in requests per second
	// (per shard). Must be positive and finite.
	Rate float64
	// Burst is the bucket depth: how many requests the tenant may
	// admit back-to-back after an idle period (and the hard cap on
	// accumulated credit). Must be >= 1.
	Burst int
}

// tenantBucket is one shard's token bucket for one tenant. The token
// word is the only thing the warm path touches (one fetch-add per
// admitted call); the refill cursor is written by the throttled slow
// path and restarted by the take that moves the bucket off full, so it
// lives on its own line; the immutable rate configuration
// shares the third line with nothing hot. Heap-allocated one per
// (tenant, shard), but tiled anyway so an embedding change cannot
// silently shear the token line.
//
//ppc:padded
type tenantBucket struct {
	// tokens is the remaining admission credit. takeN decrements;
	// refill clamps it back up toward burst. It may transiently dip
	// below zero (a failed takeN adds its decrement back).
	//
	//ppc:atomic
	//ppc:hotline
	tokens atomic.Int64
	_      [56]byte

	// lastRefill is the unix-nano refill cursor: refill advances it by
	// whole intervals, and a take from a full bucket restarts it at now.
	//
	//ppc:atomic
	//ppc:hotline
	lastRefill atomic.Int64
	_          [56]byte

	// Immutable after construction (ConfigureTenant republishes a new
	// bucket to change a budget).
	interval int64 // nanos per token: 1e9 / Rate
	burst    int64
	_        [48]byte // tile to 3 lines
}

// takeN is the warm admission check for a submission of n requests —
// one call, or a whole batch charged at once: one fetch-add. The batch
// is admitted whole or not at all — a half-admitted batch would make
// Flush's accepted count lie about which requests were throttled. A
// take out of credit, or from a full bucket, goes to the slow half.
//
//ppc:hotpath
func (b *tenantBucket) takeN(n int64, clock *coarseClock) bool {
	left := b.tokens.Add(-n)
	return (left >= 0 && left+n < b.burst) || b.takeSlowN(left, n, clock)
}

// restartRefill moves the cursor to now as a take moves the bucket off
// full, discarding the credit its cap refused; the cursor only moves
// forward, so a refiller that read a later clock is never undone.
//
//ppc:coldpath -- once per stretch at full credit, not per admitted call
func (b *tenantBucket) restartRefill(now int64) {
	for last := b.lastRefill.Load(); last < now; last = b.lastRefill.Load() {
		if b.lastRefill.CompareAndSwap(last, now) {
			return
		}
	}
}

// refill credits the whole intervals elapsed since the cursor, clamped
// to burst. Throttled callers race here: the cursor CAS elects exactly
// one creditor per elapsed window, and the token CAS loop never exceeds
// burst. Past the burst window the cursor snaps to now: a full burst,
// not banked credit.
//
//ppc:coldpath -- clock-driven credit, off the warm admission path
func (b *tenantBucket) refill(now int64) {
	for {
		last := b.lastRefill.Load()
		elapsed := now - last
		if elapsed < b.interval {
			return
		}
		add := elapsed / b.interval
		target := last + add*b.interval
		if add >= b.burst {
			add = b.burst
			target = now
		}
		if !b.lastRefill.CompareAndSwap(last, target) {
			continue // another creditor advanced the cursor; re-read
		}
		for {
			cur := b.tokens.Load()
			next := cur + add
			if next > b.burst {
				next = b.burst
			}
			if next == cur || b.tokens.CompareAndSwap(cur, next) {
				return
			}
		}
	}
}

// takeSlowN settles a take the warm check passed on (left is what its
// fetch-add returned). A take from a full bucket restarts its refill; one
// out of credit undoes its decrement, runs a catch-up refill — the only
// refill a bucket gets — and retries once. False sheds with ErrShed.
//
//ppc:coldpath -- a full bucket's first take, or a tenant over budget
func (b *tenantBucket) takeSlowN(left, n int64, clock *coarseClock) bool {
	now := clock.refresh()
	if left+n >= b.burst {
		b.restartRefill(now)
	}
	if left >= 0 {
		return true
	}
	b.tokens.Add(n)
	b.refill(now)
	if b.tokens.Add(-n) >= 0 {
		return true
	}
	b.tokens.Add(n)
	return false
}

// ConfigureTenant installs (or replaces) tenant id's admission budget:
// one fresh bucket per shard, published atomically into each shard's
// tenant table. The budget applies per shard — a tenant calling two
// shards gets cfg.Rate on each, the same striping as the admission
// counters and health gates. Reconfiguring replaces the buckets (the
// new budget starts with a full burst); clients pick the new bucket up
// on their next call. Configuring tenant 0 is an error: zero is the
// "no tenant" sentinel.
//
//ppc:coldpath -- control-plane configuration, serialized by System.mu
func (s *System) ConfigureTenant(id TenantID, cfg TenantConfig) error {
	if id == 0 || id >= MaxTenants {
		return fmt.Errorf("rt: tenant id %d out of range [1, %d)", id, MaxTenants)
	}
	if !(cfg.Rate > 0 && cfg.Rate <= math.MaxFloat64) { // NaN fails both
		return fmt.Errorf("rt: tenant %d needs a positive, finite rate", id)
	}
	if cfg.Burst < 1 {
		return fmt.Errorf("rt: tenant %d needs a burst >= 1", id)
	}
	interval := int64(max(1, min(1e9/cfg.Rate, 1<<62))) // saturated: float64(MaxInt64) is 2^63, which overflows
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		tab := sh.tenants.Load()
		if tab == nil {
			// The first tenant: calls are already reading this pointer.
			tab = new(tenantTable)
			sh.tenants.Store(tab)
		}
		b := &tenantBucket{interval: interval, burst: int64(cfg.Burst)}
		b.tokens.Store(int64(cfg.Burst))
		b.lastRefill.Store(sh.clock.refresh())
		tab[id].Store(b)
	}
	return nil
}

// tenantBucketFor resolves a tenant's bucket on this shard, nil when
// the tenant (or the whole table) is unconfigured — an unconfigured
// tenant ID is admitted freely, like a service without a health gate.
//
//ppc:hotpath
func (sh *shard) tenantBucketFor(id TenantID) *tenantBucket {
	tab := sh.tenants.Load()
	if tab == nil || id >= MaxTenants {
		return nil
	}
	return tab[id].Load()
}
