//! Backend pool for the router tier ([`Router`](crate::Router)):
//! addresses, health, and consistent placement.
//!
//! Placement uses **rendezvous (highest-random-weight) hashing**: every
//! request key scores each backend with a mixed hash of `(key, slot)`
//! and picks the highest score. Two properties make it the right fit
//! here:
//!
//! * **Cache locality** — identical keys always land on the same
//!   backend, so a repeated `(model fingerprint, seed-range)` hits that
//!   node's `SnapshotCache` instead of re-generating elsewhere.
//! * **Minimal disruption** — when a backend dies, only the keys that
//!   scored it highest move (each to its second-choice node); every
//!   other key keeps its placement, so a single failure does not
//!   invalidate the whole fleet's caches. When the backend returns, the
//!   same keys move back.
//!
//! The request key itself is `(model fingerprint, seed / seed_range)`:
//! seeds are bucketed into ranges so a tenant sweeping consecutive
//! seeds fans out across the fleet at `seed_range` granularity while
//! still keeping neighbouring seeds (which share generation shape and
//! coalesce in one node's cache) on one node.
//!
//! Health is advisory and demand-driven: a dial failure or mid-stream
//! death marks the backend down (and drops its
//! `vrdag_route_backend_up` gauge); a later request whose first-choice
//! placement lands on a down backend re-probes it after a short
//! hold-down (`REPROBE_AFTER`) so a recovered node resumes taking its
//! shard —
//! there is no separate health-check thread to configure or drift.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vrdag_obs::{Gauge, Registry};

/// Down backends are left alone for this long before a request whose
/// first-choice placement is that backend attempts a recovery dial.
pub(crate) const REPROBE_AFTER: Duration = Duration::from_secs(2);

/// `splitmix64` finalizer — a full-avalanche 64-bit mixer (the same
/// construction the generator uses for seed streams), so placement
/// quality never depends on the raw key distribution.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte string, for keying models the router has no
/// fingerprint for (backend unreachable at startup).
pub(crate) fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One backend `vrdag-serve` node as the router sees it.
pub struct BackendMeta {
    slot: usize,
    addr: SocketAddr,
    up: AtomicBool,
    /// Dial failures since the last successful connect (diagnostic).
    dial_failures: AtomicU64,
    /// When the last recovery dial of a *down* backend was attempted.
    last_reprobe: Mutex<Option<Instant>>,
    up_gauge: Gauge,
}

impl BackendMeta {
    /// Pool index of this backend.
    pub fn slot(&self) -> usize {
        self.slot
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn is_up(&self) -> bool {
        self.up.load(Ordering::SeqCst)
    }

    pub(crate) fn mark_up(&self) {
        self.up.store(true, Ordering::SeqCst);
        self.up_gauge.set(1);
    }

    pub(crate) fn mark_down(&self) {
        self.up.store(false, Ordering::SeqCst);
        self.up_gauge.set(0);
    }

    pub(crate) fn note_dial_failure(&self) {
        self.dial_failures.fetch_add(1, Ordering::SeqCst);
    }

    pub fn dial_failures(&self) -> u64 {
        self.dial_failures.load(Ordering::SeqCst)
    }

    /// Should a request whose placement prefers this (down) backend
    /// spend a dial on probing it? At most once per [`REPROBE_AFTER`]
    /// across all sessions, so a dead node costs the fleet one
    /// connect-timeout per window, not one per request.
    pub(crate) fn take_reprobe_slot(&self) -> bool {
        let mut last = self.last_reprobe.lock().expect("reprobe clock poisoned");
        match *last {
            Some(at) if at.elapsed() < REPROBE_AFTER => false,
            _ => {
                *last = Some(Instant::now());
                true
            }
        }
    }
}

/// The router's set of backends plus the placement function.
pub struct BackendPool {
    backends: Vec<Arc<BackendMeta>>,
    /// Seed-bucket width of the placement key (`seed / seed_range`).
    seed_range: u64,
}

impl BackendPool {
    /// Build the pool. Every backend starts *up* (optimistic: the first
    /// failed dial corrects it) with its `vrdag_route_backend_up` gauge
    /// published immediately, so a scrape of a fresh router already
    /// lists the fleet.
    pub fn new(addrs: Vec<SocketAddr>, seed_range: u64, metrics: &Registry) -> BackendPool {
        let backends = addrs
            .into_iter()
            .enumerate()
            .map(|(slot, addr)| {
                let up_gauge =
                    metrics.gauge("vrdag_route_backend_up", &[("backend", &addr.to_string())]);
                up_gauge.set(1);
                Arc::new(BackendMeta {
                    slot,
                    addr,
                    up: AtomicBool::new(true),
                    dial_failures: AtomicU64::new(0),
                    last_reprobe: Mutex::new(None),
                    up_gauge,
                })
            })
            .collect();
        BackendPool { backends, seed_range: seed_range.max(1) }
    }

    pub fn len(&self) -> usize {
        self.backends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.backends.is_empty()
    }

    pub fn get(&self, slot: usize) -> &Arc<BackendMeta> {
        &self.backends[slot]
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<BackendMeta>> {
        self.backends.iter()
    }

    pub fn up_count(&self) -> usize {
        self.backends.iter().filter(|b| b.is_up()).count()
    }

    /// The placement key of one request: model identity (fingerprint
    /// when known, name hash otherwise) combined with the seed bucket.
    pub fn request_key(&self, model_key: u64, seed: u64) -> u64 {
        mix64(model_key ^ mix64(seed / self.seed_range))
    }

    /// Rendezvous placement over **all** slots — where the key lives
    /// when the whole fleet is healthy (the cache-locality home).
    pub fn place(&self, key: u64) -> Option<usize> {
        Self::rendezvous(key, self.backends.iter().map(|b| b.slot))
    }

    /// Rendezvous placement over the currently-up slots, optionally
    /// excluding one (the backend that just failed mid-request).
    pub fn place_healthy(&self, key: u64, exclude: Option<usize>) -> Option<usize> {
        Self::rendezvous(
            key,
            self.backends.iter().filter(|b| b.is_up() && Some(b.slot) != exclude).map(|b| b.slot),
        )
    }

    fn rendezvous(key: u64, slots: impl Iterator<Item = usize>) -> Option<usize> {
        slots.max_by_key(|&slot| mix64(key ^ mix64(slot as u64 ^ 0x5bf0_3635)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> BackendPool {
        let addrs = (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i).parse().unwrap()).collect();
        BackendPool::new(addrs, 16, &Registry::default())
    }

    #[test]
    fn placement_is_deterministic_and_spreads() {
        let pool = pool(4);
        let mut used = [0usize; 4];
        for model in 0..8u64 {
            for seed in 0..64u64 {
                let key = pool.request_key(mix64(model), seed);
                let a = pool.place(key).unwrap();
                let b = pool.place(key).unwrap();
                assert_eq!(a, b, "placement must be stable");
                used[a] += 1;
            }
        }
        // 512 keys over 4 backends: every backend takes a real share.
        for (slot, count) in used.iter().enumerate() {
            assert!(*count > 32, "slot {slot} only took {count} of 512 keys");
        }
    }

    #[test]
    fn seeds_in_one_range_share_a_backend() {
        let pool = pool(4);
        let home = pool.place(pool.request_key(7, 0)).unwrap();
        for seed in 0..16u64 {
            assert_eq!(pool.place(pool.request_key(7, seed)), Some(home));
        }
    }

    #[test]
    fn losing_a_backend_only_moves_its_keys() {
        let pool = pool(4);
        let keys: Vec<u64> = (0..512u64).map(|i| pool.request_key(mix64(i), i)).collect();
        let before: Vec<usize> = keys.iter().map(|&k| pool.place(k).unwrap()).collect();
        let dead = before[0];
        pool.get(dead).mark_down();
        for (key, &home) in keys.iter().zip(&before) {
            let now = pool.place_healthy(*key, None).unwrap();
            if home != dead {
                // Rendezvous guarantee: keys not on the dead node stay put.
                assert_eq!(now, home, "key moved off a healthy backend");
            } else {
                assert_ne!(now, dead);
            }
        }
        // Recovery moves exactly those keys back.
        pool.get(dead).mark_up();
        let after: Vec<usize> =
            keys.iter().map(|&k| pool.place_healthy(k, None).unwrap()).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn reprobe_slot_is_rate_limited() {
        let pool = pool(1);
        let b = pool.get(0);
        b.mark_down();
        assert!(b.take_reprobe_slot());
        assert!(!b.take_reprobe_slot(), "second probe inside the window must be refused");
    }
}
