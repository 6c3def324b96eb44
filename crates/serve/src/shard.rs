//! Sharded serving: the routing, failover and seed rules that bind N
//! independent farm shards into one service, and the shard health
//! states the supervisor tracks.
//!
//! A shard is a complete serving stack of its own — admission queue,
//! executor, persistent worker pool (and, threaded, a batcher) — so
//! shards share no queues. What binds them into one service is the
//! routing rule and the request-seed rule, both pure functions of the
//! **global** request id:
//!
//! * **Routing** — [`route_request`] sends global id `g` to shard
//!   `splitmix64(g) % shards`. Nothing else (arrival time, payload,
//!   queue depths) influences placement, so the shard assignment of a
//!   request stream is reproducible and invariant under reordering of
//!   *other* requests.
//! * **Request seeds** — [`request_seed`] derives each request's RNG
//!   stream from `(base_seed, global id)` instead of its batch slot.
//!   A request therefore computes the same payload bits no matter which
//!   batch, slot, or shard it lands in — this is what extends the
//!   serve determinism contract from "any worker count" to "any worker
//!   *and shard* count".
//! * **Failover** — when a request's primary shard is
//!   [`ShardHealth::Down`], [`route_failover`] reroutes it to the live
//!   shard with the highest rendezvous rank for that id. The fallback
//!   is a pure function of `(request id, liveness mask)`, so two runs
//!   with the same health script fail over identically — and because
//!   payloads are pinned by [`request_seed`], a failed-over request
//!   still computes the same bits it would have computed on its primary.
//!
//! # What is and is not shard-invariant
//!
//! Changing the shard count re-partitions the queues, so batch
//! *indices*, batch *membership* and queue-depth-dependent decisions
//! (a full queue, a linger expiry) legitimately differ between shard
//! counts. The contract pinned by `tests/shard_determinism.rs` is:
//! per-request payload bits, the routing assignment, and scripted
//! deadline expiries are identical at any `(workers, shards)`; the
//! *full* trace (batches included) is identical across worker counts at
//! a fixed shard count. `tests/serve_failover.rs` extends the same
//! contract to scripted chaos: given the same fault plan, the failover
//! assignment and every terminal answer are identical at any worker
//! count.

use crate::engine::ServeStats;
use crate::ServeConfig;

/// The 64-bit splitmix finalizer: a cheap, well-mixed bijection on
/// `u64`. Used for both routing and seed derivation so neighboring ids
/// land on distant shards and in distant RNG streams.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The routing rule: global request id → shard index. A pure function
/// of `(request_id, shards)`.
///
/// # Panics
///
/// Panics when `shards == 0`: a zero-shard topology has nowhere to
/// route, and silently clamping it to one shard would let a
/// misconfigured front serve traffic on a topology nobody asked for.
#[must_use]
pub fn route_request(request_id: u64, shards: usize) -> usize {
    assert!(shards > 0, "route_request: shards must be >= 1, got 0");
    (splitmix64(request_id) % shards as u64) as usize
}

/// The failover rule: the shard a request lands on given which shards
/// are live. The primary ([`route_request`]) wins while live; otherwise
/// the live shard with the highest rendezvous rank for this id takes
/// over. Returns `None` when no shard is live.
///
/// The rank is a pure hash of `(request id, shard)`, so the fallback
/// order of a given id is a fixed permutation of the shards — two runs
/// with the same liveness mask reroute identically. Rendezvous (rather
/// than "next index up") keeps rerouted load spread over all survivors
/// and keeps each id's fallback target stable as *other* shards change
/// state.
///
/// # Panics
///
/// Panics when `live` is empty (a zero-shard topology, as in
/// [`route_request`]).
#[must_use]
pub fn route_failover(request_id: u64, live: &[bool]) -> Option<usize> {
    let primary = route_request(request_id, live.len());
    if live[primary] {
        return Some(primary);
    }
    live.iter()
        .enumerate()
        .filter(|&(_, &l)| l)
        .max_by_key(|&(shard, _)| rendezvous_rank(request_id, shard))
        .map(|(shard, _)| shard)
}

/// The rendezvous rank of `(request_id, shard)`: an independent hash
/// per pair, so each id induces its own total order over shards.
fn rendezvous_rank(request_id: u64, shard: usize) -> u64 {
    splitmix64(splitmix64(request_id) ^ (shard as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// The seed rule: `(base_seed, global request id)` → the seed this
/// request's farm RNG stream derives from. Independent of batch index,
/// batch slot and shard, which is what makes payloads shard-invariant.
#[must_use]
pub fn request_seed(base_seed: u64, request_id: u64) -> u64 {
    splitmix64(base_seed ^ splitmix64(request_id))
}

/// One shard's health, as the supervisor tracks it.
///
/// ```text
/// Healthy → Down → Recovering → Degraded → Healthy
/// ```
///
/// Everything but `Down` accepts traffic; `Down` shards are skipped by
/// [`route_failover`] until their backoff elapses and they restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving normally.
    Healthy,
    /// Restarted and past its first clean batch, still on probation.
    Degraded,
    /// Dead: batcher exited or executor poisoned. Takes no traffic.
    Down,
    /// Freshly restarted, no clean batch served yet. Takes traffic.
    Recovering,
}

impl ShardHealth {
    /// Stable label for telemetry and `/healthz`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Healthy => "healthy",
            Self::Degraded => "degraded",
            Self::Down => "down",
            Self::Recovering => "recovering",
        }
    }

    /// Whether the shard accepts traffic (everything but `Down`).
    #[must_use]
    pub fn is_live(&self) -> bool {
        !matches!(self, Self::Down)
    }
}

/// Configuration of a sharded serving layer: the shard count plus the
/// per-shard [`ServeConfig`] every shard runs with (same base seed on
/// every shard — [`request_seed`] already separates the streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Independent farm shards. Must be ≥ 1.
    pub shards: usize,
    /// The per-shard admission/batching/execution policy.
    pub base: ServeConfig,
}

impl ShardedConfig {
    /// The configured shard count.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0` — see [`route_request`].
    #[must_use]
    pub fn shard_count(&self) -> usize {
        assert!(self.shards > 0, "ShardedConfig: shards must be >= 1, got 0");
        self.shards
    }
}

impl Default for ShardedConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            base: ServeConfig::default(),
        }
    }
}

/// Merges per-shard result-cache counters (`None` when caching is off).
pub(crate) fn sum_cache_stats(
    stats: impl Iterator<Item = Option<crate::cache::CacheStats>>,
) -> Option<crate::cache::CacheStats> {
    stats.fold(None, |acc, s| match (acc, s) {
        (Some(a), Some(b)) => Some(a.merged(b)),
        (one, other) => one.or(other),
    })
}

/// Sums per-shard tallies.
pub(crate) fn sum_stats(stats: impl Iterator<Item = ServeStats>) -> ServeStats {
    stats.fold(ServeStats::default(), |mut acc, s| {
        acc.admitted += s.admitted;
        acc.rejected += s.rejected;
        acc.expired += s.expired;
        acc.completed += s.completed;
        acc.batches += s.batches;
        acc.failed += s.failed;
        acc.cache_hits += s.cache_hits;
        acc.coalesced += s.coalesced;
        acc
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RejectReason, ServeEngine};
    use canti_farm::{JobSpec, ProbeMode};
    use canti_obs::{ObsClock, VirtualClock};
    use std::sync::Arc;

    fn probe(v: f64) -> JobSpec {
        JobSpec::Probe(ProbeMode::Value(v))
    }

    #[test]
    fn splitmix_is_a_bijection_probe_and_routing_is_stable() {
        // distinct inputs → distinct outputs on a small probe set
        let outs: std::collections::BTreeSet<u64> = (0..1000).map(splitmix64).collect();
        assert_eq!(outs.len(), 1000);
        // the routing rule is a pure function: same id, same shard
        for id in 0..100 {
            assert_eq!(route_request(id, 4), route_request(id, 4));
            assert!(route_request(id, 4) < 4);
        }
        assert_eq!(route_request(42, 1), 0);
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shards_is_a_configuration_error_not_a_clamp() {
        let _ = route_request(42, 0);
    }

    #[test]
    #[should_panic(expected = "shards must be >= 1")]
    fn zero_shard_config_panics_at_the_count() {
        let cfg = ShardedConfig {
            shards: 0,
            base: ServeConfig::default(),
        };
        let _ = cfg.shard_count();
    }

    #[test]
    fn request_seed_separates_ids_and_bases() {
        assert_ne!(request_seed(1, 0), request_seed(1, 1));
        assert_ne!(request_seed(1, 0), request_seed(2, 0));
        assert_eq!(request_seed(7, 3), request_seed(7, 3));
    }

    #[test]
    fn failover_prefers_the_live_primary_and_is_deterministic() {
        let all_live = vec![true; 4];
        for id in 0..200u64 {
            assert_eq!(
                route_failover(id, &all_live),
                Some(route_request(id, 4)),
                "live primary wins"
            );
        }
        // primary down: the fallback is stable, differs from the
        // primary, and only ever lands on live shards
        for id in 0..200u64 {
            let primary = route_request(id, 4);
            let mut mask = vec![true; 4];
            mask[primary] = false;
            let target = route_failover(id, &mask).expect("three live shards remain");
            assert_ne!(target, primary);
            assert!(mask[target]);
            assert_eq!(
                route_failover(id, &mask),
                Some(target),
                "replays identically"
            );
        }
        // all dead: nowhere to go
        assert_eq!(route_failover(7, &[false, false]), None);
    }

    #[test]
    fn failover_spreads_rerouted_load() {
        // kill shard 0; ids whose primary was 0 must not all pile onto
        // one survivor
        let mut hits = [0usize; 4];
        let mask = [false, true, true, true];
        for id in 0..4000u64 {
            if route_request(id, 4) == 0 {
                hits[route_failover(id, &mask).unwrap()] += 1;
            }
        }
        assert_eq!(hits[0], 0);
        for (shard, &h) in hits.iter().enumerate().skip(1) {
            assert!(
                h > 0,
                "shard {shard} took none of the rerouted load: {hits:?}"
            );
        }
    }

    #[test]
    fn shard_health_labels_and_liveness() {
        for h in [
            ShardHealth::Healthy,
            ShardHealth::Degraded,
            ShardHealth::Down,
            ShardHealth::Recovering,
        ] {
            assert!(!h.label().is_empty());
        }
        assert!(ShardHealth::Recovering.is_live());
        assert!(!ShardHealth::Down.is_live());
    }

    #[test]
    fn sharded_engine_routes_and_globalizes_ids() {
        let clock = Arc::new(VirtualClock::new());
        let mut e = ServeEngine::sharded(
            ShardedConfig {
                shards: 4,
                base: ServeConfig {
                    max_batch: 1,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            clock as Arc<dyn ObsClock>,
        );
        let mut ids = Vec::new();
        for i in 0..12 {
            ids.push(e.submit(probe(f64::from(i))).expect("admitted"));
        }
        assert_eq!(ids, (0..12).collect::<Vec<u64>>(), "global ids are dense");
        let responses = e.pump();
        assert_eq!(responses.len(), 12, "max_batch 1 fires everything");
        let mut answered: Vec<u64> = responses.iter().map(|r| r.request_id).collect();
        answered.sort_unstable();
        assert_eq!(answered, ids, "every global id answered exactly once");
        // the batch logs carry global ids and cover the full id space
        let mut logged: Vec<u64> = (0..e.shard_count())
            .flat_map(|s| e.batch_log(s).into_iter().flat_map(|b| b.request_ids))
            .collect();
        logged.sort_unstable();
        assert_eq!(logged, ids);
        // and each id sits on the shard the routing rule names
        for s in 0..e.shard_count() {
            for b in e.batch_log(s) {
                for id in b.request_ids {
                    assert_eq!(route_request(id, 4), s, "id {id} on wrong shard");
                }
            }
        }
        assert_eq!(e.stats().completed, 12);
        assert_eq!(e.healths(), vec![ShardHealth::Healthy; 4]);
        assert_eq!(e.failovers(), 0);
    }

    #[test]
    fn rejected_submissions_do_not_burn_global_ids() {
        let clock = Arc::new(VirtualClock::new());
        // capacity 1, linger unreachable: the second submission to any
        // one shard must be rejected
        let mut e = ServeEngine::sharded(
            ShardedConfig {
                shards: 1,
                base: ServeConfig {
                    queue_capacity: 1,
                    max_batch: 64,
                    linger_ns: u64::MAX,
                    threads: 1,
                    ..ServeConfig::default()
                },
            },
            clock as Arc<dyn ObsClock>,
        );
        assert_eq!(e.submit(probe(1.0)), Ok(0));
        assert_eq!(
            e.submit(probe(2.0)),
            Err(RejectReason::QueueFull { capacity: 1 })
        );
        let drained = e.drain();
        assert_eq!(drained.len(), 1);
        // the id after a rejection continues the dense stream
        assert_eq!(e.stats().admitted, 1);
        assert_eq!(e.stats().rejected, 1);
    }
}
