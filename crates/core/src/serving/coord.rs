//! Cluster-wide prefix-cache coordination: cache-aware routing and a
//! global KV cache tier.
//!
//! PR 5 gave every blade a private radix-tree [`PrefixCache`], but the
//! cluster router stayed cache-blind: N blades re-prefill the same
//! Zipf-head system prompt N times, so equal aggregate KV capacity buys
//! far less than it should. This module makes the prefix cache a
//! cluster-level resource, with three cooperating pieces:
//!
//! * **Cache-aware routing** ([`RoutingPolicy::CacheAware`]) — the router
//!   keeps a per-blade `ResidencyModel` of which prefix chains (and how
//!   many blocks of each) are resident, maintained incrementally from the
//!   same admissions the routing pre-pass already walks, and sends a
//!   tagged request to the blade with the longest matching resident
//!   chain. Untagged requests, cold prefixes, and ties fall back to
//!   join-shortest-queue, and a load-imbalance guard
//!   ([`CACHE_AWARE_MAX_IMBALANCE`]) caps how far affinity may override
//!   load so a hot prefix cannot starve a blade.
//! * **A global cache tier** ([`GlobalCacheConfig`]) — a budget-bounded
//!   cluster-level [`PrefixCache`] populated by insert-through from every
//!   admission and drained by its own reclamation. A hit streams the
//!   cached KV span to the target blade over the compiled
//!   [`HandoffLink`], roofline-priced and *raced against recompute*:
//!   whichever is cheaper at the compiled link bandwidth wins, and the
//!   choice is recorded in an
//!   [`EventKind::RemoteCacheHit`](super::observer::EventKind::RemoteCacheHit)
//!   event.
//! * **Popularity-weighted eviction**
//!   ([`CacheEviction::Lfu`](super::prefix::CacheEviction::Lfu)) — both the
//!   tier and the blade caches can reclaim least-frequently-used first,
//!   so the head of a Zipf request distribution never falls out under
//!   pressure (see [`super::prefix`]).
//!
//! # Determinism
//!
//! The tier is consulted **at arrival**, not at admission: a
//! `CoordPlan` is computed once per replay by walking the trace in
//! arrival order, producing an immutable per-request table of
//! tier-covered tokens that the engine then reads at admission time.
//! That makes the plan — and therefore every transfer-vs-recompute race —
//! a pure function of the trace and config, identical across dispatch
//! modes, simulation cores, and serial/parallel replay. All tier and
//! residency bookkeeping is integer, so coordination never perturbs the
//! audited float stream; with coordination off (the default) nothing
//! here runs at all.
//!
//! [`RoutingPolicy::CacheAware`]: super::cluster::RoutingPolicy::CacheAware
//! [`HandoffLink`]: super::cluster::HandoffLink

use super::cluster::HandoffLink;
use super::engine::arrival_queue;
use super::prefix::{ChainTable, PrefixBlock, PrefixCache, PrefixCachingConfig};
use super::traces::RequestSpec;
use crate::error::OptimusError;
use serde::{Deserialize, Serialize};

/// Load-imbalance guard for cache-aware routing: a blade wins on cache
/// affinity only while its in-flight backlog exceeds the
/// join-shortest-queue choice by at most this many requests. Beyond
/// that, load wins and the request routes as JSQ would — a hot prefix
/// can concentrate traffic, but never starve a blade.
pub const CACHE_AWARE_MAX_IMBALANCE: usize = 2;

/// Configuration of the global KV cache tier (off by default; enable via
/// [`Scenario::global_kv_cache`](super::scenario::Scenario::global_kv_cache)).
///
/// The tier is a cluster-level [`PrefixCache`] holding at most
/// `budget_tokens` of KV at the blade caches' block granularity,
/// reclaimed in the same [`CacheEviction`](super::prefix::CacheEviction)
/// order as the blade caches.
/// Requires prefix caching and an interconnect
/// [`HandoffLink`] — both are compile-time validated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GlobalCacheConfig {
    /// KV budget of the tier (tokens, charged at block granularity).
    /// Must hold at least one block.
    pub budget_tokens: u64,
}

impl GlobalCacheConfig {
    pub(crate) fn validate(&self, prefix: &PrefixCachingConfig) -> Result<(), OptimusError> {
        if self.budget_tokens < u64::from(prefix.block_tokens) {
            return Err(OptimusError::Serving {
                reason: format!(
                    "global cache tier budget of {} tokens holds less than one \
                     {}-token block",
                    self.budget_tokens, prefix.block_tokens
                ),
            });
        }
        Ok(())
    }
}

/// The compiled coordination plan one replay runs under: for each trace
/// index, how many leading prompt tokens the global tier held when the
/// request arrived, plus the link those tokens would stream over. The
/// engine races the stream against local recompute at admission time.
#[derive(Debug, Clone)]
pub(crate) struct CoordPlan {
    /// Per trace index: leading prompt tokens resident in the tier at
    /// arrival (0 for untagged requests and tier misses).
    pub(crate) covered: Vec<u32>,
    /// The interconnect a tier hit streams over.
    pub(crate) link: HandoffLink,
}

/// Walks the trace in arrival order through a budget-bounded global
/// [`PrefixCache`], recording per request how many leading prompt tokens
/// the tier held at its arrival. Every tagged request
/// [touches](PrefixCache::touch) its chain (from `chains`) into the tier
/// (insert-through) — the tier holds *copies*, not sequence pins — and
/// the budget is re-enforced after each arrival.
pub(crate) fn plan_global_tier(
    trace: &[RequestSpec],
    chains: &ChainTable,
    prefix: PrefixCachingConfig,
    global: GlobalCacheConfig,
    link: HandoffLink,
) -> CoordPlan {
    let mut tier = PrefixCache::new(prefix);
    let mut covered = vec![0u32; trace.len()];
    // The engine's own stable (arrival, index) order.
    for idx in arrival_queue(trace) {
        let Some(chain) = chains.get(idx) else {
            continue;
        };
        let hits = tier.touch(chain);
        covered[idx] = chain[..hits].iter().map(PrefixBlock::tokens).sum();
        tier.evict_to_budget(global.budget_tokens);
    }
    CoordPlan { covered, link }
}

/// The router's per-blade picture of prefix residency, maintained
/// incrementally from its own routing decisions: each blade's model is a
/// budget-bounded [`PrefixCache`] that admits the chain of every tagged
/// request routed there. A deliberate *model*, not a replica of the
/// engine's blade caches (the router runs before the replay exists) —
/// but it evicts at the same KV budget and in the same order, so
/// residency tracks what the blade will actually hold.
#[derive(Debug)]
pub(crate) struct ResidencyModel {
    blades: Vec<PrefixCache>,
    /// Per-blade KV budget (tokens) the model evicts to.
    budget_tokens: u64,
}

impl ResidencyModel {
    pub(crate) fn new(blades: usize, prefix: PrefixCachingConfig, budget_tokens: u64) -> Self {
        Self {
            blades: (0..blades).map(|_| PrefixCache::new(prefix)).collect(),
            budget_tokens,
        }
    }

    /// The blade holding the longest resident prefix of `chain`, with the
    /// match length in blocks. `None` when no blade holds any block
    /// (ties break toward the lowest blade index).
    ///
    /// One probe rules out a losing blade. With `floor` the best match so
    /// far, a later blade wins only with a strictly longer one, and its
    /// leading run of resident blocks passes `floor` only if
    /// `chain[floor]` is resident there. A blade that passes the probe is
    /// then matched in full from block 0 ([`PrefixCache::peek`]), so the
    /// result is exact even where `chain[floor]` is resident without its
    /// ancestors: block hashes are an invertible function of trace ids,
    /// and a crafted trace can make two chains collide.
    pub(crate) fn best_blade(&self, chain: &[PrefixBlock]) -> Option<(usize, usize)> {
        let mut best = None;
        let mut floor = 0;
        for (blade, cache) in self.blades.iter().enumerate() {
            let Some(probe) = chain.get(floor) else {
                break; // a full match cannot be beaten
            };
            if !cache.holds(probe) {
                continue;
            }
            let blocks = cache.peek(chain);
            if blocks > floor {
                floor = blocks;
                best = Some((blade, blocks));
            }
        }
        best
    }

    /// Records that a request carrying `chain` was routed to `blade`:
    /// the chain becomes resident there and the blade's model is pruned
    /// back to its KV budget.
    pub(crate) fn admit(&mut self, blade: usize, chain: &[PrefixBlock]) {
        let cache = &mut self.blades[blade];
        cache.touch(chain);
        cache.evict_to_budget(self.budget_tokens);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::prefix::tests::id_colliding_at;
    use crate::serving::prefix::{BlockInterner, CacheEviction, SharedPrefix};
    use scd_tech::units::Bandwidth;

    fn tagged(id: u32, arrival_s: f64, prefix_id: u64, tokens: u32) -> RequestSpec {
        RequestSpec::new(id, arrival_s, tokens + 8, 4).with_prefix(prefix_id, tokens)
    }

    fn link() -> HandoffLink {
        HandoffLink::new(Bandwidth::from_tbps(1.0), 1e-5)
    }

    fn cfg(eviction: CacheEviction) -> PrefixCachingConfig {
        PrefixCachingConfig {
            block_tokens: 16,
            eviction,
        }
    }

    /// The trace's chains at [`cfg`]'s block size (either eviction order
    /// cuts the same blocks).
    fn chains(trace: &[RequestSpec]) -> ChainTable {
        ChainTable::new(trace, Some(cfg(CacheEviction::Lru)))
    }

    #[test]
    fn plan_covers_repeat_prefixes_in_arrival_order() {
        // Trace indices deliberately disagree with arrival order: the
        // plan must walk arrivals, so the *earliest* holder of prefix 1
        // misses and the later one hits the full chain.
        let trace = [
            tagged(0, 2.0, 1, 32),           // arrives second: full tier hit
            tagged(1, 1.0, 1, 32),           // arrives first: cold miss
            RequestSpec::new(2, 3.0, 64, 4), // untagged: never covered
        ];
        let plan = plan_global_tier(
            &trace,
            &chains(&trace),
            cfg(CacheEviction::Lru),
            GlobalCacheConfig {
                budget_tokens: 1024,
            },
            link(),
        );
        assert_eq!(plan.covered, vec![32, 0, 0]);
    }

    #[test]
    fn plan_respects_the_tier_budget() {
        // One-block budget: prefix 1's two blocks never both fit, so its
        // second occurrence still misses past block one... and with the
        // interleaved prefix 2 evicting in between, misses entirely.
        let trace = [
            tagged(0, 1.0, 1, 32),
            tagged(1, 2.0, 2, 32),
            tagged(2, 3.0, 1, 32),
        ];
        let plan = plan_global_tier(
            &trace,
            &chains(&trace),
            cfg(CacheEviction::Lru),
            GlobalCacheConfig { budget_tokens: 16 },
            link(),
        );
        assert_eq!(plan.covered, vec![0, 0, 0]);
        // A budget holding both chains covers the repeat fully.
        let wide = plan_global_tier(
            &trace,
            &chains(&trace),
            cfg(CacheEviction::Lru),
            GlobalCacheConfig { budget_tokens: 128 },
            link(),
        );
        assert_eq!(wide.covered, vec![0, 0, 32]);
    }

    #[test]
    fn lfu_tier_keeps_the_hot_prefix_under_pressure() {
        // Prefix 1 is hot (three holders), prefix 2 appears once in the
        // middle. A two-block budget fits only one 32-token chain: LRU
        // reclaims the older hot chain when the cold one arrives, LFU
        // keeps the hot chain and the last arrival still hits.
        let trace = [
            tagged(0, 1.0, 1, 32),
            tagged(1, 2.0, 1, 32),
            tagged(2, 3.0, 2, 32),
            tagged(3, 4.0, 1, 32),
        ];
        for (eviction, expect_final_hit) in
            [(CacheEviction::Lru, 0u32), (CacheEviction::Lfu, 32u32)]
        {
            let plan = plan_global_tier(
                &trace,
                &chains(&trace),
                cfg(eviction),
                GlobalCacheConfig { budget_tokens: 32 },
                link(),
            );
            assert_eq!(plan.covered[1], 32, "{eviction:?}: repeat before pressure");
            assert_eq!(
                plan.covered[3], expect_final_hit,
                "{eviction:?}: hot prefix after the cold insert"
            );
        }
    }

    #[test]
    fn tier_budget_below_one_block_is_a_typed_error() {
        let err = GlobalCacheConfig { budget_tokens: 15 }
            .validate(&cfg(CacheEviction::Lru))
            .unwrap_err();
        assert!(matches!(err, OptimusError::Serving { .. }));
        assert!(GlobalCacheConfig { budget_tokens: 16 }
            .validate(&cfg(CacheEviction::Lru))
            .is_ok());
    }

    #[test]
    fn residency_model_prefers_longest_match_and_prunes_to_budget() {
        let prefix = cfg(CacheEviction::Lru);
        let mut model = ResidencyModel::new(2, prefix, 1024);
        let mut ids = BlockInterner::new();
        let a = ids.chain(SharedPrefix { id: 1, tokens: 48 }, 16);
        let b = ids.chain(SharedPrefix { id: 2, tokens: 48 }, 16);
        assert_eq!(model.best_blade(&a), None, "cold model has no affinity");
        model.admit(0, &a);
        model.admit(1, &b);
        assert_eq!(model.best_blade(&a), Some((0, 3)));
        assert_eq!(model.best_blade(&b), Some((1, 3)));
        // A shorter prefix of `a` still matches blade 0 on its two blocks.
        let short = ids.chain(SharedPrefix { id: 1, tokens: 32 }, 16);
        assert_eq!(model.best_blade(&short), Some((0, 2)));
        // A tight per-blade budget prunes older residency away.
        let mut tight = ResidencyModel::new(1, prefix, 48);
        tight.admit(0, &a);
        tight.admit(0, &b);
        assert_eq!(tight.best_blade(&b), Some((0, 3)));
        assert_eq!(tight.best_blade(&a), None, "evicted to budget");
    }

    /// The definition `best_blade` must equal: every blade's full match,
    /// the longest winning, ties to the lowest index, no match `None`.
    fn best_by_brute_force(
        model: &ResidencyModel,
        chain: &[PrefixBlock],
    ) -> Option<(usize, usize)> {
        model
            .blades
            .iter()
            .map(|c| c.peek(chain))
            .enumerate()
            .max_by(|(i, a), (j, b)| a.cmp(b).then(j.cmp(i)))
            .filter(|&(_, blocks)| blocks > 0)
    }

    #[test]
    fn best_blade_equals_a_brute_force_fold_of_peek() {
        // Ids recur at several lengths, so chains of one id share their
        // leading blocks and some are shorter than the best match so far;
        // a tight budget leaves partial chains and empty models; six
        // blades at few ids make ties common.
        let mut ids = BlockInterner::new();
        let chains: Vec<Vec<PrefixBlock>> = (0..24u64)
            .map(|i| {
                let tokens = 8 + 16 * (i as u32 % 6);
                ids.chain(SharedPrefix { id: i % 4, tokens }, 16)
            })
            .chain([Vec::new()])
            .collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let (mut ties, mut nones, mut wins) = (0, 0, 0);
        for eviction in [CacheEviction::Lru, CacheEviction::Lfu] {
            for budget in [16, 64, 160, 1024] {
                let mut model = ResidencyModel::new(6, cfg(eviction), budget);
                for step in 0..400 {
                    let chain = &chains[next() as usize % chains.len()];
                    let want = best_by_brute_force(&model, chain);
                    assert_eq!(
                        model.best_blade(chain),
                        want,
                        "{eviction:?} budget {budget} step {step}"
                    );
                    match want {
                        None => nones += 1,
                        Some((best, blocks)) => {
                            wins += 1;
                            let tied = model.blades[best + 1..]
                                .iter()
                                .any(|c| c.peek(chain) == blocks);
                            ties += usize::from(tied);
                        }
                    }
                    // Admit to a random blade, sparing the last one so
                    // one model stays empty throughout.
                    model.admit(next() as usize % 5, chain);
                }
                assert!(model.blades[5].resident_blocks() == 0);
            }
        }
        assert!(
            ties > 100 && nones > 100 && wins > 100,
            "{ties} {nones} {wins}"
        );
    }

    #[test]
    fn best_blade_walks_a_probed_blade_from_block_zero() {
        // Colliding hashes: blade 1 holds the query's second block as
        // another chain's third, so it passes the probe at `floor` = 1
        // but matches nothing from block 0.
        let mut ids = BlockInterner::new();
        let query = ids.chain(SharedPrefix { id: 1, tokens: 48 }, 16);
        let head = ids.chain(SharedPrefix { id: 1, tokens: 16 }, 16);
        let crafted = SharedPrefix {
            id: id_colliding_at(query[1].hash(), 2),
            tokens: 48,
        };
        let other = ids.chain(crafted, 16);
        assert_eq!(other[2], query[1], "the crafted chain collides");
        let mut model = ResidencyModel::new(2, cfg(CacheEviction::Lru), 1024);
        model.admit(0, &head);
        model.admit(1, &other);
        assert_eq!(model.best_blade(&query), Some((0, 1)));
        assert_eq!(
            model.best_blade(&query),
            best_by_brute_force(&model, &query)
        );
    }
}
