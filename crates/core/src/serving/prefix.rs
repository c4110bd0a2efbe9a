//! Prefix caching: ref-counted shared KV blocks with copy-on-write and
//! LRU eviction — vLLM-style automatic prefix caching for the serving
//! engine.
//!
//! Production traffic is dominated by requests sharing long system
//! prompts. Without sharing, every request pays the full prefill compute
//! and pins a private copy of the prompt's KV. [`PrefixCache`] stores each
//! common prefix **once**: the prefix is cut into fixed-size token blocks,
//! each block is named by a deterministic hash chained through its
//! ancestors (so equal hashes imply equal *positions within equal
//! prefixes*), and resident blocks carry a reference count of the
//! sequences using them. The cache is a radix tree over blocks, but a
//! logical one: each resident block records its parent and its count of
//! resident children.
//!
//! Hashes name blocks only once per replay. A [`BlockInterner`] gives
//! every distinct block hash a dense id as the replay's chains are cut,
//! and a cache keeps its blocks in an array indexed by that id, so a
//! probe is one bounds-checked load and no cache operation hashes
//! anything. Block hashes are an invertible function of trace-supplied
//! prefix ids; the interner's map draws its key from [`RandomState`], so
//! a crafted trace cannot drive it into one bucket, and blocks with
//! equal hashes share one id exactly as they would share one hash-map
//! entry. Nothing orders by id in a way that reaches a result:
//! reclamation runs off an ordered free list whose keys are unique
//! without it.
//!
//! Three mechanisms follow:
//!
//! * **Sharing** — a request whose prefix chain is (partially) resident
//!   skips the covered prefill tokens and charges only its private KV
//!   against capacity; the shared blocks are charged once, globally.
//! * **Copy-on-write** — a partially-filled tail block cannot be extended
//!   in place by any one sequence without corrupting the others, so a
//!   sequence that appends past a *shared* tail block takes a private
//!   copy first (counted per admission as
//!   [`ServingReport::prefix_cow_copies`](super::report::ServingReport::prefix_cow_copies)).
//! * **LRU eviction** — completed sequences release their references but
//!   leave the blocks resident; unreferenced blocks are reclaimed
//!   leaf-first in least-recently-used order only when admission needs
//!   the capacity back.
//!
//! # The reference protocol
//!
//! Refcounts move through three operations only. [`PrefixCache::lease`]
//! pins a chain's resident leading blocks (its hits) in a [`Lease`]; the
//! holder may reclaim cold blocks through it, then either
//! [`Lease::commit`]s — inserting the missing suffix and holding the whole
//! chain — or drops the lease, which releases the hits (their bumped
//! recency stays). [`PrefixCache::release`] drops a holder's whole chain
//! when its sequence leaves. [`PrefixCache::touch`] is lease, commit and
//! release in one pass, for writers that hold nothing.
//!
//! The cache is deliberately a standalone structure so its invariants —
//! refcounts never underflow, resident blocks never exceed what commits
//! put there, eviction only touches unreferenced leaves, releasing every
//! holder drains refcounts to zero — are independently proptestable.

use super::traces::RequestSpec;
use crate::error::OptimusError;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{HashMap, RandomState};
use std::collections::BTreeSet;

/// Reclamation order for unreferenced cache blocks.
///
/// `Lru` is the classic recency order. `Lfu` weights recency by
/// popularity: blocks of a frequently-reacquired chain (the head of a
/// Zipf request distribution) are reclaimed last, so the hot system
/// prompt never falls out of a pressured cache. Both orders are pure
/// integer bookkeeping and never touch the audited float stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CacheEviction {
    /// Least-recently-used first (the PR 5 behaviour; bit-identical).
    #[default]
    Lru,
    /// Least-frequently-used first, recency as the tiebreak.
    Lfu,
}

/// Engine-facing prefix-caching configuration (off by default; enable via
/// [`Scenario::prefix_caching`](super::scenario::Scenario::prefix_caching)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCachingConfig {
    /// Tokens per shared KV block (the sharing granularity; vLLM defaults
    /// to 16). Independent of the [`KvLayout`](super::kv::KvLayout) used
    /// for private KV accounting.
    pub block_tokens: u32,
    /// Reclamation order for unreferenced blocks (defaults to LRU, which
    /// reproduces the pre-coordination behaviour bit for bit).
    #[serde(default)]
    pub eviction: CacheEviction,
}

impl PrefixCachingConfig {
    pub(crate) fn validate(&self) -> Result<(), OptimusError> {
        if self.block_tokens == 0 {
            return Err(OptimusError::Serving {
                reason: "prefix caching needs block_tokens ≥ 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// The shared-prefix tag a request may carry: which system prompt its
/// first `tokens` prompt tokens are, identified by a stable id. Two
/// requests with the same id share identical leading tokens up to the
/// shorter tag's length (the trace generator keeps one length per id; a
/// recorded trace may reuse an id at another length, and the two chains
/// then share their common full blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedPrefix {
    /// Stable identity of the shared prefix (e.g. a hash of the system
    /// prompt text).
    pub id: u64,
    /// Length of the shared prefix (tokens); must be ≥ 1 and ≤ the
    /// request's `prompt_tokens`.
    pub tokens: u32,
}

/// Seeds a prefix's hash chain from its id.
const CHAIN_SEED: u64 = 0xa076_1d64_78bd_642f;

/// splitmix64 finalizer: the deterministic mixer block hashes chain
/// through. Good avalanche, no allocation, stable across platforms.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One block of a prefix chain: its position-chained hash, the dense id
/// its [`BlockInterner`] gave that hash, and the tokens it actually
/// holds (`block_tokens` for full blocks, the remainder for a partial
/// tail). Only an interner makes blocks, so every id is one it handed
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixBlock {
    hash: u64,
    id: u32,
    tokens: u32,
}

impl PrefixBlock {
    /// Chained block hash: equal hashes name the same block.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Dense id of the block's hash within its interner: the index a
    /// [`PrefixCache`] keeps the block at.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Tokens cached in this block.
    #[must_use]
    pub fn tokens(&self) -> u32 {
        self.tokens
    }
}

impl SharedPrefix {
    /// Full blocks of the prefix at `block_tokens` granularity — the
    /// sharable span. Tokens past the last full block live in a partial
    /// tail block that divergent continuations copy-on-write.
    #[must_use]
    pub fn shared_tokens(&self, block_tokens: u32) -> u32 {
        (self.tokens / block_tokens) * block_tokens
    }

    /// The prefix's blocks as `(hash, tokens)`: one per full block plus,
    /// when the length is not block-aligned, a final partial tail. Each
    /// hash chains through its parent's, and the tail's also through its
    /// length, so chains for different prefixes (or different depths)
    /// never alias.
    fn hashed_blocks(self, block_tokens: u32) -> impl Iterator<Item = (u64, u32)> {
        let full = self.tokens / block_tokens;
        let tail = self.tokens % block_tokens;
        (0..full + u32::from(tail > 0)).scan(mix(self.id ^ CHAIN_SEED), move |h, i| {
            let (tokens, salt) = if i < full {
                (block_tokens, 0)
            } else {
                (tail, u64::from(tail) << 32)
            };
            *h = mix(*h ^ (u64::from(i) + 1) ^ salt);
            Some((*h, tokens))
        })
    }
}

/// Dense ids for the prefix blocks of one family of caches: the first
/// distinct block hash it sees gets id 0, the next id 1, and so on, and
/// a hash seen again gets its id back. A [`PrefixCache`] indexes its
/// blocks by these ids, so every chain one cache sees must come from
/// one interner; a replay cuts all its chains through one, once.
///
/// The map is keyed by [`RandomState`]: block hashes are a public
/// function of the trace's prefix ids, and an unkeyed map could be
/// driven into one bucket by a crafted trace. The ids themselves are
/// assigned in first-seen order, whatever the key.
#[derive(Debug, Clone, Default)]
pub struct BlockInterner {
    ids: HashMap<u64, u32, RandomState>,
}

impl BlockInterner {
    /// An interner that has handed out no id yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `prefix` cut into blocks of `block_tokens` (≥ 1), each carrying
    /// its id.
    pub fn chain(&mut self, prefix: SharedPrefix, block_tokens: u32) -> Vec<PrefixBlock> {
        let mut chain = Vec::new();
        self.extend_chain(prefix, block_tokens, &mut chain);
        chain
    }

    /// Appends `prefix`'s blocks to `out` (see [`Self::chain`]).
    fn extend_chain(
        &mut self,
        prefix: SharedPrefix,
        block_tokens: u32,
        out: &mut Vec<PrefixBlock>,
    ) {
        for (hash, tokens) in prefix.hashed_blocks(block_tokens) {
            // No interner in memory nears 2^32 distinct blocks.
            let next = self.ids.len() as u32;
            let id = *self.ids.entry(hash).or_insert(next);
            out.push(PrefixBlock { hash, id, tokens });
        }
    }
}

/// Every prefix chain one replay needs, cut once: one interned chain per
/// distinct `(id, tokens)` tag of the trace, stored back to back in one
/// flat block list, plus each request's slot in it. Routing, the global
/// tier's plan, admission, release and the prefill tier all borrow from
/// here instead of re-cutting a request's chain at every use, and their
/// caches all index the block ids one [`BlockInterner`] gave out here.
///
/// Keyed by length as well as id: a recorded trace may reuse an id with
/// another prefix length, and the two chains share only their leading
/// full blocks.
#[derive(Debug, Clone, Default)]
pub(crate) struct ChainTable {
    /// Every distinct chain, back to back.
    blocks: Vec<PrefixBlock>,
    /// Chain `c` is `blocks[bounds[c]..bounds[c + 1]]`.
    bounds: Vec<usize>,
    /// Per trace index: its chain, or [`Self::UNTAGGED`].
    slot: Vec<u32>,
}

impl ChainTable {
    const UNTAGGED: u32 = u32::MAX;

    /// Cuts and interns the chains of `trace` at the configured block
    /// size; an empty table (every lookup `None`) when prefix caching is
    /// off.
    pub(crate) fn new(trace: &[RequestSpec], config: Option<PrefixCachingConfig>) -> Self {
        let Some(config) = config else {
            return Self::default();
        };
        let mut blocks = Vec::new();
        let mut bounds = vec![0];
        let mut ids = BlockInterner::new();
        let mut interned: HashMap<(u64, u32), u32> = HashMap::new();
        let slot = trace
            .iter()
            .map(|r| {
                r.prefix.map_or(Self::UNTAGGED, |p| {
                    *interned.entry((p.id, p.tokens)).or_insert_with(|| {
                        ids.extend_chain(p, config.block_tokens, &mut blocks);
                        bounds.push(blocks.len());
                        // At most one chain per request, and no trace
                        // in memory nears 2^32 requests.
                        (bounds.len() - 2) as u32
                    })
                })
            })
            .collect();
        Self {
            blocks,
            bounds,
            slot,
        }
    }

    /// The chain of `trace[idx]`'s prefix; `None` when the request is
    /// untagged or prefix caching is off.
    pub(crate) fn get(&self, idx: usize) -> Option<&[PrefixBlock]> {
        let c = *self.slot.get(idx)? as usize;
        let (&start, &end) = (self.bounds.get(c)?, self.bounds.get(c + 1)?);
        self.blocks.get(start..end)
    }
}

/// One slot of a cache's block array: a resident block of the radix
/// tree, or an absent one (`tokens == 0`; every block holds a token).
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent block id ([`Node::ROOT`] for a chain's first block).
    parent: u32,
    /// Resident children (a block is only evictable as a leaf).
    children: u32,
    /// Sequences currently holding a reference.
    refcount: u32,
    /// Tokens cached in this block; 0 while the block is absent.
    tokens: u32,
    /// Logical LRU stamp of the last lease or commit touching it.
    last_use: u64,
    /// Times this block was leased again while resident (the popularity
    /// signal [`CacheEviction::Lfu`] orders reclamation by).
    hits: u64,
}

impl Node {
    /// The parent of a chain's first block.
    const ROOT: u32 = u32::MAX;

    /// An absent block's slot.
    const ABSENT: Self = Self {
        parent: Self::ROOT,
        children: 0,
        refcount: 0,
        tokens: 0,
        last_use: 0,
        hits: 0,
    };

    fn is_resident(&self) -> bool {
        self.tokens != 0
    }
}

/// The resident block `id` of `nodes`, if any.
fn resident_mut(nodes: &mut [Node], id: u32) -> Option<&mut Node> {
    nodes.get_mut(id as usize).filter(|n| n.is_resident())
}

/// Position of an unreferenced leaf in the reclamation order. Every stamp
/// takes a fresh tick, so `last_use` alone makes the key unique and the
/// trailing block id never decides the order; it lets eviction recover
/// the victim regardless of mode.
fn free_key(eviction: CacheEviction, node: &Node, id: u32) -> (u64, u64, u32) {
    match eviction {
        CacheEviction::Lru => (node.last_use, 0, id),
        CacheEviction::Lfu => (node.hits, node.last_use, id),
    }
}

/// Ref-counted shared-block cache: a logical radix tree over interned
/// blocks (parent links in an array indexed by block id) with LRU
/// reclamation of unreferenced blocks.
///
/// The engine holds one per blade (KV is per-blade memory); the
/// standalone API is the proptest surface. Every chain a cache sees must
/// come from one [`BlockInterner`]. The cache owns its
/// [`PrefixCachingConfig`], and references follow the
/// [module's protocol](self): lease → commit (or drop), release, touch.
/// All bookkeeping is integer, so cache decisions never perturb the
/// engine's audited float stream.
#[derive(Debug, Clone)]
pub struct PrefixCache {
    /// Every block by id, resident or absent; grown to the highest id
    /// ever inserted.
    nodes: Vec<Node>,
    /// Unreferenced leaves in reclamation order (see [`free_key`]): the
    /// next victim is always `free.first()`.
    free: BTreeSet<(u64, u64, u32)>,
    /// Logical clock for LRU stamps.
    tick: u64,
    /// Resident blocks.
    resident: u64,
    /// Tokens actually cached across resident blocks.
    resident_tokens: u64,
    /// Block granularity and reclamation order.
    config: PrefixCachingConfig,
}

impl PrefixCache {
    /// An empty cache cutting blocks and reclaiming them as `config` says.
    #[must_use]
    pub fn new(config: PrefixCachingConfig) -> Self {
        Self {
            nodes: Vec::new(),
            free: BTreeSet::new(),
            tick: 0,
            resident: 0,
            resident_tokens: 0,
            config,
        }
    }

    /// The configuration the cache was built with.
    #[must_use]
    pub fn config(&self) -> PrefixCachingConfig {
        self.config
    }

    /// Resident blocks (referenced or LRU-reclaimable).
    #[must_use]
    pub fn resident_blocks(&self) -> u64 {
        self.resident
    }

    /// Tokens actually cached across resident blocks (a partial tail
    /// block counts its real token count, not the block size).
    #[must_use]
    pub fn resident_tokens(&self) -> u64 {
        self.resident_tokens
    }

    /// Capacity charged by resident blocks: every resident block pins a
    /// whole block of KV memory.
    #[must_use]
    pub fn charged_tokens(&self) -> u64 {
        self.resident_blocks() * u64::from(self.config.block_tokens)
    }

    /// Blocks currently reclaimable (resident, unreferenced leaves).
    #[must_use]
    pub fn reclaimable_blocks(&self) -> u64 {
        self.free.len() as u64
    }

    /// Whether no resident block is referenced (every holder has
    /// released): the state a drained replay must leave behind.
    pub(crate) fn is_unreferenced(&self) -> bool {
        self.nodes.iter().all(|n| n.refcount == 0)
    }

    /// Leading blocks of `chain` that are resident, without touching
    /// refcounts or LRU order — the admission-planning probe.
    #[must_use]
    pub fn peek(&self, chain: &[PrefixBlock]) -> usize {
        chain.iter().take_while(|b| self.holds(b)).count()
    }

    /// Whether `block` is resident: one array load.
    pub(crate) fn holds(&self, block: &PrefixBlock) -> bool {
        self.nodes
            .get(block.id as usize)
            .is_some_and(Node::is_resident)
    }

    /// Pins the resident leading blocks of `chain` (the hits) in a
    /// [`Lease`], to be committed or dropped.
    pub fn lease<'a>(&'a mut self, chain: &'a [PrefixBlock]) -> Lease<'a> {
        let hits = self.pin(chain);
        Lease {
            cache: self,
            chain,
            hits,
        }
    }

    /// Makes `chain` resident without holding it and returns how many
    /// leading blocks already were.
    ///
    /// In effect this is a lease, its commit and a release of the chain,
    /// done in one pass: every block's stamp, hit count, refcount and
    /// free-list position end as those three calls leave them. A hit is
    /// stamped and counted but keeps its refcount (the pin and the
    /// release cancel); a miss is inserted unreferenced under its
    /// parent. The free list loses a hit that was an unreferenced leaf
    /// and regains it, re-stamped, unless the next block is inserted
    /// below it; of the inserted blocks only the chain's last is a leaf.
    pub fn touch(&mut self, chain: &[PrefixBlock]) -> usize {
        let eviction = self.config.eviction;
        // The previous hit's new free-list key, when it left the list as
        // an unreferenced leaf and no child has been inserted below it.
        let mut unfiled = None;
        let mut hits = 0;
        for b in chain {
            let Some(node) = resident_mut(&mut self.nodes, b.id) else {
                break;
            };
            // A resident next block leaves the previous hit's children
            // as they were: it is a leaf again.
            if let Some(key) = unfiled.take() {
                self.free.insert(key);
            }
            let leaf = node.refcount == 0 && node.children == 0;
            if leaf {
                self.free.remove(&free_key(eviction, node, b.id));
            }
            self.tick += 1;
            node.last_use = self.tick;
            node.hits += 1;
            if leaf {
                unfiled = Some(free_key(eviction, node, b.id));
            }
            hits += 1;
        }
        let Some(last) = chain.len().checked_sub(1).filter(|&l| l >= hits) else {
            // Every block hit (or the chain is empty).
            if let Some(key) = unfiled {
                self.free.insert(key);
            }
            return hits;
        };
        // The suffix hangs below the last hit, which leaves the free list
        // for good: it gains a child.
        if let Some(pn) = hits
            .checked_sub(1)
            .and_then(|p| resident_mut(&mut self.nodes, chain[p].id))
        {
            pn.children += 1;
        }
        for (i, b) in chain.iter().enumerate().skip(hits) {
            self.tick += 1;
            let node = Node {
                parent: i.checked_sub(1).map_or(Node::ROOT, |p| chain[p].id),
                // Every inserted block but the last has the next one
                // inserted below it.
                children: u32::from(i < last),
                refcount: 0,
                tokens: b.tokens,
                last_use: self.tick,
                hits: 0,
            };
            if i == last {
                self.free.insert(free_key(eviction, &node, b.id));
            }
            self.place(b.id, node);
        }
        hits
    }

    /// Releases the reference a holder took on each block of `chain` by
    /// committing a lease on it. Blocks stay resident; those that drop
    /// to zero references become LRU-reclaimable leaves.
    ///
    /// # Errors
    ///
    /// Returns [`OptimusError::Serving`] for a block that is not resident
    /// or already unreferenced (refcount underflow) — the state is left
    /// untouched in that case.
    pub fn release(&mut self, chain: &[PrefixBlock]) -> Result<(), OptimusError> {
        if let Some(b) = chain.iter().find(|b| !self.is_held(b)) {
            return Err(OptimusError::Serving {
                reason: format!("released prefix block {:#018x} is not held", b.hash),
            });
        }
        self.unpin(chain);
        Ok(())
    }

    /// Releases a chain its holder committed a lease on: the engine's
    /// release of a leaving sequence, which cannot be unheld (the public
    /// [`Self::release`] checks the same thing and returns a typed
    /// error instead).
    pub(crate) fn release_committed(&mut self, chain: &[PrefixBlock]) {
        debug_assert!(
            chain.iter().all(|b| self.is_held(b)),
            "released a chain that was not committed"
        );
        self.unpin(chain);
    }

    /// Whether `block` is resident and referenced.
    fn is_held(&self, block: &PrefixBlock) -> bool {
        self.nodes
            .get(block.id as usize)
            .is_some_and(|n| n.is_resident() && n.refcount > 0)
    }

    /// Reclaims the first unreferenced leaf block in the configured
    /// reclamation order (LRU by default, LFU under
    /// [`CacheEviction::Lfu`]), if any, returning the tokens it cached.
    /// Its parent may become reclaimable in turn, so repeated calls peel
    /// a dead chain back to front.
    pub fn evict_lru(&mut self) -> Option<u32> {
        // Free entries name resident, unreferenced leaves, and a resident
        // block's parent is resident: `pin`, `insert_suffix`, `unpin`,
        // `touch` and this function keep the list and the array in step.
        let (_, _, id) = self.free.pop_first()?;
        let node = resident_mut(&mut self.nodes, id).map(|n| std::mem::replace(n, Node::ABSENT));
        debug_assert!(
            node.is_some_and(|n| n.refcount == 0 && n.children == 0),
            "free entry {id} is not a resident unreferenced leaf"
        );
        let node = node?;
        self.resident -= 1;
        self.resident_tokens -= u64::from(node.tokens);
        let parent = resident_mut(&mut self.nodes, node.parent);
        debug_assert_eq!(
            parent.is_some(),
            node.parent != Node::ROOT,
            "an evicted block's parent is resident"
        );
        if let Some(pn) = parent {
            pn.children -= 1;
            if pn.refcount == 0 && pn.children == 0 {
                self.free
                    .insert(free_key(self.config.eviction, pn, node.parent));
            }
        }
        Some(node.tokens)
    }

    /// Reclaims LRU blocks until the cache charges at most
    /// `budget_tokens` (or nothing more is reclaimable). Returns the
    /// number of blocks evicted.
    pub fn evict_to_budget(&mut self, budget_tokens: u64) -> u64 {
        let mut evicted = 0;
        while self.charged_tokens() > budget_tokens && self.evict_lru().is_some() {
            evicted += 1;
        }
        evicted
    }

    /// Takes a reference on every resident leading block of `chain`,
    /// stamping each with a fresh tick and counting the reuse; returns
    /// how many blocks hit.
    fn pin(&mut self, chain: &[PrefixBlock]) -> usize {
        let mut hits = 0;
        for b in chain {
            let Some(node) = resident_mut(&mut self.nodes, b.id) else {
                break;
            };
            if node.refcount == 0 && node.children == 0 {
                // The block stops being an evictable leaf.
                self.free
                    .remove(&free_key(self.config.eviction, node, b.id));
            }
            self.tick += 1;
            node.last_use = self.tick;
            node.refcount += 1;
            node.hits += 1;
            hits += 1;
        }
        hits
    }

    /// Inserts `chain[from..]`, each block referenced once, below the
    /// pinned `chain[..from]`. The suffix is absent: `from` is where
    /// [`Self::pin`] stopped, and a block is never resident without its
    /// parent.
    fn insert_suffix(&mut self, chain: &[PrefixBlock], from: usize) {
        for (i, b) in chain.iter().enumerate().skip(from) {
            let parent = i.checked_sub(1).map_or(Node::ROOT, |p| chain[p].id);
            // The parent is held (a pinned hit or the block just
            // inserted), so it is never on the free list.
            if let Some(pn) = resident_mut(&mut self.nodes, parent) {
                pn.children += 1;
            }
            self.tick += 1;
            self.place(
                b.id,
                Node {
                    parent,
                    children: 0,
                    refcount: 1,
                    tokens: b.tokens,
                    last_use: self.tick,
                    hits: 0,
                },
            );
        }
    }

    /// Makes `node` the block at `id`, growing the array to reach it.
    fn place(&mut self, id: u32, node: Node) {
        let i = id as usize;
        if i >= self.nodes.len() {
            self.nodes.resize(i + 1, Node::ABSENT);
        }
        let prev = std::mem::replace(&mut self.nodes[i], node);
        debug_assert!(!prev.is_resident(), "inserted block was already resident");
        self.resident += u64::from(!prev.is_resident());
        self.resident_tokens += u64::from(node.tokens);
    }

    /// Drops one reference on each of `blocks`, all of them held; blocks
    /// left unreferenced with no resident children become reclaimable.
    fn unpin(&mut self, blocks: &[PrefixBlock]) {
        for b in blocks {
            // Held blocks are never evicted, so every one is resident.
            if let Some(node) = resident_mut(&mut self.nodes, b.id) {
                debug_assert!(node.refcount > 0, "unpinned an unheld block");
                node.refcount -= 1;
                if node.refcount == 0 && node.children == 0 {
                    self.free.insert(free_key(self.config.eviction, node, b.id));
                }
            }
        }
    }
}

/// A pin on the resident leading blocks (the hits) of one chain, borrowing
/// its cache. [`Self::commit`] hands the holder the whole chain, to
/// [`PrefixCache::release`] later; dropping the lease uncommitted
/// releases the hits, keeping the recency the lookup gave them.
#[derive(Debug)]
#[must_use = "dropping a lease releases its hits at once"]
pub struct Lease<'a> {
    cache: &'a mut PrefixCache,
    chain: &'a [PrefixBlock],
    /// Leading blocks of `chain` this lease pins.
    hits: usize,
}

impl Lease<'_> {
    /// Leading blocks of the chain that were resident (now pinned).
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Prompt tokens the hit blocks cover (prefill a hit lets the holder
    /// skip).
    #[must_use]
    pub fn hit_tokens(&self) -> u32 {
        self.chain[..self.hits].iter().map(|b| b.tokens).sum()
    }

    /// Capacity the cache will charge once this lease commits: its
    /// resident blocks plus the missing suffix, a whole block each.
    #[must_use]
    pub fn charged_after_commit(&self) -> u64 {
        let missing = (self.chain.len() - self.hits) as u64;
        self.cache.charged_tokens() + missing * u64::from(self.cache.config.block_tokens)
    }

    /// Reclaims a cold block to make room ([`PrefixCache::evict_lru`]);
    /// the pinned hits are never the victim.
    pub fn evict_lru(&mut self) -> Option<u32> {
        self.cache.evict_lru()
    }

    /// Inserts the missing suffix: the holder now references the whole
    /// chain and must [`PrefixCache::release`] it when done.
    pub fn commit(mut self) {
        self.cache.insert_suffix(self.chain, self.hits);
        self.hits = 0; // the references are the holder's: nothing to roll back
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        self.cache.unpin(&self.chain[..self.hits]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Inverse of `x ^ (x >> s)`.
    fn unshift(y: u64, s: u32) -> u64 {
        (0..64 / s).fold(y, |x, _| y ^ (x >> s))
    }

    /// The multiplicative inverse of odd `a` modulo 2^64 (Newton's
    /// iteration doubles the correct low bits, from 3).
    fn inverse(a: u64) -> u64 {
        (0..5).fold(a, |inv, _| {
            inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)))
        })
    }

    /// Inverse of [`mix`]: block hashes are an invertible function of
    /// prefix ids, which is how a crafted trace makes them collide.
    fn unmix(mut x: u64) -> u64 {
        x = unshift(x, 31).wrapping_mul(inverse(0x94d0_49bb_1331_11eb));
        x = unshift(x, 27).wrapping_mul(inverse(0xbf58_476d_1ce4_e5b9));
        unshift(x, 30).wrapping_sub(0x9e37_79b9_7f4a_7c15)
    }

    /// A prefix id whose full block at `depth` hashes to `target`: a
    /// crafted collision with whichever block already has that hash.
    pub(crate) fn id_colliding_at(target: u64, depth: u32) -> u64 {
        let start = (0..=depth)
            .rev()
            .fold(target, |h, i| unmix(h) ^ (u64::from(i) + 1));
        unmix(start) ^ CHAIN_SEED
    }

    fn cache(eviction: CacheEviction) -> PrefixCache {
        PrefixCache::new(PrefixCachingConfig {
            block_tokens: 16,
            eviction,
        })
    }

    /// Chains of 16-token blocks, all cut by one interner.
    #[derive(Default)]
    struct Chains(BlockInterner);

    impl Chains {
        fn get(&mut self, id: u64, tokens: u32) -> Vec<PrefixBlock> {
            self.0.chain(SharedPrefix { id, tokens }, 16)
        }
    }

    #[test]
    fn block_chain_shape_and_determinism() {
        let mut chains = Chains::default();
        let p = SharedPrefix { id: 7, tokens: 40 };
        let c = chains.get(7, 40);
        assert_eq!(c.len(), 3, "two full blocks + one tail");
        assert_eq!(c[0].tokens(), 16);
        assert_eq!(c[1].tokens(), 16);
        assert_eq!(c[2].tokens(), 8);
        assert_eq!(p.shared_tokens(16), 32);
        let ids: Vec<u32> = c.iter().map(PrefixBlock::id).collect();
        assert_eq!(ids, [0, 1, 2], "dense ids in first-seen order");
        assert_eq!(c, chains.get(7, 40), "chains are pure functions");
        assert_eq!(
            c,
            BlockInterner::new().chain(p, 16),
            "whatever the interner's key"
        );
        assert_eq!(chains.0.ids.len(), 3);
        // Distinct ids and distinct depths never alias.
        let other = chains.get(8, 40);
        assert!(c.iter().all(|b| other.iter().all(|o| o.hash != b.hash)));
        assert!(c.iter().all(|b| other.iter().all(|o| o.id != b.id)));
        let aligned = chains.get(7, 32);
        assert_eq!(aligned.len(), 2);
        assert_eq!(&c[..2], &aligned[..], "shared ancestry has equal blocks");
        assert_eq!(chains.0.ids.len(), 6);
    }

    #[test]
    fn crafted_collisions_share_one_id() {
        let mut chains = Chains::default();
        // Equal hashes at equal depths mean equal ids (the chain is a
        // bijection), so a collision pairs blocks at different depths.
        let q = chains.get(3, 48);
        let p = chains.get(id_colliding_at(q[1].hash, 2), 48);
        assert_eq!(p[2].hash, q[1].hash, "crafted to collide");
        assert_eq!(p[2].id, q[1].id, "equal hashes share one id");
        assert_eq!(chains.0.ids.len(), 5);
    }

    #[test]
    fn lease_commit_release_lifecycle() {
        let mut cache = cache(CacheEviction::Lru);
        let c = Chains::default().get(1, 40); // 3 blocks (16+16+8 tokens)
        assert_eq!(cache.peek(&c), 0);
        let lease = cache.lease(&c);
        assert_eq!(lease.hits(), 0, "cold cache misses");
        assert_eq!(lease.charged_after_commit(), 48);
        lease.commit();
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(cache.resident_tokens(), 40);
        assert_eq!(cache.charged_tokens(), 48);
        assert_eq!(cache.reclaimable_blocks(), 0, "all blocks referenced");

        // A second holder of the same prefix hits everything.
        let lease = cache.lease(&c);
        assert_eq!(lease.hits(), 3);
        assert_eq!(lease.hit_tokens(), 40);
        assert_eq!(lease.charged_after_commit(), 48, "nothing to insert");
        lease.commit();
        cache.release(&c).unwrap();
        assert_eq!(cache.reclaimable_blocks(), 0, "first holder remains");
        assert!(!cache.is_unreferenced());
        cache.release(&c).unwrap();
        assert!(cache.is_unreferenced());
        assert_eq!(
            cache.reclaimable_blocks(),
            1,
            "only the leaf is reclaimable"
        );

        // Evicting peels the chain back to front.
        assert_eq!(cache.evict_lru(), Some(8));
        assert_eq!(cache.evict_lru(), Some(16));
        assert_eq!(cache.evict_lru(), Some(16));
        assert_eq!(cache.evict_lru(), None);
        assert_eq!(cache.resident_blocks(), 0);
        assert_eq!(cache.resident_tokens(), 0);
    }

    #[test]
    fn partial_hit_leases_prefix_only() {
        let mut cache = cache(CacheEviction::Lru);
        let mut chains = Chains::default();
        let long = chains.get(3, 64); // 4 full blocks
        assert_eq!(cache.touch(&long), 0);
        // A shorter prefix of the same id shares the leading blocks.
        let short = chains.get(3, 32);
        assert_eq!(cache.peek(&short), 2);
        let lease = cache.lease(&short);
        assert_eq!(lease.hits(), 2);
        // Nothing left to insert: the whole short chain hit.
        assert_eq!(lease.charged_after_commit(), 64);
        lease.commit();
        assert_eq!(cache.resident_blocks(), 4);
        cache.release(&short).unwrap();
        assert!(cache.is_unreferenced());
    }

    #[test]
    fn dropped_lease_leaves_its_chain_reclaimable() {
        let mut cache = cache(CacheEviction::Lru);
        let mut chains = Chains::default();
        let a = chains.get(1, 32);
        let b = chains.get(2, 16);
        cache.touch(&a);
        cache.touch(&b);
        {
            let mut lease = cache.lease(&a);
            assert_eq!(lease.hits(), 2);
            // The pinned hits are never reclaimed through the lease: only
            // the other chain's block goes.
            assert_eq!(lease.evict_lru(), Some(16));
            assert_eq!(lease.evict_lru(), None);
        }
        assert!(cache.is_unreferenced(), "the drop released the hits");
        assert_eq!(cache.peek(&b), 0);
        assert_eq!(cache.evict_to_budget(0), 2, "the chain is reclaimable");

        // A rollback keeps the recency the lookup gave: the leased chain
        // outlives an older one.
        cache.touch(&a);
        cache.touch(&b);
        drop(cache.lease(&a));
        assert_eq!(cache.evict_to_budget(32), 1);
        assert_eq!(cache.peek(&a), 2, "the leased chain was used last");
        assert_eq!(cache.peek(&b), 0);
    }

    #[test]
    fn release_misuse_is_typed_and_state_preserving() {
        let mut cache = cache(CacheEviction::Lru);
        let mut chains = Chains::default();
        let c = chains.get(5, 32);
        cache.lease(&c).commit();
        cache.release(&c).unwrap();
        // Underflow: every block already at refcount 0.
        assert!(matches!(
            cache.release(&c),
            Err(OptimusError::Serving { .. })
        ));
        assert_eq!(cache.resident_blocks(), 2, "failed release changed nothing");
        // Releasing a never-resident chain is typed too.
        let other = chains.get(6, 16);
        assert!(matches!(
            cache.release(&other),
            Err(OptimusError::Serving { .. })
        ));
        // A partly resident chain fails before touching its resident
        // blocks.
        let held = chains.get(7, 16);
        cache.lease(&held).commit();
        let deep = chains.get(7, 48);
        assert!(matches!(
            cache.release(&deep),
            Err(OptimusError::Serving { .. })
        ));
        cache.release(&held).unwrap();
        assert!(cache.is_unreferenced());
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut cache = cache(CacheEviction::Lru);
        let mut chains = Chains::default();
        let a = chains.get(10, 16);
        let b = chains.get(11, 16);
        cache.touch(&a);
        cache.touch(&b);
        // Touch `a` again: `b` becomes the LRU victim.
        assert_eq!(cache.touch(&a), 1);
        let victim_tokens = cache.evict_lru().unwrap();
        assert_eq!(victim_tokens, 16);
        assert_eq!(cache.peek(&b), 0, "b was evicted");
        assert_eq!(cache.peek(&a), 1, "a survived");
    }

    #[test]
    fn evict_to_budget_stops_at_referenced_blocks() {
        let mut cache = cache(CacheEviction::Lru);
        let mut chains = Chains::default();
        let a = chains.get(20, 48); // 3 blocks, stays referenced
        let b = chains.get(21, 48); // 3 blocks, released
        cache.lease(&a).commit();
        cache.touch(&b);
        let evicted = cache.evict_to_budget(0);
        assert_eq!(evicted, 3, "only the unreferenced chain is reclaimable");
        assert_eq!(cache.resident_blocks(), 3);
        assert_eq!(cache.charged_tokens(), 48);
    }

    #[test]
    fn config_validation() {
        assert!(PrefixCachingConfig {
            block_tokens: 0,
            eviction: CacheEviction::Lru,
        }
        .validate()
        .is_err());
        assert!(PrefixCachingConfig {
            block_tokens: 16,
            eviction: CacheEviction::Lfu,
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn lfu_retains_the_popular_chain_where_lru_drops_it() {
        // Zipf head `hot` is touched many times early; the cold chain is
        // touched once, later. Under LRU the *older* hot chain is the
        // victim; under LFU popularity outranks recency and the cold
        // chain goes first.
        for (eviction, expect_hot_survives) in
            [(CacheEviction::Lru, false), (CacheEviction::Lfu, true)]
        {
            let mut cache = cache(eviction);
            let mut chains = Chains::default();
            let hot = chains.get(1, 16);
            let cold = chains.get(2, 16);
            assert_eq!(cache.touch(&hot), 0);
            for _ in 0..5 {
                assert_eq!(cache.touch(&hot), 1);
            }
            assert_eq!(cache.touch(&cold), 0);
            let evicted = cache.evict_to_budget(16);
            assert_eq!(evicted, 1);
            assert_eq!(
                cache.peek(&hot),
                usize::from(expect_hot_survives),
                "{eviction:?}: hot chain residency"
            );
            assert_eq!(cache.peek(&cold), usize::from(!expect_hot_survives));
        }
    }

    #[test]
    fn chain_table_interns_each_id_and_length_once() {
        // Id 7 recurs at two lengths: the chains share their two leading
        // full blocks, then diverge.
        let tags = [
            Some((7, 40)),
            Some((7, 64)),
            None,
            Some((9, 16)),
            Some((7, 40)),
            Some((7, 64)),
            Some((9, 16)),
        ];
        let trace: Vec<RequestSpec> = tags
            .iter()
            .enumerate()
            .map(|(i, tag)| {
                let r = RequestSpec::new(i as u32, i as f64, 80, 4);
                tag.map_or(r, |(id, tokens)| r.with_prefix(id, tokens))
            })
            .collect();
        let config = cache(CacheEviction::Lfu).config();
        let table = ChainTable::new(&trace, Some(config));
        // The table interns in trace order, as one interner fed the
        // tags in that order would.
        let mut ids = BlockInterner::new();
        for (i, r) in trace.iter().enumerate() {
            let want = r.prefix.map(|p| ids.chain(p, config.block_tokens));
            assert_eq!(table.get(i), want.as_deref(), "request {i}");
        }
        assert_eq!(table.get(trace.len()), None, "past the trace");
        assert_eq!(table.blocks.len(), 3 + 4 + 1, "one copy per distinct tag");
        assert_eq!(ids.ids.len(), 3 + 2 + 1, "one id per distinct block");
        assert_eq!(table.get(0).unwrap()[..2], table.get(1).unwrap()[..2]);
        assert_ne!(table.get(0).unwrap()[2], table.get(1).unwrap()[2]);
        let off = ChainTable::new(&trace, None);
        assert!((0..trace.len()).all(|i| off.get(i).is_none()));
    }

    #[test]
    fn the_block_ids_never_reach_a_result() {
        // Two interners cut the same chains in opposite orders, so the
        // twin caches see every block under another id; one random
        // workload of leases (committed or dropped), touches, releases
        // and evictions must leave them indistinguishable at every step.
        let tags: Vec<SharedPrefix> = (0..12u64)
            .map(|i| SharedPrefix {
                id: i % 5,
                tokens: 8 + 13 * (i as u32 % 7),
            })
            .collect();
        let cut = |order: &mut dyn Iterator<Item = usize>| {
            let mut ids = BlockInterner::new();
            let mut chains = vec![Vec::new(); tags.len()];
            for c in order {
                chains[c] = ids.chain(tags[c], 8);
            }
            chains
        };
        let chains_a = cut(&mut (0..tags.len()));
        let chains_b = cut(&mut (0..tags.len()).rev());
        assert_ne!(chains_a, chains_b, "the ids differ");
        for eviction in [CacheEviction::Lru, CacheEviction::Lfu] {
            let config = PrefixCachingConfig {
                block_tokens: 8,
                eviction,
            };
            let mut a = PrefixCache::new(config);
            let mut b = PrefixCache::new(config);
            let mut held: Vec<usize> = Vec::new();
            let mut victims = 0;
            let mut rng = 0x2545_f491_4f6c_dd1d_u64;
            for step in 0..4000 {
                rng = mix(rng);
                let c = (rng >> 8) as usize % tags.len();
                let (ca, cb) = (&chains_a[c], &chains_b[c]);
                match rng % 5 {
                    op @ (0 | 1) => {
                        let (la, lb) = (a.lease(ca), b.lease(cb));
                        assert_eq!(la.hits(), lb.hits(), "step {step}: lease hits");
                        if op == 0 {
                            la.commit();
                            lb.commit();
                            held.push(c);
                        }
                    }
                    2 => assert_eq!(a.touch(ca), b.touch(cb), "step {step}: touch"),
                    3 if !held.is_empty() => {
                        let c = held.swap_remove((rng >> 32) as usize % held.len());
                        a.release(&chains_a[c]).unwrap();
                        b.release(&chains_b[c]).unwrap();
                    }
                    _ => {
                        for _ in 0..(rng >> 40) % 4 {
                            let victim = a.evict_lru();
                            assert_eq!(victim, b.evict_lru(), "step {step}: victim");
                            victims += usize::from(victim.is_some());
                        }
                    }
                }
                assert_eq!(a.charged_tokens(), b.charged_tokens(), "step {step}");
                assert_eq!(
                    a.reclaimable_blocks(),
                    b.reclaimable_blocks(),
                    "step {step}"
                );
                for (oa, ob) in chains_a.iter().zip(&chains_b) {
                    assert_eq!(a.peek(oa), b.peek(ob), "step {step}: peek");
                }
            }
            assert!(victims > 100, "{eviction:?}: the workload reclaims");
            for c in held {
                a.release(&chains_a[c]).unwrap();
                b.release(&chains_b[c]).unwrap();
            }
            assert!(a.is_unreferenced() && b.is_unreferenced());
        }
    }
}
