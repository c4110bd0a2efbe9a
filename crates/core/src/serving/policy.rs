//! Scheduler policies: the admission-order / eviction-victim seam of the
//! serving engine.
//!
//! PR 2 hard-coded FCFS admission with youngest-first eviction inside the
//! replay loop. The [`SchedulerPolicy`] trait lifts both decisions out of
//! the engine: a policy reorders the waiting queue each iteration (only
//! requests that have arrived may move ahead) and picks the preemption
//! victim when KV growth overflows capacity. The engine still owns the
//! mechanics — capacity math, head-of-line blocking, recompute-style
//! restarts — so policies stay small and easily conformance-tested.

use super::engine::RunningSeq;
use super::report::SloClass;
use super::traces::RequestSpec;
use std::collections::VecDeque;
use std::fmt;

/// How the event-driven core may maintain a policy's queue order
/// *incrementally* instead of re-running
/// [`SchedulerPolicy::order_queue`] over the whole backlog every
/// iteration. Each contract is a promise about what `order_queue`
/// computes; the engine exploits the strongest promise a policy makes
/// and falls back to per-iteration re-sorting otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingContract {
    /// `order_queue` is a no-op: the queue stays in arrival order and
    /// the engine skips the call entirely on the hot path.
    Fcfs,
    /// `order_queue(clock, ..)` is exactly a *stable* sort of the
    /// arrived prefix by [`SchedulerPolicy::order_key`], and that key
    /// does not depend on the clock. The engine then keeps arrived
    /// requests in an ordered set keyed by `(order_key, insertion seq)`
    /// — new arrivals insert after key-equals (stable-sort semantics),
    /// preemption victims insert before key-equals (they re-enter at
    /// the queue front and a stable sort keeps them ahead of ties) —
    /// which is provably the same sequence of heads the repeated sort
    /// would produce.
    StaticKey,
    /// `order_queue(clock, ..)` orders the arrived prefix by one *strict*
    /// total order over trace indices that is fixed for the trace — no
    /// two members compare equal, and the clock only splits arrived
    /// requests from future ones. The engine then ranks the whole queue
    /// once, with a single `order_queue(f64::INFINITY, ..)` call, and
    /// serves the ranks from the same ordered set as
    /// [`StaticKey`](Self::StaticKey). Because ranks are unique, the
    /// insertion sequence never decides an order: re-queued victims and
    /// the central-dispatch partition cannot reorder ties, since there
    /// are none.
    TraceRank,
    /// The order depends on the clock (e.g. aging promotions), so the
    /// engine re-runs `order_queue` before every admission-capable
    /// iteration. Policies under this contract must additionally be
    /// *history-independent*: the queue order after `order_queue(c2)`
    /// must be a pure function of `(c2, queue contents)` regardless of
    /// which earlier clocks `c1 <= c2` the queue was sorted at — i.e.
    /// `order_queue(c2) ∘ order_queue(c1) ≡ order_queue(c2)` — because
    /// the event-driven core skips the call for iterations where no
    /// admission can occur (batch full, or nothing arrived). A stable
    /// sort by a key that is monotone in the clock (like the max-wait
    /// guard's overdue promotion) satisfies this.
    ClockDependent,
}

/// Admission + eviction strategy for the serving engine.
///
/// Implementations must keep these contracts the engine relies on:
///
/// * [`order_queue`](Self::order_queue) may only move *arrived* requests
///   (`arrival_s <= clock`) ahead of others; not-yet-arrived requests keep
///   their relative (arrival) order behind the arrived ones. In
///   particular, a queue holding only not-yet-arrived requests must come
///   back unchanged.
/// * [`evict_victim`](Self::evict_victim) returns a valid index into
///   `running` (the engine calls it only when `running.len() > 1`).
/// * [`ordering`](Self::ordering) must describe `order_queue` truthfully
///   — the event-driven core replays are bit-compared against the
///   per-step loops under that promise (see [`OrderingContract`]).
pub trait SchedulerPolicy: fmt::Debug + Send + Sync {
    /// Short policy name for reports.
    fn name(&self) -> &'static str;

    /// Hands the policy the scenario's SLO-class table, once, at
    /// simulator construction (before any replay). This is the seam that
    /// lets `RequestSpec::class` flow into *decisions*: class-aware
    /// policies capture what they need here — [`StrictPriorityPolicy`]
    /// derives priority ranks from class weights (a static key),
    /// [`WeightedFairPolicy`] captures the weights themselves (a trace
    /// rank) — while class-blind policies keep the no-op default and stay
    /// byte-for-byte identical to their pre-control-plane behavior.
    fn bind_classes(&mut self, classes: &[SloClass]) {
        let _ = classes;
    }

    /// The incremental-order contract [`order_queue`](Self::order_queue)
    /// satisfies. The conservative default re-sorts every
    /// admission-capable iteration; override to let the event-driven
    /// core maintain the order incrementally (FCFS additionally skips
    /// the `order_queue` call on the hot path entirely).
    fn ordering(&self) -> OrderingContract {
        OrderingContract::ClockDependent
    }

    /// The clock-independent sort key backing
    /// [`OrderingContract::StaticKey`]: smaller keys run first, ties are
    /// FCFS. Must totally agree with `order_queue`'s sort. Unused under
    /// the other contracts.
    fn order_key(&self, request: &RequestSpec) -> u64 {
        let _ = request;
        0
    }

    /// Reorders the waiting queue before this iteration's admission scan.
    /// The engine admits from the front until a request fails to fit
    /// (head-of-line blocking), so the front of the queue is the policy's
    /// highest-priority choice. Default: keep FCFS (arrival) order.
    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        let _ = (clock, trace, queue);
    }

    /// Picks the preemption victim among the running batch when KV growth
    /// overflows capacity. Default: the youngest sequence (the one that
    /// has the least recompute work to throw away — vLLM's recompute
    /// preemption order).
    fn evict_victim(&self, trace: &[RequestSpec], running: &[RunningSeq]) -> usize {
        let _ = trace;
        running.len() - 1
    }
}

/// Sorts the arrived prefix of the queue by `key`, leaving not-yet-arrived
/// requests behind in their existing (arrival) order. Stable, so ties keep
/// FCFS order.
fn sort_arrived_by<K: Ord>(
    clock: f64,
    trace: &[RequestSpec],
    queue: &mut VecDeque<usize>,
    key: impl Fn(&RequestSpec) -> K,
) {
    let (mut arrived, future): (Vec<usize>, Vec<usize>) = queue
        .iter()
        .copied()
        .partition(|&i| trace[i].arrival_s <= clock);
    arrived.sort_by_key(|&i| key(&trace[i]));
    queue.clear();
    queue.extend(arrived);
    queue.extend(future);
}

/// First-come first-served admission with youngest-first eviction: PR 2's
/// behavior, and the engine's default.
#[derive(Debug, Clone, Copy, Default)]
pub struct FcfsPolicy;

impl SchedulerPolicy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn ordering(&self) -> OrderingContract {
        OrderingContract::Fcfs
    }
}

/// Shortest-job-first admission: among arrived requests, the smallest
/// service demand goes first. Decode dominates service time (every
/// generated token streams the full weights, while the whole prompt is
/// prefetched in one pass), so jobs order by output length first, prompt
/// length as the tie-break. Improves mean latency under mixed lengths at
/// the cost of starving long requests — pair with [`MaxWaitGuardPolicy`]
/// when tails matter.
#[derive(Debug, Clone, Copy, Default)]
pub struct SjfPolicy;

/// SJF ordering key: decode iterations dominate, prefill breaks ties.
fn service_key(r: &RequestSpec) -> (u32, u32) {
    (r.output_tokens, r.prompt_tokens)
}

impl SchedulerPolicy for SjfPolicy {
    fn name(&self) -> &'static str {
        "sjf"
    }

    fn ordering(&self) -> OrderingContract {
        OrderingContract::StaticKey
    }

    fn order_key(&self, request: &RequestSpec) -> u64 {
        // Packs (output, prompt) lexicographically: same total order as
        // `service_key`, so the incremental ordered set agrees with the
        // stable sort below.
        let (out, prompt) = service_key(request);
        (u64::from(out) << 32) | u64::from(prompt)
    }

    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        sort_arrived_by(clock, trace, queue, service_key);
    }
}

/// SJF admission with an aging guard: any arrived request that has waited
/// longer than `max_wait_s` is promoted to the front (FCFS among the
/// promoted), bounding the starvation SJF would otherwise inflict on long
/// requests.
#[derive(Debug, Clone, Copy)]
pub struct MaxWaitGuardPolicy {
    /// Waiting-time bound (s) beyond which a request jumps the SJF order.
    pub max_wait_s: f64,
}

impl MaxWaitGuardPolicy {
    /// Creates a guard promoting requests that waited longer than
    /// `max_wait_s`.
    #[must_use]
    pub fn new(max_wait_s: f64) -> Self {
        Self { max_wait_s }
    }
}

impl SchedulerPolicy for MaxWaitGuardPolicy {
    fn name(&self) -> &'static str {
        "sjf+max-wait-guard"
    }

    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        // Monotone u64 image of f64's total order (sign-flip trick), so
        // overdue requests sort FCFS even for negative (relative)
        // arrival timestamps.
        let total_order = |x: f64| -> u64 {
            let bits = x.to_bits();
            if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            }
        };
        sort_arrived_by(clock, trace, queue, |r| {
            if clock - r.arrival_s > self.max_wait_s {
                // Overdue: ahead of everything, FCFS among themselves.
                (0u8, total_order(r.arrival_s), 0u64)
            } else {
                let (out, prompt) = service_key(r);
                (1u8, u64::from(out), u64::from(prompt))
            }
        });
    }
}

/// Strict-priority admission by SLO class: classes rank by descending
/// goodput weight (ties break toward the lower class index), every
/// request of a higher-priority class runs before any request of a lower
/// one, and FCFS order holds within a class. Eviction inverts the
/// ranking — the lowest-priority (then youngest) running sequence is
/// preempted first, so strict traffic is protected on both the admission
/// and the preemption side.
///
/// The ranks are captured from the class table via
/// [`SchedulerPolicy::bind_classes`]; unbound (or single-class) use
/// degenerates to FCFS. The rank is clock-independent, so the policy
/// declares [`OrderingContract::StaticKey`] and the event-driven core
/// maintains its queue incrementally.
#[derive(Debug, Clone, Default)]
pub struct StrictPriorityPolicy {
    /// `ranks[class]` = admission rank (0 runs first), by descending
    /// class weight.
    ranks: Vec<u64>,
}

impl StrictPriorityPolicy {
    /// A strict-priority policy; ranks are bound from the scenario's
    /// class table at compile time.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn rank(&self, r: &RequestSpec) -> u64 {
        self.ranks.get(r.class as usize).copied().unwrap_or(0)
    }
}

impl SchedulerPolicy for StrictPriorityPolicy {
    fn name(&self) -> &'static str {
        "strict-priority"
    }

    fn bind_classes(&mut self, classes: &[SloClass]) {
        let mut order: Vec<usize> = (0..classes.len()).collect();
        order.sort_by(|&a, &b| {
            classes[b]
                .weight
                .total_cmp(&classes[a].weight)
                .then(a.cmp(&b))
        });
        self.ranks = vec![0; classes.len()];
        for (rank, &class) in order.iter().enumerate() {
            self.ranks[class] = rank as u64;
        }
    }

    fn ordering(&self) -> OrderingContract {
        OrderingContract::StaticKey
    }

    fn order_key(&self, request: &RequestSpec) -> u64 {
        self.rank(request)
    }

    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        sort_arrived_by(clock, trace, queue, |r| self.rank(r));
    }

    #[expect(
        clippy::expect_used,
        reason = "the engine evicts only while more than one sequence runs"
    )]
    fn evict_victim(&self, trace: &[RequestSpec], running: &[RunningSeq]) -> usize {
        // Lowest priority first; among ties the youngest (largest batch
        // position — the default recompute order) is cheapest to redo.
        running
            .iter()
            .enumerate()
            .max_by_key(|&(i, r)| (self.rank(&trace[r.idx]), i))
            .map(|(i, _)| i)
            .expect("engine evicts only from a non-empty batch")
    }
}

/// Weighted-fair admission by SLO class: each class's cumulative service
/// demand (prompt + output tokens), divided by its goodput weight,
/// defines a *virtual finish* per request, and arrived requests run in
/// virtual-finish order — a deficit/weighted-fair-queueing discipline
/// where a weight-2 class receives twice the admission share of a
/// weight-1 class under contention instead of starving it outright
/// (contrast [`StrictPriorityPolicy`]).
///
/// The virtual-finish walk accumulates over the trace in arrival order
/// (Demers, Keshav and Shenker's weighted fair queueing), and ties break
/// by trace index, so the order is one strict total order fixed by the
/// trace: the clock only gates which requests have arrived. The policy
/// therefore declares [`OrderingContract::TraceRank`], and the
/// event-driven core ranks the trace once per replay instead of
/// re-sorting every admission round. With one class (or unbound), every
/// weight is equal and the order degenerates to FCFS.
#[derive(Debug, Clone, Default)]
pub struct WeightedFairPolicy {
    /// `weights[class]` = goodput weight, captured from the class table.
    weights: Vec<f64>,
}

impl WeightedFairPolicy {
    /// A weighted-fair policy; weights are bound from the scenario's
    /// class table at compile time.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn weight(&self, class: u32) -> f64 {
        self.weights.get(class as usize).copied().unwrap_or(1.0)
    }

    /// Virtual finish per trace index, as a monotone `u64` image
    /// (virtual time is non-negative, so the raw bit pattern orders it).
    fn virtual_finish(&self, trace: &[RequestSpec]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..trace.len()).collect();
        order.sort_by(|&a, &b| {
            trace[a]
                .arrival_s
                .total_cmp(&trace[b].arrival_s)
                .then(a.cmp(&b))
        });
        let classes = trace
            .iter()
            .map(|r| r.class as usize + 1)
            .max()
            .unwrap_or(1);
        let mut cum = vec![0.0f64; classes];
        let mut vf = vec![0u64; trace.len()];
        for &i in &order {
            let r = &trace[i];
            let service = f64::from(r.prompt_tokens) + f64::from(r.output_tokens);
            cum[r.class as usize] += service / self.weight(r.class);
            vf[i] = cum[r.class as usize].to_bits();
        }
        vf
    }
}

impl SchedulerPolicy for WeightedFairPolicy {
    fn name(&self) -> &'static str {
        "weighted-fair"
    }

    fn bind_classes(&mut self, classes: &[SloClass]) {
        self.weights = classes.iter().map(|c| c.weight).collect();
    }

    fn ordering(&self) -> OrderingContract {
        OrderingContract::TraceRank
    }

    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        let vf = self.virtual_finish(trace);
        // Explicit index tie-break (not just sort stability): the result
        // is a pure function of the queue *contents*, never of the order
        // a previous sort or a victim re-queue left them in.
        let (mut arrived, future): (Vec<usize>, Vec<usize>) = queue
            .iter()
            .copied()
            .partition(|&i| trace[i].arrival_s <= clock);
        arrived.sort_by_key(|&i| (vf[i], i));
        queue.clear();
        queue.extend(arrived);
        queue.extend(future);
    }

    #[expect(
        clippy::expect_used,
        reason = "the engine evicts only while more than one sequence runs"
    )]
    fn evict_victim(&self, trace: &[RequestSpec], running: &[RunningSeq]) -> usize {
        // Preemption mirrors the admission share: the lightest-weight
        // class gives up KV capacity first, and among equal weights the
        // youngest sequence (largest batch position — least recompute to
        // throw away) goes, matching the default recompute order. With
        // uniform or unbound weights every comparison ties and this
        // reduces to the default youngest-first victim bit-for-bit.
        running
            .iter()
            .enumerate()
            .min_by(|(i, a), (j, b)| {
                self.weight(trace[a.idx].class)
                    .total_cmp(&self.weight(trace[b.idx].class))
                    .then(j.cmp(i))
            })
            .map(|(i, _)| i)
            .expect("engine evicts only from a non-empty batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u32, arrival_s: f64, prompt: u32, output: u32) -> RequestSpec {
        RequestSpec::new(id, arrival_s, prompt, output)
    }

    #[test]
    fn fcfs_keeps_queue_untouched() {
        let trace = [req(0, 0.0, 10, 10), req(1, 0.5, 5, 5), req(2, 9.0, 1, 1)];
        let mut q: VecDeque<usize> = (0..3).collect();
        FcfsPolicy.order_queue(1.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([0, 1, 2]));
        let running = [RunningSeq::admitted(0, 10), RunningSeq::admitted(1, 5)];
        assert_eq!(FcfsPolicy.evict_victim(&trace, &running), 1);
    }

    #[test]
    fn sjf_reorders_only_arrived() {
        let trace = [
            req(0, 0.0, 100, 100),
            req(1, 0.5, 5, 5),
            req(2, 9.0, 1, 1), // shortest, but not yet arrived
        ];
        let mut q: VecDeque<usize> = (0..3).collect();
        SjfPolicy.order_queue(1.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([1, 0, 2]), "future request stays last");
        SjfPolicy.order_queue(10.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([2, 1, 0]));
    }

    #[test]
    fn max_wait_guard_promotes_overdue() {
        let trace = [
            req(0, 0.0, 100, 100), // long, waited 5 s
            req(1, 4.5, 5, 5),     // short, fresh
        ];
        let mut q: VecDeque<usize> = (0..2).collect();
        // Guard of 10 s: nothing overdue, SJF order wins.
        MaxWaitGuardPolicy::new(10.0).order_queue(5.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([1, 0]));
        // Guard of 2 s: the long request is overdue and jumps ahead.
        MaxWaitGuardPolicy::new(2.0).order_queue(5.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([0, 1]));
        assert!(MaxWaitGuardPolicy::new(2.0).name().contains("guard"));
    }

    #[test]
    fn ordering_contracts_match_order_queue_behavior() {
        assert_eq!(FcfsPolicy.ordering(), OrderingContract::Fcfs);
        assert_eq!(SjfPolicy.ordering(), OrderingContract::StaticKey);
        assert_eq!(
            MaxWaitGuardPolicy::new(1.0).ordering(),
            OrderingContract::ClockDependent
        );
        assert_eq!(
            WeightedFairPolicy::new().ordering(),
            OrderingContract::TraceRank
        );
        // SJF's packed key must agree with its stable-sort key on both
        // components, including the prompt tie-break.
        let a = req(0, 0.0, 7, 3);
        let b = req(1, 0.0, 9, 3);
        let c = req(2, 0.0, 7, 4);
        assert!(SjfPolicy.order_key(&a) < SjfPolicy.order_key(&b));
        assert!(SjfPolicy.order_key(&a) < SjfPolicy.order_key(&c));
        // Output dominates: b's shorter decode outranks c's shorter prompt.
        assert!(SjfPolicy.order_key(&b) < SjfPolicy.order_key(&c));
    }

    #[test]
    fn strict_priority_ranks_by_weight_and_protects_on_eviction() {
        // interactive carries weight 2, batch weight 1: interactive is
        // rank 0 regardless of table order.
        let mut policy = StrictPriorityPolicy::new();
        policy.bind_classes(&[SloClass::batch(), SloClass::interactive()]);
        let trace = [
            req(0, 0.0, 10, 10).in_class(0), // batch
            req(1, 0.1, 10, 10).in_class(1), // interactive
            req(2, 0.2, 10, 10).in_class(0),
            req(3, 9.0, 10, 10).in_class(1), // not yet arrived
        ];
        let mut q: VecDeque<usize> = (0..4).collect();
        policy.order_queue(1.0, &trace, &mut q);
        assert_eq!(
            q,
            VecDeque::from([1, 0, 2, 3]),
            "interactive first, FCFS within"
        );
        assert!(policy.order_key(&trace[1]) < policy.order_key(&trace[0]));
        assert_eq!(policy.order_key(&trace[0]), policy.order_key(&trace[2]));
        assert_eq!(policy.ordering(), OrderingContract::StaticKey);
        // Eviction preempts the lowest-priority running sequence, and the
        // youngest among equals — never the strict one.
        let running = [
            RunningSeq::admitted(0, 10), // batch, oldest
            RunningSeq::admitted(1, 10), // interactive
            RunningSeq::admitted(2, 10), // batch, youngest
        ];
        assert_eq!(policy.evict_victim(&trace, &running), 2);
        // Unbound, every class ranks equally: FCFS order and the default
        // youngest-first victim.
        let unbound = StrictPriorityPolicy::new();
        let mut q2: VecDeque<usize> = (0..3).collect();
        unbound.order_queue(1.0, &trace, &mut q2);
        assert_eq!(q2, VecDeque::from([0, 1, 2]));
        assert_eq!(unbound.evict_victim(&trace, &running), 2);
    }

    #[test]
    fn weighted_fair_shares_admissions_by_weight() {
        let mut policy = WeightedFairPolicy::new();
        policy.bind_classes(&[
            SloClass::interactive(), // weight 2
            SloClass::batch(),       // weight 1
        ]);
        // Equal 10-token service demands, alternating classes by index;
        // all arrived. Virtual finishes: class 0 at 5, 10, 15; class 1
        // at 10, 20 — so class 0 takes two of the first three slots.
        let trace = [
            req(0, 0.0, 5, 5).in_class(0),
            req(1, 0.0, 5, 5).in_class(1),
            req(2, 0.0, 5, 5).in_class(0),
            req(3, 0.0, 5, 5).in_class(1),
            req(4, 0.0, 5, 5).in_class(0),
        ];
        let mut q: VecDeque<usize> = (0..5).collect();
        policy.order_queue(1.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([0, 1, 2, 4, 3]));
        // History independence: a scrambled queue sorts to the same order.
        let mut scrambled = VecDeque::from([3, 1, 4, 0, 2]);
        policy.order_queue(1.0, &trace, &mut scrambled);
        assert_eq!(scrambled, q);
        // Future requests stay behind, untouched.
        let late = [req(0, 0.0, 5, 5).in_class(0), req(1, 9.0, 5, 5).in_class(0)];
        let mut lq = VecDeque::from([0, 1]);
        policy.order_queue(1.0, &late, &mut lq);
        assert_eq!(lq, VecDeque::from([0, 1]));
    }

    #[test]
    fn weighted_fair_orders_arrived_members_by_one_trace_rank() {
        let mut policy = WeightedFairPolicy::new();
        policy.bind_classes(&[SloClass::interactive(), SloClass::batch()]);
        // Trace indices disagree with arrival order, service demands
        // differ, and two cross-class pairs tie on virtual finish
        // (requests 2 and 3 at 8, 4 and 0 at 18): the index breaks them.
        let trace = [
            req(0, 0.4, 5, 5).in_class(1),
            req(1, 0.0, 5, 5).in_class(0),
            req(2, 0.1, 3, 3).in_class(0),
            req(3, 0.3, 4, 4).in_class(1),
            req(4, 0.2, 10, 10).in_class(0),
            req(5, 0.6, 5, 5).in_class(0),
            req(6, 0.5, 2, 8).in_class(1),
        ];
        let by_arrival = VecDeque::from([1, 2, 4, 3, 0, 6, 5]);
        let mut ranked = by_arrival.clone();
        policy.order_queue(f64::INFINITY, &trace, &mut ranked);
        assert_eq!(ranked, VecDeque::from([1, 2, 3, 0, 4, 5, 6]));
        let mut rank = [0usize; 7];
        for (r, &i) in ranked.iter().enumerate() {
            rank[i] = r;
        }
        for clock in [-1.0, 0.0, 0.15, 0.3, 0.45, 0.6, 10.0] {
            let (mut arrived, future): (Vec<usize>, Vec<usize>) = by_arrival
                .iter()
                .partition(|&&i| trace[i].arrival_s <= clock);
            for shift in 0..arrived.len().max(1) {
                // Scramble the arrived members; interleave the future
                // ones, which keep their arrival order among themselves.
                arrived.rotate_left(shift);
                arrived.reverse();
                let mut queue: VecDeque<usize> = arrived.iter().copied().collect();
                for (k, &i) in future.iter().enumerate() {
                    queue.insert((2 * k + 1).min(queue.len()), i);
                }
                policy.order_queue(clock, &trace, &mut queue);
                let mut want = arrived.clone();
                want.sort_by_key(|&i| rank[i]);
                want.extend(&future);
                assert_eq!(queue, VecDeque::from(want), "clock {clock}, shift {shift}");
            }
        }
    }

    #[test]
    fn weighted_fair_evicts_lightest_class_youngest_first() {
        let mut policy = WeightedFairPolicy::new();
        policy.bind_classes(&[
            SloClass::interactive(), // weight 2
            SloClass::batch(),       // weight 1
        ]);
        let trace = [
            req(0, 0.0, 10, 10).in_class(1), // batch, oldest
            req(1, 0.1, 10, 10).in_class(0), // interactive
            req(2, 0.2, 10, 10).in_class(1), // batch, youngest
            req(3, 0.3, 10, 10).in_class(0), // interactive, youngest overall
        ];
        let running = [
            RunningSeq::admitted(0, 10),
            RunningSeq::admitted(1, 10),
            RunningSeq::admitted(2, 10),
            RunningSeq::admitted(3, 10),
        ];
        // The youngest *batch* sequence loses, not the youngest overall:
        // cache pressure lands on the lightest class first.
        assert_eq!(policy.evict_victim(&trace, &running), 2);
        // Class-blind use (unbound weights) keeps the default
        // youngest-first victim bit-for-bit.
        let unbound = WeightedFairPolicy::new();
        assert_eq!(unbound.evict_victim(&trace, &running), running.len() - 1);
    }

    #[test]
    fn weighted_fair_single_class_is_fcfs_in_arrival_order() {
        // One class: virtual finish accumulates in arrival order, so the
        // sort reproduces FCFS even when trace indices disagree with
        // arrival order.
        let policy = WeightedFairPolicy::new(); // unbound: all weight 1
        let trace = [req(0, 2.0, 8, 8), req(1, 0.5, 8, 8), req(2, 1.0, 8, 8)];
        let mut q = VecDeque::from([1, 2, 0]); // arrival order
        policy.order_queue(5.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([1, 2, 0]));
    }

    #[test]
    fn max_wait_guard_keeps_fcfs_for_negative_arrival_timestamps() {
        // Relative (negative) timestamps are legal trace inputs; overdue
        // ordering must stay FCFS across the sign boundary.
        let trace = [req(0, -1.0, 9, 9), req(1, -2.0, 9, 9), req(2, 0.5, 9, 9)];
        let mut q: VecDeque<usize> = (0..3).collect();
        // All three overdue at clock 5 with a 1 s guard: arrival order.
        MaxWaitGuardPolicy::new(1.0).order_queue(5.0, &trace, &mut q);
        assert_eq!(q, VecDeque::from([1, 0, 2]));
    }
}
