//! Event-scheduling primitives of the replay loops: the queue
//! disciplines the loops are generic over (`Discipline`, crate-internal,
//! with the shared-queue bookkeeping `Pool`, which reads its members'
//! ready times off its sorted arrival axis and an exact list of the
//! members off it), and the closed-form decode fast-forwards
//! (`DecodeStretch`, `leapfrog_decode`).
//!
//! The multi-blade fast-forward, `leapfrog_decode`, visits only the
//! running blades that can act before its answer. Each member's plan is
//! walked once, when it is made, to where it runs out; that stop is filed
//! in a min `Tournament` tree, and a call pops only the stops before its
//! cut. A member's rounds before the answer are written to its blade
//! only when something reads it. Whether a member's round ties an idle
//! blade's admission instant is screened in closed form, without walking
//! (conservative lookahead, as in Chandy and Misra's parallel
//! discrete-event simulation; stops re-filed as in a kinetic tournament).
//!
//! There are two replay loops: the single-blade drive in
//! [`super::engine`], and the coupled loop in [`super::cluster`] that
//! central dispatch and the disaggregated topology share. Each runs
//! either the per-step reference discipline (`Exhaustive`: plain scans,
//! a full re-sort and partition every round, no fast-forward) or an
//! event-driven one. The design constraint is *bit-for-bit* equivalence
//! between the two: every structure here
//! either reproduces the exact sequence of heads / minima the reference's
//! O(n)-per-round scans produce, or is only consulted at points where the
//! reference's answer is provably unchanged (see the contracts on
//! [`SchedulerPolicy`]).

use super::engine::{BladeState, DecodePricing, EngineCtx};
use super::kv::KvLayout;
use super::observer::{EventKind, Interest, SimEvent, SimObserver};
use super::policy::{OrderingContract, SchedulerPolicy};
use super::telemetry::profile;
use super::traces::RequestSpec;
use std::cmp::Ordering;
use std::collections::{BTreeSet, VecDeque};
use std::ops::Range;

/// The queue operations one engine iteration performs, abstracted so
/// [`EngineCtx::step`](super::engine::EngineCtx) runs unchanged over every
/// [`Discipline`] and over a multi-blade [`Pool`].
pub(crate) trait AdmissionQueue {
    /// The next admission candidate (the queue front).
    fn peek(&self) -> Option<usize>;
    /// Removes the candidate just peeked (it was admitted or shed).
    fn pop(&mut self);
    /// Re-queues a preemption victim at the front.
    fn requeue_victim(&mut self, idx: usize);
    /// The instant `trace[idx]` may (re-)enter a batch: its arrival, unless
    /// a shared queue moved it (an eviction, a handoff).
    fn ready_at(&self, trace: &[RequestSpec], idx: usize) -> f64 {
        trace[idx].arrival_s
    }
    /// Whether every member's KV was streamed in from a prefill blade: it
    /// enters the decode batch at full prompt length with no prefill and
    /// never touches the prefix cache. True only for a handoff pool.
    fn streamed(&self) -> bool {
        false
    }
}

/// What the single-blade loop may do at the queue head right now.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Gate {
    /// The queue is empty: only running work remains.
    Empty,
    /// An arrived request heads the queue — admission must go through
    /// the full per-step path (its KV fit can have cache side effects).
    Ready,
    /// Nothing has arrived yet; the head arrives at this instant.
    Blocked(f64),
}

/// A replay loop's queue discipline: everything the per-step reference
/// and the event-driven fast paths differ in. Each replay loop — the
/// single-blade drive, and the coupled loop of central dispatch and the
/// disaggregated topology — exists once, generic over this trait, and
/// [`SimCore`](super::engine::SimCore) is the only switch that picks a
/// discipline:
///
/// - [`Exhaustive`] (`SimCore::PerStep`) is the per-step reference: it
///   re-sorts the queue before every round, partitions it by eligibility
///   in full, finds the next ready time by a fold, and never
///   fast-forwards. It keeps no incremental state, so the event-driven
///   disciplines are checked against plain scans.
/// - [`Fcfs`], [`Resort`] and [`KeyedQueue`] (`SimCore::EventDriven`,
///   chosen by the policy's [`OrderingContract`]) never re-sort FCFS,
///   re-sort clock-dependent orders, or keep static keys and trace
///   ranks in an ordered set; they read ready times off the [`Pool`]'s
///   bookkeeping, skip partitions that are provably the identity, and
///   let the loops fast-forward pure-decode rounds.
pub(crate) trait Discipline: AdmissionQueue + Sized {
    /// The per-step reference (see the trait docs).
    const EXHAUSTIVE: bool;
    /// Whether [`Self::prepare`] re-sorts from scratch, so the order a
    /// skipped round's partition would have left is erased anyway.
    const RESORTS: bool;

    /// Whether any request is still waiting.
    fn is_empty(&self) -> bool;

    /// Every waiting request, in no particular order.
    fn members(&self) -> impl Iterator<Item = usize> + '_;

    /// Brings the order up to date at `clock` — the moment the per-step
    /// loop re-sorts before stepping.
    fn prepare(&mut self, clock: f64, trace: &[RequestSpec], policy: &dyn SchedulerPolicy);

    /// The arrival an idle single blade jumps to, or `None` when the
    /// jump `clock.max(earliest arrival)` is provably a no-op.
    fn idle_target(&self, trace: &[RequestSpec]) -> Option<f64>;

    /// Members ready at `now` (the autoscaler's depth signal).
    fn ready_depth(&self, ready: &[f64], now: f64) -> usize {
        self.members().filter(|&i| ready[i] <= now).count()
    }

    /// The round's eligibility partition at the stepping blade's `clock`:
    /// afterwards the admission scan meets every eligible member (in
    /// policy order) before any member still waiting for its ready time.
    fn partition(pool: &mut Pool<Self>, clock: f64);

    /// Ends the round's partition once the step has run.
    fn restore(&mut self) {}

    /// Classifies the queue head for the single-blade stretch gate at
    /// `clock`. Must be called after [`Self::prepare`] at the same clock.
    fn admission_gate(&self, trace: &[RequestSpec], clock: f64) -> Gate {
        match self.peek() {
            None => Gate::Empty,
            Some(i) if trace[i].arrival_s <= clock => Gate::Ready,
            Some(i) => Gate::Blocked(trace[i].arrival_s),
        }
    }
}

/// A deque-backed discipline, arrival-ordered at construction. The const
/// parameters are [`Discipline::EXHAUSTIVE`] and [`Discipline::RESORTS`];
/// use the [`Exhaustive`], [`Fcfs`] and [`Resort`] aliases.
#[derive(Debug)]
pub(crate) struct Deque<const EXHAUSTIVE: bool, const RESORTS: bool>(VecDeque<usize>);

/// The per-step reference discipline (`SimCore::PerStep`).
pub(crate) type Exhaustive = Deque<true, true>;
/// FCFS: arrival order, never re-sorted.
pub(crate) type Fcfs = Deque<false, false>;
/// Clock-dependent orders, re-sorted before every round (their contract
/// makes the sorts skipped by fast-forwarded rounds unobservable).
pub(crate) type Resort = Deque<false, true>;

impl<const E: bool, const R: bool> Deque<E, R> {
    pub(crate) fn new(queue: VecDeque<usize>) -> Self {
        Self(queue)
    }

    /// The earliest arrival among members of a queue that only ever pops
    /// (no victims re-enter it), `None` when empty: the head when the
    /// queue is never re-sorted (it stays arrival-ordered), else a fold.
    pub(crate) fn next_arrival(&self, trace: &[RequestSpec]) -> Option<f64> {
        if R {
            (!self.0.is_empty()).then(|| {
                self.0
                    .iter()
                    .map(|&i| trace[i].arrival_s)
                    .fold(f64::MAX, f64::min)
            })
        } else {
            self.0.front().map(|&i| trace[i].arrival_s)
        }
    }
}

impl<const E: bool, const R: bool> AdmissionQueue for Deque<E, R> {
    fn peek(&self) -> Option<usize> {
        self.0.front().copied()
    }

    fn pop(&mut self) {
        self.0.pop_front();
    }

    fn requeue_victim(&mut self, idx: usize) {
        self.0.push_front(idx);
    }
}

impl<const E: bool, const R: bool> Discipline for Deque<E, R> {
    const EXHAUSTIVE: bool = E;
    const RESORTS: bool = R;

    fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().copied()
    }

    fn prepare(&mut self, clock: f64, trace: &[RequestSpec], policy: &dyn SchedulerPolicy) {
        if R {
            policy.order_queue(clock, trace, &mut self.0);
        }
    }

    /// The reference folds; otherwise the head suffices. When the head
    /// arrives after `clock` it is the earliest arrival: a front with a
    /// future arrival implies no re-queued victims (victims arrived in
    /// the past and sit at the front), so the queue is arrival-sorted.
    fn idle_target(&self, trace: &[RequestSpec]) -> Option<f64> {
        if E {
            self.next_arrival(trace)
        } else {
            self.0.front().map(|&i| trace[i].arrival_s)
        }
    }

    /// A stable partition, skipped (outside the reference) when it is the
    /// identity: every member already eligible, or none; or — central
    /// dispatch, never re-sorted, no member off the arrival axis — the
    /// queue is in arrival order and ready times are arrivals.
    fn partition(pool: &mut Pool<Self>, clock: f64) {
        let skip = !E
            && ((!R && !pool.handoff && pool.off_axis_list.is_empty())
                || pool.all_or_none_ready(clock));
        if !skip {
            let ready = &pool.ready;
            let waiting = &mut pool.scratch;
            let queue = &mut pool.queue.0;
            queue.retain(|&i| {
                let eligible = ready[i] <= clock;
                if !eligible {
                    waiting.push(i);
                }
                eligible
            });
            queue.extend(waiting.drain(..));
        }
    }
}

/// The discipline for [`OrderingContract::StaticKey`] and
/// [`OrderingContract::TraceRank`] policies: arrived requests live in an
/// ordered set, keyed exactly as the reference's repeated sorts would
/// order them. A trace-rank policy's key is its rank, unique per member,
/// so the insertion sequence below never decides anything for it. A
/// static-key policy's key is its clock-independent `order_key`, then an
/// insertion sequence that keeps new arrivals *behind* key-equals
/// (stable-sort semantics for appended entries) and re-queued victims
/// *ahead* of them (a victim re-enters at the queue front, and every
/// later stable sort keeps it ahead of its ties — most recent victim
/// first).
///
/// Under central dispatch the reference also partitions by eligibility
/// every round. Its only observable effect — parking blocked victims
/// behind every eligible request, demoting them behind their key-ties
/// for all later rounds — is reproduced by *extracting* blocked victims
/// for the round ([`Self::extract_blocked`]) and re-inserting them with
/// fresh sequence numbers ([`Self::restore_blocked`]).
#[derive(Debug)]
pub(crate) struct KeyedQueue {
    arrived: BTreeSet<(u64, i64, usize)>,
    /// Not-yet-arrived members, earliest first (the arrival-sorted tail
    /// the reference's sort leaves untouched).
    future: VecDeque<usize>,
    /// `order_key` (or trace rank) per trace index, precomputed once.
    keys: Vec<u64>,
    next_seq: i64,
    next_victim_seq: i64,
    /// Members extracted for the current round (arrived victims whose
    /// re-entry time is still in the stepping blade's future), in the
    /// `(key, seq)` order they held.
    blocked: Vec<(u64, i64, usize)>,
}

impl KeyedQueue {
    /// Wraps an arrival-ordered queue for a `StaticKey` or `TraceRank`
    /// policy. A trace rank costs one `order_queue` call with every
    /// member arrived; each member's key is its position in the result.
    pub(crate) fn new(
        policy: &dyn SchedulerPolicy,
        trace: &[RequestSpec],
        queue: VecDeque<usize>,
    ) -> Self {
        let mut keys = vec![0u64; trace.len()];
        if policy.ordering() == OrderingContract::TraceRank {
            let rank = |mut members: VecDeque<usize>| {
                policy.order_queue(f64::INFINITY, trace, &mut members);
                members
            };
            let ranked = rank(queue.clone());
            debug_assert_eq!(
                ranked,
                rank(queue.iter().rev().copied().collect()),
                "a trace rank must not depend on the queue's prior order"
            );
            for (key, &i) in (0u64..).zip(&ranked) {
                keys[i] = key;
            }
        } else {
            debug_assert_eq!(policy.ordering(), OrderingContract::StaticKey);
            for &i in &queue {
                keys[i] = policy.order_key(&trace[i]);
            }
        }
        Self {
            arrived: BTreeSet::new(),
            future: queue,
            keys,
            next_seq: 0,
            next_victim_seq: -1,
            blocked: Vec::new(),
        }
    }

    /// The round's eligibility partition: members whose ready time is
    /// still in the future (always re-queued victims — fresh arrivals
    /// are ready the moment they arrive) leave the set for the duration
    /// of the step, so the admission scan sees exactly the eligible
    /// requests in key order.
    pub(crate) fn extract_blocked(&mut self, clock: f64, ready: &[f64]) {
        debug_assert!(self.blocked.is_empty());
        self.blocked.extend(
            self.arrived
                .iter()
                .copied()
                .filter(|&(_, _, i)| ready[i] > clock),
        );
        for e in &self.blocked {
            self.arrived.remove(e);
        }
    }

    /// Re-inserts the extracted members with fresh sequence numbers: the
    /// reference's partition moved them behind every eligible request, so
    /// every later stable sort keeps them behind all of their current
    /// key-ties (but still ahead of ties that arrive later — which get
    /// larger sequence numbers still).
    pub(crate) fn restore_blocked(&mut self) {
        let blocked = std::mem::take(&mut self.blocked);
        for (key, _, i) in blocked {
            self.arrived.insert((key, self.next_seq, i));
            self.next_seq += 1;
        }
    }
}

impl AdmissionQueue for KeyedQueue {
    fn peek(&self) -> Option<usize> {
        if let Some(&(_, _, i)) = self.arrived.first() {
            Some(i)
        } else {
            self.future.front().copied()
        }
    }

    fn pop(&mut self) {
        // Admission always pops an arrived head: `prepare` ran at this
        // clock, so every not-yet-absorbed member is in the future and
        // the engine's ready check would have broken.
        if self.arrived.pop_first().is_none() {
            self.future.pop_front();
        }
    }

    fn requeue_victim(&mut self, idx: usize) {
        self.arrived
            .insert((self.keys[idx], self.next_victim_seq, idx));
        self.next_victim_seq -= 1;
    }
}

impl Discipline for KeyedQueue {
    const EXHAUSTIVE: bool = false;
    const RESORTS: bool = false;

    fn is_empty(&self) -> bool {
        self.arrived.is_empty() && self.future.is_empty() && self.blocked.is_empty()
    }

    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        let arrived = self.arrived.iter().chain(&self.blocked).map(|e| e.2);
        arrived.chain(self.future.iter().copied())
    }

    /// Absorbs arrivals up to `clock` — the arrived prefix the
    /// reference's sort would have ordered this round.
    fn prepare(&mut self, clock: f64, trace: &[RequestSpec], _policy: &dyn SchedulerPolicy) {
        while let Some(&i) = self.future.front() {
            if trace[i].arrival_s > clock {
                break;
            }
            self.future.pop_front();
            self.arrived.insert((self.keys[i], self.next_seq, i));
            self.next_seq += 1;
        }
    }

    /// Some member already arrived (so the jump is a no-op) unless the
    /// arrived set is empty; the future tail is arrival-sorted.
    fn idle_target(&self, trace: &[RequestSpec]) -> Option<f64> {
        if self.arrived.is_empty() {
            self.future.front().map(|&i| trace[i].arrival_s)
        } else {
            None
        }
    }

    /// The future tail is arrival-sorted, so its prefix scan is exact.
    fn ready_depth(&self, ready: &[f64], now: f64) -> usize {
        self.arrived
            .iter()
            .filter(|&&(_, _, i)| ready[i] <= now)
            .count()
            + self.future.iter().take_while(|&&i| ready[i] <= now).count()
    }

    /// Only members off the arrival axis can be arrived but not ready, so
    /// the extraction scan runs only while some are queued.
    fn partition(pool: &mut Pool<Self>, clock: f64) {
        if !pool.off_axis_list.is_empty() {
            pool.queue.extract_blocked(clock, &pool.ready);
        }
    }

    fn restore(&mut self) {
        self.restore_blocked();
    }
}

/// A queue several blades share — the central-dispatch queue or the
/// disaggregated decode pool — as a [`Discipline`] plus the ready-time
/// bookkeeping its fast paths consult.
///
/// A member's ready time is the instant it may (re-)enter a batch. It
/// starts *on the arrival axis* (the request's arrival) and leaves it
/// when the member re-enters at another instant: a preemption victim's
/// eviction, or a handoff into the decode pool. The earliest instant at
/// which any member's eligibility can change is therefore the next
/// arrival on the axis or the earliest future off-axis ready time
/// ([`Self::next_transition`]), which bounds every fast-forward.
///
/// A request leaves the axis for good once admitted or shed, so the
/// members still on it span a range of the axis whose ends only move
/// inward: the earliest and latest ready time on the axis are that
/// range's ends, and off it a scan of the off-axis members. The
/// reference keeps none of this bookkeeping and scans its queue instead.
#[derive(Debug)]
pub(crate) struct Pool<D> {
    pub(crate) queue: D,
    /// Ready time per trace index, stamped only by the pool: at a
    /// handoff ([`Self::push`]) and when a victim re-enters
    /// ([`Self::settle`]).
    ready: Vec<f64>,
    /// Indices the current step admitted (or shed).
    admitted: Vec<usize>,
    /// Indices the current step preempted, in eviction order.
    victims: Vec<usize>,
    /// Members whose ready time is off the arrival axis, listed.
    off_axis_list: Vec<usize>,
    /// Each request's place by trace index: its position in
    /// `off_axis_list`, [`ON_AXIS`] or [`GONE`].
    place: Vec<u32>,
    /// Requests that left the arrival axis: admitted or shed from it,
    /// whether or not they re-entered off it since.
    left_axis: usize,
    /// The sorted arrival axis (empty for a handoff pool), and the trace
    /// index at each of its positions.
    arrivals: Vec<f64>,
    axis: Vec<usize>,
    /// The positions on the axis from its earliest to its latest member
    /// still on it (empty once none is).
    on_axis: Range<usize>,
    /// Members enter by handoff, at instants that follow no queue order.
    handoff: bool,
    /// Reused buffer for the members a deque partition moves behind the
    /// eligible ones (empty between rounds).
    scratch: Vec<usize>,
}

/// The [`Pool::place`] of a member waiting on the arrival axis.
const ON_AXIS: u32 = u32::MAX;
/// The [`Pool::place`] of a request that is not a member: admitted or
/// shed and not back, or not yet handed to a handoff pool.
const GONE: u32 = u32::MAX - 1;

impl<D: Discipline> Pool<D> {
    /// The central-dispatch queue: every request, waiting from its
    /// arrival on; `order` is the arrival-ordered trace that `queue`
    /// wraps.
    pub(crate) fn central(
        trace: &[RequestSpec],
        order: VecDeque<usize>,
        queue: impl FnOnce(VecDeque<usize>) -> D,
    ) -> Self {
        let ready: Vec<f64> = trace.iter().map(|r| r.arrival_s).collect();
        let arrivals: Vec<f64> = order.iter().map(|&i| ready[i]).collect();
        let axis: Vec<usize> = order.iter().copied().collect();
        Self {
            queue: queue(order),
            place: vec![ON_AXIS; trace.len()],
            ready,
            admitted: Vec::new(),
            victims: Vec::new(),
            off_axis_list: Vec::new(),
            left_axis: 0,
            on_axis: 0..axis.len(),
            arrivals,
            axis,
            handoff: false,
            scratch: Vec::new(),
        }
    }

    /// An empty pool that members join by [`Pool::push`].
    pub(crate) fn handoff(trace: &[RequestSpec], queue: D) -> Self {
        Self {
            queue,
            ready: trace.iter().map(|r| r.arrival_s).collect(),
            admitted: Vec::new(),
            victims: Vec::new(),
            place: vec![GONE; trace.len()],
            off_axis_list: Vec::new(),
            left_axis: 0,
            arrivals: Vec::new(),
            axis: Vec::new(),
            on_axis: 0..0,
            handoff: true,
            scratch: Vec::new(),
        }
    }

    /// Whether any request is still waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest ready time of any member, `None` when the pool is
    /// empty: a fold over the queue for the reference, read off the
    /// bookkeeping otherwise (debug builds check it against a scan).
    pub(crate) fn waiting(&self) -> Option<f64> {
        let scan = || self.queue.members().map(|i| self.ready[i]);
        if D::EXHAUSTIVE {
            return (!self.is_empty()).then(|| scan().fold(f64::MAX, f64::min));
        }
        let next = self.ready_range().map(|(lo, _)| lo);
        debug_assert_eq!(
            next.map(f64::to_bits),
            scan().min_by(f64::total_cmp).map(f64::to_bits),
            "the earliest ready time is stale"
        );
        next
    }

    /// The earliest and latest ready time of any member by
    /// `f64::total_cmp`, `None` when the pool is empty: the ends of the
    /// members' range on the (`total_cmp`-sorted) arrival axis, and a
    /// scan of the off-axis members. Not kept by the reference.
    fn ready_range(&self) -> Option<(f64, f64)> {
        let on_axis = &self.on_axis;
        let ends = (!on_axis.is_empty())
            .then(|| (self.arrivals[on_axis.start], self.arrivals[on_axis.end - 1]));
        self.off_axis_list.iter().fold(ends, |range, &v| {
            let t = self.ready[v];
            Some(range.map_or((t, t), |(lo, hi)| {
                let lo = std::cmp::min_by(lo, t, f64::total_cmp);
                (lo, std::cmp::max_by(hi, t, f64::total_cmp))
            }))
        })
    }

    /// Whether every member is ready at `clock`, or none is: then a
    /// partition at `clock` is the identity.
    fn all_or_none_ready(&self, clock: f64) -> bool {
        self.ready_range()
            .is_none_or(|(lo, hi)| hi <= clock || lo > clock)
    }

    /// Orders and partitions the queue for a round stepped at `clock`.
    pub(crate) fn prepare(
        &mut self,
        clock: f64,
        trace: &[RequestSpec],
        policy: &dyn SchedulerPolicy,
    ) {
        self.queue.prepare(clock, trace, policy);
        D::partition(self, clock);
    }

    /// Closes a round: the step's admissions leave the pool before its
    /// victims re-enter it, each ready at `reentry(victim)` (an
    /// admit-then-evict round ends with the victim counted back in).
    pub(crate) fn settle(&mut self, reentry: impl Fn(usize) -> f64) {
        if !D::EXHAUSTIVE {
            for &i in &self.admitted {
                let at = std::mem::replace(&mut self.place[i], GONE);
                if at == ON_AXIS {
                    self.left_axis += 1;
                } else {
                    debug_assert_ne!(at, GONE, "request {i} was admitted while not waiting");
                    self.off_axis_list.swap_remove(at as usize);
                    if let Some(&moved) = self.off_axis_list.get(at as usize) {
                        self.place[moved] = at;
                    }
                }
            }
            let left = |p: usize| self.place[self.axis[p]] != ON_AXIS;
            while !self.on_axis.is_empty() && left(self.on_axis.start) {
                self.on_axis.start += 1;
            }
            while !self.on_axis.is_empty() && left(self.on_axis.end - 1) {
                self.on_axis.end -= 1;
            }
        }
        let mut victims = std::mem::take(&mut self.victims);
        for v in victims.drain(..) {
            self.ready[v] = reentry(v);
            if !D::EXHAUSTIVE {
                self.enter(v);
            }
        }
        self.victims = victims;
        self.admitted.clear();
        self.queue.restore();
    }

    /// Lists member `idx`, ready off the arrival axis.
    fn enter(&mut self, idx: usize) {
        if self.place[idx] == GONE {
            self.place[idx] = self.off_axis_list.len() as u32;
            self.off_axis_list.push(idx);
        }
    }

    /// Members ready at `now`, by a scan of the queue.
    pub(crate) fn ready_depth(&self, now: f64) -> usize {
        self.queue.ready_depth(&self.ready, now)
    }

    /// The autoscaler's depth signal at `now`: [`Self::ready_depth`],
    /// which the reference scans for, read off the pool's bookkeeping
    /// otherwise. `now` may not precede any round that admitted or shed a
    /// request, as holds from the central loop's current round start on:
    /// then every request that left the arrival axis arrived by `now`, so
    /// the members on the axis ready at `now` are its arrivals up to `now`
    /// less those that left.
    pub(crate) fn scaler_depth(&self, now: f64) -> usize {
        if D::EXHAUSTIVE {
            return self.ready_depth(now);
        }
        let arrived = self.arrivals.partition_point(|&a| a <= now);
        let off_axis = self.off_axis_list.iter().filter(|&&v| self.ready[v] <= now);
        let depth = arrived - self.left_axis + off_axis.count();
        debug_assert_eq!(depth, self.ready_depth(now), "the ready depth is stale");
        depth
    }

    /// Whether rounds skipped by a fast-forward would have partitioned
    /// the queue observably: always for a handoff pool (its ready times
    /// follow no queue order), else while members are off the arrival
    /// axis and the discipline keeps the order a partition leaves.
    pub(crate) fn partition_observable(&self) -> bool {
        self.handoff || (!self.off_axis_list.is_empty() && !D::RESORTS)
    }

    /// The earliest instant after `clock` at which any member's
    /// eligibility can change: the next arrival anywhere on the axis
    /// (requests already departed arrived in the past, so the global
    /// successor is never *later* than the queue's own — an early bound
    /// only truncates stretches, never extends them) or the earliest
    /// future off-axis ready time. While a blade's clock stays below this
    /// instant, the partition and the ready-depth signal are frozen.
    pub(crate) fn next_transition(&self, clock: f64) -> f64 {
        let p = self.arrivals.partition_point(|&a| a <= clock);
        let mut e = self.arrivals.get(p).copied().unwrap_or(f64::INFINITY);
        for &v in &self.off_axis_list {
            if self.ready[v] > clock {
                e = e.min(self.ready[v]);
            }
        }
        e
    }
}

impl<const E: bool, const R: bool> Pool<Deque<E, R>> {
    /// Hands `idx` to the pool, ready at `at`.
    pub(crate) fn push(&mut self, idx: usize, at: f64) {
        self.ready[idx] = at;
        self.queue.0.push_back(idx);
        if !E {
            self.enter(idx);
        }
    }
}

impl<D: Discipline> AdmissionQueue for Pool<D> {
    fn peek(&self) -> Option<usize> {
        self.queue.peek()
    }

    fn pop(&mut self) {
        if let Some(i) = self.queue.peek() {
            self.admitted.push(i);
            self.queue.pop();
        }
    }

    fn requeue_victim(&mut self, idx: usize) {
        self.victims.push(idx);
        self.queue.requeue_victim(idx);
    }

    fn ready_at(&self, _trace: &[RequestSpec], idx: usize) -> f64 {
        self.ready[idx]
    }

    fn streamed(&self) -> bool {
        self.handoff
    }
}

/// A planned pure-decode stretch for one blade: the proof that, for up
/// to [`Self::max_iters`] iterations, every engine step would be a
/// constant-cost decode with no admission, completion, first token,
/// preemption or cost-bucket crossing — so the per-step float operations
/// can be replicated in closed form by [`Self::advance`].
///
/// Planning is separate from advancing so the cluster loops can reject
/// a stretch on their own (cheap) horizon gates before paying for the
/// more expensive ones, and re-plan after a truncated advance (a bucket
/// crossing changes the cost; the next stretch picks up from there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DecodeStretch {
    /// The constant per-iteration decode cost (s).
    cost: f64,
    /// Live batch size (every member decoding).
    batch: u32,
    /// Iterations until the first completion, bucket crossing or KV
    /// exhaustion would fire — those iterations run per-step.
    max_iters: u64,
    /// Charged KV tokens (private + resident shared) at stretch entry.
    charged0: u64,
    /// Used KV tokens (incl. this iteration's growth) at stretch entry —
    /// fragmentation peaks here (charged − used is constant under
    /// contiguous accounting and non-increasing under paged).
    used0: u64,
    /// Tokens charged by resident shared prefix blocks (constant: no
    /// admissions or evictions mid-stretch).
    cache_charged: u64,
    /// Charged-token growth per iteration: `batch` under contiguous
    /// accounting, 0 under paged (no block boundary is crossed within
    /// `max_iters` by construction).
    charge_growth: u64,
}

impl DecodeStretch {
    /// Plans a stretch for `blade`'s current batch, or `None` when the
    /// very next iteration could do something a closed-form advance
    /// cannot replicate (prefill work, a first token, a completion, a
    /// non-positive or NaN cost, or a KV state already over capacity).
    pub(crate) fn plan(
        ctx: &EngineCtx<'_>,
        trace: &[RequestSpec],
        blade: &BladeState,
    ) -> Option<Self> {
        let _span = profile::span(profile::Phase::StretchPlan);
        let cfg = ctx.config;
        if blade.running.is_empty() {
            return None;
        }
        let batch = blade.running.len() as u32;
        // Iterations until the earliest completion would fire (that
        // iteration stamps outcomes, so it runs per-step); sequences
        // still prefilling or awaiting their first token also force the
        // per-step path.
        let mut k = u64::MAX;
        for r in &blade.running {
            if r.prefill_remaining != 0 || r.produced == 0 {
                return None;
            }
            k = k.min(u64::from(trace[r.idx].output_tokens - r.produced) - 1);
        }
        if k == 0 {
            return None;
        }
        // Constant-cost bound: the table lookup only changes when a
        // KV length crosses a bucket boundary. Under bucketized-mean
        // pricing the mean grows by exactly one token per iteration
        // (`ceil((s + j*b)/b) = ceil(s/b) + j`); under exact pricing
        // each sequence's own span must stay in its bucket.
        let bucket = u64::from(ctx.table.bucket());
        let cost = match cfg.decode_pricing {
            DecodePricing::BucketizedMean => {
                let kv_sum: u64 = blade.running.iter().map(|r| u64::from(r.kv_len)).sum();
                let kv_mean = kv_sum.div_ceil(u64::from(batch)) as u32;
                let idx = u64::from(kv_mean).div_ceil(bucket).max(1);
                k = k.min(idx * bucket - u64::from(kv_mean) + 1);
                ctx.table.decode_cost(batch, kv_mean)
            }
            DecodePricing::ExactPerSequence => {
                let mut total = 0.0f64;
                for r in &blade.running {
                    let idx = u64::from(r.kv_len).div_ceil(bucket).max(1);
                    k = k.min(idx * bucket - u64::from(r.kv_len) + 1);
                    total += ctx.table.decode_cost(batch, r.kv_len);
                }
                total / f64::from(batch)
            }
        };
        // Zero-cost iterations would accumulate `0.0 + cost` in the
        // per-step loop, whose bit pattern the hoisted sums below only
        // reproduce for positive costs; NaN falls back to the per-step
        // path too so a broken estimator degrades identically.
        if cost <= 0.0 || cost.is_nan() {
            return None;
        }
        // No-preemption bound: the KV growth check must pass every
        // stretched iteration, with the exact float predicate the
        // per-step loop applies.
        let cache_charged = ctx.cache_charged(blade);
        let charged0: u64 =
            blade.running.iter().map(|r| ctx.charge(r)).sum::<u64>() + cache_charged;
        if ctx.kv_bytes(charged0) > cfg.kv_capacity_bytes {
            return None;
        }
        let charge_growth = match cfg.kv_layout {
            KvLayout::Contiguous => {
                // Charged tokens grow by `batch` per iteration: binary
                // search the last fitting iteration.
                let fits =
                    |j: u64| ctx.kv_bytes(charged0 + j * u64::from(batch)) <= cfg.kv_capacity_bytes;
                if !fits(k - 1) {
                    let (mut lo, mut hi) = (0u64, k - 1);
                    while lo < hi {
                        let mid = lo + (hi - lo).div_ceil(2);
                        if fits(mid) {
                            lo = mid;
                        } else {
                            hi = mid - 1;
                        }
                    }
                    k = lo + 1;
                }
                u64::from(batch)
            }
            KvLayout::Paged { block_tokens } => {
                // Block-granular charge is constant until a sequence's
                // private span crosses its current block boundary.
                let blk = u64::from(block_tokens);
                for r in &blade.running {
                    let x = u64::from(r.kv_len) + 1 - u64::from(r.shared_tokens);
                    k = k.min(x.div_ceil(blk) * blk - x + 1);
                }
                0
            }
        };
        let used0: u64 = blade
            .running
            .iter()
            .map(|r| u64::from(r.kv_len) + 1 - u64::from(r.shared_tokens))
            .sum::<u64>()
            + blade.cache.as_ref().map_or(0, |c| c.resident_tokens());
        Some(Self {
            cost,
            batch,
            max_iters: k,
            charged0,
            used0,
            cache_charged,
            charge_growth,
        })
    }

    /// Advances the single blade `blade` through the planned stretch,
    /// starting no iteration at or after `start_gate_s` — the instant of
    /// the loop's next admission decision; the `<=` also leaves a tie to
    /// the real round. Replicates the per-step loop's float operations in
    /// order: per iteration `decode_time_s += c; batch_time_weighted +=
    /// c*b; busy_s += c; clock += c` (its `step_cost = 0.0 + c` equals `c`
    /// bitwise for positive costs), then the observer event. Returns the
    /// iterations advanced; 0 means the caller must fall back to a full
    /// per-round step. Truncating early is always safe; only
    /// over-stretching could break bit-identity.
    ///
    /// Observers of [`Interest::Rounds`] still get one `Step` event per
    /// iteration — batching changes the loop shape, never the event
    /// stream; observers of [`Interest::Summaries`] get one `Stretch`
    /// summary, and those of [`Interest::Nothing`] no event. `Shed`
    /// events need no replay here: sheds fire only at round-start
    /// admission instants, which the gate excludes. The multi-blade
    /// loops, whose gates also cover round-end decisions, advance through
    /// [`leapfrog_decode`] instead.
    pub(crate) fn advance(
        &self,
        blade: &mut BladeState,
        start_gate_s: f64,
        obs: &mut dyn SimObserver,
    ) -> u64 {
        let Self { cost, batch, .. } = *self;
        let weighted = cost * f64::from(batch);
        let mut done = 0u64;
        macro_rules! stretch_loop {
            ($($notify:expr)?) => {
                for _ in 0..self.max_iters {
                    if start_gate_s <= blade.clock {
                        break;
                    }
                    blade.decode_time_s += cost;
                    blade.batch_time_weighted += weighted;
                    blade.busy_s += cost;
                    blade.clock += cost;
                    $($notify;)?
                    done += 1;
                }
            };
        }
        let interest = obs.interest();
        if interest == Interest::Rounds {
            stretch_loop!({
                // At notify, `done` completed iterations precede this one,
                // so the charged footprint matches the per-step loop's
                // `charged0 + done * growth` exactly.
                obs.emit(blade.id, blade.clock, self.step_event(done));
            });
            self.commit(blade, done);
        } else {
            stretch_loop!();
            self.commit(blade, done);
            // One closed-form summary replaces the skipped per-iteration
            // stream (telemetry window-buckets it; see `EventKind::Stretch`).
            if interest == Interest::Summaries && done > 0 {
                obs.emit(blade.id, blade.clock, self.stretch_event(done));
            }
        }
        done
    }

    /// This plan after `done` of its iterations were committed: what
    /// [`Self::plan`] returns for the advanced blade (every bound moved
    /// `done` iterations closer, the footprints `done` iterations on).
    fn rebase(&self, done: u64) -> Self {
        Self {
            max_iters: self.max_iters - done,
            charged0: self.charged0 + done * self.charge_growth,
            used0: self.used0 + done * u64::from(self.batch),
            ..*self
        }
    }

    /// The `Step` event of the iteration advanced after `done` completed
    /// ones of this plan.
    fn step_event(&self, done: u64) -> EventKind {
        EventKind::Step {
            step_s: self.cost,
            decoding: self.batch,
            kv_tokens: self.charged0 + done * self.charge_growth,
            shared_tokens: self.cache_charged,
        }
    }

    /// The `Stretch` summary of `done` iterations advanced under this
    /// plan (callers guarantee `done > 0`).
    fn stretch_event(&self, done: u64) -> EventKind {
        EventKind::Stretch {
            iterations: done,
            step_s: self.cost,
            decoding: self.batch,
            kv_tokens: self.charged0 + (done - 1) * self.charge_growth,
        }
    }

    /// Applies the end-of-stretch bookkeeping for `done` iterations
    /// advanced under this plan (no-op for zero).
    ///
    /// Integer bookkeeping, batched: every sequence grew and produced
    /// `done` tokens; the capacity/occupancy peaks are monotone or
    /// constant across the stretch, so the endpoints cover them.
    /// Fragmentation (charged − used) is constant under contiguous
    /// accounting and non-increasing under paged, peaking at entry;
    /// the charged footprint peaks at the final iteration.
    fn commit(&self, blade: &mut BladeState, done: u64) {
        if done == 0 {
            return;
        }
        blade.decode_iterations += done;
        blade.stretches += 1;
        blade.stretched_iterations += done;
        blade.max_step_s = blade.max_step_s.max(self.cost);
        for r in &mut blade.running {
            r.kv_len += done as u32;
            r.produced += done as u32;
        }
        let charged_end = self.charged0 + (done - 1) * self.charge_growth;
        blade.kv_peak_tokens = blade.kv_peak_tokens.max(charged_end);
        blade.frag_peak_tokens = blade.frag_peak_tokens.max(self.charged0 - self.used0);
        blade.shared_peak_tokens = blade.shared_peak_tokens.max(self.cache_charged);
    }
}

/// A round's place in the per-step loops' global order: its start clock,
/// then the blade index (see [`round_order`]).
pub(crate) type RoundKey = (f64, usize);

/// The per-step loops' round order: start clocks by `f64::total_cmp`,
/// ties broken by blade index.
pub(crate) fn round_order(a: &RoundKey, b: &RoundKey) -> Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// The key after every round: a [`Tournament`] leaf with nothing filed.
pub(crate) const NEVER: RoundKey = (f64::INFINITY, usize::MAX);

/// The [`Leapfrog`] horizon while no member owes a round: no round's key
/// precedes it.
const SETTLED: RoundKey = (f64::NEG_INFINITY, 0);

/// A min tournament tree over one [`RoundKey`] per blade in
/// [`round_order`]: filing a blade's key re-files the minima above its
/// leaf in O(log n), and the root is the minimum. A blade with nothing
/// filed sits at [`NEVER`].
#[derive(Debug)]
pub(crate) struct Tournament {
    /// Leaves per level: the blade count, rounded up to a power of two.
    width: usize,
    /// Node `k` holds the minimum of nodes `2k` and `2k + 1`; blade `b`'s
    /// leaf is node `width + b` (node 0 is unused). Keys are
    /// [packed](Self::pack), so that one integer comparison orders them.
    nodes: Vec<u128>,
}

impl Tournament {
    /// Nothing filed, for `blades` blades.
    pub(crate) fn new(blades: usize) -> Self {
        let width = blades.next_power_of_two();
        Self {
            width,
            nodes: vec![Self::pack(NEVER); 2 * width],
        }
    }

    /// `key` as an integer that orders as [`round_order`] does: the clock's
    /// bits mapped to `f64::total_cmp` order above the blade index.
    fn pack((clock, b): RoundKey) -> u128 {
        let bits = clock.to_bits();
        let ordered = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
        (u128::from(ordered) << 64) | b as u128
    }

    /// The key `packed` holds.
    fn unpack(packed: u128) -> RoundKey {
        let ordered = (packed >> 64) as u64;
        let bits = if ordered >> 63 == 1 {
            ordered ^ (1 << 63)
        } else {
            !ordered
        };
        (f64::from_bits(bits), packed as u64 as usize)
    }

    /// Files `key` at blade `b`'s leaf.
    pub(crate) fn file(&mut self, b: usize, key: RoundKey) {
        let mut k = self.width + b;
        let mut min = Self::pack(key);
        if self.nodes[k] == min {
            return;
        }
        self.nodes[k] = min;
        // A node whose minimum holds leaves every node above it as it was.
        while k > 1 {
            min = min.min(self.nodes[k ^ 1]);
            k /= 2;
            if self.nodes[k] == min {
                break;
            }
            self.nodes[k] = min;
        }
    }

    /// The minimal key filed, [`NEVER`] when none is.
    pub(crate) fn min(&self) -> RoundKey {
        Self::unpack(self.nodes[1])
    }

    /// Whether some filed key comes before `key`.
    fn any_before(&self, key: RoundKey) -> bool {
        self.nodes[1] < Self::pack(key)
    }

    /// The key of the leftmost blade whose filed clock is at most `t`;
    /// the minimum's must be. Packed keys order clocks as `total_cmp`,
    /// which puts `+0.0` above `-0.0`, so a zero `t` compares as `+0.0`:
    /// then a packed key is at most `limit` exactly when its blade is
    /// filed and its clock is at most `t`.
    pub(crate) fn leftmost_until(&self, t: f64) -> RoundKey {
        let t = if t == 0.0 { 0.0 } else { t };
        let limit = Self::pack((t, NEVER.1 - 1));
        let mut k = 1;
        while k < self.width {
            k *= 2;
            k += usize::from(self.nodes[k] > limit);
        }
        Self::unpack(self.nodes[k])
    }
}

/// A set of blade indices as a bitmap: O(1) insertion and removal, and
/// iteration in ascending order.
#[derive(Debug)]
struct BladeSet {
    words: Vec<u64>,
    len: usize,
}

impl BladeSet {
    /// The empty set, for `blades` blades.
    fn new(blades: usize) -> Self {
        Self {
            words: vec![0; blades.div_ceil(64)],
            len: 0,
        }
    }

    /// Adds `b`, if absent.
    fn insert(&mut self, b: usize) {
        let (word, bit) = (&mut self.words[b / 64], 1u64 << (b % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    /// Removes `b`, if present.
    fn remove(&mut self, b: usize) {
        let (word, bit) = (&mut self.words[b / 64], 1u64 << (b % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The blades, ascending.
    fn iter(&self) -> BladeIter<'_> {
        self.iter_from(0)
    }

    /// The blades from `lo` on, ascending.
    fn iter_from(&self, lo: usize) -> BladeIter<'_> {
        let at = lo / 64;
        let word = self.words.get(at).map_or(0, |w| w & (!0 << (lo % 64)));
        BladeIter {
            words: &self.words,
            at,
            word,
        }
    }
}

/// The blades of a [`BladeSet`], ascending.
struct BladeIter<'a> {
    words: &'a [u64],
    /// The word `word` came from.
    at: usize,
    /// Its blades not yet yielded.
    word: u64,
}

impl Iterator for BladeIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.at += 1;
            self.word = *self.words.get(self.at)?;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.at * 64 + bit)
    }
}

/// The floats a decode round adds to: a blade's clock and its three
/// time accumulators.
#[derive(Debug, Clone, Copy)]
struct Clocks {
    clock: f64,
    decode_time_s: f64,
    batch_time_weighted: f64,
    busy_s: f64,
}

impl Clocks {
    /// `blade`'s clocks.
    fn of(blade: &BladeState) -> Self {
        Self {
            clock: blade.clock,
            decode_time_s: blade.decode_time_s,
            batch_time_weighted: blade.batch_time_weighted,
            busy_s: blade.busy_s,
        }
    }

    /// One decode round of `cost` seconds, `weighted` being `cost` times
    /// the batch, with the per-step loop's float operations in its order
    /// (its `step_cost = 0.0 + c` equals `c` bitwise for positive costs).
    fn round(&mut self, cost: f64, weighted: f64) {
        self.decode_time_s += cost;
        self.batch_time_weighted += weighted;
        self.busy_s += cost;
        self.clock += cost;
    }

    /// Writes the clocks back to `blade`.
    fn store(self, blade: &mut BladeState) {
        blade.clock = self.clock;
        blade.decode_time_s = self.decode_time_s;
        blade.batch_time_weighted = self.batch_time_weighted;
        blade.busy_s = self.busy_s;
    }
}

impl DecodeStretch {
    /// Walks blade `m`'s rounds of this plan from round `k`, `clocks`
    /// being the blade's before it, to its first round before `bound` that
    /// a leapfrog may not skip: from `from` on (the rounds before it were
    /// skipped already), the first that starts at or after `gate_s` or
    /// whose end `end_gate` refuses; a round ending at +∞ always is.
    /// Returns that round, if any, and where the walk stopped: there, or
    /// at the first round from `bound` on, or where the plan runs out.
    #[allow(clippy::too_many_arguments)]
    fn walk_to_stop<E: Fn(f64) -> bool>(
        &self,
        k: u64,
        clocks: Clocks,
        m: usize,
        gate_s: f64,
        end_gate: Option<&E>,
        from: RoundKey,
        bound: RoundKey,
    ) -> (Option<RoundKey>, Reach) {
        let mut last = f64::NEG_INFINITY;
        let (round, clocks) = self.walk(k, clocks, |_, s, e| {
            let key = (s, m);
            let go = round_order(&key, &bound).is_lt()
                && (round_order(&key, &from).is_lt() || (s < gate_s && ends(e, end_gate)));
            if go {
                last = s;
            }
            go
        });
        let key = (clocks.clock, m);
        let stop = (round < self.max_iters && round_order(&key, &bound).is_lt()).then_some(key);
        let reach = Reach {
            round,
            clocks,
            last,
        };
        (stop, reach)
    }

    /// Walks this plan's rounds from round `k`, `clocks` being a blade's
    /// before it, with the per-step loop's float operations in order: runs
    /// round `k`, which starts at clock `s` and would end at `e`, while
    /// `go(k, s, e)`, up to the plan's last round. Returns the round it
    /// stopped at (the plan's length when it ran out) and the clocks
    /// before that round.
    fn walk(
        &self,
        mut k: u64,
        mut clocks: Clocks,
        mut go: impl FnMut(u64, f64, f64) -> bool,
    ) -> (u64, Clocks) {
        let weighted = self.cost * f64::from(self.batch);
        while k < self.max_iters {
            let mut next = clocks;
            next.round(self.cost, weighted);
            if !go(k, clocks.clock, next.clock) {
                break;
            }
            clocks = next;
            k += 1;
        }
        (k, clocks)
    }
}

/// Whether a skipped round may end at `e`: `end_gate` admits it, and it
/// is finite.
fn ends<E: Fn(f64) -> bool>(e: f64, end_gate: Option<&E>) -> bool {
    e < f64::INFINITY && end_gate.is_none_or(|gate| gate(e))
}

/// A closed-form screen of a plan's round starts. Round `k` of a plan
/// walked from clock `c` starts at `c + k·cost` up to the walk's summation
/// error: at most `k·u` times the largest partial sum, `u` being the unit
/// roundoff (Higham, *Accuracy and Stability of Numerical Algorithms*,
/// ch. 4). For `n` rounds every partial sum is at most `|c| + n·cost`, so
/// eight times `(n + 2)·u` of that, in rounds, bounds the error of every
/// round start, and the screen's own rounding with it.
#[derive(Debug, Clone, Copy)]
struct Starts {
    /// The blade's clock when the plan was made.
    clock: f64,
    /// The reciprocal of the plan's cost (its cost until first screened).
    per_s: f64,
    /// How many rounds from `clock + k·cost` round `k` may start: less
    /// than half a round, or +∞ where nothing can be ruled out (NaN until
    /// first screened).
    slack: f64,
    /// The plan's last round (−1 without a plan).
    last: f64,
}

impl Starts {
    /// No plan: no round starts.
    const NONE: Self = Self {
        clock: 0.0,
        per_s: 0.0,
        slack: 0.0,
        last: -1.0,
    };

    /// The screen of `plan`, walked from `clock` to `end`, worked out when
    /// first screened: plans that never are cost no division.
    fn new(plan: &DecodeStretch, clock: f64, end: f64) -> Self {
        let slack = if end < f64::INFINITY {
            f64::NAN
        } else {
            f64::INFINITY
        };
        Self {
            clock,
            per_s: plan.cost,
            slack,
            last: plan.max_iters as f64 - 1.0,
        }
    }

    /// Whether a round of the plan may start at exactly `t`: whether the
    /// round nearest `q`, `t`'s place in rounds, lies within the slack of
    /// it (the slack is under half a round, so no other can) and within
    /// the plan. `false` rules a tie out; a screen that can rule nothing
    /// out — an infinite end, or a cost so small that the slack reaches
    /// half a round — says `true`.
    fn may_hold(&mut self, t: f64) -> bool {
        // Adding and taking away 1.5·2^52 rounds to the nearest integer
        // while |q| < 2^51; a farther `q` lies far outside the plan.
        const ROUND: f64 = 6_755_399_441_055_744.0;
        if self.slack.is_nan() {
            let (n, cost) = (self.last + 1.0, self.per_s);
            self.per_s = cost.recip();
            let span = self.clock.abs() + n * cost;
            let slack = 4.0 * (n + 2.0) * f64::EPSILON * span * self.per_s;
            self.slack = if slack < 0.5 { slack } else { f64::INFINITY };
        }
        let q = (t - self.clock) * self.per_s;
        let near = (q + ROUND) - ROUND;
        let d = (q - near).abs();
        self.slack == f64::INFINITY || (d <= self.slack && near >= 0.0 && near <= self.last)
    }
}

/// Where a walk of a member's plan stopped: at `round`, the blade's
/// clocks being `clocks` there, after a last round that started at `last`
/// (−∞ when it ran none).
#[derive(Debug, Clone, Copy)]
struct Reach {
    round: u64,
    clocks: Clocks,
    last: f64,
}

/// One running blade's membership in a cluster-wide leapfrog: its plan,
/// walked once when made. The rounds before the leapfrog's horizon are
/// advanced, but reach the blade only when something reads it.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The plan for the blade's committed state (`None`: parked, its next
    /// round is a real step, or stale). Rounds written but not yet
    /// committed leave that state, and so the plan, as they were.
    plan: Option<DecodeStretch>,
    /// The plan is out of date: the loop stepped the blade, or the plan
    /// ran out. A call that reaches the member plans afresh.
    stale: bool,
    /// Rounds of `plan` written to the blade and not yet committed: its
    /// clocks include them, its integer bookkeeping does not yet.
    done: u64,
    /// The blade's clocks after every round of `plan`: where it runs out.
    end: Clocks,
    /// The start of the plan's last round.
    last: f64,
}

impl Run {
    /// A blade's run while it is no member.
    const NONE: Self = Self {
        plan: None,
        stale: true,
        done: 0,
        end: Clocks {
            clock: 0.0,
            decode_time_s: 0.0,
            batch_time_weighted: 0.0,
            busy_s: 0.0,
        },
        last: 0.0,
    };

    /// Member `m`'s stop, `blade` being its committed state: the round
    /// its plan runs out at, or its clock when it has none.
    fn stop(&self, m: usize, blade: &BladeState) -> RoundKey {
        let clock = if self.plan.is_some() {
            self.end.clock
        } else {
            blade.clock
        };
        (clock, m)
    }

    /// Plans member `m` afresh for `blade` and walks the plan once: to its
    /// first round before `bound` that the call may not skip (see
    /// [`Self::gated`]), and on to where it runs out. Returns the screen of
    /// its round starts, and that round with where the walk passed it.
    #[allow(clippy::too_many_arguments)]
    fn replan<E: Fn(f64) -> bool>(
        &mut self,
        ctx: &EngineCtx<'_>,
        trace: &[RequestSpec],
        m: usize,
        blade: &BladeState,
        gate_s: f64,
        end_gate: Option<&E>,
        bound: RoundKey,
    ) -> (Starts, Option<(Option<RoundKey>, Reach)>) {
        self.plan = DecodeStretch::plan(ctx, trace, blade);
        self.stale = false;
        self.done = 0;
        let Some(plan) = self.plan else {
            return (Starts::NONE, None);
        };
        let (stop, reach) =
            plan.walk_to_stop(0, Clocks::of(blade), m, gate_s, end_gate, SETTLED, bound);
        let mut last = reach.last;
        let (_, end) = plan.walk(reach.round, reach.clocks, |_, s, _| {
            last = s;
            true
        });
        (self.end, self.last) = (end, last);
        (
            Starts::new(&plan, blade.clock, end.clock),
            Some((stop, reach)),
        )
    }

    /// Member `m`'s first round before `bound` that the call may not
    /// skip within its plan, walked from `blade`'s clocks (see
    /// [`DecodeStretch::walk_to_stop`]), and where the walk stopped.
    fn gated<E: Fn(f64) -> bool>(
        &self,
        m: usize,
        blade: &BladeState,
        gate_s: f64,
        end_gate: Option<&E>,
        from: RoundKey,
        bound: RoundKey,
    ) -> Option<(Option<RoundKey>, Reach)> {
        let plan = self.plan?;
        let clocks = Clocks::of(blade);
        Some(plan.walk_to_stop(self.done, clocks, m, gate_s, end_gate, from, bound))
    }

    /// Advances member `m` through the rounds of its plan before `until`,
    /// writing their clocks to `blade`. An observer of [`Interest::Rounds`]
    /// gets each round's `Step` event, keyed by the round.
    fn advance(
        &mut self,
        m: usize,
        blade: &mut BladeState,
        until: RoundKey,
        interest: Interest,
        events: &mut Vec<(RoundKey, SimEvent)>,
    ) {
        let Some(plan) = self.plan else { return };
        let id = blade.id;
        let mut last = f64::NEG_INFINITY;
        let (round, clocks) = plan.walk(self.done, Clocks::of(blade), |k, s, e| {
            let go = round_order(&(s, m), &until).is_lt();
            if go {
                last = s;
                if interest == Interest::Rounds {
                    // `k` completed rounds of this plan precede this one,
                    // matching the per-step loop's charged footprint.
                    let event = SimEvent {
                        blade: id,
                        clock_s: e,
                        kind: plan.step_event(k),
                    };
                    events.push(((s, m), event));
                }
            }
            go
        });
        let reach = Reach {
            round,
            clocks,
            last,
        };
        self.reach(m, blade, reach, interest, events);
    }

    /// Writes a walk of member `m`'s plan that stopped at `reach` to
    /// `blade`. A plan that runs out commits at once, its `Stretch` summary
    /// keyed by its last round.
    fn reach(
        &mut self,
        m: usize,
        blade: &mut BladeState,
        reach: Reach,
        interest: Interest,
        events: &mut Vec<(RoundKey, SimEvent)>,
    ) {
        let Some(plan) = self.plan else { return };
        reach.clocks.store(blade);
        self.done = reach.round;
        if reach.round == plan.max_iters {
            plan.commit(blade, reach.round);
            if interest == Interest::Summaries {
                let event = SimEvent {
                    blade: blade.id,
                    clock_s: blade.clock,
                    kind: plan.stretch_event(reach.round),
                };
                events.push(((reach.last, m), event));
            }
            self.plan = None;
            self.stale = true;
            self.done = 0;
        }
    }

    /// Advances member `m` through every round of its plan, which runs
    /// out before the call's cut: straight to the clocks its walk ended
    /// at, unless an observer needs each round's event.
    fn finish(
        &mut self,
        m: usize,
        blade: &mut BladeState,
        interest: Interest,
        events: &mut Vec<(RoundKey, SimEvent)>,
    ) {
        match self.plan {
            Some(plan) if interest != Interest::Rounds => {
                self.end.store(blade);
                plan.commit(blade, plan.max_iters);
                if interest == Interest::Summaries {
                    let event = SimEvent {
                        blade: blade.id,
                        clock_s: blade.clock,
                        kind: plan.stretch_event(plan.max_iters),
                    };
                    events.push(((self.last, m), event));
                }
                self.plan = None;
                self.stale = true;
                self.done = 0;
            }
            _ => self.advance(m, blade, NEVER, interest, events),
        }
    }

    /// Commits the rounds written under the plan since its last commit,
    /// rebasing the plan past them, and returns their `Stretch` summary
    /// (`None` when there were none).
    fn commit(&mut self, blade: &mut BladeState) -> Option<EventKind> {
        let plan = self.plan.filter(|_| self.done > 0)?;
        plan.commit(blade, self.done);
        let summary = plan.stretch_event(self.done);
        self.plan = Some(plan.rebase(self.done));
        self.done = 0;
        Some(summary)
    }
}

/// A replay loop's leapfrog state over one blade pool, reused across its
/// [`leapfrog_decode`] calls so no call allocates: one run per running
/// blade of the pool (the members), each holding its blade's plan, the
/// members' stops in a [`Tournament`], the horizon before which their
/// rounds are advanced, and the event buffer. A run joins, re-plans or
/// leaves only when the loop steps its blade ([`Self::stepped`]), which
/// it settles first ([`Self::settle`]).
#[derive(Debug)]
pub(crate) struct Leapfrog {
    /// Per blade of the replay: its run, live while the blade is a member.
    runs: Vec<Run>,
    /// Per blade: the screen of its run's latest plan, which its rounds
    /// since are part of.
    starts: Vec<Starts>,
    /// The members' blades.
    members: BladeSet,
    /// Each member's [stop](Run::stop): no call passes it without
    /// reaching the member.
    stops: Tournament,
    /// `(t, b)`: no member below blade `b` has a round of its current plan
    /// that its screen places at `t`. Calls that tie-screen at the same
    /// `t`, as every call does until the queue's head changes, screen
    /// only the members from `b` on.
    clear: RoundKey,
    /// Every member's rounds before this key are advanced; each reaches
    /// its blade when something reads it ([`SETTLED`]: none is owed).
    /// Every stop is at or after it.
    horizon: RoundKey,
    /// The last call's answer, which no member's next round precedes.
    last: Option<RoundKey>,
    /// Per blade, within a call that writes its members' rounds: where the
    /// member's walk for its gated round stopped, while its plan holds.
    reached: Vec<Option<Reach>>,
    /// The call's events, keyed by their round.
    events: Vec<(RoundKey, SimEvent)>,
}

impl Leapfrog {
    /// No members yet, for a replay over `blades` blades.
    pub(crate) fn new(blades: usize) -> Self {
        Self {
            runs: vec![Run::NONE; blades],
            starts: vec![Starts::NONE; blades],
            members: BladeSet::new(blades),
            stops: Tournament::new(blades),
            clear: (f64::NAN, 0),
            horizon: SETTLED,
            last: None,
            reached: vec![None; blades],
            events: Vec::new(),
        }
    }

    /// Writes the rounds the leapfrog advanced `blade` by to its state and
    /// commits them, so that the loop can read and step it.
    pub(crate) fn settle(&mut self, blade: usize, state: &mut BladeState) {
        if !self.owes_nothing(blade, state) {
            let (horizon, run) = (self.horizon, &mut self.runs[blade]);
            run.advance(blade, state, horizon, Interest::Nothing, &mut self.events);
        }
        self.runs[blade].commit(state);
    }

    /// Writes every member's advanced rounds to its blade's clocks, and
    /// returns the earliest member clock. Only a plan that runs out
    /// commits, so the members commit as often as unread ones do.
    pub(crate) fn write_clocks(&mut self, states: &mut [BladeState]) -> Option<f64> {
        let Self {
            runs,
            members,
            horizon,
            events,
            ..
        } = self;
        for m in members.iter() {
            runs[m].advance(m, &mut states[m], *horizon, Interest::Nothing, events);
        }
        *horizon = SETTLED;
        members
            .iter()
            .map(|m| states[m].clock)
            .min_by(f64::total_cmp)
    }

    /// Files `blade` of the pool after the loop settled and stepped it: a
    /// member, to plan afresh, while it holds running work; otherwise not
    /// one.
    pub(crate) fn stepped(&mut self, blade: usize, state: &BladeState) {
        debug_assert!(
            self.owes_nothing(blade, state) && self.runs[blade].done == 0,
            "blade {blade} was stepped unsettled"
        );
        let run = &mut self.runs[blade];
        (run.plan, run.stale) = (None, true);
        self.starts[blade] = Starts::NONE;
        if state.running.is_empty() {
            self.members.remove(blade);
            self.stops.file(blade, NEVER);
        } else {
            self.members.insert(blade);
            self.stops.file(blade, (state.clock, blade));
        }
    }

    /// The members' blades, ascending: the pool's running blades.
    pub(crate) fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter()
    }

    /// Whether the pool has no running blade.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The decode rounds written so far, committed or not, by the
    /// members whose batch holds `max_batch` sequences (write their
    /// clocks first).
    pub(crate) fn full_rounds(&self, states: &[BladeState], max_batch: usize) -> u64 {
        self.members
            .iter()
            .filter(|&b| states[b].running.len() >= max_batch)
            .map(|b| states[b].decode_iterations + self.runs[b].done)
            .sum()
    }

    /// The earliest member round, while no blade was stepped since the
    /// last call: that call's answer when it came from a member. When it
    /// was an idle admission instead, every member round comes after it,
    /// and a prefill round since can only bring that admission forward.
    pub(crate) fn next(&self) -> Option<RoundKey> {
        self.last.filter(|_| !self.members.is_empty())
    }

    /// Blade `b`'s clock as the per-step loop has it, with `state` its
    /// committed state: past the rounds advanced and not yet written to
    /// it, walked aside without touching it.
    pub(crate) fn clock(&self, b: usize, state: &BladeState) -> f64 {
        let run = &self.runs[b];
        let before = |s: f64| round_order(&(s, b), &self.horizon).is_lt();
        match run.plan {
            Some(plan) => {
                let (_, clocks) = plan.walk(run.done, Clocks::of(state), |_, s, _| before(s));
                clocks.clock
            }
            None => state.clock,
        }
    }

    /// Whether blade `b`, whose clocks are `state`'s, has every round the
    /// leapfrog advanced it by written to them.
    fn owes_nothing(&self, b: usize, state: &BladeState) -> bool {
        self.runs[b].plan.is_none() || round_order(&(state.clock, b), &self.horizon).is_ge()
    }

    /// Whether every round the leapfrog advanced is written and committed.
    pub(crate) fn settled(&self, states: &[BladeState]) -> bool {
        let settled = |m: usize| self.owes_nothing(m, &states[m]) && self.runs[m].done == 0;
        self.members.iter().all(settled)
    }
}

/// The start gates of one [`leapfrog_decode`] call: the decisions the
/// loop around the pool takes between the pool's rounds, frozen for the
/// call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gates {
    /// The pool's next idle admission, if any. Its blade could win the
    /// race and change the queue, so it bounds both gates below, and the
    /// call answers it unless a member's round comes first.
    pub(crate) idle: Option<RoundKey>,
    /// The round-start gate of members with a free batch slot: a member
    /// may skip no round that starts at or after it.
    pub(crate) open: f64,
    /// The round-start gate of members whose batch is full.
    pub(crate) full: f64,
    /// Write every member's advanced rounds to its blade before
    /// returning, as an observer's events always do.
    pub(crate) settle: bool,
}

/// Fast-forwards the members of `lf` — the pool's running blades —
/// through their pure-decode futures, bit-identical to running the
/// per-step loop's rounds in their global `(clock, blade index)` order,
/// and returns the `(clock, blade)`-minimal next action: the first member
/// round the call may not skip, or `gates.idle` when that comes first.
///
/// A member may not skip a round that starts at or after its gate
/// (`gates.open` or `gates.full`, by whether its batch is full), or
/// whose end `end_gate` refuses; nor may it run a round its plan does
/// not cover. Each skipped round touches only its own blade's state, and
/// every gate is frozen for the call, so the global order decides only
/// where the fast-forward *stops*: the cut, the minimal such round. Every
/// member round before the cut is skipped, and since every gate is at
/// most the idle admission's instant, no member round lies between that
/// admission and a later cut.
///
/// The call visits only the members that can act before the cut:
///
/// 1. Members ascend by blade. A member's first gated round within its
///    plan is walked for, except when nothing decides at round ends and
///    the cut starts no later than the member's gate — as when every gate
///    is the idle admission's instant `t`. Then only a round starting at
///    exactly `t`, by a member below the idle blade, comes first: a
///    closed-form screen rules that out without walking, and the members
///    above the idle blade are not visited at all. Until the queue's head
///    changes, `t` repeats, and the members already screened at it are
///    not visited again.
/// 2. Each member's stop — where its plan runs out, or its clock while it
///    is parked (its next round a real step) or stale — is filed in the
///    [`Tournament`] `lf.stops`. The call pops only the stops before the
///    cut, earliest first: a plan that runs out there commits, re-plans
///    (a bucket crossing just changes the constant cost), walks its new
///    plan once — to its end, noting its first gated round on the way —
///    and is filed again in O(log n); a parked member, or a stale one
///    gated at its own clock, is the cut.
///
/// The members' rounds before the answer are then owed: they reach a
/// blade only when something reads it — the loop settles a blade before
/// it steps it ([`Leapfrog::settle`]), and a plan that runs out commits.
/// Until then the member's plan stays that of its committed state, and
/// persists across calls until the loop steps the blade or the plan runs
/// out. Each member's float sequence is its own, so deferring it changes
/// no bit. With `gates.settle`, or an observer that reads events, the
/// call writes every member's rounds up to the answer to its blade
/// before returning, reusing a step-1 walk that stopped at the cut.
///
/// Events are buffered with their round key and sent in key order: an
/// observer of [`Interest::Rounds`] gets one `Step` per round, in
/// per-step order; one of [`Interest::Summaries`] gets the run-out
/// plans' `Stretch` summaries in key order, then the remaining plans' in
/// member order as they commit at the end. One of [`Interest::Nothing`]
/// gets none, and none is built.
pub(crate) fn leapfrog_decode<E: Fn(f64) -> bool>(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    lf: &mut Leapfrog,
    gates: Gates,
    end_gate: Option<E>,
    obs: &mut dyn SimObserver,
) -> Option<RoundKey> {
    let _span = profile::span(profile::Phase::Leapfrog);
    let interest = obs.interest();
    let Leapfrog {
        runs,
        starts,
        members,
        stops,
        clear,
        horizon,
        last,
        reached,
        events,
    } = lf;
    debug_assert!(
        members.iter().all(|m| {
            let run = &runs[m];
            run.stale || run.plan == DecodeStretch::plan(ctx, trace, &states[m])
        }),
        "a stored plan is stale"
    );
    let max_batch = ctx.config.max_batch as usize;
    let gate = |s: &BladeState| {
        if gates.open == gates.full || s.running.len() < max_batch {
            gates.open
        } else {
            gates.full
        }
    };
    let end_gate = end_gate.as_ref();
    // When nothing decides at round ends and the cut starts no later than
    // every gate, only a round starting at exactly the cut's instant (a
    // tie), by a member below the cut's blade, can come before it: the
    // member's screen rules one out without walking.
    let floor = end_gate.map_or(gates.open.min(gates.full), |_| f64::NEG_INFINITY);
    let screened = |m: usize, cut: RoundKey, starts: &mut [Starts]| {
        cut.0 <= floor && (m >= cut.1 || !starts[m].may_hold(cut.0))
    };
    let from = *horizon;
    let settle = gates.settle || interest != Interest::Nothing;
    let mut cut = gates.idle.unwrap_or(NEVER);
    let t = cut.0;
    let tie_screen = t <= floor;
    let lo = if tie_screen && clear.0 == t {
        clear.1
    } else {
        0
    };
    for m in members.iter_from(lo) {
        if cut.0 <= floor && m >= cut.1 {
            break;
        }
        if screened(m, cut, starts) {
            continue;
        }
        let (run, blade) = (&runs[m], &states[m]);
        let gate_s = gate(blade);
        if end_gate.is_none() && run.last < gate_s && run.end.clock < f64::INFINITY {
            // Every round of its plan starts before its gate.
            continue;
        }
        if let Some((stop, reach)) = run.gated(m, blade, gate_s, end_gate, from, cut) {
            cut = stop.unwrap_or(cut);
            if settle {
                reached[m] = Some(reach);
            }
        }
    }
    if tie_screen {
        // Every member below the cut's blade screened clear at `t`.
        *clear = (t, lo.max(cut.1));
    }
    while stops.any_before(cut) {
        let (clock, m) = stops.min();
        let (run, blade) = (&mut runs[m], &mut states[m]);
        reached[m] = None;
        if run.plan.is_some() {
            run.finish(m, blade, interest, events);
        } else if !run.stale || gate(blade) <= blade.clock {
            cut = (clock, m);
            break;
        }
        let (fresh, found) = run.replan(ctx, trace, m, blade, gate(blade), end_gate, cut);
        starts[m] = fresh;
        stops.file(m, run.stop(m, blade));
        // The member's screen changed, so the members from it on screen
        // again.
        clear.1 = clear.1.min(m);
        if let Some((stop, reach)) = found {
            cut = stop.unwrap_or(cut);
            if settle {
                reached[m] = Some(reach);
            }
        }
    }
    if settle {
        // A plan that runs out here keeps its stop: the blade's clock is
        // where it ran out. A walk whose every round came before the cut
        // stopped at it, so its clocks are the ones to write, unless an
        // observer needs each round's event.
        for m in members.iter() {
            let (run, blade) = (&mut runs[m], &mut states[m]);
            match reached[m].take() {
                Some(reach)
                    if interest != Interest::Rounds
                        && round_order(&(reach.last, m), &cut).is_lt() =>
                {
                    run.reach(m, blade, reach, interest, events);
                }
                _ => run.advance(m, blade, cut, interest, events),
            }
            if interest == Interest::Summaries {
                if let Some(kind) = run.commit(blade) {
                    // No round starts at +∞, so the summary follows every
                    // round's event, in member order.
                    let event = SimEvent {
                        blade: blade.id,
                        clock_s: blade.clock,
                        kind,
                    };
                    events.push(((f64::INFINITY, m), event));
                }
            }
        }
        *horizon = SETTLED;
    } else {
        debug_assert!(round_order(&from, &cut).is_le(), "the horizon went back");
        *horizon = cut;
    }
    let next = (cut.1 != NEVER.1).then_some(cut);
    *last = next;
    events.sort_unstable_by(|a, b| round_order(&a.0, &b.0));
    for (_, event) in events.drain(..) {
        obs.on_event(&event);
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::engine::arrival_queue;
    use crate::serving::policy::{FcfsPolicy, MaxWaitGuardPolicy, SjfPolicy};
    use proptest::prelude::*;

    /// The instants [`pool_reads_ready_times_like_a_scan`] draws arrivals,
    /// handoffs, round clocks and re-entries from: coarse, so that ties
    /// are common, and with both zeros, so that a ±0 tie must read the
    /// bits `f64::total_cmp` picks.
    const TIMES: [f64; 6] = [-0.0, 0.0, 0.5, 1.0, 1.5, 3.0];

    /// One step of a pool drive: `(kind, time, admissions, evictions)`.
    /// Kind 0 hands the next request to a handoff pool at `TIMES[time]`;
    /// anything else (and any kind on a central pool) runs a round at that
    /// clock: up to `admissions` ready heads leave, then the `evictions`
    /// youngest admitted requests re-enter at instants drawn from `TIMES`.
    type Op = (usize, usize, usize, usize);

    /// Drives `pool` through `ops` beside a plain record of its members
    /// (each waiting request's ready time, and whether it waits off the
    /// arrival axis), and checks after every step that the pool's ready
    /// times, partition shortcut and next transition equal a scan of that
    /// record. `push` hands a request to a handoff pool.
    fn drive<D: Discipline>(
        trace: &[RequestSpec],
        mut pool: Pool<D>,
        policy: &dyn SchedulerPolicy,
        push: Option<fn(&mut Pool<D>, usize, f64)>,
        ops: &[Op],
    ) -> Result<(), TestCaseError> {
        let axis: Vec<f64> = match push {
            Some(_) => Vec::new(),
            None => trace.iter().map(|r| r.arrival_s).collect(),
        };
        let mut waiting: Vec<Option<(f64, bool)>> =
            axis.iter().map(|&a| Some((a, false))).collect();
        waiting.resize(trace.len(), None);
        let (mut running, mut handed) = (Vec::new(), 0);
        for &(kind, t, admissions, evictions) in ops {
            let clock = TIMES[t];
            match push {
                Some(push) if kind == 0 => {
                    if handed < trace.len() {
                        push(&mut pool, handed, clock);
                        waiting[handed] = Some((clock, true));
                        handed += 1;
                    }
                }
                _ => {
                    pool.prepare(clock, trace, policy);
                    for _ in 0..admissions {
                        match pool.peek() {
                            Some(i) if pool.ready_at(trace, i) <= clock => {
                                pool.pop();
                                waiting[i] = None;
                                running.push(i);
                            }
                            _ => break,
                        }
                    }
                    let victims = running.split_off(running.len().saturating_sub(evictions));
                    for (j, &v) in victims.iter().enumerate() {
                        pool.requeue_victim(v);
                        waiting[v] = Some((TIMES[(t + j + evictions) % TIMES.len()], true));
                    }
                    pool.settle(|v| waiting[v].map_or(f64::NAN, |(at, _)| at));
                }
            }
            let scan = || waiting.iter().flatten();
            let lo = scan().map(|m| m.0).min_by(f64::total_cmp);
            let hi = scan().map(|m| m.0).max_by(f64::total_cmp);
            let bits = |r: Option<(f64, f64)>| r.map(|(a, b)| (a.to_bits(), b.to_bits()));
            prop_assert_eq!(pool.is_empty(), lo.is_none());
            prop_assert_eq!(pool.waiting().map(f64::to_bits), lo.map(f64::to_bits));
            prop_assert_eq!(bits(pool.ready_range()), bits(lo.zip(hi)));
            for c in TIMES.into_iter().chain([0.25, 2.0, 4.0]) {
                let uniform = scan().all(|m| m.0 <= c) || scan().all(|m| m.0 > c);
                prop_assert!(
                    pool.all_or_none_ready(c) == uniform,
                    "partition shortcut at {c}"
                );
                let off_axis = scan().filter(|m| m.1).map(|m| m.0);
                let next = axis.iter().copied().chain(off_axis).filter(|&a| a > c);
                let next = next.fold(f64::INFINITY, f64::min);
                prop_assert!(pool.next_transition(c) == next, "next transition after {c}");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Central FCFS, re-sorting and keyed pools and FCFS and
        /// re-sorting handoff pools, driven through random admissions,
        /// victims re-entering at random instants, and handoffs: the
        /// bookkeeping answers as a scan of the members does.
        #[test]
        fn pool_reads_ready_times_like_a_scan(
            arrivals in prop::collection::vec(0usize..TIMES.len(), 1..10),
            ops in prop::collection::vec((0usize..3, 0usize..TIMES.len(), 0usize..4, 0usize..3), 0..40),
        ) {
            let trace: Vec<RequestSpec> = (0u32..)
                .zip(&arrivals)
                .map(|(id, &a)| RequestSpec::new(id, TIMES[a], 8 + id % 3, 4 + id % 5))
                .collect();
            let order = || arrival_queue(&trace);
            let max_wait = MaxWaitGuardPolicy::new(1.0);
            drive(&trace, Pool::central(&trace, order(), Fcfs::new), &FcfsPolicy, None, &ops)?;
            drive(&trace, Pool::central(&trace, order(), Resort::new), &max_wait, None, &ops)?;
            let keyed = Pool::central(&trace, order(), |q| KeyedQueue::new(&SjfPolicy, &trace, q));
            drive(&trace, keyed, &SjfPolicy, None, &ops)?;
            let handoff = Pool::handoff(&trace, Fcfs::new(VecDeque::new()));
            drive(&trace, handoff, &FcfsPolicy, Some(Pool::push), &ops)?;
            let handoff = Pool::handoff(&trace, Resort::new(VecDeque::new()));
            drive(&trace, handoff, &max_wait, Some(Pool::push), &ops)?;
        }
    }

    #[test]
    fn keyed_queue_matches_repeated_stable_sorts() {
        // Three arrived requests with SJF keys, plus a victim re-queued
        // twice: the incremental set must hand out the same heads as
        // push_front + stable re-sort would.
        let trace = vec![
            RequestSpec::new(0, 0.0, 10, 5),
            RequestSpec::new(1, 0.0, 10, 5), // key-tied with 0: FCFS
            RequestSpec::new(2, 0.0, 10, 2), // shortest: first
        ];
        let mut sq = KeyedQueue::new(&SjfPolicy, &trace, (0..3).collect());
        sq.prepare(0.0, &trace, &SjfPolicy);
        assert_eq!(sq.peek(), Some(2));
        sq.pop();
        assert_eq!(sq.peek(), Some(0), "stable tie keeps arrival order");
        sq.pop();
        // Victim 0 re-enters: ahead of its key-tie 1.
        sq.requeue_victim(0);
        assert_eq!(sq.peek(), Some(0));
        // Victim 2 re-enters: smallest key, ahead of everything.
        sq.requeue_victim(2);
        assert_eq!(sq.peek(), Some(2));
        sq.pop();
        sq.pop();
        assert_eq!(sq.peek(), Some(1));
        sq.pop();
        assert!(sq.is_empty());
    }

    #[test]
    fn central_keyed_queue_demotes_blocked_victims_like_the_partition() {
        // SJF keys: 2 is shortest, 0 and 1 are key-tied. A victim whose
        // re-entry time is in the future must sit out the round and then
        // fall behind its key-ties, exactly as the reference's
        // sort-then-partition sequence would leave it.
        let trace = vec![
            RequestSpec::new(0, 0.0, 10, 5),
            RequestSpec::new(1, 0.0, 10, 5),
            RequestSpec::new(2, 0.0, 10, 2),
        ];
        let mut q = Pool::central(&trace, (0..3).collect(), |order| {
            KeyedQueue::new(&SjfPolicy, &trace, order)
        });
        q.queue.prepare(0.0, &trace, &SjfPolicy);
        assert_eq!(q.peek(), Some(2));
        q.pop();
        q.pop(); // admits 0 (stable tie keeps arrival order)
        assert_eq!(q.admitted, vec![2, 0]);
        q.admitted.clear();
        // 0 is evicted; it re-enters at t=5.0, ahead of its tie 1 for now.
        q.requeue_victim(0);
        q.settle(|_| 5.0);
        assert_eq!(q.peek(), Some(0));
        // At t=1.0 the victim is blocked: extraction hides it from the
        // scan, restore demotes it behind tie 1.
        q.queue.extract_blocked(1.0, &q.ready);
        assert_eq!(q.peek(), Some(1));
        q.queue.restore_blocked();
        assert_eq!(q.peek(), Some(1), "demoted victim stays behind its tie");
        assert_eq!(q.ready_depth(1.0), 1);
        assert_eq!(q.ready_depth(5.0), 2);
        // Once ready, nothing is extracted and it runs after the tie.
        q.queue.extract_blocked(5.0, &q.ready);
        q.queue.restore_blocked();
        q.pop();
        q.pop();
        assert_eq!(q.admitted, vec![1, 0]);
        assert!(q.is_empty());
    }

    #[test]
    fn fcfs_gate_and_fast_forward_use_the_head() {
        let trace = vec![
            RequestSpec::new(0, 2.0, 8, 4),
            RequestSpec::new(1, 5.0, 8, 4),
        ];
        let sq = Fcfs::new((0..2).collect());
        assert_eq!(sq.idle_target(&trace), Some(2.0));
        assert_eq!(sq.admission_gate(&trace, 1.0), Gate::Blocked(2.0));
        assert_eq!(sq.admission_gate(&trace, 2.0), Gate::Ready);
        let empty = Fcfs::new(VecDeque::new());
        assert_eq!(empty.admission_gate(&trace, 0.0), Gate::Empty);
        assert_eq!(empty.idle_target(&trace), None);
    }

    #[test]
    fn pool_records_admissions_and_victims() {
        let trace = vec![
            RequestSpec::new(0, 0.0, 8, 4),
            RequestSpec::new(1, 0.0, 8, 4),
        ];
        let mut pool = Pool::central(&trace, VecDeque::from([0, 1]), Fcfs::new);
        assert_eq!(pool.peek(), Some(0));
        pool.pop();
        pool.requeue_victim(0);
        assert_eq!(pool.peek(), Some(0));
        assert_eq!(pool.admitted, vec![0]);
        assert_eq!(pool.victims, vec![0]);
        assert_eq!(pool.queue.0, VecDeque::from([0, 1]));
        // Settling stamps the victim's re-entry and forgets the round.
        pool.settle(|_| 2.5);
        assert_eq!(pool.ready_at(&trace, 0), 2.5);
        assert!(pool.admitted.is_empty() && pool.victims.is_empty());
    }

    #[test]
    fn pool_transitions_follow_the_axis_and_off_axis_members() {
        // Central dispatch: the next transition is the next arrival until
        // a victim re-enters off the axis at an earlier instant.
        let trace = vec![
            RequestSpec::new(0, 0.0, 8, 4),
            RequestSpec::new(1, 3.0, 8, 4),
        ];
        let mut pool = Pool::central(&trace, VecDeque::from([0, 1]), Fcfs::new);
        assert_eq!(pool.next_transition(0.0), 3.0);
        assert!(!pool.partition_observable());
        pool.pop();
        pool.requeue_victim(0);
        pool.settle(|_| 1.5);
        assert_eq!(pool.next_transition(0.0), 1.5);
        assert!(pool.partition_observable());
        // A handoff pool has no axis: only its members' ready times count.
        let mut handoff = Pool::handoff(&trace, Fcfs::new(VecDeque::new()));
        assert_eq!(handoff.next_transition(0.0), f64::INFINITY);
        handoff.push(1, 4.0);
        assert_eq!(handoff.next_transition(0.0), 4.0);
        assert_eq!(handoff.waiting(), Some(4.0));
        assert!(handoff.streamed() && !pool.streamed());
    }
}
