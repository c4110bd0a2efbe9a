//! Event-scheduling primitives of the replay loops: a lazy-deletion
//! time-ordered heap ([`EventHeap`]), the queue disciplines the loops are
//! generic over (`Discipline`, crate-internal, with the shared-queue
//! bookkeeping `Pool`), and the closed-form decode fast-forwards
//! (`DecodeStretch`, `leapfrog_decode`).
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
use super::observer::{EventKind, SimEvent, SimObserver};
use super::policy::{OrderingContract, SchedulerPolicy};
use super::telemetry::profile;
use super::traces::RequestSpec;
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

/// One pending event: a timestamp ordered by `f64::total_cmp`, with the
/// payload index breaking ties so the pop order is fully deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    time: f64,
    idx: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.idx.cmp(&other.idx))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered min-heap of `(time, index)` events with lazy deletion:
/// superseded entries stay in the heap and are discarded when they
/// surface, so updates are O(log n) pushes instead of O(n) rebuilds.
///
/// Ordering is `f64::total_cmp` on the timestamp with the index as the
/// deterministic tie-break — two heaps fed the same events always pop
/// the same sequence, which the equivalence suites rely on.
#[derive(Debug, Default)]
pub struct EventHeap {
    heap: BinaryHeap<Reverse<Entry>>,
}

impl EventHeap {
    /// An empty heap.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules event `idx` at `time`.
    pub fn push(&mut self, time: f64, idx: usize) {
        profile::heap_op();
        self.heap.push(Reverse(Entry { time, idx }));
    }

    /// Pops the earliest event (ties broken by lowest index).
    pub fn pop(&mut self) -> Option<(f64, usize)> {
        profile::heap_op();
        self.heap.pop().map(|Reverse(e)| (e.time, e.idx))
    }

    /// Returns the earliest event for which `valid(time, idx)` holds,
    /// permanently discarding the stale entries surfacing before it.
    /// Callers re-push an event whenever its timestamp changes, so a
    /// discarded entry is always superseded by a live one.
    pub fn peek_valid(
        &mut self,
        mut valid: impl FnMut(f64, usize) -> bool,
    ) -> Option<(f64, usize)> {
        while let Some(&Reverse(e)) = self.heap.peek() {
            if valid(e.time, e.idx) {
                return Some((e.time, e.idx));
            }
            profile::heap_op();
            self.heap.pop();
        }
        None
    }

    /// Entries currently stored (live and stale alike).
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Lazy min *and* max over the ready times of a queue's members, used by
/// the cluster event loops to answer "is every queued request eligible /
/// is none" in O(log n) amortized instead of re-scanning the queue. The
/// max side stores negated times — an exact (sign-bit) transform — in a
/// second min-heap.
#[derive(Debug, Default)]
pub(crate) struct ReadyWindow {
    lo: EventHeap,
    hi: EventHeap,
}

impl ReadyWindow {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers, after a ready-time change) member
    /// `idx` with ready time `time`.
    pub(crate) fn push(&mut self, time: f64, idx: usize) {
        self.lo.push(time, idx);
        self.hi.push(-time, idx);
    }

    /// The smallest ready time among live members (`in_queue[idx]` with
    /// `ready[idx]` bit-equal to the registered time).
    pub(crate) fn min(&mut self, in_queue: &[bool], ready: &[f64]) -> Option<f64> {
        self.lo
            .peek_valid(|t, i| in_queue[i] && ready[i].to_bits() == t.to_bits())
            .map(|(t, _)| t)
    }

    /// The largest ready time among live members.
    pub(crate) fn max(&mut self, in_queue: &[bool], ready: &[f64]) -> Option<f64> {
        self.hi
            .peek_valid(|t, i| in_queue[i] && ready[i].to_bits() == (-t).to_bits())
            .map(|(t, _)| -t)
    }
}

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
///   ranks in an ordered set; they read ready times off a
///   [`ReadyWindow`], skip partitions that are provably the identity,
///   and let the loops fast-forward pure-decode rounds.
pub(crate) trait Discipline: AdmissionQueue + Sized {
    /// The per-step reference (see the trait docs).
    const EXHAUSTIVE: bool;
    /// Whether [`Self::prepare`] re-sorts from scratch, so the order a
    /// skipped round's partition would have left is erased anyway.
    const RESORTS: bool;

    /// Whether any request is still waiting.
    fn is_empty(&self) -> bool;

    /// Brings the order up to date at `clock` — the moment the per-step
    /// loop re-sorts before stepping.
    fn prepare(&mut self, clock: f64, trace: &[RequestSpec], policy: &dyn SchedulerPolicy);

    /// The arrival an idle single blade jumps to, or `None` when the
    /// jump `clock.max(earliest arrival)` is provably a no-op.
    fn idle_target(&self, trace: &[RequestSpec]) -> Option<f64>;

    /// Members ready at `now` (the autoscaler's depth signal).
    fn ready_depth(&self, ready: &[f64], now: f64) -> usize;

    /// The round's eligibility partition at the stepping blade's `clock`:
    /// afterwards the admission scan meets every eligible member (in
    /// policy order) before any member still waiting for its ready time.
    fn partition(pool: &mut Pool<Self>, clock: f64);

    /// Ends the round's partition once the step has run.
    fn restore(&mut self) {}

    /// The earliest ready time of any member (`f64::MAX` when empty).
    fn next_ready(pool: &mut Pool<Self>) -> f64 {
        pool.window
            .min(&pool.in_queue, &pool.ready)
            .unwrap_or(f64::MAX)
    }

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

    fn ready_depth(&self, ready: &[f64], now: f64) -> usize {
        self.0.iter().filter(|&&i| ready[i] <= now).count()
    }

    /// A stable partition, skipped (outside the reference) when it is the
    /// identity: every member already eligible, or none; or — central
    /// dispatch, never re-sorted, no member off the arrival axis — the
    /// queue is in arrival order and ready times are arrivals.
    fn partition(pool: &mut Pool<Self>, clock: f64) {
        let skip = !E
            && ((!R && !pool.handoff && pool.off_axis_list.is_empty())
                || pool
                    .window
                    .max(&pool.in_queue, &pool.ready)
                    .is_none_or(|t| t <= clock)
                || pool
                    .window
                    .min(&pool.in_queue, &pool.ready)
                    .is_none_or(|t| t > clock));
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

    fn next_ready(pool: &mut Pool<Self>) -> f64 {
        if E {
            pool.queue
                .0
                .iter()
                .map(|&i| pool.ready[i])
                .fold(f64::MAX, f64::min)
        } else {
            pool.window
                .min(&pool.in_queue, &pool.ready)
                .unwrap_or(f64::MAX)
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
    in_queue: Vec<bool>,
    /// Members whose ready time is off the arrival axis, listed, and each
    /// one's place in the list by trace index (`NOT_LISTED` for others).
    off_axis_list: Vec<usize>,
    off_axis_at: Vec<u32>,
    /// Requests that left the arrival axis: admitted or shed from it,
    /// whether or not they re-entered off it since.
    left_axis: usize,
    /// Ready times of the members (not kept by the reference).
    window: ReadyWindow,
    /// The sorted arrival axis (empty for a handoff pool).
    arrivals: Vec<f64>,
    /// Members enter by handoff, at instants that follow no queue order.
    handoff: bool,
    /// Reused buffer for the members a deque partition moves behind the
    /// eligible ones (empty between rounds).
    scratch: Vec<usize>,
}

/// The [`Pool::off_axis_at`] entry of a request not off the axis.
const NOT_LISTED: u32 = u32::MAX;

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
        let mut window = ReadyWindow::new();
        if !D::EXHAUSTIVE {
            for &i in &order {
                window.push(ready[i], i);
            }
        }
        Self {
            queue: queue(order),
            in_queue: vec![true; trace.len()],
            off_axis_at: vec![NOT_LISTED; trace.len()],
            ready,
            admitted: Vec::new(),
            victims: Vec::new(),
            off_axis_list: Vec::new(),
            left_axis: 0,
            window,
            arrivals,
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
            in_queue: vec![false; trace.len()],
            off_axis_at: vec![NOT_LISTED; trace.len()],
            off_axis_list: Vec::new(),
            left_axis: 0,
            window: ReadyWindow::new(),
            arrivals: Vec::new(),
            handoff: true,
            scratch: Vec::new(),
        }
    }

    /// Whether any request is still waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The earliest ready time of any member, `None` when the pool is
    /// empty. The discipline is asked even then: its ready window drops
    /// stale entries as it answers, and the profiler counts those heap
    /// operations.
    pub(crate) fn waiting(&mut self) -> Option<f64> {
        let next = D::next_ready(self);
        (!self.is_empty()).then_some(next)
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
                self.in_queue[i] = false;
                let at = std::mem::replace(&mut self.off_axis_at[i], NOT_LISTED);
                if at != NOT_LISTED {
                    self.off_axis_list.swap_remove(at as usize);
                    if let Some(&moved) = self.off_axis_list.get(at as usize) {
                        self.off_axis_at[moved] = at;
                    }
                } else {
                    self.left_axis += 1;
                }
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

    /// Registers member `idx` at its (off-axis) ready time.
    fn enter(&mut self, idx: usize) {
        self.in_queue[idx] = true;
        if self.off_axis_at[idx] == NOT_LISTED {
            self.off_axis_at[idx] = self.off_axis_list.len() as u32;
            self.off_axis_list.push(idx);
        }
        self.window.push(self.ready[idx], idx);
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
    /// Non-passive observers still get one `Step` event per iteration —
    /// batching changes the loop shape, never the event stream. `Shed`
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
        if obs.is_passive() {
            stretch_loop!();
            self.commit(blade, done);
            // One closed-form summary replaces the skipped per-iteration
            // stream (telemetry window-buckets it; see `EventKind::Stretch`).
            if done > 0 {
                obs.emit(blade.id, blade.clock, self.stretch_event(done));
            }
        } else {
            stretch_loop!({
                // At notify, `done` completed iterations precede this one,
                // so the charged footprint matches the per-step loop's
                // `charged0 + done * growth` exactly.
                obs.emit(blade.id, blade.clock, self.step_event(done));
            });
            self.commit(blade, done);
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

/// Where a member's pass-1 walk stops: the round it may not run, and
/// whether that round is past the end of its plan (so a re-plan may
/// continue from there).
type Stop = (RoundKey, bool);

/// One running blade's membership in a cluster-wide leapfrog: its plan,
/// kept across [`leapfrog_decode`] calls, and its progress through the
/// current call.
#[derive(Debug, Clone, Copy)]
struct Run {
    blade: usize,
    /// The member's plan (`None`: parked, its next round is a real step),
    /// rebased past the rounds earlier calls committed.
    plan: Option<DecodeStretch>,
    /// The plan is out of date: the loop stepped the blade, or the plan
    /// ran out. The next call plans afresh.
    stale: bool,
    /// This call's round-start gate.
    gate_s: f64,
    /// Rounds this call advanced under `plan`; `done == max_iters` means
    /// the plan ran out and was committed.
    done: u64,
    /// Pass 1's walk: the rounds of `plan` it has cleared and the start
    /// clock of the next one. It runs ahead of the blade's clock, which
    /// pass 2 moves only up to each cut.
    walked: u64,
    walk_s: f64,
    /// Whether the walk has ended at its stop, round `walk_s`, and if so
    /// whether that round is past the end of the plan.
    stopped: Option<bool>,
}

impl Run {
    /// A blade's run before it first joins.
    fn new(blade: usize) -> Self {
        Self {
            blade,
            plan: None,
            stale: true,
            gate_s: f64::INFINITY,
            done: 0,
            walked: 0,
            walk_s: 0.0,
            stopped: None,
        }
    }

    /// Restarts pass 1's walk at `clock`, the blade's clock after `done`
    /// rounds of `plan`.
    fn rewalk(&mut self, clock: f64) {
        self.walked = self.done;
        self.walk_s = clock;
        self.stopped = None;
    }

    /// Pass 1: the earlier of `cut`, the earliest stop among the members
    /// walked so far, and this member's stop — its first round start from
    /// its clock on that the leapfrog may not run: gated at its start or
    /// by `end_gate` at its end, parked, or past the end of its plan. The
    /// walk quits once it reaches `cut`. It repeats pass 2's clock
    /// additions without touching state, and resumes where it last ended,
    /// since the gates are frozen for the whole [`leapfrog_decode`] call;
    /// only a re-plan restarts it.
    fn stop(&mut self, cut: Option<Stop>, end_gate: &impl Fn(f64) -> bool) -> Option<Stop> {
        let blade = self.blade;
        let before = |c: f64| cut.is_none_or(|(key, _)| round_order(&(c, blade), &key).is_lt());
        if self.stopped.is_none() {
            let mut replan = self.plan.is_some();
            if let Some(plan) = self.plan {
                while self.walked < plan.max_iters {
                    let c = self.walk_s;
                    if !before(c) {
                        return cut;
                    }
                    // A round whose end the end gate refuses parks the
                    // member: the loop must run it to take its decision.
                    let next = c + plan.cost;
                    if self.gate_s <= c || !end_gate(next) {
                        replan = false;
                        break;
                    }
                    self.walk_s = next;
                    self.walked += 1;
                }
            }
            self.stopped = Some(replan);
        }
        match self.stopped {
            Some(replan) if before(self.walk_s) => Some(((self.walk_s, blade), replan)),
            _ => cut,
        }
    }

    /// Pass 2: advances the member through its rounds before `cut` with
    /// the per-step loop's float operations, buffering each round's
    /// events under its key. A plan that runs out commits at once, its
    /// `Stretch` summary keyed by its last round.
    fn advance(
        &mut self,
        blade: &mut BladeState,
        cut: RoundKey,
        passive: bool,
        events: &mut Vec<(RoundKey, SimEvent)>,
    ) {
        let Some(plan) = self.plan else { return };
        let weighted = plan.cost * f64::from(plan.batch);
        while self.done < plan.max_iters && round_order(&(blade.clock, self.blade), &cut).is_lt() {
            let start = blade.clock;
            blade.decode_time_s += plan.cost;
            blade.batch_time_weighted += weighted;
            blade.busy_s += plan.cost;
            blade.clock = start + plan.cost;
            let (blade_id, clock_s) = (blade.id, blade.clock);
            let event = |kind| {
                let event = SimEvent {
                    blade: blade_id,
                    clock_s,
                    kind,
                };
                ((start, self.blade), event)
            };
            if !passive {
                // `done` completed rounds of this plan precede this one,
                // matching the per-step loop's charged footprint.
                events.push(event(plan.step_event(self.done)));
            }
            self.done += 1;
            if self.done == plan.max_iters {
                plan.commit(blade, self.done);
                if passive {
                    events.push(event(plan.stretch_event(self.done)));
                }
            }
        }
    }
}

/// A replay loop's leapfrog state over one blade pool, reused across its
/// [`leapfrog_decode`] calls so no call allocates: one run per running
/// blade of the pool (the members), each holding its blade's plan, and
/// the event buffer. A run joins, re-plans or leaves only when the loop
/// steps its blade ([`Self::stepped`]).
#[derive(Debug)]
pub(crate) struct Leapfrog {
    /// Per blade of the replay: its run, live while the blade is a member.
    runs: Vec<Run>,
    /// The members' blades, ascending.
    members: Vec<usize>,
    /// The call's events, keyed by their round.
    events: Vec<(RoundKey, SimEvent)>,
}

impl Leapfrog {
    /// No members yet, for a replay over `blades` blades.
    pub(crate) fn new(blades: usize) -> Self {
        Self {
            runs: (0..blades).map(Run::new).collect(),
            members: Vec::with_capacity(blades),
            events: Vec::new(),
        }
    }

    /// Files `blade` of the pool after the loop stepped it: a member, to
    /// plan afresh, while it holds running work; otherwise not one.
    pub(crate) fn stepped(&mut self, blade: usize, state: &BladeState) {
        let at = self.members.binary_search(&blade);
        if state.running.is_empty() {
            if let Ok(at) = at {
                self.members.remove(at);
            }
            return;
        }
        if let Err(at) = at {
            self.members.insert(at, blade);
        }
        self.runs[blade].stale = true;
    }

    /// The members' blades, ascending: the pool's running blades.
    pub(crate) fn members(&self) -> &[usize] {
        &self.members
    }
}

/// Fast-forwards the members of `lf` — the pool's running blades —
/// through their pure-decode futures, bit-identical to running the
/// per-step loop's rounds in their global `(clock, blade index)` order,
/// and returns the `(clock, blade)`-minimal member after it.
///
/// Each member's round-start gate is `member_gate` of its blade, and
/// `end_gate` says whether any member's skipped round may end at a given
/// clock (a round ending at +∞ never may). Each
/// skipped round touches only its own blade's state, and every gate is
/// frozen for the call, so the global order decides only where the
/// fast-forward *stops*. Two passes find and reach that point:
///
/// 1. Each member walks its clock through its current plan, without
///    touching state, to its first round that is gated (at its start by
///    its member gate, or at its end by `end_gate`), parked (no plan), or
///    past the end of its plan. The cut is the minimal such stop by
///    [`RoundKey`].
/// 2. Every member advances, on its own, through its rounds before the
///    cut.
///
/// When the cut is a plan running out, that member alone advances to it
/// and re-plans (a bucket crossing just changes the constant cost), and
/// pass 1 repeats: every other walk resumes where it ended, and only the
/// re-planned member walks from its clock again. Cuts only grow, so the
/// other members advance once, to the last cut. A gate or a park ends
/// the call — the parked member's real round is the cluster's next
/// action. Plans persist across calls in their runs, rebased past what
/// each call committed, until the loop steps the blade or the plan runs
/// out.
///
/// Events are buffered with their round key and sent in key order: a
/// non-passive observer gets one `Step` per round, in per-step order; a
/// passive one gets the run-out plans' `Stretch` summaries in key order,
/// then the remaining plans' in member order as they commit at the end.
pub(crate) fn leapfrog_decode(
    ctx: &EngineCtx<'_>,
    trace: &[RequestSpec],
    states: &mut [BladeState],
    lf: &mut Leapfrog,
    member_gate: impl Fn(&BladeState) -> f64,
    end_gate: impl Fn(f64) -> bool,
    obs: &mut dyn SimObserver,
) -> Option<RoundKey> {
    let _span = profile::span(profile::Phase::Leapfrog);
    let passive = obs.is_passive();
    let Leapfrog {
        runs,
        members,
        events,
    } = lf;
    // Set up each member for the call, and fold it into the first pass 1.
    let mut stop = None;
    for &b in members.iter() {
        let (run, blade) = (&mut runs[b], &states[b]);
        if run.stale {
            run.plan = DecodeStretch::plan(ctx, trace, blade);
            run.stale = false;
        }
        debug_assert_eq!(
            run.plan,
            DecodeStretch::plan(ctx, trace, blade),
            "blade {b}: stored plan is stale"
        );
        run.gate_s = member_gate(blade);
        run.done = 0;
        run.rewalk(blade.clock);
        stop = run.stop(stop, &end_gate);
    }
    let cut = loop {
        let Some((key, replan)) = stop else {
            break None;
        };
        if !replan {
            break Some(key);
        }
        let b = key.1;
        let (run, blade) = (&mut runs[b], &mut states[b]);
        run.advance(blade, key, passive, events);
        run.plan = DecodeStretch::plan(ctx, trace, blade);
        run.done = 0;
        run.rewalk(blade.clock);
        stop = members
            .iter()
            .fold(None, |cut, &m| runs[m].stop(cut, &end_gate));
    };
    for &b in members.iter() {
        let (run, blade) = (&mut runs[b], &mut states[b]);
        if let Some(cut) = cut {
            run.advance(blade, cut, passive, events);
        }
        match run.plan {
            Some(plan) if run.done == plan.max_iters => run.stale = true,
            Some(plan) => {
                plan.commit(blade, run.done);
                if passive && run.done > 0 {
                    // No round starts at +∞, so the summary follows every
                    // round's event, in member order.
                    let event = SimEvent {
                        blade: blade.id,
                        clock_s: blade.clock,
                        kind: plan.stretch_event(run.done),
                    };
                    events.push(((f64::INFINITY, b), event));
                }
                run.plan = Some(plan.rebase(run.done));
            }
            None => {}
        }
    }
    events.sort_unstable_by(|a, b| round_order(&a.0, &b.0));
    for (_, event) in events.drain(..) {
        obs.on_event(&event);
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::policy::SjfPolicy;

    #[test]
    fn heap_pops_in_time_then_index_order() {
        let mut h = EventHeap::new();
        h.push(2.0, 1);
        h.push(1.0, 7);
        h.push(1.0, 3);
        h.push(0.5, 9);
        assert_eq!(h.len(), 4);
        assert_eq!(h.pop(), Some((0.5, 9)));
        assert_eq!(h.pop(), Some((1.0, 3)));
        assert_eq!(h.pop(), Some((1.0, 7)));
        assert_eq!(h.pop(), Some((2.0, 1)));
        assert_eq!(h.pop(), None);
        assert!(h.is_empty());
    }

    #[test]
    fn heap_lazy_deletion_discards_stale_entries() {
        let mut h = EventHeap::new();
        h.push(1.0, 0);
        h.push(2.0, 1);
        // Entry 0 was superseded: its live time is now 3.0.
        h.push(3.0, 0);
        let live = [3.0f64, 2.0];
        assert_eq!(
            h.peek_valid(|t, i| live[i].to_bits() == t.to_bits()),
            Some((2.0, 1))
        );
        assert_eq!(h.len(), 2, "the stale entry was discarded");
    }

    #[test]
    fn ready_window_tracks_min_and_max_of_live_members() {
        let mut w = ReadyWindow::new();
        let ready = [1.0, 5.0, 3.0];
        let mut in_queue = [true, true, true];
        for (i, &t) in ready.iter().enumerate() {
            w.push(t, i);
        }
        assert_eq!(w.min(&in_queue, &ready), Some(1.0));
        assert_eq!(w.max(&in_queue, &ready), Some(5.0));
        in_queue[1] = false;
        assert_eq!(w.max(&in_queue, &ready), Some(3.0));
        in_queue[0] = false;
        assert_eq!(w.min(&in_queue, &ready), Some(3.0));
        in_queue[2] = false;
        assert_eq!(w.min(&in_queue, &ready), None);
        assert_eq!(w.max(&in_queue, &ready), None);
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
