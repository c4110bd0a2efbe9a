//! A delegating [`SchedulerPolicy`] that times `order_queue` and counts
//! `order_key`, so the traced run can attribute replay time to the
//! policy layer without any instrumentation inside the simulator.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use optimus::serving::{OrderingContract, RequestSpec, RunningSeq, SchedulerPolicy, SloClass};

/// Totals one timed replay accumulated. Shared by every clone of the
/// wrapper, since the scenario clones its policy once per simulator.
#[derive(Debug, Default)]
pub struct PolicyStats {
    order_calls: AtomicU64,
    order_ns: AtomicU64,
    key_calls: AtomicU64,
}

impl PolicyStats {
    /// `order_queue` calls.
    pub fn order_calls(&self) -> u64 {
        self.order_calls.load(Relaxed)
    }

    /// Wall-clock seconds inside `order_queue`.
    pub fn order_s(&self) -> f64 {
        self.order_ns.load(Relaxed) as f64 * 1e-9
    }

    /// `order_key` calls (counted only: each is too short to time).
    pub fn key_calls(&self) -> u64 {
        self.key_calls.load(Relaxed)
    }
}

/// Forwards every [`SchedulerPolicy`] method to `inner` unchanged.
#[derive(Debug, Clone)]
pub struct TimedPolicy<P> {
    inner: P,
    stats: Arc<PolicyStats>,
}

impl<P> TimedPolicy<P> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: P, stats: Arc<PolicyStats>) -> Self {
        Self { inner, stats }
    }
}

impl<P: SchedulerPolicy> SchedulerPolicy for TimedPolicy<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind_classes(&mut self, classes: &[SloClass]) {
        self.inner.bind_classes(classes);
    }

    fn ordering(&self) -> OrderingContract {
        self.inner.ordering()
    }

    fn order_key(&self, request: &RequestSpec) -> u64 {
        self.stats.key_calls.fetch_add(1, Relaxed);
        self.inner.order_key(request)
    }

    fn order_queue(&self, clock: f64, trace: &[RequestSpec], queue: &mut VecDeque<usize>) {
        let started = Instant::now();
        self.inner.order_queue(clock, trace, queue);
        let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.order_calls.fetch_add(1, Relaxed);
        self.stats.order_ns.fetch_add(ns, Relaxed);
    }

    fn evict_victim(&self, trace: &[RequestSpec], running: &[RunningSeq]) -> usize {
        self.inner.evict_victim(trace, running)
    }
}
