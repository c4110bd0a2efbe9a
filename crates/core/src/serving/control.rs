//! The online control plane: load-shedding admission control and a
//! queue-depth autoscaler.
//!
//! PR 4 made SLO classes an *accounting* concept — every report slices
//! goodput and attainment per class, but the decision path (who runs,
//! who waits, how many blades exist) stayed class-blind. This module
//! holds the configuration and runtime state that close the loop:
//!
//! * [`AdmissionControl`] — protect one *strict* class under overload by
//!   shedding best-effort requests at the admission boundary whenever
//!   the strict class's observed attainment drops below a floor, with
//!   shed/unshed hysteresis so a single bad completion does not flap the
//!   gate. Shed requests are dropped (never run) and reported via
//!   [`ServingReport::shed_requests`](super::report::ServingReport::shed_requests)
//!   and per class.
//! * [`AutoscaleConfig`] — scale the active blade count of a
//!   central-queue cluster up and down between replayed events, driven
//!   by queue-depth watermarks with a cooldown (hysteresis in time) and
//!   a warm-up delay per added blade.
//! * [`ControlPlane`] — the [`Scenario`](super::scenario::Scenario)
//!   surface bundling both, wired in via
//!   [`Scenario::control`](super::scenario::Scenario::control).
//!
//! Both mechanisms are **deterministic**: the shed gate updates only on
//! strict-class completions (which always occur in real engine steps on
//! both simulation cores) and sheds only at admission-capable instants,
//! and the autoscaler evaluates once per central-queue dispatch round —
//! so event-driven and per-step replays stay bit-identical, and a
//! scenario with no control plane is provably untouched (pinned by the
//! regression and property suites).

use super::report::SloClass;
use crate::error::OptimusError;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Load-shedding admission control: when the observed SLO attainment of
/// `strict_class` over a sliding window of its completions falls below
/// `floor`, the engine starts *shedding* — requests of every other class
/// are dropped at the moment they would have been admitted — until
/// attainment recovers to `floor + resume_margin` (hysteresis).
///
/// Strict-class requests are **never** shed (property-tested), and a
/// replay whose config carries no `AdmissionControl` takes none of these
/// branches, so class-blind scenarios stay bit-identical to their PR 6
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionControl {
    /// Index (into the scenario's SLO-class table) of the protected
    /// class whose attainment drives the gate.
    pub strict_class: u32,
    /// Attainment floor in `(0, 1]`: shedding starts when the windowed
    /// strict-class attainment drops below this.
    pub floor: f64,
    /// Hysteresis margin: shedding stops only once windowed attainment
    /// reaches `floor + resume_margin` (so `floor + resume_margin <= 1`).
    pub resume_margin: f64,
    /// Number of most-recent strict-class completions the attainment is
    /// computed over.
    pub window: u32,
    /// Completions required before the gate may act at all (avoids
    /// flapping on the first few observations).
    pub min_observations: u32,
}

impl AdmissionControl {
    /// Shedding gate protecting `strict_class` at attainment `floor`,
    /// with a 0.05 resume margin over a 32-completion window (at least
    /// 8 observations before acting).
    #[must_use]
    pub fn new(strict_class: u32, floor: f64) -> Self {
        Self {
            strict_class,
            floor,
            resume_margin: 0.05,
            window: 32,
            min_observations: 8,
        }
    }

    /// Overrides the unshed hysteresis margin.
    #[must_use]
    pub fn with_resume_margin(mut self, resume_margin: f64) -> Self {
        self.resume_margin = resume_margin;
        self
    }

    /// Overrides the observation window and the minimum observation
    /// count before the gate acts.
    #[must_use]
    pub fn with_window(mut self, window: u32, min_observations: u32) -> Self {
        self.window = window;
        self.min_observations = min_observations;
        self
    }

    pub(crate) fn validate(&self, classes: &[SloClass]) -> Result<(), OptimusError> {
        let err = |reason: String| Err(OptimusError::Serving { reason });
        if self.strict_class as usize >= classes.len() {
            return err(format!(
                "admission control protects class {} but only {} SLO class(es) are defined",
                self.strict_class,
                classes.len()
            ));
        }
        if classes.len() < 2 {
            return err(
                "admission control needs at least two SLO classes (a strict one to protect \
                 and a best-effort one to shed)"
                    .into(),
            );
        }
        if !(self.floor.is_finite() && self.floor > 0.0 && self.floor <= 1.0) {
            return err(format!(
                "admission-control floor must lie in (0, 1], got {}",
                self.floor
            ));
        }
        if !(self.resume_margin.is_finite() && self.resume_margin >= 0.0)
            || self.floor + self.resume_margin > 1.0
        {
            return err(format!(
                "admission-control resume margin must satisfy 0 <= margin and \
                 floor + margin <= 1, got floor {} margin {}",
                self.floor, self.resume_margin
            ));
        }
        if self.window == 0 || self.min_observations == 0 || self.min_observations > self.window {
            return err(format!(
                "admission-control window needs 1 <= min_observations <= window, \
                 got window {} min_observations {}",
                self.window, self.min_observations
            ));
        }
        Ok(())
    }
}

/// Queue-depth autoscaler for a central-queue cluster: between dispatch
/// rounds the active blade count grows when the number of *ready*
/// queued requests reaches `high_watermark` and shrinks (only onto an
/// idle blade) when it falls to `low_watermark`, bounded to
/// `[min_blades, max_blades]`. Every scale event starts a `cooldown_s`
/// quiet period, and a freshly added blade only accepts work `warmup_s`
/// after the decision (model/runtime bring-up cost).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Blades active at replay start and the scale-down lower bound.
    pub min_blades: u32,
    /// Scale-up upper bound (at most the topology's blade pool).
    pub max_blades: u32,
    /// Ready-queue depth at or above which one blade is added.
    pub high_watermark: u32,
    /// Ready-queue depth at or below which one idle blade is retired.
    pub low_watermark: u32,
    /// Bring-up delay (s): an added blade starts serving this long after
    /// the scale-up decision.
    pub warmup_s: f64,
    /// Minimum time (s) between consecutive scale events (hysteresis in
    /// time — bounds flapping).
    pub cooldown_s: f64,
}

impl AutoscaleConfig {
    /// Autoscaler between `min_blades` and `max_blades` with watermarks
    /// 8 (up) / 1 (down), 0.5 s warm-up and 1 s cooldown.
    #[must_use]
    pub fn new(min_blades: u32, max_blades: u32) -> Self {
        Self {
            min_blades,
            max_blades,
            high_watermark: 8,
            low_watermark: 1,
            warmup_s: 0.5,
            cooldown_s: 1.0,
        }
    }

    /// Overrides the scale-down / scale-up queue-depth watermarks.
    #[must_use]
    pub fn with_watermarks(mut self, low: u32, high: u32) -> Self {
        self.low_watermark = low;
        self.high_watermark = high;
        self
    }

    /// Overrides the per-blade bring-up delay.
    #[must_use]
    pub fn with_warmup(mut self, warmup_s: f64) -> Self {
        self.warmup_s = warmup_s;
        self
    }

    /// Overrides the inter-event cooldown.
    #[must_use]
    pub fn with_cooldown(mut self, cooldown_s: f64) -> Self {
        self.cooldown_s = cooldown_s;
        self
    }

    pub(crate) fn validate(&self, pool_blades: u32) -> Result<(), OptimusError> {
        let err = |reason: String| Err(OptimusError::Serving { reason });
        if self.min_blades == 0 || self.min_blades > self.max_blades {
            return err(format!(
                "autoscaler bounds need 1 <= min_blades <= max_blades, got {}..={}",
                self.min_blades, self.max_blades
            ));
        }
        if self.max_blades > pool_blades {
            return err(format!(
                "autoscaler max_blades {} exceeds the topology's {} blade(s)",
                self.max_blades, pool_blades
            ));
        }
        if self.low_watermark >= self.high_watermark {
            return err(format!(
                "autoscaler watermarks need low < high, got low {} high {}",
                self.low_watermark, self.high_watermark
            ));
        }
        let nonneg = |v: f64| v.is_finite() && v >= 0.0;
        if !nonneg(self.warmup_s) || !nonneg(self.cooldown_s) {
            return err(format!(
                "autoscaler warm-up and cooldown must be finite and non-negative, \
                 got warmup {} cooldown {}",
                self.warmup_s, self.cooldown_s
            ));
        }
        Ok(())
    }
}

/// The control-plane bundle a [`Scenario`](super::scenario::Scenario)
/// attaches via [`Scenario::control`](super::scenario::Scenario::control):
/// either half is optional, and an empty `ControlPlane` is exactly a
/// scenario without one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlPlane {
    /// Load-shedding gate (engine-level; any topology except
    /// disaggregated).
    pub admission: Option<AdmissionControl>,
    /// Blade autoscaler (cluster-level; central dispatch on a mixed
    /// topology only).
    pub autoscale: Option<AutoscaleConfig>,
}

impl ControlPlane {
    /// An empty control plane (no shedding, no autoscaling).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables the load-shedding admission gate.
    #[must_use]
    pub fn shed(mut self, admission: AdmissionControl) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Enables the blade autoscaler.
    #[must_use]
    pub fn autoscale(mut self, autoscale: AutoscaleConfig) -> Self {
        self.autoscale = Some(autoscale);
        self
    }
}

/// Runtime state of one shedding gate: the sliding strict-class
/// attainment window and the hysteresis latch. It holds no per-request
/// record; which requests were shed lives in the replay's outcomes. The
/// window is scored with the strict class's own
/// [`SloClass::met`], the predicate the report applies, so the online
/// verdict and the report's agree by construction.
#[derive(Debug, Clone)]
pub(crate) struct ControlState {
    cfg: AdmissionControl,
    strict: SloClass,
    shedding: bool,
    recent: VecDeque<bool>,
    met: u32,
}

impl ControlState {
    pub(crate) fn new(cfg: AdmissionControl, strict: SloClass) -> Self {
        Self {
            cfg,
            strict,
            shedding: false,
            recent: VecDeque::with_capacity(cfg.window as usize + 1),
            met: 0,
        }
    }

    /// The protected class index.
    pub(crate) fn strict_class(&self) -> u32 {
        self.cfg.strict_class
    }

    /// Whether a request of `class` would be shed right now. Strict-class
    /// requests never are.
    pub(crate) fn should_shed(&self, class: u32) -> bool {
        self.shedding && class != self.cfg.strict_class
    }

    /// Feeds one strict-class completion (its TTFT and per-token time)
    /// into the sliding window and moves the hysteresis latch.
    pub(crate) fn observe_strict(&mut self, ttft: f64, tpot: f64) {
        let met_slo = self.strict.met(ttft, tpot);
        self.recent.push_back(met_slo);
        if met_slo {
            self.met += 1;
        }
        if self.recent.len() > self.cfg.window as usize && self.recent.pop_front() == Some(true) {
            self.met -= 1;
        }
        if (self.recent.len() as u32) < self.cfg.min_observations {
            return;
        }
        let attainment = f64::from(self.met) / self.recent.len() as f64;
        if self.shedding {
            if attainment >= self.cfg.floor + self.cfg.resume_margin {
                self.shedding = false;
            }
        } else if attainment < self.cfg.floor {
            self.shedding = true;
        }
    }
}

/// Runtime state of one autoscaler: the active-blade count, the
/// cooldown timestamp and the event counters the cluster report exposes.
#[derive(Debug, Clone)]
pub(crate) struct ScaleState {
    cfg: AutoscaleConfig,
    active: u32,
    last_event_s: f64,
    events: u32,
    peak_active: u32,
}

impl ScaleState {
    pub(crate) fn new(cfg: AutoscaleConfig) -> Self {
        Self {
            cfg,
            active: cfg.min_blades,
            last_event_s: f64::NEG_INFINITY,
            events: 0,
            peak_active: cfg.min_blades,
        }
    }

    pub(crate) fn active(&self) -> u32 {
        self.active
    }

    pub(crate) fn events(&self) -> u32 {
        self.events
    }

    pub(crate) fn peak_active(&self) -> u32 {
        self.peak_active
    }

    pub(crate) fn warmup_s(&self) -> f64 {
        self.cfg.warmup_s
    }

    /// The exact cooldown predicate [`Self::evaluate`] opens with: while
    /// it holds, an evaluation at `now` returns `None` with no side
    /// effects. [`Self::end_gate`] re-applies it at every skipped round's
    /// end.
    fn in_cooldown(&self, now: f64) -> bool {
        now - self.last_event_s < self.cfg.cooldown_s
    }

    /// The round-end gate of a leapfrog over the active blades, whose
    /// earliest member clock is `x`: whether an evaluation at a skipped
    /// round's end `t` is provably a no-op. The top active blade's
    /// idleness `top_blade_idle` is frozen for the whole leapfrog (no
    /// skipped round completes a sequence or admits one), and until the
    /// pool's next ready-time transition `transition_s` after `x` the
    /// ready depth stays `ready_depth`, its value at `x`. So a round may
    /// end at `t` while the scaler is [in cooldown](Self::in_cooldown) at
    /// `t`, or while `t < transition_s` and those signals fire no
    /// watermark branch of [`Self::evaluate`] — or at any `t` when no
    /// depth could fire one.
    pub(crate) fn end_gate(
        &self,
        ready_depth: usize,
        top_blade_idle: bool,
        transition_s: f64,
    ) -> impl Fn(f64) -> bool + '_ {
        let depth = ready_depth as u64;
        let can_grow = self.active < self.cfg.max_blades;
        let can_shrink = self.active > self.cfg.min_blades && top_blade_idle;
        let quiet_until_s = if !can_grow && !can_shrink {
            f64::INFINITY
        } else if (can_grow && depth >= u64::from(self.cfg.high_watermark))
            || (can_shrink && depth <= u64::from(self.cfg.low_watermark))
        {
            f64::NEG_INFINITY
        } else {
            transition_s
        };
        move |t| t < quiet_until_s || self.in_cooldown(t)
    }

    /// One watermark evaluation at time `now` with `ready_depth` queued
    /// requests ready to run; `top_blade_idle` reports whether the
    /// highest-indexed active blade holds no running work (the only one
    /// scale-down may retire). Returns `(from, to)` when the active
    /// count changed.
    pub(crate) fn evaluate(
        &mut self,
        now: f64,
        ready_depth: usize,
        top_blade_idle: bool,
    ) -> Option<(u32, u32)> {
        if self.in_cooldown(now) {
            return None;
        }
        let depth = ready_depth as u64;
        let from = self.active;
        if depth >= u64::from(self.cfg.high_watermark) && self.active < self.cfg.max_blades {
            self.active += 1;
        } else if depth <= u64::from(self.cfg.low_watermark)
            && self.active > self.cfg.min_blades
            && top_blade_idle
        {
            self.active -= 1;
        } else {
            return None;
        }
        self.last_event_s = now;
        self.events += 1;
        self.peak_active = self.peak_active.max(self.active);
        Some((from, self.active))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_classes() -> Vec<SloClass> {
        vec![SloClass::interactive(), SloClass::batch()]
    }

    #[test]
    fn admission_gate_latches_with_hysteresis() {
        let cfg = AdmissionControl::new(0, 0.5)
            .with_resume_margin(0.25)
            .with_window(4, 2);
        cfg.validate(&two_classes()).unwrap();
        let mut st = ControlState::new(cfg, SloClass::new("strict", 1.0, 0.1));
        assert_eq!(st.strict_class(), 0);
        let (hit, miss) = ((0.5, 0.05), (2.0, 0.05));
        // Too few observations: one miss cannot trip the gate.
        st.observe_strict(miss.0, miss.1);
        assert!(!st.should_shed(1));
        // A second miss (attainment 0/2 < 0.5) trips it — but never
        // against the strict class itself.
        st.observe_strict(miss.0, miss.1);
        assert!(st.should_shed(1) && !st.should_shed(0));
        // Recovery must clear floor + margin = 0.75: at 2/4 it stays
        // latched, at 3/4 it unsheds.
        st.observe_strict(hit.0, hit.1);
        st.observe_strict(hit.0, hit.1);
        assert!(st.should_shed(1), "2/4 < 0.75 keeps shedding");
        st.observe_strict(hit.0, hit.1);
        assert!(!st.should_shed(1), "3/4 >= 0.75 unsheds");
        // Window slides: the two early misses age out entirely.
        st.observe_strict(hit.0, hit.1);
        assert!(!st.should_shed(1));
    }

    #[test]
    fn admission_config_rejects_degenerate_dials() {
        let classes = two_classes();
        let bad = [
            AdmissionControl::new(2, 0.9), // class out of range
            AdmissionControl::new(0, 0.0), // floor not in (0, 1]
            AdmissionControl::new(0, 1.5), // floor not in (0, 1]
            AdmissionControl::new(0, 0.9).with_resume_margin(0.2), // floor+margin > 1
            AdmissionControl::new(0, 0.9).with_resume_margin(-0.1),
            AdmissionControl::new(0, 0.9).with_window(0, 0),
            AdmissionControl::new(0, 0.9).with_window(4, 5), // min_obs > window
        ];
        for cfg in bad {
            assert!(cfg.validate(&classes).is_err(), "{cfg:?}");
        }
        // A single class leaves nothing to shed.
        assert!(AdmissionControl::new(0, 0.9)
            .validate(&[SloClass::interactive()])
            .is_err());
        AdmissionControl::new(1, 0.9).validate(&classes).unwrap();
    }

    #[test]
    fn autoscaler_respects_bounds_cooldown_and_idle_gate() {
        let cfg = AutoscaleConfig::new(1, 3)
            .with_watermarks(0, 4)
            .with_cooldown(1.0);
        cfg.validate(4).unwrap();
        let mut st = ScaleState::new(cfg);
        assert_eq!(st.active(), 1);
        // Deep queue scales up; cooldown blocks an immediate second step.
        assert_eq!(st.evaluate(0.0, 10, true), Some((1, 2)));
        assert_eq!(st.evaluate(0.5, 10, true), None);
        assert_eq!(st.evaluate(1.0, 10, true), Some((2, 3)));
        // At max_blades the deep queue no longer scales.
        assert_eq!(st.evaluate(2.5, 10, true), None);
        assert_eq!(st.peak_active(), 3);
        // Scale-down needs the top blade idle.
        assert_eq!(st.evaluate(4.0, 0, false), None);
        assert_eq!(st.evaluate(4.0, 0, true), Some((3, 2)));
        // Between the watermarks nothing happens.
        assert_eq!(st.evaluate(6.0, 2, true), None);
        assert_eq!(st.evaluate(7.0, 0, true), Some((2, 1)));
        // At min_blades the empty queue no longer shrinks.
        assert_eq!(st.evaluate(9.0, 0, true), None);
        assert_eq!(st.events(), 4);
    }

    #[test]
    fn autoscale_config_rejects_degenerate_dials() {
        let bad = [
            AutoscaleConfig::new(0, 2),
            AutoscaleConfig::new(3, 2),
            AutoscaleConfig::new(1, 8), // beyond the pool
            AutoscaleConfig::new(1, 4).with_watermarks(4, 4), // low >= high
            AutoscaleConfig::new(1, 4).with_warmup(f64::NAN),
            AutoscaleConfig::new(1, 4).with_cooldown(-1.0),
        ];
        for cfg in bad {
            assert!(cfg.validate(4).is_err(), "{cfg:?}");
        }
        AutoscaleConfig::new(1, 4).validate(4).unwrap();
    }

    #[test]
    fn control_plane_builder_composes() {
        let cp = ControlPlane::new()
            .shed(AdmissionControl::new(0, 0.9))
            .autoscale(AutoscaleConfig::new(1, 4));
        assert_eq!(cp.admission.unwrap().strict_class, 0);
        assert_eq!(cp.autoscale.unwrap().max_blades, 4);
        assert_eq!(ControlPlane::default(), ControlPlane::new());
    }
}
