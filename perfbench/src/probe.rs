//! The benchmark's own observer: a [`Probe`] attached through
//! `RunSession::new`'s `extra` slot that totals the engine and channel
//! counters (and, in the traced build, their phase timers) over a whole
//! run, across park/resume cycles.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use decay_core::telemetry::{Counter, CounterSnapshot, Timer};
use decay_scenario::{PauseCtx, Probe};

/// Run totals of the engine and backend counter sinks.
///
/// A restore rebuilds both sinks at zero, so the probe differences
/// each pause against the previous one and re-baselines after every
/// resume the driver reports through [`ResumeMark`]. The totals are
/// therefore the same whether a run was parked or not.
#[derive(Debug, Default)]
pub struct LayerProbe {
    resumed: Arc<AtomicBool>,
    baseline: CounterSnapshot,
    total: CounterSnapshot,
    deliveries: u64,
    queue_high_water: u64,
}

/// The driver's handle for telling a [`LayerProbe`] that its session
/// was resumed onto freshly built sinks.
#[derive(Debug, Clone)]
pub struct ResumeMark(Arc<AtomicBool>);

impl ResumeMark {
    /// Call after every successful `RunSession::resume`.
    pub fn note_resume(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl LayerProbe {
    /// A probe with zero totals.
    pub fn new() -> Self {
        LayerProbe::default()
    }

    /// The handle the driver marks resumes through.
    pub fn resume_mark(&self) -> ResumeMark {
        ResumeMark(Arc::clone(&self.resumed))
    }

    /// One counter's run total.
    pub fn count(&self, counter: Counter) -> u64 {
        self.total.get(counter)
    }

    /// One timer's run total in seconds; 0 in the untimed build.
    pub fn seconds(&self, timer: Timer) -> f64 {
        self.total.timer_ns(timer).unwrap_or(0) as f64 * 1e-9
    }

    /// Messages delivered by the last pause seen (engine stats are
    /// carried through the checkpoint, so this is already a run total).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Deepest the event queue has been.
    pub fn queue_high_water(&self) -> u64 {
        self.queue_high_water
    }

    fn observe(&mut self, ctx: &PauseCtx<'_>) {
        let backend = ctx
            .backend
            .telemetry()
            .map(|c| c.snapshot())
            .unwrap_or_default();
        let now = ctx.counters.snapshot().merge(&backend);
        if self.resumed.swap(false, Ordering::SeqCst) {
            self.baseline = CounterSnapshot::default();
        }
        self.total = self.total.merge(&now.delta_since(&self.baseline));
        self.baseline = now;
        self.deliveries = ctx.stats.deliveries;
        self.queue_high_water = self.queue_high_water.max(ctx.stats.queue_high_water);
    }
}

impl Probe for LayerProbe {
    fn on_start(&mut self, ctx: &PauseCtx<'_>) {
        self.observe(ctx);
    }

    fn on_pause(&mut self, ctx: &PauseCtx<'_>) {
        self.observe(ctx);
    }

    fn on_finish(&mut self, ctx: &PauseCtx<'_>) {
        self.observe(ctx);
    }
}
