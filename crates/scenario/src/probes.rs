//! The scenario runner's built-in probes: every observer that was once
//! hard-coded into the drive loop, reshaped as a composable
//! [`decay_engine::probe::Probe`].
//!
//! [`MetricsProbe`] streams delivery batches into a
//! [`MetricsCollector`]; [`decay_channel::MetricityMonitor`] and
//! [`decay_engine::WindowedPrr`] plug in unchanged. All of them are
//! read-only, so any subset can be attached without perturbing the
//! digest (enforced by the probe-transparency proptest under
//! `tests/`).

use decay_engine::probe::{PauseCtx, Probe};

use crate::metrics::MetricsCollector;

/// Streams every pause's delivery batch into a [`MetricsCollector`].
#[derive(Debug, Default)]
pub struct MetricsProbe {
    collector: MetricsCollector,
}

impl MetricsProbe {
    /// An empty probe.
    pub fn new() -> Self {
        MetricsProbe::default()
    }

    /// Consumes the probe, yielding the collector for
    /// [`MetricsCollector::finish`].
    pub fn into_collector(self) -> MetricsCollector {
        self.collector
    }
}

impl Probe for MetricsProbe {
    fn on_pause(&mut self, ctx: &PauseCtx<'_>) {
        self.collector.observe_all(ctx.batch);
    }

    fn on_finish(&mut self, ctx: &PauseCtx<'_>) {
        self.collector.observe_all(ctx.batch);
    }
}
