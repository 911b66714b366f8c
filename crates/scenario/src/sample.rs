//! The session's one sample per pause: everything observed on the
//! runlog grid, computed once and read by the runlog, the report's
//! `telemetry` series, and the flight dump alike.
//!
//! The grid is every multiple of `check_interval` plus the horizon.
//! Each [`RunSample`] carries the merged engine + backend counter delta
//! over its interval. The [`Sampler`] behind it accumulates across
//! checkpoint/restore cycles (a restore rebuilds both counter sinks at
//! zero, and the sampler re-baselines there), so every interval —
//! including the one spanning a split — counts exactly the work done
//! in it.

use std::fmt::Write as _;

use decay_channel::ZetaSample;
use decay_core::telemetry::{Counter, CounterSnapshot, Timer};
use decay_engine::probe::{Directive, PauseCtx};
use decay_engine::{EngineStats, EventRecord, PrrWindowSample, Tick};

/// Deliveries drained over one sample interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliverySummary {
    /// Deliveries in the interval.
    pub count: u64,
    /// Tick of the interval's first delivery.
    pub first: Option<Tick>,
    /// Tick of the interval's last delivery.
    pub last: Option<Tick>,
}

/// One runlog-grid sample of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSample {
    /// The grid tick that closed the interval.
    pub tick: Tick,
    /// Cumulative engine counters at this tick.
    pub stats: EngineStats,
    /// Merged engine + backend counter increments over the interval
    /// (and phase-timer increments on `telemetry-timing` builds).
    pub delta: CounterSnapshot,
    /// Deliveries drained over the interval.
    pub deliveries: DeliverySummary,
    /// The ζ(t) monitor's sample, when this tick is on its grid.
    pub zeta: Option<ZetaSample>,
    /// The windowed-PRR window this tick closed, if any.
    pub prr_window: Option<PrrWindowSample>,
    /// Controller directives issued at this pause.
    pub directives: Vec<Directive>,
}

/// The split-invariant counter and delivery accumulator behind
/// [`RunSample`]s.
#[derive(Debug)]
pub(crate) struct Sampler {
    ci: Tick,
    horizon: Tick,
    /// Merged counter snapshot at the previous pause — the subtrahend
    /// for the next accumulation step. Zeroed by [`Self::note_restore`].
    baseline: CounterSnapshot,
    /// Counters accumulated over the whole run, additive across
    /// restores.
    cum: CounterSnapshot,
    /// `cum` as of the previous sample.
    at_sample: CounterSnapshot,
    pending: DeliverySummary,
    last_emitted: Option<Tick>,
}

impl Sampler {
    pub(crate) fn new(ci: Tick, horizon: Tick) -> Self {
        Sampler {
            ci,
            horizon,
            baseline: CounterSnapshot::default(),
            cum: CounterSnapshot::default(),
            at_sample: CounterSnapshot::default(),
            pending: DeliverySummary::default(),
            last_emitted: None,
        }
    }

    /// Takes the start pause's snapshot as the first baseline.
    pub(crate) fn start(&mut self, ctx: &PauseCtx<'_>) {
        self.baseline = counters_at(ctx);
    }

    /// The restored engine's sinks restart at zero.
    pub(crate) fn note_restore(&mut self) {
        self.baseline = CounterSnapshot::default();
    }

    /// Folds one pause into the accumulator. On a grid tick not yet
    /// sampled, returns the interval's counter delta and delivery
    /// summary and starts the next interval; off-grid pauses (a
    /// breakpoint) and a repeated pause at a sampled tick only
    /// accumulate.
    pub(crate) fn observe(
        &mut self,
        ctx: &PauseCtx<'_>,
    ) -> Option<(CounterSnapshot, DeliverySummary)> {
        let now = counters_at(ctx);
        self.cum = self.cum.merge(&now.delta_since(&self.baseline));
        self.baseline = now;
        self.pending.count += ctx.batch.len() as u64;
        if let Some(first) = ctx.batch.first() {
            self.pending.first.get_or_insert(first.tick);
        }
        if let Some(last) = ctx.batch.last() {
            self.pending.last = Some(last.tick);
        }
        let tick = ctx.tick;
        let due = tick > 0
            && (tick.is_multiple_of(self.ci) || tick == self.horizon)
            && self.last_emitted != Some(tick);
        if !due {
            return None;
        }
        let delta = self.cum.delta_since(&self.at_sample);
        self.at_sample = self.cum;
        self.last_emitted = Some(tick);
        Some((delta, std::mem::take(&mut self.pending)))
    }
}

/// Merged engine + backend counter snapshot at one pause (the two
/// sinks count disjoint counters).
fn counters_at(ctx: &PauseCtx<'_>) -> CounterSnapshot {
    let snap = ctx.counters.snapshot();
    match ctx.backend.telemetry() {
        Some(t) => snap.merge(&t.snapshot()),
        None => snap,
    }
}

/// Samples the flight dump prints: the tail of the series.
pub(crate) const FLIGHT_KEEP_SAMPLES: usize = 32;

/// Renders the flight recorder as the line-oriented `flight-recorder v1`
/// format: a header, one `sample` line per sample of the series' last
/// [`FLIGHT_KEEP_SAMPLES`] (non-zero counters only), and one `event`
/// line per engine event. The format is documented in the README's
/// Observability section.
pub(crate) fn dump_flight(series: &[RunSample], events: &[EventRecord]) -> String {
    let samples = &series[series.len().saturating_sub(FLIGHT_KEEP_SAMPLES)..];
    let mut out = String::from("flight-recorder v1\n");
    let _ = writeln!(out, "samples {}", samples.len());
    for s in samples {
        let _ = write!(
            out,
            "sample tick={} qhw={}",
            s.tick, s.stats.queue_high_water
        );
        for c in Counter::ALL {
            let v = s.delta.get(c);
            if v != 0 {
                let _ = write!(out, " {}={}", c.name(), v);
            }
        }
        for t in Timer::ALL {
            if let Some(ns) = s.delta.timer_ns(t).filter(|&ns| ns != 0) {
                let _ = write!(out, " {}={}", t.ns_key(), ns);
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "events {}", events.len());
    for e in events {
        let _ = writeln!(out, "{e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decay_core::telemetry::Counters;
    use decay_engine::Event;

    #[test]
    fn dump_renders_versioned_lines() {
        let sink = Counters::new();
        sink.add(Counter::Events, 12);
        let samples = vec![RunSample {
            tick: 32,
            stats: EngineStats {
                queue_high_water: 5,
                ..EngineStats::default()
            },
            delta: sink.snapshot(),
            deliveries: DeliverySummary::default(),
            zeta: None,
            prr_window: None,
            directives: Vec::new(),
        }];
        let events = vec![EventRecord::of(30, &Event::Resolve)];
        let dump = dump_flight(&samples, &events);
        assert!(dump.starts_with("flight-recorder v1\n"));
        assert!(dump.contains("samples 1\n"));
        assert!(dump.contains("sample tick=32 qhw=5 events=12\n"));
        assert!(dump.contains("events 1\n"));
        assert!(dump.contains("event tick=30 resolve\n"));
    }
}
