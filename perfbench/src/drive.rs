//! One measured pass of each workload, driven through the crates'
//! public API only. A pass is set-up (timed as `setup_s`) followed by
//! the measured phase (timed as `run_s`); every call into a layer is
//! timed from here, and the engine and channel counters come from a
//! [`LayerProbe`] riding in the session's `extra` slot.

use std::sync::Arc;
use std::time::Instant;

use decay_capacity::{algorithm1, greedy_affectance};
use decay_core::telemetry::{Counter, Timer};
use decay_core::{metricity, NodeId, QuasiMetric};
use decay_envsim::OfficeConfig;
use decay_scenario::{
    CompiledScenario, Probe, RunOptions, RunSession, ScenarioCache, ScenarioReport, ScenarioSpec,
    SessionStep,
};
use decay_sinr::{AffectanceMatrix, Link, LinkId, LinkSet, PowerAssignment, SinrParams};

use crate::pins::{OfficePin, ScenarioPin};
use crate::probe::{LayerProbe, ResumeMark};
use crate::workloads::office_links;

/// Every per-layer metric, in reporting order. A pass reports each of
/// them; a layer a workload never enters reads 0.
pub const LAYERS: [&str; 34] = [
    "scenario.parse_s",
    "scenario.compile_s",
    "scenario.compile_hits",
    "scenario.session_open_s",
    "scenario.step_s",
    "scenario.steps",
    "scenario.observe_s",
    "scenario.runlog_bytes",
    "scenario.park_s",
    "scenario.resume_s",
    "scenario.checkpoint_bytes_per_node",
    "scenario.finish_s",
    "engine.dispatch_s",
    "engine.queue_s",
    "engine.events",
    "engine.deliveries",
    "engine.queue_high_water",
    "engine.resolve_s",
    "engine.resolve_ticks",
    "engine.sinr_pairs",
    "channel.row_build_s",
    "channel.rows_built",
    "channel.row_pairs_per_row",
    "channel.row_hit_rate",
    "channel.epoch_loads_per_resolve",
    "channel.decay_calls",
    "envsim.build_s",
    "core.metricity_s",
    "core.quasi_s",
    "sinr.affectance_s",
    "capacity.algorithm1_s",
    "capacity.greedy_s",
    "trace.unattributed_frac",
    "trace.overhead_frac",
];

/// The harness's one clock read: report-only timing of its own calls.
#[allow(clippy::disallowed_methods)] // benchmark timing never feeds a run
pub fn now() -> Instant {
    Instant::now()
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Operations attempted and failed, as the result line reports them.
/// An operation is one call that can fail (compile, resume, finish, a
/// step) or one pinned-output comparison.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or mismatched a pin.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation and passes its outcome through.
    pub fn check<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: Result<T, E>,
    ) -> Result<T, String> {
        self.attempted += 1;
        r.map_err(|e| {
            self.failed += 1;
            format!("{what}: {e}")
        })
    }

    /// Counts one comparison against a pinned output.
    pub fn pin(
        &mut self,
        what: &str,
        ok: bool,
        detail: impl FnOnce() -> String,
    ) -> Result<(), String> {
        self.check(what, if ok { Ok(()) } else { Err(detail()) })
    }

    fn step(&mut self) {
        self.attempted += 1;
    }
}

/// What one pass measured.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Set-up seconds: spec parse, compile and session open, or the
    /// office build.
    pub setup_s: f64,
    /// Seconds of the measured phase.
    pub run_s: f64,
    /// Work items completed in the measured phase: engine events, or
    /// the ordered triples the exact metricity scans.
    pub work: u64,
    /// Closed-loop operation latencies, milliseconds.
    pub slices_ms: Vec<f64>,
    /// Per-layer values, indexed like [`LAYERS`].
    pub layers: [f64; LAYERS.len()],
}

impl Pass {
    fn new() -> Self {
        Pass {
            setup_s: 0.0,
            run_s: 0.0,
            work: 0,
            slices_ms: Vec::new(),
            layers: [0.0; LAYERS.len()],
        }
    }

    fn index(layer: &str) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == layer)
            .unwrap_or_else(|| panic!("unknown layer metric {layer}"))
    }

    fn add(&mut self, layer: &str, value: f64) {
        self.layers[Self::index(layer)] += value;
    }

    /// One per-layer value of this pass.
    ///
    /// # Panics
    ///
    /// Panics if `layer` is not in [`LAYERS`].
    pub fn layer(&self, layer: &str) -> f64 {
        self.layers[Self::index(layer)]
    }

    /// Folds one finished session's probe totals into the pass.
    fn add_probe(&mut self, probe: &LayerProbe) {
        let dispatch = probe.seconds(Timer::Dispatch);
        let resolve = probe.seconds(Timer::Resolve);
        let row_build = probe.seconds(Timer::RowBuild);
        self.add("engine.dispatch_s", dispatch);
        self.add("engine.queue_s", dispatch - resolve);
        self.add("engine.resolve_s", resolve - row_build);
        self.add("channel.row_build_s", row_build);
        self.add("engine.events", probe.count(Counter::Events) as f64);
        self.add("engine.deliveries", probe.deliveries() as f64);
        self.add(
            "engine.resolve_ticks",
            probe.count(Counter::ResolveTicks) as f64,
        );
        self.add("engine.sinr_pairs", probe.count(Counter::SinrPairs) as f64);
        self.add("channel.rows_built", probe.count(Counter::RowsBuilt) as f64);
        self.add(
            "channel.decay_calls",
            probe.count(Counter::DecayCalls) as f64,
        );
        let i = Self::index("engine.queue_high_water");
        self.layers[i] = self.layers[i].max(probe.queue_high_water() as f64);
    }

    /// Derives the ratio metrics once every session is folded in.
    fn finish_scenario(&mut self, totals: &[&LayerProbe]) {
        let sum = |c: Counter| totals.iter().map(|p| p.count(c)).sum::<u64>() as f64;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let built = sum(Counter::RowsBuilt);
        let hits = sum(Counter::RowHits);
        self.add(
            "channel.row_pairs_per_row",
            ratio(sum(Counter::RowPairs), built),
        );
        self.add("channel.row_hit_rate", ratio(hits, hits + built));
        self.add(
            "channel.epoch_loads_per_resolve",
            ratio(sum(Counter::EpochLoads), sum(Counter::ResolveTicks)),
        );
        let step = self.layer("scenario.step_s");
        self.add("scenario.observe_s", step - self.layer("engine.dispatch_s"));
        let covered = step
            + self.layer("scenario.park_s")
            + self.layer("scenario.resume_s")
            + self.layer("scenario.finish_s");
        self.add(
            "trace.unattributed_frac",
            ratio(self.run_s - covered, self.run_s),
        );
    }
}

fn check_digest(ops: &mut Ops, report: &ScenarioReport, pin: ScenarioPin) -> Result<(), String> {
    let got = ScenarioPin {
        hash: report.digest.hash,
        events: report.digest.stats.events,
    };
    ops.pin(
        &format!("digest of {}", report.digest.name),
        got == pin,
        || format!("got {got:?}, pinned {pin:?}"),
    )
}

/// One pass of a single-session workload (`static-100k`,
/// `mobility-20k`): parse, compile and open, then step the session to
/// every pause of its grid and finish it.
pub fn single_session(ops: &mut Ops, spec_json: &str, pin: ScenarioPin) -> Result<Pass, String> {
    let mut pass = Pass::new();
    let mut probe = LayerProbe::new();
    let mut runlog: Vec<u8> = Vec::new();
    let report = {
        let setup = now();
        let t = now();
        let spec = ops.check("parse", ScenarioSpec::from_json_str(spec_json))?;
        pass.add("scenario.parse_s", secs(t));
        let cache = ScenarioCache::new(1);
        let t = now();
        let compiled = ops.check("compile", cache.compile(spec))?;
        pass.add("scenario.compile_s", secs(t));
        pass.add("scenario.compile_hits", cache.compile_hits() as f64);
        let mut extra: [&mut dyn Probe; 1] = [&mut probe];
        let opts = RunOptions {
            runlog: Some(&mut runlog),
            ..RunOptions::default()
        };
        let horizon = compiled.spec().horizon;
        let t = now();
        let mut session = ops.check("open", RunSession::new(compiled, opts, &mut extra))?;
        pass.add("scenario.session_open_s", secs(t));
        pass.setup_s = secs(setup);

        let run = now();
        loop {
            let t = now();
            let step = session.step_to_next_pause();
            let dt = secs(t);
            ops.step();
            pass.add("scenario.step_s", dt);
            pass.add("scenario.steps", 1.0);
            pass.slices_ms.push(dt * 1e3);
            if step == SessionStep::Finished || session.now() >= horizon {
                break;
            }
        }
        let t = now();
        let report = ops.check("finish", session.finish())?;
        pass.add("scenario.finish_s", secs(t));
        pass.run_s = secs(run);
        report
    };
    pass.work = report.digest.stats.events;
    pass.add("scenario.runlog_bytes", runlog.len() as f64);
    pass.add_probe(&probe);
    pass.finish_scenario(&[&probe]);
    check_digest(ops, &report, pin)?;
    Ok(pass)
}

/// What a round-robin pass produced besides its measurements: each
/// session's report and probe, in session order.
pub struct RoundRobin {
    /// The pass's measurements.
    pub pass: Pass,
    /// Each session's final report.
    pub reports: Vec<ScenarioReport>,
    /// Each session's probe.
    pub probes: Vec<LayerProbe>,
}

/// One pass of `preempt-rr`: every spec in `specs` is submitted twice
/// through one [`ScenarioCache`], and the sessions are stepped
/// round-robin one pause at a time, parked after every slice and
/// resumed before the next. A slice is resume → step → park.
pub fn round_robin(ops: &mut Ops, specs: &[String]) -> Result<RoundRobin, String> {
    let mut pass = Pass::new();
    let submissions: Vec<&String> = specs.iter().chain(specs.iter()).collect();
    let sessions_n = submissions.len();
    let mut probes: Vec<LayerProbe> = (0..sessions_n).map(|_| LayerProbe::new()).collect();
    let marks: Vec<ResumeMark> = probes.iter().map(LayerProbe::resume_mark).collect();
    let mut runlogs: Vec<Vec<u8>> = vec![Vec::new(); sessions_n];
    let mut nodes = 0usize;
    let mut parked_bytes = 0usize;
    let mut parks = 0usize;
    let mut reports: Vec<Option<ScenarioReport>> = vec![None; sessions_n];
    {
        let setup = now();
        let cache = ScenarioCache::new(specs.len());
        let mut compiled: Vec<Arc<CompiledScenario>> = Vec::with_capacity(sessions_n);
        for json in &submissions {
            let t = now();
            let spec = ops.check("parse", ScenarioSpec::from_json_str(json))?;
            pass.add("scenario.parse_s", secs(t));
            let t = now();
            compiled.push(ops.check("compile", cache.compile(spec))?);
            pass.add("scenario.compile_s", secs(t));
        }
        pass.add("scenario.compile_hits", cache.compile_hits() as f64);
        let mut extras: Vec<[&mut dyn Probe; 1]> =
            probes.iter_mut().map(|p| [p as &mut dyn Probe]).collect();
        let mut sessions: Vec<Option<RunSession<'_, '_>>> = Vec::with_capacity(sessions_n);
        let mut horizons = Vec::with_capacity(sessions_n);
        for ((c, extra), runlog) in compiled.into_iter().zip(&mut extras).zip(&mut runlogs) {
            nodes = c.points().len();
            horizons.push(c.spec().horizon);
            let opts = RunOptions {
                runlog: Some(runlog),
                ..RunOptions::default()
            };
            let t = now();
            let session = ops.check("open", RunSession::new(c, opts, &mut extra[..]))?;
            pass.add("scenario.session_open_s", secs(t));
            sessions.push(Some(session));
        }
        pass.setup_s = secs(setup);

        let run = now();
        let mut parked: Vec<Option<Vec<u8>>> = vec![None; sessions_n];
        let mut live = sessions_n;
        while live > 0 {
            for (i, slot) in sessions.iter_mut().enumerate() {
                let Some(session) = slot.as_mut() else {
                    continue;
                };
                let slice = now();
                if let Some(bytes) = parked[i].take() {
                    let t = now();
                    ops.check("resume", session.resume(&bytes))?;
                    marks[i].note_resume();
                    pass.add("scenario.resume_s", secs(t));
                }
                let t = now();
                let step = session.step_to_next_pause();
                ops.step();
                pass.add("scenario.step_s", secs(t));
                pass.add("scenario.steps", 1.0);
                if step == SessionStep::Finished || session.now() >= horizons[i] {
                    pass.slices_ms.push(secs(slice) * 1e3);
                    let session = slot.take().expect("live session");
                    let t = now();
                    reports[i] = Some(ops.check("finish", session.finish())?);
                    pass.add("scenario.finish_s", secs(t));
                    live -= 1;
                } else {
                    let t = now();
                    let bytes = session.park();
                    pass.add("scenario.park_s", secs(t));
                    pass.slices_ms.push(secs(slice) * 1e3);
                    parked_bytes += bytes.len();
                    parks += 1;
                    parked[i] = Some(bytes);
                }
            }
        }
        pass.run_s = secs(run);
    }
    let reports: Vec<ScenarioReport> = reports
        .into_iter()
        .map(|r| r.expect("every session finished"))
        .collect();
    pass.work = reports.iter().map(|r| r.digest.stats.events).sum();
    pass.add(
        "scenario.runlog_bytes",
        runlogs.iter().map(Vec::len).sum::<usize>() as f64,
    );
    if parks > 0 && nodes > 0 {
        pass.add(
            "scenario.checkpoint_bytes_per_node",
            parked_bytes as f64 / parks as f64 / nodes as f64,
        );
    }
    for probe in &probes {
        pass.add_probe(probe);
    }
    let refs: Vec<&LayerProbe> = probes.iter().collect();
    pass.finish_scenario(&refs);
    Ok(RoundRobin {
        pass,
        reports,
        probes,
    })
}

/// [`round_robin`] with each session's digest checked against the pin
/// of its spec (session `i` runs spec `i % specs.len()`).
pub fn preempt(ops: &mut Ops, specs: &[String], pins: &[ScenarioPin]) -> Result<Pass, String> {
    let rr = round_robin(ops, specs)?;
    for (i, report) in rr.reports.iter().enumerate() {
        check_digest(ops, report, pins[i % pins.len()])?;
    }
    Ok(rr.pass)
}

/// One pass of `office-capacity`: build the office (set-up), then on
/// its measured decay space compute exact ζ, the induced quasi-metric,
/// unit-power affectance over `variant`'s cross-room links, and the
/// Algorithm 1 and greedy capacity sets.
pub fn office(
    ops: &mut Ops,
    config: &OfficeConfig,
    variant: u64,
) -> Result<(Pass, OfficePin), String> {
    let mut pass = Pass::new();
    let setup = now();
    let scenario = config.build();
    pass.setup_s = secs(setup);
    pass.add("envsim.build_s", pass.setup_s);
    let space = &scenario.measured.space;

    let run = now();
    let t = now();
    let zeta = metricity(space);
    pass.add("core.metricity_s", secs(t));
    let t = now();
    let quasi = QuasiMetric::from_space_with_exponent(space, zeta.zeta_at_least_one());
    pass.add("core.quasi_s", secs(t));
    let t = now();
    let links: Vec<Link> = office_links(config, variant)
        .into_iter()
        .map(|(s, r)| Link::new(NodeId::new(s), NodeId::new(r)))
        .collect();
    let links = ops.check("links", LinkSet::new(space, links))?;
    let powers = ops.check("powers", PowerAssignment::unit().powers(space, &links))?;
    let aff = ops.check(
        "affectance",
        AffectanceMatrix::build(space, &links, &powers, &SinrParams::default()),
    )?;
    pass.add("sinr.affectance_s", secs(t));
    let t = now();
    let a1 = algorithm1(space, &links, &quasi, &aff, None);
    pass.add("capacity.algorithm1_s", secs(t));
    let t = now();
    let gr = greedy_affectance(space, &links, &aff, None);
    pass.add("capacity.greedy_s", secs(t));
    pass.run_s = secs(run);

    let n = space.len() as u64;
    pass.work = n * n.saturating_sub(1) * n.saturating_sub(2);
    pass.slices_ms.push(pass.run_s * 1e3);
    let covered = [
        "core.metricity_s",
        "core.quasi_s",
        "sinr.affectance_s",
        "capacity.algorithm1_s",
        "capacity.greedy_s",
    ]
    .iter()
    .map(|l| pass.layer(l))
    .sum::<f64>();
    pass.add(
        "trace.unattributed_frac",
        (pass.run_s - covered) / pass.run_s,
    );
    let answer = OfficePin {
        zeta: zeta.zeta,
        algorithm1: link_mask(&a1.selected),
        greedy: link_mask(&gr.selected),
    };
    Ok((pass, answer))
}

/// The set `selected` as a bit mask over link indices.
fn link_mask(selected: &[LinkId]) -> u64 {
    selected.iter().fold(0, |mask, id| {
        assert!(id.index() < 64, "a link mask holds 64 links");
        mask | 1 << id.index()
    })
}

/// [`office`] with ζ (to 1e-9) and both selected link sets checked
/// against the pin.
pub fn office_checked(
    ops: &mut Ops,
    config: &OfficeConfig,
    variant: u64,
    pin: OfficePin,
) -> Result<Pass, String> {
    let (pass, got) = office(ops, config, variant)?;
    ops.pin("office zeta", (got.zeta - pin.zeta).abs() <= 1e-9, || {
        format!("got {}, pinned {}", got.zeta, pin.zeta)
    })?;
    ops.pin(
        "office capacity sets",
        (got.algorithm1, got.greedy) == (pin.algorithm1, pin.greedy),
        || {
            format!(
                "got algorithm1 {:#x} ({} links) / greedy {:#x} ({} links), \
                 pinned {:#x} ({}) / {:#x} ({})",
                got.algorithm1,
                got.algorithm1.count_ones(),
                got.greedy,
                got.greedy.count_ones(),
                pin.algorithm1,
                pin.algorithm1.count_ones(),
                pin.greedy,
                pin.greedy.count_ones()
            )
        },
    )?;
    Ok(pass)
}
