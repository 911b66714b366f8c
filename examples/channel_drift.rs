//! A drifting channel end to end: mobility + correlated shadowing +
//! block Rayleigh fading over a 5k-node line, observed entirely through
//! the composable probe API — live ζ(t) monitoring and windowed PRR as
//! plug-in probes on one shared drive loop — plus a bit-identical
//! gain-trace replay.
//!
//! ```text
//! cargo run --release --example channel_drift
//! EXAMPLES_QUICK=1 cargo run --release --example channel_drift   # CI-sized
//! ```
//!
//! What to look for in the output:
//!
//! 1. `ζ(t)` *moves* — the paper's metricity constant becomes a
//!    trajectory once the gain matrix drifts. The monitor is just a
//!    [`Probe`] now: no hand-rolled sampling loop.
//! 2. Per-window delivery yield swings as fades and mobility open and
//!    close links — the drift a lifetime average would flatten,
//!    captured by the [`WindowedPrr`] probe.
//! 3. The exported gain trace replays the small-scale run with the exact
//!    same trace hash: measured channels are replayable artifacts.

use beyond_geometry::prelude::*;
use rand::Rng;

/// Gossip behavior: listen, transmit at geometric intervals.
#[derive(Clone)]
struct Gossiper;

impl EventBehavior for Gossiper {
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.listen();
        let gap = 1 + rand::Rng::gen_range(ctx.rng, 0..40u64);
        ctx.wake_in(gap);
    }
    fn on_wake(&mut self, ctx: &mut NodeCtx<'_>) {
        ctx.transmit(1.0, ctx.node.index() as u64);
        ctx.listen();
        let gap = 1 + ctx.rng.gen_range(0..40u64);
        ctx.wake_in(gap);
    }
}

fn line_backend(n: usize) -> LazyBackend {
    LazyBackend::from_fn(n, |i, j| ((i as f64) - (j as f64)).abs().powi(2))
}

fn stormy_channel(n: usize, block: u64) -> TemporalChannel {
    TemporalChannel::new(
        line_backend(n),
        beyond_geometry::spaces::line_points(n, 1.0),
        2.0,
        block,
    )
    .with_mobility(MobilityConfig {
        model: MobilityModel::RandomWaypoint {
            speed: 0.6,
            pause: 1,
        },
        seed: 9,
    })
    .with_shadowing(ShadowingConfig {
        sigma_db: 5.0,
        corr_dist: 25.0,
        time_corr: 0.8,
        seed: 4,
    })
    .with_fading(FadingConfig { seed: 11 })
}

fn run(n: usize, block: u64, horizon: u64) -> u64 {
    let backend = TemporalAdapter::new(stormy_channel(n, block));
    let config = EngineConfig {
        reach_decay: Some(64.0),
        top_k: Some(6),
        ..EngineConfig::default()
    };
    let behaviors = (0..n).map(|_| Gossiper).collect();
    let mut engine =
        Engine::new(backend, behaviors, SinrParams::default(), config, 7).expect("engine builds");

    // The whole observation story is two probes on one shared loop:
    // the ζ(t) monitor and the windowed-PRR probe see the identical
    // pause stream the scenario runner's probes would.
    let window = 64;
    let mut monitor = MetricityMonitor::new(window, 24);
    let mut prr = WindowedPrr::new(window);
    drive_probed(&mut engine, horizon, window, &mut [&mut monitor, &mut prr]);

    println!(
        "{n} nodes, coherence block {block}: {} events, {} deliveries",
        engine.stats().events,
        engine.stats().deliveries
    );
    println!("  ζ(t) trajectory (the static line would pin ζ = α = 2):");
    for s in monitor.samples() {
        println!(
            "    tick {:>5}: ζ = {:>7.3}, φ = {:>7.3}",
            s.tick, s.zeta, s.phi
        );
    }
    println!("  deliveries per {window}-tick window (drift the lifetime PRR hides):");
    let spark: Vec<String> = prr
        .samples()
        .iter()
        .map(|w| w.deliveries.to_string())
        .collect();
    println!("    [{}]", spark.join(", "));
    engine.trace_hash()
}

fn main() {
    let quick = std::env::var("EXAMPLES_QUICK").is_ok_and(|v| v == "1");
    // The headline run: 5k nodes, and no layer — backend, channel, or
    // probe — holds an n×n (25M-entry) table while the channel drifts
    // under them (CI shrinks it to smoke size).
    if quick {
        run(500, 32, 256);
    } else {
        run(5_000, 32, 512);
    }

    // Trace replay at demo scale: capture the generative channel,
    // round-trip it through JSON, and reproduce the run bit for bit.
    let n = 24;
    let horizon = 512u64;
    let channel = stormy_channel(n, 32);
    let trace = GainTrace::capture(&channel, horizon / 32 + 1);
    let json = trace.to_json_string();
    println!(
        "\nexported {} gain frames ({} bytes of JSON) for the {n}-node run",
        trace.frames().len(),
        json.len()
    );

    let run_over = |backend: TemporalAdapter| {
        let behaviors = (0..n).map(|_| Gossiper).collect();
        let mut engine = Engine::new(
            backend,
            behaviors,
            SinrParams::default(),
            EngineConfig::default(),
            7,
        )
        .expect("engine builds");
        engine.run_until(horizon);
        engine.trace_hash()
    };
    let original = run_over(TemporalAdapter::new(channel));
    let reimported = GainTrace::from_json_str(&json).expect("trace parses");
    let replayed = run_over(TemporalAdapter::new(TraceChannel::new(reimported)));
    assert_eq!(original, replayed, "trace replay must be bit-identical");
    println!("replayed from JSON: trace hash {original:#018x} reproduced bit-for-bit");
}
