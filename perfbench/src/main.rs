//! The benchmark binary. `run.py` builds and drives it; run it by hand as
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s>
//! perfbench --pin            # print src/pins.rs for the current workloads
//! ```
//!
//! It repeats passes of the workload until `--seconds` have elapsed and
//! prints one JSON line: the end-to-end figures (medians over passes),
//! the per-layer figures, and the operations attempted and failed. It
//! exits 1 when any operation failed or any output missed its pin.

use decay_core::json::{int, num, obj, s, JsonValue};
use decay_core::telemetry::Counters;
use decay_scenario::{ScenarioRunner, ScenarioSpec};

use perfbench::drive::{self, now, Ops, Pass, LAYERS};
use perfbench::pins::{self, ScenarioPin};
use perfbench::stats::{median, tail_at, tail_level};
use perfbench::workloads::{self, Workload, VARIANTS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
    })
}

/// Fewest measured passes a run makes, however long they take.
const MIN_PASSES: usize = 3;

/// One pass of `workload` on input variant `variant`.
fn run_pass(ops: &mut Ops, workload: Workload, variant: u64) -> Result<Pass, String> {
    let v = variant as usize;
    match workload {
        Workload::Static100k => {
            drive::single_session(ops, &workloads::static_spec(variant), pins::STATIC[v])
        }
        Workload::Mobility20k => {
            drive::single_session(ops, &workloads::mobility_spec(variant), pins::MOBILITY[v])
        }
        Workload::PreemptRr => {
            drive::preempt(ops, &workloads::preempt_specs(variant), &pins::PREEMPT[v])
        }
        Workload::OfficeCapacity => {
            drive::office_checked(ops, &workloads::office_config(), variant, pins::OFFICE[v])
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run measured: the operations and the measured passes.
struct Run {
    ops: Ops,
    passes: Vec<Pass>,
    /// `VmHWM` after each pass, MiB. The first is the reported peak:
    /// later passes reuse an allocator the earlier ones fragmented, so
    /// the peak creeps with the pass count, and that count follows the
    /// host's speed, not the workload.
    pass_rss_mb: Vec<f64>,
    error: Option<String>,
}

/// Runs passes until `--seconds` would be overrun by one more — but at
/// least [`MIN_PASSES`], and at least the workload's
/// [`Workload::min_slices`].
fn measure(args: &Args) -> Run {
    let variant = args.seed % VARIANTS;
    let mut run = Run {
        ops: Ops::default(),
        passes: Vec::new(),
        pass_rss_mb: Vec::new(),
        error: None,
    };
    let start = now();
    loop {
        let t = now();
        match run_pass(&mut run.ops, args.workload, variant) {
            Ok(pass) => {
                run.passes.push(pass);
                run.pass_rss_mb.push(peak_rss_mb());
            }
            Err(e) => {
                run.error = Some(e);
                return run;
            }
        }
        let last = t.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        let slices: usize = run.passes.iter().map(|p| p.slices_ms.len()).sum();
        if run.passes.len() >= MIN_PASSES
            && slices >= args.workload.min_slices()
            && elapsed + last > args.seconds
        {
            return run;
        }
    }
}

fn metric(value: f64, unit: &str) -> JsonValue {
    obj(vec![("value", num(value)), ("unit", s(unit))])
}

fn report(args: &Args, run: &Run) -> JsonValue {
    let (ops, passes, error) = (run.ops, &run.passes, run.error.as_deref());
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pooled: Vec<f64> = passes.iter().flat_map(|p| p.slices_ms.clone()).collect();
    let level = tail_level(args.workload.min_slices()).expect("min_slices leaves a tail");
    let slice_tail = tail_at(&pooled, level);
    let end_to_end = obj(vec![
        ("run_s", metric(per(&|p| p.run_s), "s")),
        (
            "events_per_s",
            metric(per(&|p| p.work as f64 / p.run_s), "1/s"),
        ),
        ("setup_s", metric(per(&|p| p.setup_s), "s")),
        ("slice_p50_ms", metric(median(&pooled), "ms")),
        (
            "slice_tail_ms",
            metric(slice_tail.map_or(0.0, |t| t.value), "ms"),
        ),
        (
            "peak_rss_mb",
            metric(run.pass_rss_mb.first().copied().unwrap_or(0.0), "MiB"),
        ),
    ]);
    let layers = obj(LAYERS
        .iter()
        .map(|&name| (name, num(per(&|p| p.layer(name)))))
        .collect());
    let correct = error.is_none() && ops.failed == 0 && !passes.is_empty();
    obj(vec![
        ("workload", s(args.workload.name())),
        ("seed", int(args.seed)),
        ("variant", int(args.seed % VARIANTS)),
        ("timing_build", JsonValue::Bool(Counters::timing_enabled())),
        ("correct", JsonValue::Bool(correct)),
        ("attempted", int(ops.attempted)),
        ("failed", int(ops.failed)),
        ("error", error.map_or(JsonValue::Null, s)),
        ("passes", int(passes.len() as u64)),
        (
            "pass_run_s",
            JsonValue::Array(passes.iter().map(|p| num(p.run_s)).collect()),
        ),
        (
            "pass_setup_s",
            JsonValue::Array(passes.iter().map(|p| num(p.setup_s)).collect()),
        ),
        (
            "pass_rss_mb",
            JsonValue::Array(run.pass_rss_mb.iter().map(|&m| num(m)).collect()),
        ),
        (
            "slice_tail_percentile",
            num(slice_tail.map_or(0.0, |t| t.percentile)),
        ),
        ("slice_samples", int(pooled.len() as u64)),
        ("end_to_end", end_to_end),
        ("layers", layers),
    ])
}

/// Prints `src/pins.rs` for the current workload definitions, from
/// uninterrupted runs of every variant.
fn print_pins() -> Result<(), String> {
    let digest = |json: &str| -> Result<ScenarioPin, String> {
        let spec = ScenarioSpec::from_json_str(json).map_err(|e| e.to_string())?;
        let report = ScenarioRunner::new(spec)
            .and_then(|r| r.run())
            .map_err(|e| e.to_string())?;
        Ok(ScenarioPin {
            hash: report.digest.hash,
            events: report.digest.stats.events,
        })
    };
    let row = |p: ScenarioPin| {
        format!(
            "ScenarioPin {{ hash: {:#018x}, events: {} }}",
            p.hash, p.events
        )
    };
    let mut out = String::new();
    let header = include_str!("pins.rs");
    let cut = header
        .find("/// `static-100k`, by variant.")
        .ok_or("pins.rs lost its header")?;
    out.push_str(&header[..cut]);
    out.push_str("/// `static-100k`, by variant.\npub const STATIC: [ScenarioPin; 16] = [\n");
    for v in 0..VARIANTS {
        out.push_str(&format!(
            "    {},\n",
            row(digest(&workloads::static_spec(v))?)
        ));
        eprintln!("static-100k variant {v} pinned");
    }
    out.push_str(
        "];\n\n/// `mobility-20k`, by variant.\npub const MOBILITY: [ScenarioPin; 16] = [\n",
    );
    for v in 0..VARIANTS {
        out.push_str(&format!(
            "    {},\n",
            row(digest(&workloads::mobility_spec(v))?)
        ));
        eprintln!("mobility-20k variant {v} pinned");
    }
    out.push_str(
        "];\n\n/// `preempt-rr`, by variant: one pin per distinct spec.\n\
         pub const PREEMPT: [[ScenarioPin; 2]; 16] = [\n",
    );
    for v in 0..VARIANTS {
        let [a, b] = workloads::preempt_specs(v);
        out.push_str(&format!(
            "    [{}, {}],\n",
            row(digest(&a)?),
            row(digest(&b)?)
        ));
        eprintln!("preempt-rr variant {v} pinned");
    }
    out.push_str(
        "];\n\n/// `office-capacity`, by variant.\npub const OFFICE: [OfficePin; 16] = [\n",
    );
    for v in 0..VARIANTS {
        let (_, pin) = drive::office(&mut Ops::default(), &workloads::office_config(), v)?;
        out.push_str(&format!(
            "    OfficePin {{ zeta: {:?}, algorithm1: {:#x}, greedy: {:#x} }},\n",
            pin.zeta, pin.algorithm1, pin.greedy
        ));
        eprintln!("office-capacity variant {v} pinned");
    }
    out.push_str("];\n");
    print!("{out}");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--pin") {
        if let Err(e) = print_pins() {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = measure(&args);
    if let Some(e) = &run.error {
        eprintln!("perfbench: {} failed: {e}", args.workload.name());
    }
    let doc = report(&args, &run);
    println!("{}", doc.compact());
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        std::process::exit(1);
    }
}
