//! Workload generation: every input the program sees is built here from
//! the benchmark seed, as spec JSON text or an office configuration.
//!
//! Pinned outputs need a finite input set, so a seed selects one of
//! [`VARIANTS`] input variants (`seed % VARIANTS`); each variant's
//! expected outputs are pinned in [`crate::pins`]. A variant draws the
//! traffic (the spec `seed`) and, on `office-capacity`, the link set.
//! The environment — channel realisation, office floor plan and mote
//! placement — is the same for every variant, so variants do the same
//! amount of work up to sampling noise and the seed-to-seed spread of a
//! figure is mostly the host's.

use decay_envsim::OfficeConfig;

/// How many distinct input variants the seeds map onto.
pub const VARIANTS: u64 = 16;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100k-node line, static lazy backend, `announce` traffic, no
    /// channel: bound by the engine's serial queue and behaviours.
    Static100k,
    /// 20k-node line under a drifting temporal channel: bound by SINR
    /// resolve and channel row builds with warm row caches.
    Mobility20k,
    /// Four sessions on a 5k-node line, parked and resumed round-robin:
    /// the session layer, the checkpoint codec, and cold row rebuilds.
    PreemptRr,
    /// The paper's pipeline on a measured office: ζ, quasi-metric,
    /// affectance, Algorithm 1 and greedy capacity.
    OfficeCapacity,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::Static100k,
        Workload::Mobility20k,
        Workload::PreemptRr,
        Workload::OfficeCapacity,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Static100k => "static-100k",
            Workload::Mobility20k => "mobility-20k",
            Workload::PreemptRr => "preempt-rr",
            Workload::OfficeCapacity => "office-capacity",
        }
    }

    /// The fewest closed-loop operations (slices) a run collects, which
    /// fixes the run's tail percentile (see [`crate::stats::tail_level`])
    /// whatever its pass count: p90 on the single-session workloads, p95
    /// on `preempt-rr`, p75 on `office-capacity`.
    pub fn min_slices(self) -> usize {
        match self {
            Workload::Static100k | Workload::Mobility20k => 100,
            Workload::PreemptRr => 200,
            Workload::OfficeCapacity => 40,
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Nodes on the `static-100k` line.
pub const STATIC_NODES: usize = 100_000;
/// Nodes on the `mobility-20k` line.
pub const MOBILITY_NODES: usize = 20_000;
/// Nodes on each `preempt-rr` line.
pub const PREEMPT_NODES: usize = 5_000;
/// Pause grid of `preempt-rr`: one slice is one grid step.
pub const PREEMPT_GRID: u64 = 4;

/// SplitMix64 step: a seed-to-stream mixer, so neighbouring variants
/// get unrelated random streams.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D1_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th derived seed of `variant`, kept below 2^53 so it survives
/// the spec's JSON number round trip.
fn derived(variant: u64, k: u64) -> u64 {
    mix(mix(variant).wrapping_add(k)) >> 11
}

/// The `drift_mobility_storm` channel: waypoint mobility, correlated
/// shadowing, block Rayleigh fading, and a ζ(t) monitor.
const STORM_CHANNEL: &str = r#"{
    "block": 16,
    "mobility": { "kind": "waypoint", "speed": 0.4, "pause": 1, "seed": 9 },
    "shadowing": { "sigma_db": 3.0, "corr_dist": 3.0, "time_corr": 0.7, "seed": 4 },
    "fading": { "kind": "rayleigh", "seed": 11 },
    "monitor": { "interval": 32, "max_nodes": 18 }
  }"#;

/// The office every variant runs on.
const OFFICE_SEED: u64 = 1;

/// `static-100k`: a 100k-node line on the lazy static backend with
/// `announce` traffic at p = 0.02.
pub fn static_spec(variant: u64) -> String {
    format!(
        r#"{{
  "name": "static-100k",
  "seed": {seed},
  "horizon": 48,
  "check_interval": 4,
  "topology": {{ "kind": "line", "n": {STATIC_NODES}, "spacing": 1.0, "alpha": 2.0 }},
  "backend": {{ "kind": "lazy" }},
  "sinr": {{ "beta": 1.0, "noise": 0.0 }},
  "reception": "threshold",
  "protocol": {{ "kind": "announce", "probability": 0.02, "power": 1.0 }},
  "reach_decay": 100.0,
  "top_k": 8
}}"#,
        seed = derived(variant, 1),
    )
}

/// `mobility-20k`: a 20k-node line carrying the storm channel, with
/// `announce` traffic at p = 0.15 and windowed PRR.
pub fn mobility_spec(variant: u64) -> String {
    format!(
        r#"{{
  "name": "mobility-20k",
  "seed": {seed},
  "horizon": 64,
  "check_interval": 2,
  "topology": {{ "kind": "line", "n": {MOBILITY_NODES}, "spacing": 1.0, "alpha": 2.5 }},
  "backend": {{ "kind": "lazy" }},
  "sinr": {{ "beta": 1.0, "noise": 0.05 }},
  "reception": "threshold",
  "protocol": {{ "kind": "announce", "probability": 0.15, "power": 1.0 }},
  "reach_decay": 400.0,
  "top_k": 6,
  "channel": {channel},
  "prr_window": 64
}}"#,
        seed = derived(variant, 1),
        channel = STORM_CHANNEL,
    )
}

/// `preempt-rr`: the two distinct specs (each is submitted twice) — a
/// 5k-node line with the storm channel, churn, and jittered latency,
/// paused every [`PREEMPT_GRID`] ticks.
pub fn preempt_specs(variant: u64) -> [String; 2] {
    [0u64, 1].map(|which| {
        format!(
            r#"{{
  "name": "preempt-rr-{which}",
  "seed": {seed},
  "horizon": 100,
  "check_interval": {PREEMPT_GRID},
  "topology": {{ "kind": "line", "n": {PREEMPT_NODES}, "spacing": 1.0, "alpha": 2.5 }},
  "backend": {{ "kind": "lazy" }},
  "sinr": {{ "beta": 1.0, "noise": 0.05 }},
  "reception": "threshold",
  "protocol": {{ "kind": "announce", "probability": 0.15, "power": 1.0 }},
  "churn": {{ "interval": 8, "leave_prob": 0.05, "join_prob": 0.5 }},
  "latency": {{ "kind": "jittered", "base": 1, "jitter": 2 }},
  "reach_decay": 400.0,
  "top_k": 6,
  "channel": {channel},
  "prr_window": 64
}}"#,
            seed = derived(variant, 10 + which),
            channel = STORM_CHANNEL,
        )
    })
}

/// `office-capacity`: a 6×6-room office with 4 motes per room, 8 dB
/// walls and a quarter of the motes on directional antennas.
pub fn office_config() -> OfficeConfig {
    OfficeConfig {
        rooms_x: 6,
        rooms_y: 6,
        room_size: 8.0,
        door: 1.2,
        wall_loss_db: 8.0,
        shell_loss_db: 15.0,
        motes_per_room: 4,
        directional_fraction: 0.25,
        seed: OFFICE_SEED,
    }
}

/// The cross-room links `variant` asks the capacity questions on, as
/// `(sender, receiver)` mote indices: one link from each room to the
/// next in row-major order, from one of a room's first two motes to
/// one of the next room's last two, so senders and receivers are
/// disjoint.
pub fn office_links(config: &OfficeConfig, variant: u64) -> Vec<(usize, usize)> {
    let rooms = config.rooms_x * config.rooms_y;
    let per = config.motes_per_room;
    assert!(per >= 4, "links need four motes per room");
    (0..rooms)
        .map(|r| {
            let pick = derived(variant, 100 + r as u64);
            let sender = r * per + (pick & 1) as usize;
            let receiver = ((r + 1) % rooms) * per + 2 + ((pick >> 1) & 1) as usize;
            (sender, receiver)
        })
        .collect()
}
