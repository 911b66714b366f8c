//! The benchmark's own checks: its generated inputs are valid, and its
//! probe's totals survive park/resume.

use decay_scenario::{ScenarioRunner, ScenarioSpec, TopologySpec};

use perfbench::drive::{round_robin, Ops};
use perfbench::workloads::{self, office_links, VARIANTS};

fn all_specs(variant: u64) -> Vec<String> {
    let mut specs = vec![
        workloads::static_spec(variant),
        workloads::mobility_spec(variant),
    ];
    specs.extend(workloads::preempt_specs(variant));
    specs
}

#[test]
fn every_generated_spec_parses_and_validates() {
    for v in 0..VARIANTS {
        for json in all_specs(v) {
            let spec = ScenarioSpec::from_json_str(&json)
                .unwrap_or_else(|e| panic!("variant {v}: {e}\n{json}"));
            spec.validate()
                .unwrap_or_else(|e| panic!("variant {v}: {e}\n{json}"));
        }
    }
}

#[test]
fn generation_is_a_function_of_the_variant() {
    assert_eq!(all_specs(3), all_specs(3));
    assert_ne!(all_specs(3), all_specs(4));
    let office = workloads::office_config();
    assert_eq!(office_links(&office, 5), office_links(&office, 5));
    assert_ne!(office_links(&office, 5), office_links(&office, 6));
}

#[test]
fn office_links_have_disjoint_endpoints() {
    let config = workloads::office_config();
    let links = office_links(&config, 0);
    let motes = config.rooms_x * config.rooms_y * config.motes_per_room;
    assert_eq!(links.len(), config.rooms_x * config.rooms_y);
    for &(s, r) in &links {
        assert!(s < motes && r < motes && s != r);
        assert!(
            links.iter().all(|&(s2, _)| s2 != r),
            "receiver {r} also sends"
        );
    }
}

/// `preempt-rr`'s specs shrunk to a size a debug build runs quickly.
fn small_preempt_specs(variant: u64) -> Vec<String> {
    workloads::preempt_specs(variant)
        .iter()
        .map(|json| {
            let mut spec = ScenarioSpec::from_json_str(json).expect("generated spec parses");
            spec.horizon = 40;
            if let TopologySpec::Line { n, .. } = &mut spec.topology {
                *n = 300;
            }
            spec.to_json_string()
        })
        .collect()
}

#[test]
fn probe_totals_survive_park_and_resume() {
    let specs = small_preempt_specs(1);
    let mut ops = Ops::default();
    let rr = round_robin(&mut ops, &specs).expect("round robin runs");
    assert_eq!(ops.failed, 0);
    assert_eq!(rr.reports.len(), 2 * specs.len());
    assert_eq!(rr.pass.layer("scenario.compile_hits"), specs.len() as f64);
    assert!(
        rr.pass.layer("scenario.checkpoint_bytes_per_node") > 0.0,
        "sessions were parked"
    );

    let uninterrupted: Vec<_> = specs
        .iter()
        .map(|json| {
            let spec = ScenarioSpec::from_json_str(json).expect("parses");
            ScenarioRunner::new(spec)
                .and_then(|r| r.run())
                .expect("runs")
        })
        .collect();
    let mut expected_events = 0;
    for (i, (report, probe)) in rr.reports.iter().zip(&rr.probes).enumerate() {
        let reference = &uninterrupted[i % specs.len()];
        assert_eq!(
            report.digest, reference.digest,
            "session {i} forked its trace"
        );
        assert_eq!(
            probe.count(decay_core::telemetry::Counter::Events),
            reference.digest.stats.events,
            "session {i}: differenced events miss the uninterrupted total"
        );
        expected_events += reference.digest.stats.events;
    }
    assert_eq!(rr.pass.layer("engine.events"), expected_events as f64);
    assert_eq!(rr.pass.work, expected_events);
}
