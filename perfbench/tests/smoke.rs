//! Tiny-size runs of every workload in both modes, and the output checks
//! rejecting planted wrong values.

use perfbench::env::{self, Sizes};
use perfbench::mix;
use perfbench::svc::{self, Phase};
use perfbench::workloads::{self, Opts, Workload};
use rcuarray::EbrScheme;
use rcuarray_service::{Service, ServiceConfig};
use std::sync::{Mutex, MutexGuard};

/// The service checks compare a phase's outcomes with the serving
/// layer's process-wide counters, so tests that run a service take turns.
fn one_service_at_a_time() -> MutexGuard<'static, ()> {
    static SERVICE: Mutex<()> = Mutex::new(());
    SERVICE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Metric names of one section of BENCHMARK.json (`"end_to_end"` or
/// `"per_layer"`), read without a JSON dependency: every `"name"` between
/// the section's key and the next `]`.
fn spec_names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn opts(workload: Workload, traced: bool) -> Opts {
    Opts {
        workload,
        seed: 7,
        seconds: 1.0,
        traced,
        sizes: Sizes::tiny(),
        trace_dir: None,
    }
}

fn assert_reports(traced: bool, section: &str) {
    let _turn = one_service_at_a_time();
    let mut want = spec_names(section);
    want.sort();
    assert!(!want.is_empty());
    for w in Workload::ALL {
        let rep = workloads::run(&opts(w, traced)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let mut got: Vec<String> = rep.metrics.iter().map(|m| m.name.to_string()).collect();
        got.sort();
        assert_eq!(got, want, "{} reports the {section} metrics", w.name());
        assert!(rep.attempted > 0);
        if !traced {
            for m in &rep.metrics {
                assert!(
                    m.value.is_finite() && m.value > 0.0,
                    "{}: {} = {}",
                    w.name(),
                    m.name,
                    m.value
                );
            }
        }
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    assert_reports(false, "end_to_end");
}

#[test]
fn every_traced_workload_reports_every_per_layer_metric() {
    assert_reports(true, "per_layer");
}

#[test]
fn the_mix_check_rejects_a_planted_wrong_read() {
    let sizes = Sizes::tiny();
    let env = env::build::<EbrScheme>(&sizes, env::config(sizes.block_size));
    // Tags are odd, so 2 is a value no write of the workload stores.
    for i in 0..sizes.keys {
        env.array.write(i, 2);
    }
    let m = mix::run(&env, &sizes, 7, 0, 0.8, false);
    assert!(workloads::check_mix(&m).is_err());
}

#[test]
fn the_service_check_rejects_a_planted_wrong_read() {
    let _turn = one_service_at_a_time();
    let sizes = Sizes::tiny();
    let env = env::build::<EbrScheme>(&sizes, env::config(sizes.block_size));
    for i in 0..sizes.keys {
        env.array.write(i, 2);
    }
    let service = Service::start(env.array.clone(), ServiceConfig::default());
    let phase = Phase {
        rate: 2_000.0,
        secs: 0.3,
    };
    assert!(svc::run_phase(&service, 7, 1, phase, sizes.keys, false).is_err());
    service.shutdown();
}
