//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a fingerprint line, one line per metric, and as the last line
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed output check exits with code 1 and prints no result.

use perfbench::env::Sizes;
use perfbench::workloads::{self, Opts, Report, Workload};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, false);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(Workload::parse(&val()).unwrap_or_else(|| usage())),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(val().parse::<f64>().unwrap_or_else(|_| usage())),
            "--trace" => traced = val() == "1",
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    Opts {
        workload,
        seed,
        seconds,
        traced,
        sizes: Sizes::full(),
        trace_dir: traced.then(|| PathBuf::from(".perfbench_traces")),
    }
}

/// A JSON string literal.
fn js(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values become null, which `run.py`
/// rejects, rather than a fake number).
fn jn(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn fingerprint(o: &Opts) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("workload", js(o.workload.name())),
        ("seed", o.seed.to_string()),
        ("seconds", jn(o.seconds)),
        ("trace", (o.traced as u8).to_string()),
        ("nproc", nproc.to_string()),
        ("loadavg_at_start", js(load.trim())),
        ("git_rev", js(&env("PERFBENCH_GIT_REV"))),
        ("build_command", js(&env("PERFBENCH_BUILD_COMMAND"))),
        ("backend", js("shmem")),
        ("obs_enabled", rcuarray_obs::enabled().to_string()),
        (
            "account_comm",
            rcuarray::Config::default().account_comm.to_string(),
        ),
        ("replication_factor", "1".into()),
        ("block_size", o.sizes.block_size.to_string()),
        ("keys", o.sizes.keys.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", js(k)))
        .collect();
    format!("{{\"fingerprint\": {{{}}}}}", body.join(", "))
}

fn result_line(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                js(m.name),
                jn(m.value),
                js(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

fn main() {
    let opts = parse_args();
    println!("{}", fingerprint(&opts));
    match workloads::run(&opts) {
        Ok(rep) => {
            for m in &rep.metrics {
                println!(
                    "metric {:<36} {:>14.4} {:<6} {}",
                    m.name, m.value, m.unit, m.note
                );
            }
            println!("{}", result_line(&rep));
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}
