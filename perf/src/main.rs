//! `perf`: the outside-in benchmark of the ARTEMIS stack.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `wearable_fleet`, `monitor_stream`, `reboot_storm`,
//! `install_churn` (see README.md). The last stdout line is one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`, which also
//! writes a Chrome trace). The exit code is 0 only when every output
//! check passed.

mod calib;
mod churn;
mod common;
mod fleet;
mod runner;
mod storm;
mod stream;
mod trace;

use std::process::ExitCode;

use runner::{Outcome, Workload};

const USAGE: &str =
    "usage: perf --workload <wearable_fleet|monitor_stream|reboot_storm|install_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(a)
}

fn run<W: Workload>(a: &Args) -> Outcome {
    runner::run::<W>(a.seed, W::SIZE, a.seconds, a.trace)
}

/// Formats a metric value as JSON: every digit as measured.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn json_str(s: &str) -> String {
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

/// Where a traced run writes its Chrome trace: under the build
/// directory, so it stays inside the checkout and out of version control.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir)
        .join("perf-trace")
        .join(format!("{workload}-{seed}.json"))
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match a.workload.as_str() {
        "wearable_fleet" => run::<fleet::Fleet>(&a),
        "monitor_stream" => run::<stream::Stream>(&a),
        "reboot_storm" => run::<storm::Storm>(&a),
        "install_churn" => run::<churn::Churn>(&a),
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("workload {}", a.workload);
    for (k, v) in &out.notes {
        println!("{k} {v}");
    }
    if let Some(json) = &out.chrome {
        let path = trace_path(&a.workload, a.seed);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, json));
        match written {
            Ok(()) => println!("trace.file {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    for m in &out.metrics {
        println!("{} {} {}", m.name, json_num(m.value), m.unit);
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
