//! The repository benchmark: three workloads over the confmask workspace,
//! timed from outside through each crate's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload anon-confmask|sweep-faults|serve-mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the chosen workload runs for about `--seconds` with
//! `confmask_obs` collection off and reports the end-to-end metrics of
//! `BENCHMARK.json`. With `--trace 1` a separate traced run reports the
//! per-layer metrics of all three workloads, read from what the program
//! already exposes (stage durations, obs counters, sweep statistics and
//! the daemon's `/metrics-json`). Inputs are generated from `--seed`.
//! Every run checks its outputs; the last line of standard output is a
//! JSON object `{correct, attempted, failed, metrics}`, and the exit code
//! is non-zero when any check failed.
//!
//! `BENCHMARK.json` lists `anon-confmask` and `serve-mixed` only. On a
//! two-core shared host the whole-pass times of `sweep-faults` drifted by
//! about a fifth from run to run, too much for a regression bound; it
//! stays runnable by name, and the traced run still reports its layers.

mod anon;
mod common;
mod serve;
mod stats;
mod sweep;
mod trace;

use common::Outcome;
use std::fmt::Write as _;

const WORKLOADS: [&str; 3] = ["anon-confmask", "sweep-faults", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (expected {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The commit the benchmarked tree came from, when it is a git checkout
/// (read from `.git` directly; no process is spawned).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(str::to_string))
            }),
            None => Some(head),
        }
        .unwrap_or_else(|| "unknown".into()),
        None => "unknown (not a git checkout)".into(),
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "environment: cores {} | exec.workers {} | CONFMASK_THREADS {} | commit {}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        confmask_exec::thread_count(),
        std::env::var("CONFMASK_THREADS").unwrap_or_else(|_| "unset".into()),
        commit()
    );

    let mut o: Outcome = if args.trace {
        trace::run(args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "anon-confmask" => anon::run(args.seed, args.seconds),
            "sweep-faults" => sweep::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds),
        }
    };
    o.attempted = o.attempted.max(1);
    let non_finite: Vec<String> = o
        .metrics
        .iter()
        .filter(|(_, value, _)| !value.is_finite())
        .map(|(name, _, _)| name.clone())
        .collect();
    for name in non_finite {
        o.fail(format!("metric {name} is not a finite number"));
    }

    for line in &o.notes {
        println!("  {line}");
    }
    println!(
        "  error_rate = {:.6} ({} failed of {} attempted)",
        o.failed as f64 / o.attempted as f64,
        o.failed,
        o.attempted
    );
    for (name, value, unit) in &o.metrics {
        println!("  {name} = {value} {unit}");
    }

    let correct = o.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, (name, value, unit)) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    line.push_str("}}");
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
