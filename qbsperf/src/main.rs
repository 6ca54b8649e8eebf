//! The QbS benchmark.
//!
//! ```text
//! qbsperf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qbsperf compare <before.out> <after.out>
//! ```
//!
//! A run builds the workload's index, sends its request stream for about
//! `--seconds` seconds, checks every answer against an independent oracle
//! and prints one `name value unit` line per metric, a `context` line, and
//! as its last line one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics of
//! `BENCHMARK.json`, `--trace 1` its per-layer metrics. Run it from the
//! repository root; `compare` diffs two saved outputs taken with the same
//! number of cores.

mod load;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use serde_json::Value;

use workloads::{Report, Run};

type WorkloadFn = fn(&Run) -> Result<Report, String>;

const WORKLOADS: &[(&str, WorkloadFn)] = &[
    ("spg-uniform", workloads::spg_uniform),
    ("dist-zipf-served", workloads::dist_zipf_served),
    ("mixed-uniform-routed", workloads::mixed_uniform_routed),
];

/// The declared workloads and metrics, and the map from each per-layer
/// metric to the end-to-end metric it should move.
const METRICS_JSON: &str = include_str!("../metrics.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("qbsperf: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let pos = args
        .iter()
        .position(|a| a == name)
        .ok_or(format!("missing {name}"))?;
    args.get(pos + 1)
        .map(String::as_str)
        .ok_or(format!("{name} needs a value"))
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload")?;
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let &(workload, run_workload) = WORKLOADS
        .iter()
        .find(|w| w.0 == name)
        .ok_or(format!("unknown workload {name}"))?;
    let declared = declared_metrics(trace)?;

    let work_dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let run = Run {
        workload,
        seed,
        seconds,
        trace,
        nproc,
        work_dir,
    };
    let report = run_workload(&run)?;

    let mut metrics = BTreeMap::new();
    for &(name, value, unit) in &report.metrics {
        if declared.contains_key(name) {
            metrics.insert(name, (value, unit));
        }
        if declared.contains_key(name) || value != 0.0 {
            println!("{name} {value} {unit}");
        }
    }
    let fail_frac = stats::ratio(report.failed as f64, report.attempted as f64);
    println!("fail_frac {fail_frac} frac");
    println!(
        "oracle: {} mismatches, {} path graphs checked edge for edge",
        report.mismatches, report.paths_checked
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for (name, unit) in &declared {
        match metrics.get(name.as_str()) {
            None => return Err(format!("{workload} does not report {name}")),
            Some((_, u)) if u != unit => {
                return Err(format!("{name} is in {u}, BENCHMARK.json says {unit}"))
            }
            Some((v, _)) if !v.is_finite() => return Err(format!("{name} is {v}")),
            Some(_) => {}
        }
    }
    println!("context {}", context(&run));
    let correct = report.mismatches == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The metric names and units `BENCHMARK.json` declares for this kind of
/// run, after checking that `metrics.json` maps every per-layer metric.
fn declared_metrics(trace: bool) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let map: Value =
        serde_json::from_str(METRICS_JSON).map_err(|e| format!("metrics.json: {e}"))?;
    let mapped: Vec<&str> = items(map.get("per_layer"))
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect();
    let key = if trace { "per_layer" } else { "end_to_end" };
    let mut declared = BTreeMap::new();
    for m in items(bench.get(key)) {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("unnamed metric")?;
        let unit = m
            .get("unit")
            .and_then(Value::as_str)
            .ok_or("metric without unit")?;
        if trace && !mapped.contains(&name) {
            return Err(format!("metrics.json does not map per-layer metric {name}"));
        }
        declared.insert(name.to_string(), unit.to_string());
    }
    Ok(declared)
}

fn items(v: Option<&Value>) -> impl Iterator<Item = &Value> {
    (0..).map_while(move |i| v.and_then(|v| v.get_index(i)))
}

/// The seed, core count, git revision and compiler of a run, as JSON.
fn context(run: &Run) -> String {
    let out = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"git_rev\": \"{}\", \"rustc\": \"{}\"}}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace),
        run.nproc,
        out("git", &["rev-parse", "HEAD"]),
        out(&rustc, &["--version"]),
    )
}

/// Prints per-metric deltas between two saved outputs of the same
/// workload, refusing outputs taken with different core counts.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [before, after] = args else {
        return Err("usage: qbsperf compare <before.out> <after.out>".into());
    };
    let (ctx_a, res_a) = parse_output(before)?;
    let (ctx_b, res_b) = parse_output(after)?;
    for key in ["nproc", "workload", "trace"] {
        let show = |ctx: &Value| {
            ctx.get(key).map_or("none".into(), |v| {
                serde_json::to_string(v).unwrap_or_default()
            })
        };
        let (a, b) = (show(&ctx_a), show(&ctx_b));
        if a != b {
            return Err(format!("refusing to compare: {key} differs ({a} vs {b})"));
        }
    }
    let (ma, mb) = (res_a.get("metrics"), res_b.get("metrics"));
    let Some(Value::Object(ma)) = ma else {
        return Err(format!("{before}: no metrics"));
    };
    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "metric", "before", "after", "change"
    );
    for (name, a) in ma.iter() {
        let value = |m: Option<&Value>| m.and_then(|m| m.get("value")).and_then(Value::as_f64);
        let (Some(a), Some(b)) = (value(Some(a)), value(mb.and_then(|m| m.get(name)))) else {
            continue;
        };
        println!(
            "{name:<36} {a:>14.4} {b:>14.4} {:>+8.1}%",
            stats::ratio(b - a, a) * 100.0
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The `context` object and the final result object of a saved output.
fn parse_output(path: &str) -> Result<(Value, Value), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ctx = text
        .lines()
        .find_map(|l| l.strip_prefix("context "))
        .ok_or(format!("{path}: no context line"))?;
    let last = text.lines().last().ok_or(format!("{path}: empty"))?;
    let parse = |s: &str| serde_json::from_str::<Value>(s).map_err(|e| format!("{path}: {e}"));
    Ok((parse(ctx)?, parse(last)?))
}
