//! `smc-benchmark`: four closed-loop workloads, their end-to-end metrics,
//! and the per-layer ladder. See `README.md` beside this package.
//!
//! ```text
//! smc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! smc-benchmark [--seed N] [--seconds S]         all four, then traced, one table
//! smc-benchmark --calibrate N [--seed N] [--seconds S]
//! ```
//!
//! A workload always runs in a process of its own, so `peak_rss_mb` and the
//! allocator's state do not leak from one to the next.

mod calibrate;
mod ladder;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use smc_obs::JsonValue;

use metrics::{Values, END_TO_END, LADDER, WORKLOADS};
use workloads::{Outcome, RunConfig};

/// Length of the measured phase unless `--seconds` says otherwise; equal to
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: u64 = 20;
/// Seed unless `--seed` says otherwise.
const DEFAULT_SEED: u64 = 42;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<usize>,
    seed: u64,
    seconds: f64,
    traced: bool,
    calibrate: Option<usize>,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS as f64,
        traced: false,
        calibrate: None,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    metrics::workload_index(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--calibrate" => {
                let n: usize = value()?.parse().map_err(|e| format!("--calibrate: {e}"))?;
                if n < 2 {
                    return Err("--calibrate needs at least 2 runs".into());
                }
                out.calibrate = Some(n);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Where build products go: the benchmark writes only there.
fn build_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn format_value(v: f64) -> String {
    if v == 0.0 || (1e-3..1e7).contains(&v.abs()) {
        let digits = if v.abs() >= 1000.0 {
            1
        } else if v.abs() >= 10.0 {
            2
        } else {
            4
        };
        format!("{v:.digits$}")
    } else {
        format!("{v:e}")
    }
}

fn json_metrics(items: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The line `smc-benchmark` and `--calibrate` read from a child: every cell
/// the workload measured, by name with its unit, and nothing else.
fn cells_line(
    workload: usize,
    traced: bool,
    outcome: &Outcome,
    layers: &Values,
) -> Result<String, String> {
    let cells: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .filter_map(|m| outcome.end_to_end.get(m.name).map(|v| (m.name, m.unit, v)))
        .chain(
            LADDER
                .iter()
                .filter_map(|l| layers.get(l.name).map(|v| (l.name, l.unit, v))),
        )
        .collect();
    if let Some((name, _, v)) = cells.iter().find(|(_, _, v)| !v.is_finite()) {
        return Err(format!("{name} is {v}"));
    }
    Ok(format!(
        "{{\"workload\": \"{}\", \"traced\": {traced}, \"attempted\": {}, \"failed\": {}, \"cells\": {}}}",
        WORKLOADS[workload].name,
        outcome.tally.attempted,
        outcome.tally.failed,
        json_metrics(&cells)
    ))
}

/// The line the driver's contract asks for, last on standard output: every
/// gated end-to-end metric of an untraced run, every per-layer metric of a
/// traced one. The contract wants each listed name from each workload, so
/// in a traced run a row this workload does not measure reads 0.
fn contract_line(traced: bool, outcome: &Outcome, layers: &Values) -> Result<String, String> {
    let mut reported = Vec::new();
    if traced {
        for (name, unit, _) in metrics::per_layer() {
            let v = layers.get(name).or_else(|| outcome.end_to_end.get(name));
            reported.push((name, unit, v.unwrap_or(0.0)));
        }
    } else {
        for m in END_TO_END.iter().filter(|m| m.gated) {
            let v = outcome
                .end_to_end
                .get(m.name)
                .ok_or_else(|| format!("{} was not measured", m.name))?;
            reported.push((m.name, m.unit, v));
        }
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        json_metrics(&reported)
    ))
}

/// Runs one workload in this process and prints its two result lines.
fn run_workload(args: &Args, workload: usize) -> ExitCode {
    let name = WORKLOADS[workload].name;
    let scratch = build_dir()
        .join("smc-benchmark-tmp")
        .join(format!("{name}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("smc-benchmark: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        scratch: scratch.clone(),
    };
    let outcome = workloads::run(workload, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);

    let mut layers = outcome.layers.clone();
    if args.traced {
        trace::set_enabled(false);
        let spans = trace::collect();
        let totals = spans.totals();
        layers.extend(ladder::rows_from_spans(&totals));
        eprintln!("# {name} spans: name, count, items, total ms, self ms");
        for (span, t) in &totals {
            eprintln!(
                "{:<26} {:>9} {:>11} {:>12.3} {:>12.3}",
                span,
                t.spans,
                t.items,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        let path = build_dir().join(format!("smc-benchmark-trace-{name}.json"));
        match spans.write_chrome(&path, workload, name) {
            Ok(()) => eprintln!(
                "# chrome trace: {} ({} later spans only in the totals)",
                path.display(),
                spans.dropped()
            ),
            Err(e) => {
                eprintln!("smc-benchmark: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let mut failures = outcome.tally.failures.clone();
    for m in outcome.end_to_end.end_to_end_mismatch(workload) {
        failures.push(format!("end-to-end cell {m}"));
    }
    let lines = cells_line(workload, args.traced, &outcome, &layers)
        .and_then(|cells| Ok((cells, contract_line(args.traced, &outcome, &layers)?)));
    if let Err(e) = &lines {
        failures.push(e.clone());
    }
    for f in &failures {
        println!("FAILED: {f}");
    }
    match lines {
        Ok((cells, contract)) if failures.is_empty() && outcome.tally.failed == 0 => {
            println!("{cells}");
            println!("{contract}");
            ExitCode::SUCCESS
        }
        _ => ExitCode::FAILURE,
    }
}

/// What a child run of one workload reported.
#[derive(Debug, Clone, Default)]
pub struct ChildResult {
    /// Every cell the child measured, by catalogue name.
    pub cells: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl ChildResult {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.cells.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Runs one workload in a fresh child process and reads its cells line.
pub fn run_child(
    workload: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<ChildResult, String> {
    let name = WORKLOADS[workload].name;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{name} (seed {seed}) exited with {}:\n{stdout}",
            output.status
        ));
    }
    // The contract line is last; the cells line comes before it.
    let line = stdout
        .lines()
        .rev()
        .nth(1)
        .ok_or_else(|| format!("{name} printed no result"))?;
    let doc = JsonValue::parse(line).map_err(|e| format!("{name} cells line: {e}"))?;
    let count = |k: &str| doc.get(k).and_then(JsonValue::as_u64).unwrap_or(0);
    Ok(ChildResult {
        cells: doc
            .get("cells")
            .and_then(JsonValue::as_obj)
            .ok_or_else(|| format!("{name} cells line has no cells"))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        attempted: count("attempted"),
        failed: count("failed"),
    })
}

/// Runs all four workloads untraced, then traced, and prints one table of
/// every end-to-end cell and one of the 42 ladder rows.
fn run_all(args: &Args) -> ExitCode {
    let mut results = Vec::new();
    for traced in [false, true] {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            eprintln!(
                "smc-benchmark: {}{} ...",
                workload.name,
                if traced { " (traced)" } else { "" }
            );
            match run_child(w, args.seed, args.seconds, traced) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("smc-benchmark: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let (untraced, traced) = results.split_at(WORKLOADS.len());

    for w in &WORKLOADS {
        println!("# {}: {}", w.name, w.why);
    }
    println!(
        "# end to end: seed {}, {} s measured per workload, untraced",
        args.seed, args.seconds
    );
    print!("{:<22} {:<7}", "metric", "unit");
    for w in &WORKLOADS {
        print!(" {:>13}", w.name);
    }
    println!("  definition");
    for m in &END_TO_END {
        print!("{:<22} {:<7}", m.name, m.unit);
        for r in untraced {
            print!(
                " {:>13}",
                r.get(m.name).map_or("-".to_string(), format_value)
            );
        }
        println!("  {}", m.definition);
    }
    print!("{:<30}", "ops attempted / failed");
    for r in untraced {
        print!(" {:>13}", format!("{}/{}", r.attempted, r.failed));
    }
    println!();

    println!("# per layer: from the traced runs; a row is measured in its home workload");
    println!(
        "{:<11} {:<30} {:>13} {:<7} {:<13} public call timed -> should move",
        "layer", "name", "value", "unit", "measured in"
    );
    for l in &LADDER {
        for &home in l.home {
            println!(
                "{:<11} {:<30} {:>13} {:<7} {:<13} {} -> {}",
                l.layer,
                l.name,
                traced[home]
                    .get(l.name)
                    .map_or("-".to_string(), format_value),
                l.unit,
                WORKLOADS[home].name,
                l.call,
                l.moves
            );
        }
    }
    let queries: f64 = LADDER
        .iter()
        .filter(|l| l.name.starts_with("query."))
        .filter_map(|l| traced[metrics::EMBED_QUERY].get(l.name))
        .sum();
    if let Some(pass) = untraced[metrics::EMBED_QUERY].get("read_p50_us") {
        println!(
            "# sum of query.*_ms = {queries:.3} ms; embed_query read_p50_us = {:.3} ms",
            pass / 1e3
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("smc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match (args.calibrate, args.workload) {
        (Some(runs), _) => calibrate::run(&args, runs),
        (None, Some(w)) => run_workload(&args, w),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_strict() {
        let a = parse("--workload embed_churn --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some(2), 7, 2.5, true)
        );
        let d = parse("").unwrap();
        assert_eq!(
            (d.workload, d.seed, d.seconds, d.traced),
            (None, 42, 20.0, false)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--calibrate 1").is_err());
        assert!(parse("--frobnicate").is_err());
    }

    fn metric_names(line: &str, under: &str) -> Vec<String> {
        JsonValue::parse(line)
            .unwrap()
            .get(under)
            .unwrap()
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect()
    }

    #[test]
    fn result_lines_carry_what_was_measured_and_what_the_contract_lists() {
        let mut outcome = Outcome::default();
        outcome.tally.check(true, String::new);
        for m in END_TO_END.iter().filter(|m| m.cells[metrics::EMBED_QUERY]) {
            outcome.end_to_end.set(m.name, 1.5);
        }
        let mut layers = Values::default();
        layers.set("query.q1_ms", 12.25);

        // The cells line has exactly the measured cells.
        let cells = cells_line(metrics::EMBED_QUERY, true, &outcome, &layers).unwrap();
        let want: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.cells[metrics::EMBED_QUERY])
            .map(|m| m.name)
            .chain(["query.q1_ms"])
            .collect();
        assert_eq!(metric_names(&cells, "cells"), want);

        // Untraced, the contract line has exactly the gated metrics.
        let contract = contract_line(false, &outcome, &Values::default()).unwrap();
        let doc = JsonValue::parse(&contract).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        let gated: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| m.name)
            .collect();
        assert_eq!(metric_names(&contract, "metrics"), gated);

        // Traced, every per-layer name; 0 where this workload has no such
        // cell.
        let contract = contract_line(true, &outcome, &layers).unwrap();
        let want: Vec<&str> = metrics::per_layer()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert_eq!(metric_names(&contract, "metrics"), want);
        let doc = JsonValue::parse(&contract).unwrap();
        let value = |n: &str| {
            doc.get("metrics")
                .unwrap()
                .get(n)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
        };
        assert_eq!(value("query.q1_ms"), Some(12.25));
        assert_eq!(value("scan_mrows_per_s"), Some(1.5));
        assert_eq!(value("write_p99_us"), Some(0.0));
        assert_eq!(value("serve.ping_us"), Some(0.0));

        // A gated metric that was not measured is an error, not a zero.
        assert!(contract_line(false, &Outcome::default(), &Values::default()).is_err());
    }
}
