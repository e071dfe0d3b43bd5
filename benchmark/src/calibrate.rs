//! `--calibrate N`: is every gated metric steady enough for its bound?
//!
//! Runs the whole set N times for each of two base seeds (the given one and
//! 7; run `i` of a set uses seed `base + i`), untraced, every workload in a
//! child process of its own. For every end-to-end cell it reports the
//! median, the quartiles and the spread `(max - min) / median` of each set.
//! A cell passes when both sets' spreads are within the metric's bound and
//! the second set's median is not worse than the first's by more than the
//! bound. A metric with a cell that fails here is taken off the gated list,
//! not given a wider bound.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use crate::metrics::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::{median, quartiles};
use crate::{run_child, Args};

/// Base seed of the second set.
const SECOND_SEED: u64 = 7;
/// Where the table goes, from the repository root.
const OUT: &str = "benchmark/CALIBRATION.md";

/// Order statistics of one cell over one set of runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Option<Spread> {
        let (q1, q3) = quartiles(values)?;
        Some(Spread {
            median: median(values)?,
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        })
    }

    /// Full range as a share of the median.
    pub fn range_share(&self) -> f64 {
        (self.max - self.min) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// By what share of `first` the median `second` is worse; negative when it
/// is better.
pub fn worsening(better: Better, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Whether a cell is steady enough to be gated at the metric's bound.
pub fn verdict(m: &EndToEnd, a: &Spread, b: &Spread) -> bool {
    a.range_share() <= m.bound
        && b.range_share() <= m.bound
        && worsening(m.better, a.median, b.median) <= m.bound
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

pub fn run(args: &Args, runs: usize) -> ExitCode {
    let bases = [args.seed, SECOND_SEED];
    // values[set][workload][metric] = one value per run
    let mut values =
        vec![vec![vec![Vec::<f64>::new(); END_TO_END.len()]; WORKLOADS.len()]; bases.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (set, &base) in bases.iter().enumerate() {
        for i in 0..runs {
            for w in 0..WORKLOADS.len() {
                let seed = base + i as u64;
                eprintln!(
                    "smc-benchmark: calibrate set {} run {}/{runs}: {} seed {seed}",
                    set + 1,
                    i + 1,
                    WORKLOADS[w].name
                );
                let r = match run_child(w, seed, args.seconds, false) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("smc-benchmark: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                attempted += r.attempted;
                failed += r.failed;
                for (mi, m) in END_TO_END.iter().enumerate() {
                    if let Some(v) = r.get(m.name) {
                        values[set][w][mi].push(v);
                    }
                }
            }
        }
    }

    let mut doc = String::new();
    let _ = writeln!(doc, "# Calibration of `smc-benchmark`\n");
    let _ = writeln!(
        doc,
        "Written by `smc-benchmark --calibrate {runs} --seed {} --seconds {}` from the repository root: two sets of {runs} untraced runs of \
         every workload, run `i` of a set with seed `base + i`, bases {} and {SECOND_SEED}. Same commit, same binary.\n",
        args.seed, args.seconds, args.seed
    );
    let _ = writeln!(doc, "- hardware threads: {}", crate::workloads::nproc());
    let _ = writeln!(doc, "- kernel: {}", command_line("uname", &["-sr"]));
    let _ = writeln!(doc, "- rustc: {}", command_line("rustc", &["--version"]));
    let _ = writeln!(doc, "- ops attempted {attempted}, failed {failed}\n");
    let _ = writeln!(
        doc,
        "`q1`, `q3` are the quartiles as Python's `statistics.quantiles(v, n=4)` gives them; `spread` is \
         `(max - min) / median`; `shift` is by how much the second set's median is worse than the first's \
         (negative: better). A cell passes when both spreads and the shift are within the bound. A gated metric \
         must pass on every workload; a metric with a failing cell is listed per layer instead.\n"
    );
    let _ = writeln!(
        doc,
        "| workload | metric | unit | bound | gated | median A | q1 A | q3 A | spread A | median B | q1 B | q3 B | spread B | shift | verdict |"
    );
    let _ = writeln!(
        doc,
        "|---|---|---|---:|:-:|---:|---:|---:|---:|---:|---:|---:|---:|---:|:-:|"
    );
    let mut all_ok = true;
    let pct = |x: f64| format!("{:.2} %", x * 100.0);
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            if !m.cells[w] {
                continue;
            }
            // Only a tail percentile can be missing from a run that passed.
            let reported = values[0][w][mi].len() + values[1][w][mi].len();
            let (Some(a), Some(b)) = (Spread::of(&values[0][w][mi]), Spread::of(&values[1][w][mi]))
            else {
                let _ = writeln!(
                    doc,
                    "| {} | {} | {} | {} | no | - | - | - | - | - | - | - | - | - | reported by {reported} of {} runs: untick it |",
                    workload.name,
                    m.name,
                    m.unit,
                    pct(m.bound),
                    2 * runs
                );
                all_ok = false;
                continue;
            };
            let every_run = reported == 2 * runs;
            let ok = verdict(m, &a, &b);
            all_ok &= every_run && (ok || !m.gated);
            let f = crate::format_value;
            let _ = writeln!(
                doc,
                "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                workload.name,
                m.name,
                m.unit,
                pct(m.bound),
                if m.gated { "yes" } else { "no" },
                f(a.median),
                f(a.q1),
                f(a.q3),
                pct(a.range_share()),
                f(b.median),
                f(b.q1),
                f(b.q3),
                pct(b.range_share()),
                pct(worsening(m.better, a.median, b.median)),
                match (every_run, ok, m.gated) {
                    (false, ..) => "missing from a run: untick it",
                    (_, true, true) => "pass",
                    (_, false, true) => "FAIL",
                    (_, true, false) => "steady",
                    (_, false, false) => "noisy",
                }
            );
        }
    }
    print!("{doc}");
    if let Err(e) = std::fs::write(OUT, &doc) {
        eprintln!("smc-benchmark: cannot write {OUT}: {e}");
        return ExitCode::from(2);
    }
    eprintln!("smc-benchmark: wrote {OUT}");
    if all_ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "smc-benchmark: a gated metric is not steady within its bound, a ticked cell is missing from a run, or an op failed"
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn spread_and_verdict_follow_the_acceptance_rule() {
        let v: Vec<f64> = (1..=10).map(|i| 100.0 + f64::from(i)).collect();
        let a = Spread::of(&v).unwrap();
        assert_eq!(
            (a.median, a.q1, a.q3, a.min, a.max),
            (105.5, 102.75, 108.25, 101.0, 110.0)
        );
        assert!((a.range_share() - 9.0 / 105.5).abs() < 1e-12);
        assert_eq!(Spread::of(&[1.0]), None);

        assert_eq!(worsening(Better::Lower, 100.0, 110.0), 0.10);
        assert_eq!(worsening(Better::Higher, 100.0, 110.0), -0.10);

        let ops = end_to_end("ops_per_s").unwrap();
        let shifted = |by: f64| Spread::of(&v.iter().map(|x| x * by).collect::<Vec<_>>()).unwrap();
        assert!(verdict(ops, &a, &shifted(1.0 - ops.bound / 2.0)));
        assert!(!verdict(ops, &a, &shifted(1.0 - ops.bound * 1.5)));
        assert!(verdict(ops, &a, &shifted(1.5)));
        // One run out of ten that strays is enough: the spread is the full
        // range, for set-up time as for any other metric.
        let strayed = |bound: f64| {
            let mut v = v.clone();
            v[9] = 100.0 * (1.0 + bound * 1.2);
            Spread::of(&v).unwrap()
        };
        let one = strayed(ops.bound);
        assert!(!verdict(ops, &a, &one) && !verdict(ops, &one, &a));
        let setup = end_to_end("setup_s").unwrap();
        assert!(verdict(setup, &a, &a) && !verdict(setup, &a, &strayed(setup.bound)));
    }
}
