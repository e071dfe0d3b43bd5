//! The benchmark's catalogue: workloads, end-to-end metrics and the
//! per-layer ladder, by the names every later change is judged with.
//!
//! `BENCHMARK.json` at the repository root is checked against this file by a
//! unit test, so the two cannot drift.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One closed-loop workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const SERVE_POINT: usize = 0;
pub const EMBED_QUERY: usize = 1;
pub const EMBED_CHURN: usize = 2;
pub const SPILL_RECOVER: usize = 3;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve_point",
        why: "small requests to smc-serve over loopback: the request path does the work and scans almost none",
    },
    Workload {
        name: "embed_query",
        why: "TPC-H Q1-Q6 in process at SF 0.1: scan kernels and reference joins do the work, allocator and rings none",
    },
    Workload {
        name: "embed_churn",
        why: "one thread of refresh batches beside one of back-to-back scans of one collection under a maintenance coordinator",
    },
    Workload {
        name: "spill_recover",
        why: "data four times the context budget: spill fault-in, cold scans, snapshot and recovery do the work",
    },
];

pub fn workload_index(name: &str) -> Option<usize> {
    WORKLOADS.iter().position(|w| w.name == name)
}

/// An end-to-end metric and the workloads that report it.
#[derive(Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Which of [`WORKLOADS`] report it, in order.
    pub cells: [bool; 4],
    /// Listed under `end_to_end` in `BENCHMARK.json` and so held to its
    /// bound by the driver; the others are listed under `per_layer`. The
    /// driver reads every gated metric from every workload, so only a
    /// metric with all four cells can be gated, and of those only one whose
    /// every cell `CALIBRATION.md` shows within the bound: a metric that
    /// fails there is demoted, never given a wider bound. `setup_s` is the
    /// exception the driver's contract makes: it must be listed.
    pub gated: bool,
    pub definition: &'static str,
}

const ALL: [bool; 4] = [true, true, true, true];

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        // Not the 10 % of the other timings: the driver's contract says to
        // give set-up time the largest bound, and the largest it allows is
        // 25 %.
        bound: 0.25,
        cells: ALL,
        gated: true,
        definition: "building the state the measured phase runs on (server start, load, preload, spill-out); median of 3 builds",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.1,
        cells: ALL,
        gated: false,
        definition: "primary ops completed per second of wall time, median of the windows",
    },
    EndToEnd {
        name: "write_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.1,
        cells: [true, false, true, false],
        gated: false,
        definition: "ingest request / refresh batch latency",
    },
    EndToEnd {
        name: "write_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.1,
        cells: [true, false, true, false],
        gated: false,
        definition: "same class, p99",
    },
    EndToEnd {
        name: "read_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.1,
        cells: ALL,
        gated: false,
        definition: "count/sum request; one eight-query pass; one concurrent scan; one faulting Ref::get",
    },
    EndToEnd {
        name: "read_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.1,
        // No read class has 20 000 samples in every 20 s run (README,
        // "Tails"), so no workload reports it yet.
        cells: [false, false, false, false],
        gated: false,
        definition: "same class, p99, where a run has 20 000 samples of it",
    },
    EndToEnd {
        name: "scan_mrows_per_s",
        unit: "Mrow/s",
        better: Better::Higher,
        bound: 0.1,
        cells: [false, true, true, false],
        gated: false,
        definition: "rows examined by resident scans / time inside them",
    },
    EndToEnd {
        name: "cold_scan_mrows_per_s",
        unit: "Mrow/s",
        better: Better::Higher,
        bound: 0.1,
        cells: [false, false, false, true],
        gated: false,
        definition: "rows examined by scans over the 3/4-spilled collection / time inside them",
    },
    EndToEnd {
        name: "snapshot_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.1,
        cells: [false, false, false, true],
        gated: false,
        definition: "live bytes / snapshot_to wall time, median of the laps",
    },
    EndToEnd {
        name: "recover_mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.1,
        cells: [false, false, false, true],
        gated: false,
        definition: "live bytes / recover_from wall time incl. verification, median of the laps",
    },
    EndToEnd {
        name: "bytes_per_live_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.02,
        cells: ALL,
        gated: false,
        definition: "(memory_bytes() + spill file bytes) / (live rows x row size) at the end of the measured phase",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        cells: ALL,
        gated: false,
        definition: "VmHWM of the workload's process at its end",
    },
];

/// One row of the per-layer ladder.
#[derive(Debug)]
pub struct Layer {
    /// The workspace crate the row belongs to.
    pub layer: &'static str,
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public function the row times or reads.
    pub call: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
    /// Workloads whose traced run measures the row.
    pub home: &'static [usize],
}

const EVERY: &[usize] = &[SERVE_POINT, EMBED_QUERY, EMBED_CHURN, SPILL_RECOVER];

macro_rules! layer {
    ($layer:literal, $name:literal, $unit:literal, $better:ident, $call:literal, $moves:literal, $home:expr) => {
        Layer {
            layer: $layer,
            name: $name,
            unit: $unit,
            better: Better::$better,
            call: $call,
            moves: $moves,
            home: $home,
        }
    };
}

pub const LADDER: [Layer; 42] = [
    layer!("smc-memory", "memory.block_alloc_free_ns", "ns", Lower,
        "Runtime::allocate_block + free_block", "write_p50_us on embed_churn", &[EMBED_CHURN]),
    layer!("smc-memory", "memory.pin_ns", "ns", Lower,
        "Runtime::pin + drop", "read_p50_us on serve_point, spill_recover", &[SERVE_POINT]),
    layer!("smc-memory", "memory.compact_mb_per_s", "MB/s", Higher,
        "MemoryContext::compact on a 50 %-decimated context",
        "bytes_per_live_byte, write_p99_us on embed_churn", &[EMBED_CHURN]),
    layer!("smc-memory", "memory.spill_block_us", "us", Lower,
        "MemoryContext::try_spill_one", "setup_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-memory", "memory.fault_in_us", "us", Lower,
        "MemoryContext::fault_in_block", "read_p50_us, ops_per_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-memory", "memory.blocks_faulted", "count", Lower,
        "MemoryStats::blocks_faulted_in delta over the measured phase", "explains fault_in_us", EVERY),
    layer!("smc-memory", "memory.blocks_spilled", "count", Lower,
        "MemoryStats::blocks_spilled delta over the measured phase", "explains spill_block_us", EVERY),
    layer!("smc-memory", "memory.remote_frees", "count", Lower,
        "MemoryStats::remote_frees delta over the measured phase", "explains block_alloc_free_ns", EVERY),
    layer!("smc", "core.add_ns", "ns", Lower,
        "Smc::add", "ops_per_s, write_p50_us on embed_churn, serve_point", &[EMBED_CHURN]),
    layer!("smc", "core.remove_ns", "ns", Lower,
        "Smc::remove", "ops_per_s, write_p50_us on embed_churn, serve_point", &[EMBED_CHURN]),
    layer!("smc", "core.resolve_ns", "ns", Lower,
        "Ref::get on random resident refs", "read_p50_us on embed_query (join queries)", &[EMBED_QUERY]),
    layer!("smc", "core.resolve_direct_ns", "ns", Lower,
        "DirectRef::get on random resident refs", "read_p50_us on embed_query (join queries)", &[EMBED_QUERY]),
    layer!("smc", "core.row_scan_mrows_per_s", "Mrow/s", Higher,
        "Smc::for_each on a fresh collection", "scan_mrows_per_s on embed_query", &[EMBED_QUERY]),
    layer!("smc", "core.worn_scan_mrows_per_s", "Mrow/s", Higher,
        "Smc::for_each after 50 % decimation, no compaction", "scan_mrows_per_s on embed_churn", &[EMBED_QUERY]),
    layer!("smc", "core.col_scan_mrows_per_s", "Mrow/s", Higher,
        "ColumnarSmc::for_each_block summing one column", "scan_mrows_per_s on embed_query", &[EMBED_QUERY]),
    layer!("smc-exec", "exec.dispatch_us", "us", Lower,
        "WorkerPool::run with an empty job", "read_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-exec", "exec.filter_count_mrows_per_s", "Mrow/s", Higher,
        "ParScan::filter_count", "scan_mrows_per_s on embed_query", &[EMBED_QUERY]),
    layer!("smc-exec", "exec.col_fold_mrows_per_s", "Mrow/s", Higher,
        "ParColumnarScan::fold_blocks", "scan_mrows_per_s on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q1_ms", "ms", Lower, "smc_q::q1", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q2_ms", "ms", Lower, "smc_q::q2", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q3_ms", "ms", Lower, "smc_q::q3", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q4_ms", "ms", Lower, "smc_q::q4", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q5_ms", "ms", Lower, "smc_q::q5", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q6_ms", "ms", Lower, "smc_q::q6", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q1_col_ms", "ms", Lower, "smc_q::q1_columnar", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("tpch", "query.q6_col_ms", "ms", Lower, "smc_q::q6_columnar", "read_p50_us on embed_query", &[EMBED_QUERY]),
    layer!("smc-maint", "maint.passes", "count", Higher,
        "Coordinator::snapshot passes_completed delta", "write_p99_us, bytes_per_live_byte on embed_churn", &[EMBED_CHURN]),
    layer!("smc-maint", "maint.deferred", "count", Lower,
        "Coordinator::snapshot passes_deferred delta", "write_p99_us, bytes_per_live_byte on embed_churn", &[EMBED_CHURN]),
    layer!("smc-maint", "maint.busy_ratio", "ratio", Lower,
        "MemoryStats::compaction_pass_ns sum / wall time", "write_p99_us, bytes_per_live_byte on embed_churn", &[EMBED_CHURN]),
    layer!("smc-maint", "maint.fg_scan_p99_ms", "ms", Lower,
        "p99 of thread B's scan latency (too few samples to gate)", "the paper's no-stall claim on embed_churn", &[EMBED_CHURN]),
    layer!("smc-persist", "persist.page_store_us", "us", Lower,
        "SpillFile::store_page", "setup_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-persist", "persist.page_load_us", "us", Lower,
        "SpillFile::load_page", "read_p50_us, cold_scan_mrows_per_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-persist", "persist.snapshot_pages", "count", Lower,
        "SnapshotReport::pages of one lap", "snapshot_mb_per_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-persist", "persist.recovered_objects", "count", Higher,
        "RecoveryReport::objects of one lap", "recover_mb_per_s on spill_recover", &[SPILL_RECOVER]),
    layer!("smc-util", "util.spsc_roundtrip_ns", "ns", Lower,
        "spsc::Producer::push -> Consumer::pop across two threads and back", "write_p50_us, ops_per_s on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.wire_encode_ns", "ns", Lower,
        "Request::encode of an 8-row upsert", "write_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.wire_decode_ns", "ns", Lower,
        "Request::decode of an 8-row upsert", "write_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.ping_us", "us", Lower,
        "Client::ping (socket + frame, no shard)", "floor of write_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.upsert1_us", "us", Lower,
        "Client::upsert of 1 row", "write_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.count_empty_us", "us", Lower,
        "Client::count on an empty tenant (scatter-gather, no scan)", "read_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-serve", "serve.ring_wait_share", "ratio", Lower,
        "Server::scrape_json attribution: ingest ring_wait_ns / total_ns with slow_request_threshold = 0",
        "write_p50_us on serve_point", &[SERVE_POINT]),
    layer!("smc-obs", "obs.trace_overhead_ratio", "ratio", Higher,
        "ops_per_s of traced windows / untraced windows of one run", "the cost of observing; nothing end to end", EVERY),
];

/// Name, unit and direction of every metric on a traced run's result line,
/// in the order of `per_layer` in `BENCHMARK.json`: the end-to-end metrics
/// that are not gated, then the ladder.
pub fn per_layer() -> Vec<(&'static str, &'static str, Better)> {
    END_TO_END
        .iter()
        .filter(|m| !m.gated)
        .map(|m| (m.name, m.unit, m.better))
        .chain(LADDER.iter().map(|l| (l.name, l.unit, l.better)))
        .collect()
}

/// The metrics one run of a workload produced, by catalogue name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    /// Sets a metric that exists only when the run had enough samples.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    /// Sets a tail percentile, or says on standard error that the op class
    /// had too few samples for one.
    pub fn set_tail(&mut self, name: &'static str, samples: &crate::stats::SortedSamples) {
        match samples.p99_us() {
            Some(v) => self.set(name, v),
            None => eprintln!(
                "smc-benchmark: {name} not reported: {} samples, under {}",
                samples.len(),
                crate::stats::TAIL_MIN_SAMPLES
            ),
        }
    }

    /// Adds every value of `other`.
    pub fn extend(&mut self, other: Values) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    #[cfg(test)]
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|&(n, _)| n)
    }

    /// The end-to-end cells a workload failed to report or reported without
    /// being ticked for them; empty when the run matches the catalogue. A
    /// ticked tail percentile may be absent: the run then had fewer than
    /// [`crate::stats::TAIL_MIN_SAMPLES`] samples of the op class and said
    /// so, and `--calibrate` fails on a cell that any run lacks.
    pub fn end_to_end_mismatch(&self, workload: usize) -> Vec<String> {
        let mut out = Vec::new();
        for m in &END_TO_END {
            match (m.cells[workload], self.get(m.name).is_some()) {
                (true, false) if m.name.ends_with("_p99_us") => {}
                (true, false) => out.push(format!("{} missing", m.name)),
                (false, true) => out.push(format!("{} not ticked", m.name)),
                _ => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_obs::JsonValue;

    impl Better {
        fn as_str(self) -> &'static str {
            match self {
                Better::Higher => "higher",
                Better::Lower => "lower",
            }
        }
    }

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_use_the_allowed_characters_once() {
        let mut seen = std::collections::HashSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for l in &LADDER {
            assert!(name_ok(l.name) && unit_ok(l.unit), "{}", l.name);
            assert!(!l.home.is_empty() && l.home.iter().all(|&w| w < 4));
            assert!(seen.insert(l.name), "{} used twice", l.name);
        }
        assert!(!name_ok("p99 us") && !name_ok("_x") && !name_ok("µs") && !unit_ok("µs"));
    }

    #[test]
    fn ticks_are_the_issue_table() {
        let ticked = |w: usize| -> Vec<&str> {
            END_TO_END
                .iter()
                .filter(|m| m.cells[w])
                .map(|m| m.name)
                .collect()
        };
        assert_eq!(
            ticked(SERVE_POINT),
            [
                "setup_s",
                "ops_per_s",
                "write_p50_us",
                "write_p99_us",
                "read_p50_us",
                "bytes_per_live_byte",
                "peak_rss_mb"
            ]
        );
        assert_eq!(
            ticked(EMBED_QUERY),
            [
                "setup_s",
                "ops_per_s",
                "read_p50_us",
                "scan_mrows_per_s",
                "bytes_per_live_byte",
                "peak_rss_mb"
            ]
        );
        assert_eq!(
            ticked(EMBED_CHURN),
            [
                "setup_s",
                "ops_per_s",
                "write_p50_us",
                "write_p99_us",
                "read_p50_us",
                "scan_mrows_per_s",
                "bytes_per_live_byte",
                "peak_rss_mb"
            ]
        );
        assert_eq!(
            ticked(SPILL_RECOVER),
            [
                "setup_s",
                "ops_per_s",
                "read_p50_us",
                "cold_scan_mrows_per_s",
                "snapshot_mb_per_s",
                "recover_mb_per_s",
                "bytes_per_live_byte",
                "peak_rss_mb"
            ]
        );
        // The driver reads every gated metric from every workload, and
        // wants set-up time among them.
        assert!(END_TO_END.iter().all(|m| !m.gated || m.cells == [true; 4]));
        assert!(END_TO_END[0].name == "setup_s" && END_TO_END[0].gated);
    }

    #[test]
    fn values_are_checked_against_the_ticks() {
        let mut v = Values::default();
        for m in END_TO_END.iter().filter(|m| m.cells[EMBED_QUERY]) {
            v.set(m.name, 1.0);
        }
        assert!(v.end_to_end_mismatch(EMBED_QUERY).is_empty());
        assert_eq!(v.end_to_end_mismatch(EMBED_CHURN), ["write_p50_us missing"]);
        v.set("snapshot_mb_per_s", 1.0);
        assert_eq!(
            v.end_to_end_mismatch(EMBED_QUERY),
            ["snapshot_mb_per_s not ticked"]
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// catalogue the program reports with.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );

        let str_of =
            |v: &JsonValue, k: &str| v.get(k).and_then(JsonValue::as_str).unwrap().to_string();
        let workloads: Vec<(String, String)> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| (str_of(w, "name"), str_of(w, "why")))
            .collect();
        let want: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(workloads, want);

        let e2e: Vec<(String, String, String, f64)> = doc
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    str_of(m, "name"),
                    str_of(m, "unit"),
                    str_of(m, "better"),
                    m.get("bound").and_then(JsonValue::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .filter(|m| m.gated)
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.better.as_str().to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<(String, String, String)> = doc
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let want: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string()))
            .collect();
        assert_eq!(layers, want);
        assert_eq!(layers.len(), 53);
    }
}
