//! Tail-latency attribution: where slow requests spent their time.
//!
//! Every dispatched request is timed end to end on its connection thread;
//! one that completes at or over the configured threshold
//! ([`ServerConfig::slow_request_threshold`](crate::ServerConfig::slow_request_threshold))
//! records a structured breakdown — the [`STAGES`] its time went to (ring
//! wait, shard execution, reply wake), spill faults, and whether a
//! maintenance pass was running — into per-op-class histograms and
//! counters. The two classes are **ingest** (`UPSERT`/`DELETE`) and
//! **query** (`COUNT`/`SUM`): the paper's workloads tail out for different
//! reasons on each (budget pressure vs. scan interference), so mixing them
//! in one histogram hides exactly the signal an operator needs. Tenant
//! budget pressure itself is each tenant's `over_budget_errors`.
//!
//! The breakdown is surfaced once, as the `attribution` section of the
//! `SCRAPE` document ([`Attribution::to_json`]); `smc-top` renders it and
//! `smc-loadgen` copies it into `BENCH_fig16.json` as `attr_*` histogram
//! summaries.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use smc_obs::{Histogram, JsonValue};

/// The two request classes attribution is kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `UPSERT` and `DELETE`: the write path (budget gate, index upkeep).
    Ingest,
    /// `COUNT` and `SUM`: the morsel-parallel scan path.
    Query,
}

impl OpClass {
    /// Stable lowercase name used in JSON documents and report keys.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Ingest => "ingest",
            OpClass::Query => "query",
        }
    }
}

/// The stages a shard-bound request passes through between its connection
/// thread's enqueue and its pick-up of the reply, in path order, by the key
/// of each stage's histogram in the scrape document. Together they cover
/// the request: ring wait + exec + reply wake ≈ `total_ns`. Everything that
/// lists the stages — [`SlowBreakdown::stages`], the scrape JSON, `smc-top`,
/// `smc-loadgen` — walks this array.
pub const STAGES: [&str; 3] = ["ring_wait_ns", "exec_ns", "reply_wake_ns"];

/// One request's structured breakdown: measured per shard-side job on the
/// shard thread, handed back with the reply, and aggregated across the
/// shards the request touched by [`SlowBreakdown::fold`].
///
/// The event counters are deltas of the shard runtime's `MemoryStats`
/// across the job's execution window. A concurrent maintenance pass on the
/// same runtime bumps the same counters, so they attribute *pressure
/// during the request*, not strictly work *of* the request — which is the
/// operator-relevant reading (the request stalled behind it either way),
/// and `maint_active` names the confounder explicitly.
#[derive(Debug, Clone, Copy, Default)]
pub struct SlowBreakdown {
    /// Longest time any shard-bound job of this request sat in its SPSC
    /// ring before the shard thread picked it up.
    pub ring_wait_ns: u64,
    /// Longest shard-side execution time (the scatter-gather critical
    /// path; shards run in parallel, so max — not sum — is the tail).
    pub exec_ns: u64,
    /// Longest time any shard's reply sat in its reply ring before the
    /// connection thread picked it up.
    pub reply_wake_ns: u64,
    /// Blocks faulted in from the spill tier during execution.
    pub spill_faults: u64,
    /// True when a background maintenance pass was in flight on at least
    /// one touched shard while the request executed.
    pub maint_active: bool,
}

impl SlowBreakdown {
    /// The per-stage nanoseconds, in [`STAGES`] order.
    pub fn stages(&self) -> [u64; STAGES.len()] {
        [self.ring_wait_ns, self.exec_ns, self.reply_wake_ns]
    }

    /// Folds one shard's part of the request into the whole: max for the
    /// stages (shards run in parallel, so the slowest one *is* the
    /// request's critical path), sum for the event counters, any for the
    /// maintenance overlap.
    pub fn fold(&mut self, shard: &SlowBreakdown) {
        self.ring_wait_ns = self.ring_wait_ns.max(shard.ring_wait_ns);
        self.exec_ns = self.exec_ns.max(shard.exec_ns);
        self.reply_wake_ns = self.reply_wake_ns.max(shard.reply_wake_ns);
        self.spill_faults += shard.spill_faults;
        self.maint_active |= shard.maint_active;
    }
}

/// Histograms and counters for one [`OpClass`].
#[derive(Debug)]
pub struct ClassAttribution {
    /// Requests of this class that crossed the threshold.
    slow_requests: AtomicU64,
    /// End-to-end latency of slow requests (ns).
    total: Histogram,
    /// Per-stage components of slow requests (ns), in [`STAGES`] order.
    stages: [Histogram; STAGES.len()],
    /// Spill-tier faults summed over slow requests.
    spill_faults: AtomicU64,
    /// Slow requests that overlapped a maintenance pass.
    maint_overlaps: AtomicU64,
}

impl ClassAttribution {
    const fn new() -> ClassAttribution {
        ClassAttribution {
            slow_requests: AtomicU64::new(0),
            total: Histogram::new(),
            stages: [const { Histogram::new() }; STAGES.len()],
            spill_faults: AtomicU64::new(0),
            maint_overlaps: AtomicU64::new(0),
        }
    }

    /// Slow requests recorded so far.
    pub fn slow_requests(&self) -> u64 {
        self.slow_requests.load(Ordering::Relaxed)
    }

    /// End-to-end latency histogram of slow requests.
    pub fn total(&self) -> &Histogram {
        &self.total
    }

    /// One stage's histogram of slow requests, by its [`STAGES`] key.
    pub fn stage(&self, key: &str) -> Option<&Histogram> {
        let i = STAGES.iter().position(|s| *s == key)?;
        Some(&self.stages[i])
    }

    fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::obj();
        obj.set("slow_requests", JsonValue::from(self.slow_requests()));
        obj.set("total_ns", summary_json(&self.total));
        for (key, h) in STAGES.iter().zip(&self.stages) {
            obj.set(*key, summary_json(h));
        }
        obj.set(
            "spill_faults",
            JsonValue::from(self.spill_faults.load(Ordering::Relaxed)),
        );
        obj.set(
            "maint_overlaps",
            JsonValue::from(self.maint_overlaps.load(Ordering::Relaxed)),
        );
        obj
    }
}

/// A histogram summary in the same field shape `Report::histogram` writes,
/// so `smc-loadgen` folds a scrape into its report verbatim.
pub(crate) fn summary_json(h: &Histogram) -> JsonValue {
    let s = h.summary();
    let mut obj = JsonValue::obj();
    obj.set("count", JsonValue::from(s.count));
    obj.set("sum_ns", JsonValue::from(s.sum));
    obj.set("min_ns", JsonValue::from(s.min));
    obj.set("max_ns", JsonValue::from(s.max));
    obj.set("mean_ns", JsonValue::from(s.mean));
    obj.set("p50_ns", JsonValue::from(s.p50));
    obj.set("p95_ns", JsonValue::from(s.p95));
    obj.set("p99_ns", JsonValue::from(s.p99));
    obj
}

/// Server-wide tail-latency attribution, shared by every connection
/// thread. All recording is lock-free (atomic counters + the lock-free
/// [`Histogram`]s), so attribution adds no serialization to the data path.
#[derive(Debug)]
pub struct Attribution {
    threshold_ns: u64,
    ingest: ClassAttribution,
    query: ClassAttribution,
}

impl Attribution {
    /// Attribution with the given slow-request threshold. A zero threshold
    /// records every request (`smc-serve --slow-us 0`), so a load run's
    /// fig16 always carries a populated breakdown.
    pub fn new(threshold: Duration) -> Attribution {
        Attribution {
            threshold_ns: threshold.as_nanos().min(u64::MAX as u128) as u64,
            ingest: ClassAttribution::new(),
            query: ClassAttribution::new(),
        }
    }

    /// The configured threshold in nanoseconds.
    pub fn threshold_ns(&self) -> u64 {
        self.threshold_ns
    }

    /// One class's histograms and counters.
    pub fn class(&self, class: OpClass) -> &ClassAttribution {
        match class {
            OpClass::Ingest => &self.ingest,
            OpClass::Query => &self.query,
        }
    }

    /// Records one completed request; a no-op below the threshold.
    pub fn observe(&self, class: OpClass, total_ns: u64, breakdown: &SlowBreakdown) {
        if total_ns < self.threshold_ns {
            return;
        }
        let c = self.class(class);
        c.slow_requests.fetch_add(1, Ordering::Relaxed);
        c.total.record(total_ns);
        for (h, ns) in c.stages.iter().zip(breakdown.stages()) {
            h.record(ns);
        }
        c.spill_faults
            .fetch_add(breakdown.spill_faults, Ordering::Relaxed);
        c.maint_overlaps
            .fetch_add(breakdown.maint_active as u64, Ordering::Relaxed);
    }

    /// The attribution section of the `SCRAPE` document.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::obj();
        obj.set("threshold_ns", JsonValue::from(self.threshold_ns));
        obj.set("ingest", self.ingest.to_json());
        obj.set("query", self.query.to_json());
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_gates_recording() {
        let attr = Attribution::new(Duration::from_micros(100));
        attr.observe(OpClass::Query, 99_999, &SlowBreakdown::default());
        assert_eq!(attr.class(OpClass::Query).slow_requests(), 0);
        attr.observe(
            OpClass::Query,
            100_000,
            &SlowBreakdown {
                ring_wait_ns: 40_000,
                exec_ns: 55_000,
                reply_wake_ns: 4_000,
                spill_faults: 2,
                maint_active: true,
            },
        );
        let q = attr.class(OpClass::Query);
        assert_eq!(q.slow_requests(), 1);
        assert_eq!(q.total().count(), 1);
        assert_eq!(q.stage("ring_wait_ns").unwrap().max(), 40_000);
        assert_eq!(q.stage("reply_wake_ns").unwrap().max(), 4_000);
        assert!(q.stage("total_ns").is_none(), "total is not a stage");
        assert_eq!(attr.class(OpClass::Ingest).slow_requests(), 0);
    }

    #[test]
    fn json_shape_matches_report_histograms() {
        let attr = Attribution::new(Duration::ZERO);
        attr.observe(
            OpClass::Ingest,
            5_000,
            &SlowBreakdown {
                ring_wait_ns: 1_000,
                exec_ns: 3_000,
                ..SlowBreakdown::default()
            },
        );
        let doc = attr.to_json();
        let ingest = doc.get("ingest").expect("ingest section");
        assert_eq!(
            ingest.get("slow_requests").and_then(JsonValue::as_u64),
            Some(1)
        );
        for hist in std::iter::once("total_ns").chain(STAGES) {
            let h = ingest.get(hist).expect("histogram section");
            for field in [
                "count", "sum_ns", "min_ns", "max_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns",
            ] {
                assert!(h.get(field).is_some(), "{hist} missing {field}");
            }
        }
        assert_eq!(
            doc.get("query")
                .and_then(|q| q.get("slow_requests"))
                .and_then(JsonValue::as_u64),
            Some(0)
        );
    }
}
