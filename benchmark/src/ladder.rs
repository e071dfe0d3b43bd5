//! The per-layer ladder: probes that time one public call each, and the
//! rule that turns span totals into ladder rows.
//!
//! A probe runs in the traced run of the workload the row explains (its
//! `home` in the catalogue), after that workload's measured phase, with
//! spans on. It opens one span around a batch of identical calls with the
//! batch size as the span's items, or one span per call where a call takes
//! microseconds, so the clock reads stay a small share of what is timed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use smc::{ContextConfig, Ref, Runtime, Smc};
use smc_exec::{ParColumnarScan, ParScan, WorkerPool};
use smc_memory::{Decimal, PageStore, SlotState, BLOCK_SIZE};
use smc_persist::SpillFile;
use smc_serve::wire::Request;
use smc_serve::Client;
use smc_util::{spsc, Pcg32};
use tpch::smcdb::{licol, Order, SmcDb};

use crate::metrics::Values;
use crate::trace::{self, Total};
use crate::workloads::{nproc, wide_row, Tally, WideRow};

/// How a ladder row is read off the spans of one name.
#[derive(Debug, Clone, Copy)]
enum Read {
    NsPerItem,
    UsPerItem,
    MsPerSpan,
    /// Million items per second; bytes as items gives MB/s.
    MegaPerSecond,
}

/// Ladder row, the span it is read from, and how.
const FROM_SPANS: [(&str, &str, Read); 31] = [
    (
        "memory.block_alloc_free_ns",
        "memory.block_alloc_free",
        Read::NsPerItem,
    ),
    ("memory.pin_ns", "memory.pin", Read::NsPerItem),
    (
        "memory.compact_mb_per_s",
        "memory.compact",
        Read::MegaPerSecond,
    ),
    (
        "memory.spill_block_us",
        "memory.spill_block",
        Read::UsPerItem,
    ),
    ("memory.fault_in_us", "memory.fault_in", Read::UsPerItem),
    ("core.add_ns", "core.add", Read::NsPerItem),
    ("core.remove_ns", "core.remove", Read::NsPerItem),
    ("core.resolve_ns", "core.resolve", Read::NsPerItem),
    (
        "core.resolve_direct_ns",
        "core.resolve_direct",
        Read::NsPerItem,
    ),
    (
        "core.row_scan_mrows_per_s",
        "core.row_scan",
        Read::MegaPerSecond,
    ),
    (
        "core.worn_scan_mrows_per_s",
        "core.worn_scan",
        Read::MegaPerSecond,
    ),
    (
        "core.col_scan_mrows_per_s",
        "core.col_scan",
        Read::MegaPerSecond,
    ),
    ("exec.dispatch_us", "exec.dispatch", Read::UsPerItem),
    (
        "exec.filter_count_mrows_per_s",
        "exec.filter_count",
        Read::MegaPerSecond,
    ),
    (
        "exec.col_fold_mrows_per_s",
        "exec.col_fold",
        Read::MegaPerSecond,
    ),
    ("query.q1_ms", "query.q1", Read::MsPerSpan),
    ("query.q2_ms", "query.q2", Read::MsPerSpan),
    ("query.q3_ms", "query.q3", Read::MsPerSpan),
    ("query.q4_ms", "query.q4", Read::MsPerSpan),
    ("query.q5_ms", "query.q5", Read::MsPerSpan),
    ("query.q6_ms", "query.q6", Read::MsPerSpan),
    ("query.q1_col_ms", "query.q1_col", Read::MsPerSpan),
    ("query.q6_col_ms", "query.q6_col", Read::MsPerSpan),
    (
        "persist.page_store_us",
        "persist.page_store",
        Read::UsPerItem,
    ),
    ("persist.page_load_us", "persist.page_load", Read::UsPerItem),
    (
        "util.spsc_roundtrip_ns",
        "util.spsc_roundtrip",
        Read::NsPerItem,
    ),
    ("serve.wire_encode_ns", "serve.wire_encode", Read::NsPerItem),
    ("serve.wire_decode_ns", "serve.wire_decode", Read::NsPerItem),
    ("serve.ping_us", "serve.ping", Read::UsPerItem),
    ("serve.upsert1_us", "serve.upsert1", Read::UsPerItem),
    ("serve.count_empty_us", "serve.count_empty", Read::UsPerItem),
];

/// Ladder rows that the recorded spans give.
pub fn rows_from_spans(totals: &BTreeMap<&'static str, Total>) -> Values {
    let mut out = Values::default();
    for (row, span, read) in FROM_SPANS {
        let Some(t) = totals.get(span).filter(|t| t.spans > 0) else {
            continue;
        };
        out.set(
            row,
            match read {
                Read::NsPerItem => t.ns_per_item(),
                Read::UsPerItem => t.ns_per_item() / 1e3,
                Read::MsPerSpan => t.total_ns as f64 / t.spans as f64 / 1e6,
                Read::MegaPerSecond => t.mitems_per_s(),
            },
        );
    }
    out
}

/// Probes against the running server: `serve.ping_us`, `serve.upsert1_us`,
/// `serve.count_empty_us`. `empty_tenant` has never been written to.
pub fn serve_probes(client: &mut Client, probe_tenant: u16, empty_tenant: u16, tally: &mut Tally) {
    for i in 0..5_000u64 {
        let pong = {
            let _s = trace::span("serve.ping");
            client.ping()
        };
        tally.check(pong.is_ok(), || format!("ping answered {pong:?}"));
        let applied = {
            let _s = trace::span("serve.upsert1");
            client.upsert(probe_tenant, vec![(i % 1024, i)])
        };
        tally.check(matches!(applied, Ok(1)), || {
            format!("1-row upsert answered {applied:?}")
        });
        let counted = {
            let _s = trace::span("serve.count_empty");
            client.count(empty_tenant, 0, u64::MAX)
        };
        tally.check(matches!(counted, Ok(0)), || {
            format!("count on the empty tenant answered {counted:?}")
        });
    }
}

/// Probes of the pieces a request crosses, without a server:
/// `memory.pin_ns`, `exec.dispatch_us`, `util.spsc_roundtrip_ns`,
/// `serve.wire_encode_ns`, `serve.wire_decode_ns`.
pub fn request_path_probes() {
    let pins = 1_000_000;
    let runtime = Runtime::new();
    {
        let _s = trace::span_items("memory.pin", pins);
        for _ in 0..pins {
            std::hint::black_box(runtime.pin());
        }
    }

    let dispatches = 20_000;
    let pool = WorkerPool::new(1);
    {
        let _s = trace::span_items("exec.dispatch", dispatches);
        for _ in 0..dispatches {
            pool.run(&|_| {});
        }
    }

    let roundtrips = 200_000u32;
    let (to_echo, mut echo_in) = spsc::channel::<u64>(256);
    let (to_main, mut main_in) = spsc::channel::<u64>(256);
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut echoed = 0;
            while echoed < roundtrips {
                if let Some(v) = echo_in.pop() {
                    while to_main.push(v).is_err() {}
                    echoed += 1;
                } else {
                    std::hint::spin_loop();
                }
            }
        });
        let _s = trace::span_items("util.spsc_roundtrip", roundtrips);
        for i in 0..u64::from(roundtrips) {
            while to_echo.push(i).is_err() {}
            while main_in.pop().is_none() {
                std::hint::spin_loop();
            }
        }
    });

    let codings = 200_000;
    let request = Request::Upsert {
        tenant: 1,
        rows: (0..8).map(|i| (i * 7919, i << 12)).collect(),
    };
    let encoded = request.encode();
    {
        let _s = trace::span_items("serve.wire_encode", codings);
        for _ in 0..codings {
            std::hint::black_box(std::hint::black_box(&request).encode());
        }
    }
    {
        let _s = trace::span_items("serve.wire_decode", codings);
        for _ in 0..codings {
            std::hint::black_box(
                Request::decode(std::hint::black_box(&encoded)).expect("own encoding decodes"),
            );
        }
    }
}

/// Probes of the write path: `memory.block_alloc_free_ns`, `core.add_ns`,
/// `core.remove_ns`, `memory.compact_mb_per_s`.
pub fn churn_probes() {
    let blocks = 100_000;
    let rows = 1_000_000u32;
    let runtime = Runtime::new();
    // Blocks at half occupancy take part: the default ceiling of 30 % would
    // leave a 50 %-decimated context untouched.
    let smc: Smc<WideRow> = Smc::with_config(
        &runtime,
        ContextConfig {
            compaction_occupancy: 0.75,
            ..ContextConfig::default()
        },
    );
    let ctx = smc.context();
    {
        let _s = trace::span_items("memory.block_alloc_free", blocks);
        for _ in 0..blocks {
            let block = runtime
                .allocate_block(ctx.layout(), ctx.type_id(), ctx.id())
                .expect("an unbudgeted runtime allocates");
            runtime.free_block(block);
        }
    }

    let mut refs: Vec<Ref<WideRow>> = Vec::with_capacity(rows as usize);
    {
        let _s = trace::span_items("core.add", rows);
        for key in 0..u64::from(rows) {
            refs.push(smc.add(wide_row(key)));
        }
    }
    // Remove every other row of a shuffled order: a 50 % decimation that
    // leaves every block half empty.
    let mut rng = Pcg32::seed_from_u64(0x1add);
    for i in (1..refs.len()).rev() {
        refs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let (gone, kept) = refs.split_at(refs.len() / 2);
    {
        let _s = trace::span_items("core.remove", gone.len() as u32);
        for r in gone {
            std::hint::black_box(smc.remove(*r));
        }
    }
    let footprint = smc.memory_bytes();
    let report = {
        let _s = trace::span_items("memory.compact", footprint as u32);
        smc.compact()
    };
    assert!(
        report.moved > 0 && !report.aborted,
        "the compaction probe moved nothing: {report:?}"
    );
    let guard = runtime.pin();
    assert!(
        kept.iter().all(|r| r.get(&guard).is_some()),
        "a kept row was lost in compaction"
    );
}

/// Probes of the read path over the loaded TPC-H database and a collection
/// of 64-byte rows: `core.resolve_ns`, `core.resolve_direct_ns`,
/// `core.row_scan_mrows_per_s`, `core.worn_scan_mrows_per_s`,
/// `core.col_scan_mrows_per_s`, `exec.filter_count_mrows_per_s`,
/// `exec.col_fold_mrows_per_s`.
pub fn query_probes(db: &SmcDb) {
    const REPEATS: usize = 5;
    let mut rng = Pcg32::seed_from_u64(0x9e7);
    let guard = db.runtime.pin();
    let mut refs: Vec<Ref<Order>> = Vec::new();
    db.orders.for_each_ref(&guard, |r, _| refs.push(r));
    for i in (1..refs.len()).rev() {
        refs.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let directs: Vec<_> = refs
        .iter()
        .map(|r| r.to_direct(&guard).expect("a live order"))
        .collect();
    let mut keys = 0i64;
    for _ in 0..REPEATS {
        let _s = trace::span_items("core.resolve", refs.len() as u32);
        for r in &refs {
            keys = keys.wrapping_add(r.get(&guard).expect("a live order").key);
        }
    }
    for _ in 0..REPEATS {
        let _s = trace::span_items("core.resolve_direct", directs.len() as u32);
        for d in &directs {
            keys = keys.wrapping_sub(d.get(&guard).expect("a live order").key);
        }
    }
    assert_eq!(
        keys, 0,
        "checked and direct references resolved to different orders"
    );

    let col = db
        .lineitems_col
        .as_ref()
        .expect("the database was loaded with its columnar twin");
    let rows = col.len() as u32;
    let column_sum = |cols: &smc::ColumnArrays, block: &smc_memory::block::BlockRef| {
        let cap = block.header().capacity as usize;
        // SAFETY: QUANTITY is a Decimal column of LineitemCol and `cap` is
        // the block's slot count, as in `smc_q::q6_columnar`.
        let quantities = unsafe { cols.column_slice::<Decimal>(licol::QUANTITY, cap) };
        let mut sum = Decimal::ZERO;
        for (slot, q) in quantities.iter().enumerate() {
            if block.slot_word(slot as u32).state() == SlotState::Valid {
                sum += *q;
            }
        }
        sum
    };
    let mut sequential = Decimal::ZERO;
    for _ in 0..REPEATS {
        let _s = trace::span_items("core.col_scan", rows);
        sequential = Decimal::ZERO;
        col.for_each_block(&guard, |cols, block| sequential += column_sum(cols, block));
    }
    drop(guard);

    let pool = WorkerPool::for_runtime(&db.runtime, nproc())
        .expect("a loaded runtime has room for the workers");
    let limit = Decimal::from_int(24);
    let mut below = 0;
    for _ in 0..REPEATS {
        let _s = trace::span_items("exec.filter_count", db.lineitems.len() as u32);
        below = ParScan::new(&db.lineitems, &pool).filter_count(|l| l.quantity < limit);
    }
    assert!(below > 0 && below < db.lineitems.len());
    for _ in 0..REPEATS {
        let _s = trace::span_items("exec.col_fold", rows);
        let parallel = ParColumnarScan::new(col, &pool).fold_blocks(
            || Decimal::ZERO,
            |acc, cols, block| *acc += column_sum(cols, block),
            |into, part| *into += part,
        );
        assert_eq!(
            parallel, sequential,
            "parallel and sequential column sums differ"
        );
    }

    let wide_rows = 1_000_000u64;
    let runtime = Runtime::new();
    let smc: Smc<WideRow> = Smc::new(&runtime);
    let refs: Vec<Ref<WideRow>> = (0..wide_rows).map(|k| smc.add(wide_row(k))).collect();
    let scan = |name: &'static str, want: u64| {
        let guard = runtime.pin();
        for _ in 0..REPEATS {
            let _s = trace::span_items(name, want as u32);
            let mut sum = 0u64;
            let seen = smc.for_each(&guard, |row| sum = sum.wrapping_add(row[0]));
            assert_eq!(seen, want);
            std::hint::black_box(sum);
        }
    };
    scan("core.row_scan", wide_rows);
    for r in &refs {
        if rng.next_u32() % 2 == 0 {
            smc.remove(*r);
        }
    }
    scan("core.worn_scan", smc.len());
}

/// Probes of the spill tier: `memory.spill_block_us`, `memory.fault_in_us`
/// on a collection of its own, `persist.page_store_us`,
/// `persist.page_load_us` on a heapfile of its own.
pub fn spill_probes(scratch: &Path) {
    let blocks = 256;
    let path = scratch.join("probe-spill.dat");
    let store = Arc::new(SpillFile::create(&path).expect("create the probe's spill file"));
    let runtime = Runtime::new();
    let smc: Smc<WideRow> = Smc::new(&runtime);
    assert!(smc.enable_spill(store.clone()));
    let mut key = 0;
    while smc.context().block_count() <= blocks {
        smc.add(wide_row(key));
        key += 1;
    }
    let block_ids: Vec<u64> = smc.heap_snapshot().collections[0]
        .blocks
        .iter()
        .map(|b| b.block_id)
        .collect();
    let ctx = smc.context();
    let mut spilled = 0;
    loop {
        let _s = trace::span("memory.spill_block");
        if !ctx.try_spill_one() {
            break;
        }
        spilled += 1;
    }
    assert!(
        spilled >= blocks / 2,
        "only {spilled} of {blocks} blocks spilled"
    );
    let mut faulted = 0;
    for id in block_ids {
        let _s = trace::span("memory.fault_in");
        faulted += usize::from(ctx.fault_in_block(id).expect("a stored page loads"));
    }
    assert!(
        faulted >= spilled.min(blocks / 2),
        "only {faulted} of {spilled} pages came back"
    );
    drop(smc);
    let _ = std::fs::remove_file(&path);

    let pages = 2_000u64;
    let path = scratch.join("probe-pages.dat");
    let file = SpillFile::create(&path).expect("create the probe's heapfile");
    let page: Vec<u8> = (0..BLOCK_SIZE).map(|i| (i * 31) as u8).collect();
    let tickets: Vec<u64> = (0..pages)
        .map(|id| {
            let _s = trace::span("persist.page_store");
            file.store_page(id, &page).expect("store a page")
        })
        .collect();
    let mut out = Vec::new();
    for (id, ticket) in tickets.into_iter().enumerate() {
        {
            let _s = trace::span("persist.page_load");
            file.load_page(ticket, id as u64, &mut out)
                .expect("load a page");
        }
        assert_eq!(out, page);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LADDER;

    #[test]
    fn every_span_row_is_a_ladder_row_and_reads_in_its_unit() {
        let mut totals = BTreeMap::new();
        for (_, span, _) in FROM_SPANS {
            totals.insert(
                span,
                Total {
                    spans: 4,
                    items: 2_000,
                    total_ns: 8_000_000,
                    self_ns: 8_000_000,
                },
            );
        }
        let rows = rows_from_spans(&totals);
        assert_eq!(rows.names().count(), FROM_SPANS.len());
        for name in rows.names() {
            assert!(
                LADDER.iter().any(|l| l.name == name),
                "{name} is not in the ladder"
            );
        }
        assert_eq!(rows.get("core.add_ns"), Some(4_000.0));
        assert_eq!(rows.get("serve.ping_us"), Some(4.0));
        assert_eq!(rows.get("query.q3_ms"), Some(2.0));
        assert_eq!(rows.get("core.row_scan_mrows_per_s"), Some(0.25));
        assert!(rows_from_spans(&BTreeMap::new()).names().next().is_none());
    }
}
