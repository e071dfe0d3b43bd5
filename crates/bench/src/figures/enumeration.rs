//! Fig 10: enumeration performance, fresh vs worn, flat vs nested.
//!
//! Fresh = straight after bulk load; worn = after churn cycles that remove
//! and insert objects, scattering managed objects across the heap and
//! leaving limbo holes in SMC blocks. Nested enumeration follows
//! lineitem → order → customer (§7).

use managed_heap::{GcConcurrentBag, ManagedHeap};
use smc_memory::MemoryStats;
use tpch::gcdb::{GcDb, GcLineitem};
use tpch::smcdb::SmcDb;
use tpch::workloads::{self, workload_rng};
use tpch::Generator;

use super::{claim_ratio, new_report, row, series, timed_ms, Scale, NA};
use crate::Report;

/// Churn cycles between the fresh and the worn measurement.
const WEAR_CYCLES: usize = 8;

/// Fig 10: every collection type enumerated fresh and worn, then the worn
/// SMC decimated and compacted.
pub fn fig10(scale: &Scale) -> Report {
    let gen = Generator::new(scale.sf);
    let mut report = new_report("fig10");
    report.param("sf", scale.sf);
    report.param("wear_cycles", WEAR_CYCLES);

    // Managed: the list, plus bag and dictionary views of the same objects.
    let heap = ManagedHeap::new_batch();
    let gc = GcDb::load(&gen, &heap);
    let bag: GcConcurrentBag<GcLineitem> = GcConcurrentBag::new(&heap);
    gc.lineitems
        .for_each_handle(&heap.enter(), |h, _| bag.add_handle(h));
    let list_flat = || timed_ms(|| workloads::gc_enumerate_flat(&gc));
    let list_nested = || timed_ms(|| workloads::gc_enumerate_nested(&gc));
    let dict_flat = || {
        timed_ms(|| {
            let mut acc = 0i64;
            let sum = |l: &GcLineitem| acc = acc.wrapping_add(l.orderkey);
            gc.lineitem_dict.for_each(&heap.enter(), sum);
            acc
        })
    };
    let bag_fresh = timed_ms(|| {
        let mut acc = 0i64;
        bag.for_each(&heap.enter(), |l| acc = acc.wrapping_add(l.orderkey));
        acc
    });
    let dict_nested_fresh = timed_ms(|| {
        let mut acc = 0i64;
        gc.lineitem_dict.for_each(&heap.enter(), |l| {
            let customer = gc.order_arena.get(l.order).map(|o| o.customer);
            if let Some(c) = customer.and_then(|c| gc.customer_arena.get(c)) {
                acc = acc.wrapping_add(c.key);
            }
        });
        acc
    });
    let (list_fresh, dict_fresh) = ([list_flat(), list_nested()], dict_flat());
    workloads::wear_gc(&gc, &mut workload_rng(11), WEAR_CYCLES, 0.2);
    heap.collect_full();
    let (list_worn, dict_worn) = ([list_flat(), list_nested()], dict_flat());

    // SMC: flat, nested through checked `Ref`s, nested through §6 direct
    // pointers.
    let smc = SmcDb::load(&gen, false);
    let smc_times = || {
        [
            timed_ms(|| workloads::smc_enumerate_flat(&smc)),
            timed_ms(|| workloads::smc_enumerate_nested(&smc)),
            timed_ms(|| workloads::smc_enumerate_nested_direct(&smc)),
        ]
    };
    let smc_fresh = smc_times();
    let mut rng = workload_rng(11);
    workloads::wear_smc(&smc, &mut rng, WEAR_CYCLES, 0.2);
    let smc_worn = smc_times();

    let columns = "series flat_fresh_ms flat_worn_ms nested_fresh_ms nested_worn_ms";
    let sid = series(&mut report, "enumeration", columns);
    let interleave = |fresh: &[f64], worn: &[f64]| [fresh[0], worn[0], fresh[1], worn[1]];
    let rows = [
        ("List", interleave(&list_fresh, &list_worn)),
        ("C.Bag", [bag_fresh, NA, NA, NA]),
        (
            "C.Dictionary",
            [dict_fresh, dict_worn, dict_nested_fresh, NA],
        ),
        ("SMC", interleave(&smc_fresh, &smc_worn)),
        // Direct pointers do not change a flat scan: nothing to measure.
        ("SMC (direct)", [NA, NA, smc_fresh[2], smc_worn[2]]),
    ];
    for (name, cells) in rows {
        report.push_row(sid, row(name, cells));
    }

    // Both databases were worn from one seed, so the worn list is the model
    // of what the worn SMC must still enumerate: (count, checksum).
    let worn = [
        workloads::smc_enumerate_flat(&smc),
        workloads::smc_enumerate_nested(&smc),
    ];
    let model = [
        workloads::gc_enumerate_flat(&gc),
        workloads::gc_enumerate_nested(&gc),
    ];
    report.check(
        "worn_smc_enumerates_what_the_worn_list_does",
        worn == model && worn[1] == workloads::smc_enumerate_nested_direct(&smc),
        format!("flat and nested (count, checksum): SMC {worn:?}, List {model:?}"),
    );

    // Post-wear compaction: decimate the worn SMC (removals without
    // re-insertion drive block occupancy under the compaction threshold),
    // defragment, and enumerate the survivors.
    let removed = workloads::smc_decimate(&smc, &mut rng, 0.8) as u64;
    // Orders too: the lineitems' direct pointers lead into their blocks, so
    // the pass over them retires blocks those pointers point into.
    workloads::decimate(&smc.orders, &mut rng, 0.8);
    let decimated = workloads::smc_enumerate_flat(&smc);
    let stats = &smc.runtime.stats;
    let fixed = || MemoryStats::get(&stats.direct_pointers_fixed);
    let fixed_before = fixed();
    let passes = [
        smc.lineitems.compact(),
        smc.orders.compact(),
        smc.customers.compact(),
    ];
    let fixed = fixed() - fixed_before;
    let moved: usize = passes.iter().map(|p| p.moved).sum();
    let compacted = workloads::smc_enumerate_flat(&smc);
    let columns = "series flat_ms nested_ms removed objects_moved";
    let sid = series(&mut report, "post_compaction", columns);
    let cells = [
        timed_ms(|| workloads::smc_enumerate_flat(&smc)),
        timed_ms(|| workloads::smc_enumerate_nested(&smc)),
        removed as f64,
        moved as f64,
    ];
    report.push_row(sid, row("SMC (compacted)", cells));
    report.histogram("compaction_pass_ns", &stats.compaction_pass_ns);
    report.histogram("compaction_pause_ns", &stats.compaction_pause_ns);
    let (kept, was) = (compacted.0, worn[0].0);
    // The pass over `orders` retired blocks the lineitems' direct pointers
    // led into; the fix-up healed or cleared each of them, so the direct
    // walk still agrees with the checked one.
    let nested = workloads::smc_enumerate_nested(&smc);
    let direct = workloads::smc_enumerate_nested_direct(&smc);
    let retired = passes.map(|p| p.retired);
    report.check(
        "compaction_moves_objects_and_loses_none",
        moved > 0 && compacted == decimated && kept == was - removed && fixed > 0 && direct == nested,
        format!("{moved} objects moved; {kept} of {was} left after removing {removed}; (count, checksum) {decimated:?} before, {compacted:?} after; blocks retired {retired:?}, direct pointers fixed {fixed}; nested {nested:?}, direct {direct:?}"),
    );

    let flat = ["flat_fresh_ms", "flat_worn_ms"].map(|c| (("List", c), ("SMC", c)));
    let name = "smc_flat_scan_beats_list";
    claim_ratio(&mut report, name, "enumeration", &flat);
    let dict = "C.Dictionary";
    let wear = [((dict, "flat_worn_ms"), (dict, "flat_fresh_ms"))];
    let name = "worn_dictionary_slower_than_fresh";
    claim_ratio(&mut report, name, "enumeration", &wear);
    report
}
