//! Cross-backend validation: every query implementation — SMC compiled
//! (safe, unsafe, direct, columnar, LINQ), managed (List and Dictionary
//! enumeration), and the columnstore engine — must return exactly the same
//! rows for the same generated database. Decimal arithmetic is exact, so
//! the comparison is equality, not tolerance.

use tpch::csdb::CsDb;
use tpch::gcdb::GcDb;
use tpch::queries::gc_q::EnumVia;
use tpch::queries::{cs_q, gc_q, smc_q, Params};
use tpch::smcdb::SmcDb;
use tpch::Generator;

struct World {
    smc: SmcDb,
    gc: GcDb,
    cs: CsDb,
    params: Params,
}

fn world() -> World {
    let gen = Generator::new(0.004);
    let heap = managed_heap::ManagedHeap::new_batch();
    World {
        smc: SmcDb::load(&gen, true),
        gc: GcDb::load(&gen, &heap),
        cs: CsDb::load(&gen),
        params: Params::default(),
    }
}

#[test]
fn q1_identical_across_all_backends() {
    let w = world();
    let reference = smc_q::q1(&w.smc, &w.params);
    assert!(!reference.is_empty(), "Q1 must produce groups");
    assert_eq!(
        reference.len(),
        4,
        "the four real TPC-H Q1 groups: A-F, N-F, N-O, R-F"
    );
    assert_eq!(
        smc_q::q1_unsafe(&w.smc, &w.params),
        reference,
        "unsafe variant"
    );
    assert_eq!(
        smc_q::q1_columnar(&w.smc, &w.params),
        reference,
        "columnar variant"
    );
    assert_eq!(smc_q::q1_linq(&w.smc, &w.params), reference, "LINQ engine");
    assert_eq!(
        gc_q::q1(&w.gc, &w.params, EnumVia::List),
        reference,
        "managed list"
    );
    assert_eq!(
        gc_q::q1(&w.gc, &w.params, EnumVia::Dict),
        reference,
        "managed dict"
    );
    assert_eq!(cs_q::q1(&w.cs, &w.params), reference, "columnstore");
}

/// The memory context of every row table of `db`.
fn row_contexts(db: &SmcDb) -> [&std::sync::Arc<smc_memory::MemoryContext>; 8] {
    [
        db.regions.context(),
        db.nations.context(),
        db.suppliers.context(),
        db.parts.context(),
        db.partsupps.context(),
        db.customers.context(),
        db.orders.context(),
        db.lineitems.context(),
    ]
}

#[test]
fn spilled_world_answers_as_the_resident_one() {
    // Every row table is spilled down to its tail block before each query,
    // so every scan starts on spilled pages and every reference join of
    // Q2–Q5 follows a `Ref` into one from inside that scan, and the direct
    // series follow `DirectRef`s whose targets were spilled under them.
    // Series left out: the columnar ones (`*_columnar`, `q6_columnar_par`),
    // because the columnar layout cannot spill.
    let db = SmcDb::load(&Generator::new(0.004), false);
    let p = Params::default();
    let pool = smc_exec::WorkerPool::for_runtime(&db.runtime, 2).unwrap();
    let q1 = smc_q::q1(&db, &p);
    let q2 = smc_q::q2(&db, &p);
    let q3 = smc_q::q3(&db, &p);
    let q4 = smc_q::q4(&db, &p);
    let q5 = smc_q::q5(&db, &p);
    let q6 = smc_q::q6(&db, &p);
    let nested = tpch::workloads::smc_enumerate_nested(&db);
    assert!(!q3.is_empty() && !q5.is_empty());
    for ctx in row_contexts(&db) {
        assert!(ctx.enable_spill(std::sync::Arc::new(smc_memory::MemoryPageStore::new())));
    }
    same(&db, "q1", &q1, || smc_q::q1(&db, &p));
    same(&db, "q1_unsafe", &q1, || smc_q::q1_unsafe(&db, &p));
    same(&db, "q1_par", &q1, || smc_q::q1_par(&db, &p, &pool));
    same(&db, "q1_linq", &q1, || smc_q::q1_linq(&db, &p));
    same(&db, "q2", &q2, || smc_q::q2(&db, &p));
    same(&db, "q3", &q3, || smc_q::q3(&db, &p));
    same(&db, "q4", &q4, || smc_q::q4(&db, &p));
    same(&db, "q5", &q5, || smc_q::q5(&db, &p));
    same(&db, "q6", &q6, || smc_q::q6(&db, &p));
    same(&db, "q6_par", &q6, || smc_q::q6_par(&db, &p, &pool));
    same(&db, "q6_linq", &q6, || smc_q::q6_linq(&db, &p));
    same(&db, "q3_direct", &q3, || smc_q::q3_direct(&db, &p));
    same(&db, "q4_direct", &q4, || smc_q::q4_direct(&db, &p));
    same(&db, "q5_direct", &q5, || smc_q::q5_direct(&db, &p));
    same(&db, "smc_enumerate_nested_direct", &nested, || {
        tpch::workloads::smc_enumerate_nested_direct(&db)
    });
}

/// Spills every row table of `db` down to the block its loading thread
/// still allocates into, then asserts `query` answers `resident`.
fn same<R: PartialEq + std::fmt::Debug>(
    db: &SmcDb,
    name: &str,
    resident: &R,
    query: impl Fn() -> R,
) {
    for ctx in row_contexts(db) {
        while ctx.try_spill_one() {}
    }
    assert!(db.orders.spilled_objects() > 0 && db.lineitems.spilled_objects() > 0);
    assert_eq!(&query(), resident, "{name} over spilled tables");
}

#[test]
fn q2_identical_across_backends() {
    let w = world();
    let reference = smc_q::q2(&w.smc, &w.params);
    assert_eq!(gc_q::q2(&w.gc, &w.params), reference, "managed");
    assert_eq!(cs_q::q2(&w.cs, &w.params), reference, "columnstore");
}

#[test]
fn q3_identical_across_all_backends() {
    let w = world();
    let reference = smc_q::q3(&w.smc, &w.params);
    assert!(!reference.is_empty(), "Q3 should find qualifying orders");
    assert!(reference.len() <= 10);
    assert_eq!(
        smc_q::q3_direct(&w.smc, &w.params),
        reference,
        "direct pointers"
    );
    assert_eq!(smc_q::q3_columnar(&w.smc, &w.params), reference, "columnar");
    assert_eq!(
        gc_q::q3(&w.gc, &w.params, EnumVia::List),
        reference,
        "managed list"
    );
    assert_eq!(
        gc_q::q3(&w.gc, &w.params, EnumVia::Dict),
        reference,
        "managed dict"
    );
    assert_eq!(cs_q::q3(&w.cs, &w.params), reference, "columnstore");
    // Revenue ordering holds.
    for pair in reference.windows(2) {
        assert!(pair[0].revenue >= pair[1].revenue);
    }
}

#[test]
fn q4_identical_across_all_backends() {
    let w = world();
    let reference = smc_q::q4(&w.smc, &w.params);
    assert_eq!(reference.len(), 5, "all five priorities appear");
    assert_eq!(
        smc_q::q4_direct(&w.smc, &w.params),
        reference,
        "direct pointers"
    );
    assert_eq!(
        gc_q::q4(&w.gc, &w.params, EnumVia::List),
        reference,
        "managed list"
    );
    assert_eq!(
        gc_q::q4(&w.gc, &w.params, EnumVia::Dict),
        reference,
        "managed dict"
    );
    assert_eq!(cs_q::q4(&w.cs, &w.params), reference, "columnstore");
}

#[test]
fn q5_identical_across_all_backends() {
    let w = world();
    let reference = smc_q::q5(&w.smc, &w.params);
    assert!(!reference.is_empty(), "ASIA nations should have revenue");
    assert_eq!(
        smc_q::q5_direct(&w.smc, &w.params),
        reference,
        "direct pointers"
    );
    assert_eq!(smc_q::q5_columnar(&w.smc, &w.params), reference, "columnar");
    assert_eq!(
        gc_q::q5(&w.gc, &w.params, EnumVia::List),
        reference,
        "managed list"
    );
    assert_eq!(
        gc_q::q5(&w.gc, &w.params, EnumVia::Dict),
        reference,
        "managed dict"
    );
    assert_eq!(cs_q::q5(&w.cs, &w.params), reference, "columnstore");
}

#[test]
fn q6_identical_across_all_backends() {
    let w = world();
    let reference = smc_q::q6(&w.smc, &w.params);
    assert!(reference > smc_memory::Decimal::ZERO);
    assert_eq!(smc_q::q6_columnar(&w.smc, &w.params), reference, "columnar");
    assert_eq!(smc_q::q6_linq(&w.smc, &w.params), reference, "LINQ engine");
    assert_eq!(
        gc_q::q6(&w.gc, &w.params, EnumVia::List),
        reference,
        "managed list"
    );
    assert_eq!(
        gc_q::q6(&w.gc, &w.params, EnumVia::Dict),
        reference,
        "managed dict"
    );
    assert_eq!(cs_q::q6(&w.cs, &w.params), reference, "columnstore");
}

#[test]
fn refresh_streams_keep_backends_consistent() {
    // Run identical refresh streams against SMC and managed databases and
    // verify the surviving populations match.
    let gen = Generator::new(0.002);
    let heap = managed_heap::ManagedHeap::new_batch();
    let smc = SmcDb::load(&gen, false);
    let gc = GcDb::load(&gen, &heap);
    let initial = smc.lineitems.len();
    assert_eq!(initial, gc.lineitems.len() as u64);

    let mut rng = tpch::workloads::workload_rng(42);
    let victims = tpch::workloads::pick_victims(&mut rng, gen.cardinalities().orders as i64, 50);
    let removed_smc = tpch::workloads::smc_removal_stream(&smc, &victims);
    let removed_gc = tpch::workloads::gc_list_removal_stream(&gc, &victims);
    assert_eq!(removed_smc, removed_gc, "same victims remove the same rows");
    // Dictionary view sees the same removals.
    let removed_dict = tpch::workloads::gc_dict_removal_stream(&gc, &victims);
    assert_eq!(removed_dict, removed_gc, "dict view removes the same rows");

    let mut rng2 = tpch::workloads::workload_rng(43);
    tpch::workloads::smc_insert_stream(&smc, &mut rng2, 2_000_000_000, 100);
    let mut rng3 = tpch::workloads::workload_rng(43);
    tpch::workloads::gc_insert_stream(&gc, &mut rng3, 2_000_000_000, 100);
    assert_eq!(smc.lineitems.len(), initial - removed_smc as u64 + 100);
    assert_eq!(gc.lineitems.len() as u64, initial - removed_gc as u64 + 100);
}

#[test]
fn enumerations_agree_between_backends() {
    let gen = Generator::new(0.002);
    let heap = managed_heap::ManagedHeap::new_batch();
    let smc = SmcDb::load(&gen, false);
    let gc = GcDb::load(&gen, &heap);
    let (n1, a1) = tpch::workloads::smc_enumerate_flat(&smc);
    let (n2, a2) = tpch::workloads::gc_enumerate_flat(&gc);
    assert_eq!((n1, a1), (n2, a2), "flat enumeration checksum");
    let (n3, a3) = tpch::workloads::smc_enumerate_nested(&smc);
    let (n4, a4) = tpch::workloads::gc_enumerate_nested(&gc);
    assert_eq!((n3, a3), (n4, a4), "nested enumeration checksum");
    let (n5, a5) = tpch::workloads::smc_enumerate_nested_direct(&smc);
    assert_eq!((n3, a3), (n5, a5), "direct-pointer enumeration checksum");
}

#[test]
fn worn_database_preserves_query_results_for_surviving_rows() {
    // After churn, Q1 totals change, but the SMC and managed databases worn
    // with the same deterministic streams stay equal.
    let gen = Generator::new(0.002);
    let heap = managed_heap::ManagedHeap::new_batch();
    let smc = SmcDb::load(&gen, false);
    let gc = GcDb::load(&gen, &heap);
    let mut rng_a = tpch::workloads::workload_rng(7);
    let mut rng_b = tpch::workloads::workload_rng(7);
    tpch::workloads::wear_smc(&smc, &mut rng_a, 3, 0.05);
    tpch::workloads::wear_gc(&gc, &mut rng_b, 3, 0.05);
    assert_eq!(smc.lineitems.len(), gc.lineitems.len() as u64);
    let p = Params::default();
    assert_eq!(smc_q::q6(&smc, &p), gc_q::q6(&gc, &p, EnumVia::List));
}
