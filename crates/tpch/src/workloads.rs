//! Non-query workloads of the evaluation: the refresh streams of Fig 8 and
//! the flat/nested enumerations of Fig 10.
//!
//! A refresh stream either (a) inserts new lineitems amounting to 0.1 % of
//! the initial population, or (b) enumerates the collection once and
//! removes the 0.1 % of objects whose order key falls in a provided hash
//! set — "All 0.1 % objects to delete are provided in a hash map and
//! removed in a single enumeration over the collection" (§7).

use std::collections::HashSet;

use smc_util::rng::Pcg32 as StdRng;

use smc_memory::Decimal;

use crate::dates::{LAST_ORDER_DATE, START_DATE};
use crate::gcdb::{lineitem_key, GcDb, GcLineitem};
use crate::smcdb::{Lineitem, SmcDb};

/// Synthesizes a fresh lineitem for insert streams (keys beyond the loaded
/// population so removals never collide with inserts).
fn synthetic_lineitem(rng: &mut StdRng, orderkey: i64) -> (i64, i32, Decimal, Decimal, i32) {
    let quantity = rng.gen_range(1..=50i64);
    let price = Decimal::from_cents(rng.gen_range(90_000i64..=200_000) * quantity);
    let shipdate = rng.gen_range(START_DATE..=LAST_ORDER_DATE);
    (
        orderkey,
        rng.gen_range(1..=7),
        Decimal::from_int(quantity),
        price,
        shipdate,
    )
}

/// One SMC insert stream: adds `count` synthetic lineitems.
pub fn smc_insert_stream(db: &SmcDb, rng: &mut StdRng, base_key: i64, count: usize) {
    for i in 0..count {
        let (orderkey, linenumber, quantity, price, shipdate) =
            synthetic_lineitem(rng, base_key + i as i64);
        db.lineitems.add(Lineitem {
            orderkey,
            partkey: 1,
            suppkey: 1,
            order: smc::Ref::null(),
            part: smc::Ref::null(),
            supplier: smc::Ref::null(),
            order_d: None,
            supplier_d: None,
            linenumber,
            quantity,
            extendedprice: price,
            discount: Decimal::ZERO,
            tax: Decimal::ZERO,
            returnflag: b'N',
            linestatus: b'O',
            shipdate,
            commitdate: shipdate + 10,
            receiptdate: shipdate + 20,
            shipinstruct: 0,
            shipmode: 0,
            comment: "refresh".into(),
        });
    }
}

/// One SMC removal stream: single enumeration removing lineitems whose
/// order key is in `victims` (§7's predicate-based removal).
pub fn smc_removal_stream(db: &SmcDb, victims: &HashSet<i64>) -> usize {
    let guard = db.runtime.pin();
    let mut to_remove = Vec::new();
    db.lineitems.for_each_ref(&guard, |r, l| {
        if victims.contains(&l.orderkey) {
            to_remove.push(r);
        }
    });
    drop(guard);
    let mut removed = 0;
    for r in to_remove {
        if db.lineitems.remove(r) {
            removed += 1;
        }
    }
    removed
}

/// Decimates the SMC lineitems: removes roughly `fraction` of all live
/// lineitems (chosen per-object, regardless of key) without re-insertion.
///
/// Unlike [`wear_smc`] — which keeps the population constant and merely
/// scatters slots — decimation drains block occupancy, which is what pushes
/// blocks under a context's `compaction_occupancy` cutoff and gives a
/// subsequent [`Smc::compact`](smc::Smc::compact) pass actual candidates.
pub fn smc_decimate(db: &SmcDb, rng: &mut StdRng, fraction: f64) -> usize {
    let cutoff = (fraction * 1024.0) as u32;
    let guard = db.runtime.pin();
    let mut to_remove = Vec::new();
    db.lineitems.for_each_ref(&guard, |r, _| {
        if rng.gen_range(0u32..1024) < cutoff {
            to_remove.push(r);
        }
    });
    drop(guard);
    let mut removed = 0;
    for r in to_remove {
        if db.lineitems.remove(r) {
            removed += 1;
        }
    }
    removed
}

/// One managed insert stream (into both the list and the dictionary view,
/// like the loader does).
pub fn gc_insert_stream(db: &GcDb, rng: &mut StdRng, base_key: i64, count: usize) {
    for i in 0..count {
        let (orderkey, linenumber, quantity, price, shipdate) =
            synthetic_lineitem(rng, base_key + i as i64);
        let h = db.lineitems.add(GcLineitem {
            orderkey,
            partkey: 1,
            suppkey: 1,
            order: managed_heap::Handle::new_invalid(),
            part: managed_heap::Handle::new_invalid(),
            supplier: managed_heap::Handle::new_invalid(),
            linenumber,
            quantity,
            extendedprice: price,
            discount: Decimal::ZERO,
            tax: Decimal::ZERO,
            returnflag: b'N',
            linestatus: b'O',
            shipdate,
            commitdate: shipdate + 10,
            receiptdate: shipdate + 20,
            comment: "refresh".to_string(),
        });
        db.lineitem_dict
            .insert_handle(lineitem_key(orderkey, linenumber), h);
    }
}

/// One managed removal stream over the list.
pub fn gc_list_removal_stream(db: &GcDb, victims: &HashSet<i64>) -> usize {
    let guard = db.heap.enter();
    db.lineitems
        .remove_where(&guard, |l| victims.contains(&l.orderkey))
}

/// One managed removal stream over the dictionary.
pub fn gc_dict_removal_stream(db: &GcDb, victims: &HashSet<i64>) -> usize {
    let guard = db.heap.enter();
    db.lineitem_dict
        .remove_where(&guard, |l| victims.contains(&l.orderkey))
}

/// Picks `count` victim order keys for a removal stream.
pub fn pick_victims(rng: &mut StdRng, max_orderkey: i64, count: usize) -> HashSet<i64> {
    let mut victims = HashSet::with_capacity(count);
    while victims.len() < count {
        victims.insert(rng.gen_range(1..=max_orderkey));
    }
    victims
}

// ---------------------------------------------------------------------
// Fig 10 enumerations
// ---------------------------------------------------------------------

/// Flat enumeration: touch every lineitem, fold a cheap function (§7's
/// "perform a simple function on each object").
pub fn smc_enumerate_flat(db: &SmcDb) -> (u64, i64) {
    let guard = db.runtime.pin();
    let mut acc = 0i64;
    let n = db.lineitems.for_each(&guard, |l| {
        acc = acc.wrapping_add(l.orderkey).wrapping_add(l.shipdate as i64);
    });
    (n, acc)
}

/// Nested enumeration: lineitem → order → customer (§7's "follow the order
/// reference to a customer object").
pub fn smc_enumerate_nested(db: &SmcDb) -> (u64, i64) {
    let guard = db.runtime.pin();
    let mut acc = 0i64;
    let mut n = 0u64;
    db.lineitems.for_each(&guard, |l| {
        if let Some(o) = l.order.get(&guard) {
            if let Some(c) = o.customer.get(&guard) {
                acc = acc.wrapping_add(c.key);
                n += 1;
            }
        }
    });
    (n, acc)
}

/// Nested enumeration using §6 direct pointers.
pub fn smc_enumerate_nested_direct(db: &SmcDb) -> (u64, i64) {
    let guard = db.runtime.pin();
    let mut acc = 0i64;
    let mut n = 0u64;
    db.lineitems.for_each(&guard, |l| {
        if let Some(o) = l.order_d.and_then(|d| d.get(&guard)) {
            if let Some(c) = o.customer_d.and_then(|d| d.get(&guard)) {
                acc = acc.wrapping_add(c.key);
                n += 1;
            }
        }
    });
    (n, acc)
}

/// Flat enumeration over the managed list.
pub fn gc_enumerate_flat(db: &GcDb) -> (u64, i64) {
    let guard = db.heap.enter();
    let mut acc = 0i64;
    let n = db.lineitems.for_each(&guard, |l| {
        acc = acc.wrapping_add(l.orderkey).wrapping_add(l.shipdate as i64);
    });
    (n, acc)
}

/// Nested enumeration over the managed list.
pub fn gc_enumerate_nested(db: &GcDb) -> (u64, i64) {
    let guard = db.heap.enter();
    let mut acc = 0i64;
    let mut n = 0u64;
    db.lineitems.for_each(&guard, |l| {
        if let Some(o) = db.order_arena.get(l.order) {
            if let Some(c) = db.customer_arena.get(o.customer) {
                acc = acc.wrapping_add(c.key);
                n += 1;
            }
        }
    });
    (n, acc)
}

/// "Wears" an SMC database: churns `fraction` of the lineitem population
/// through remove+insert cycles, scattering slot occupancy (Fig 10's worn
/// state).
pub fn wear_smc(db: &SmcDb, rng: &mut StdRng, cycles: usize, fraction: f64) {
    let initial = db.lineitems.len();
    let batch = ((initial as f64 * fraction) as usize).max(1);
    let max_orderkey = db.orders.len() as i64;
    for cycle in 0..cycles {
        let victims = pick_victims(rng, max_orderkey, (batch / 4).max(1));
        let removed = smc_removal_stream(db, &victims);
        // Insert exactly as many as were removed so wear scatters slots
        // without shrinking the population.
        smc_insert_stream(
            db,
            rng,
            1_000_000_000 + (cycle as i64) * batch as i64,
            removed,
        );
    }
}

/// "Wears" a managed database the same way.
pub fn wear_gc(db: &GcDb, rng: &mut StdRng, cycles: usize, fraction: f64) {
    let initial = db.lineitems.len();
    let batch = ((initial as f64 * fraction) as usize).max(1);
    let max_orderkey = db.orders.len() as i64;
    for cycle in 0..cycles {
        let victims = pick_victims(rng, max_orderkey, (batch / 4).max(1));
        let removed = gc_list_removal_stream(db, &victims);
        gc_insert_stream(
            db,
            rng,
            1_000_000_000 + (cycle as i64) * batch as i64,
            removed,
        );
    }
}

/// Deterministic RNG for workloads.
pub fn workload_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
