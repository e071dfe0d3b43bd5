//! Q1–Q6 over the SMC database — the compiled-query implementations.
//!
//! Four variants per the evaluation:
//!
//! * `qN` — compiled safe code: block enumeration plus checked reference
//!   joins ("SMC (C#)" in Fig 11).
//! * `qN_unsafe` — compiled unsafe code: raw field pointers and in-place
//!   decimal arithmetic ("SMC (unsafe C#)"); distinct only where decimal
//!   math dominates (Q1), as the paper observes.
//! * `qN_direct` — §6 direct-pointer joins ("SMC (direct)", Fig 12);
//!   distinct only for queries with reference joins (Q3–Q5).
//! * `qN_columnar` — §4.1 columnar storage ("SMC (columnar)", Fig 12) over
//!   the shredded lineitem twin.
//!
//! Plus `q1_linq`/`q6_linq`: the interpreted LINQ-to-objects engine, for
//! the §7 "40–400 % slower" comparison.

use std::collections::{HashMap, HashSet};

use smc_memory::Decimal;
use smc_query::LinqExt;

use super::*;
use crate::smcdb::{licol, SmcDb};

// ---------------------------------------------------------------------
// Q1 — pricing summary report
// ---------------------------------------------------------------------

/// Q1, compiled safe.
pub fn q1(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate <= cutoff {
            table[q1_slot(l.returnflag, l.linestatus)].fold(
                l.quantity,
                l.extendedprice,
                l.discount,
                l.tax,
            );
        }
    });
    q1_rows_from_table(&table)
}

/// Q1, compiled unsafe: reads fields through raw pointers and accumulates
/// decimals in place — the paper's biggest unsafe-C# win (§7: "calling the
/// functions that perform decimal math using pointers and allowing for
/// in-place modifications results in a huge performance gain").
pub fn q1_unsafe(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_unsafe");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    db.lineitems.for_each(&guard, |l| {
        let l: *const crate::smcdb::Lineitem = l;
        // SAFETY: `l` addresses a live lineitem (valid slot or spilled page
        // record) for the duration of the callback; raw field pointers into
        // it, as the generated unsafe code would emit.
        unsafe {
            if (*l).shipdate > cutoff {
                return;
            }
            let acc = &mut table[q1_slot((*l).returnflag, (*l).linestatus)];
            let price = std::ptr::addr_of!((*l).extendedprice).read();
            let discount = std::ptr::addr_of!((*l).discount).read();
            let disc_price = price * (Decimal::ONE - discount);
            Decimal::add_in_place(&mut acc.sum_qty, std::ptr::addr_of!((*l).quantity).read());
            Decimal::add_in_place(&mut acc.sum_base, price);
            Decimal::add_in_place(&mut acc.sum_disc_price, disc_price);
            Decimal::add_in_place(
                &mut acc.sum_charge,
                disc_price * (Decimal::ONE + std::ptr::addr_of!((*l).tax).read()),
            );
            Decimal::add_in_place(&mut acc.sum_discount, discount);
            acc.count += 1;
        }
    });
    q1_rows_from_table(&table)
}

/// Q1 over columnar storage: touches only the seven columns it needs.
pub fn q1_columnar(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let mut table = [Q1Acc::default(); 6];
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol's declaration.
        unsafe {
            let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
            let flags = cols.column_slice::<u8>(licol::RETURNFLAG, cap);
            let statuses = cols.column_slice::<u8>(licol::LINESTATUS, cap);
            let qtys = cols.column_slice::<Decimal>(licol::QUANTITY, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            let taxes = cols.column_slice::<Decimal>(licol::TAX, cap);
            block.valid_slots().for_each(|slot| {
                let slot = slot as usize;
                if shipdates[slot] > cutoff {
                    return;
                }
                table[q1_slot(flags[slot], statuses[slot])].fold(
                    qtys[slot],
                    prices[slot],
                    discounts[slot],
                    taxes[slot],
                );
            });
        }
    });
    q1_rows_from_table(&table)
}

/// Q1 through the interpreted LINQ engine (boxed operators, per-element
/// virtual dispatch, materialized groups).
pub fn q1_linq(db: &SmcDb, p: &Params) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_linq");
    let cutoff = q1_cutoff(p);
    let guard = db.runtime.pin();
    let groups = db
        .lineitems
        .iter(&guard)
        .map(|(_, l)| l)
        .linq()
        .where_(move |l| l.shipdate <= cutoff)
        .group_by(|l| (l.returnflag, l.linestatus));
    let mut table = [Q1Acc::default(); 6];
    for ((flag, status), items) in groups {
        let acc = &mut table[q1_slot(flag, status)];
        for l in items {
            acc.fold(l.quantity, l.extendedprice, l.discount, l.tax);
        }
    }
    q1_rows_from_table(&table)
}

// ---------------------------------------------------------------------
// Q2 — minimum cost supplier
// ---------------------------------------------------------------------

/// Q2, compiled safe (reference joins part → supplier → nation → region).
pub fn q2(db: &SmcDb, p: &Params) -> Vec<Q2Row> {
    let _span = super::qspan("smc.q2");
    let guard = db.runtime.pin();
    // Pass 1: minimum supply cost per qualifying part in the region.
    let mut min_cost: HashMap<i64, Decimal> = HashMap::new();
    db.partsupps.for_each(&guard, |ps| {
        let Some(part) = ps.part.get(&guard) else {
            return;
        };
        if part.size != p.q2_size || !part.typ.as_str().ends_with(p.q2_type.as_str()) {
            return;
        }
        let Some(supplier) = ps.supplier.get(&guard) else {
            return;
        };
        let Some(nation) = supplier.nation.get(&guard) else {
            return;
        };
        let Some(region) = nation.region.get(&guard) else {
            return;
        };
        if region.name.as_str() != p.q2_region {
            return;
        }
        min_cost
            .entry(ps.partkey)
            .and_modify(|c| *c = (*c).min(ps.supplycost))
            .or_insert(ps.supplycost);
    });
    // Pass 2: suppliers achieving the minimum.
    let mut rows = Vec::new();
    db.partsupps.for_each(&guard, |ps| {
        let Some(&min) = min_cost.get(&ps.partkey) else {
            return;
        };
        if ps.supplycost != min {
            return;
        }
        let Some(supplier) = ps.supplier.get(&guard) else {
            return;
        };
        let Some(nation) = supplier.nation.get(&guard) else {
            return;
        };
        let Some(region) = nation.region.get(&guard) else {
            return;
        };
        if region.name.as_str() != p.q2_region {
            return;
        }
        rows.push(Q2Row {
            acctbal: supplier.acctbal,
            supplier: supplier.name.as_str().to_string(),
            nation: nation.name.as_str().to_string(),
            partkey: ps.partkey,
        });
    });
    q2_finalize(rows)
}

// ---------------------------------------------------------------------
// Q3 — shipping priority
// ---------------------------------------------------------------------

/// Q3, compiled safe: lineitem scan with reference joins to order and
/// customer.
pub fn q3(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: HashMap<i64, Q3Row> = HashMap::new();
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate <= p.q3_date {
            return;
        }
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate >= p.q3_date {
            return;
        }
        let Some(c) = o.customer.get(&guard) else {
            return;
        };
        if c.mktsegment != seg {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        groups
            .entry(l.orderkey)
            .and_modify(|r| r.revenue += revenue)
            .or_insert(Q3Row {
                orderkey: l.orderkey,
                revenue,
                orderdate: o.orderdate,
                shippriority: o.shippriority,
            });
    });
    q3_finalize(groups)
}

/// Q3 with §6 direct-pointer joins.
pub fn q3_direct(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3_direct");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: HashMap<i64, Q3Row> = HashMap::new();
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate <= p.q3_date {
            return;
        }
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if o.orderdate >= p.q3_date {
            return;
        }
        let Some(c) = o.customer_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if c.mktsegment != seg {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        groups
            .entry(l.orderkey)
            .and_modify(|r| r.revenue += revenue)
            .or_insert(Q3Row {
                orderkey: l.orderkey,
                revenue,
                orderdate: o.orderdate,
                shippriority: o.shippriority,
            });
    });
    q3_finalize(groups)
}

/// Q3 over columnar lineitems (refs gathered from the reference column).
pub fn q3_columnar(db: &SmcDb, p: &Params) -> Vec<Q3Row> {
    let _span = super::qspan("smc.q3_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let seg = crate::text::SEGMENTS
        .iter()
        .position(|s| *s == p.q3_segment)
        .unwrap() as u8;
    let mut groups: HashMap<i64, Q3Row> = HashMap::new();
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol.
        unsafe {
            let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
            let orderkeys = cols.column_slice::<i64>(licol::ORDERKEY, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            let orders = cols.column_slice::<smc::Ref<crate::smcdb::Order>>(licol::ORDER, cap);
            block.valid_slots().for_each(|slot| {
                let slot = slot as usize;
                if shipdates[slot] <= p.q3_date {
                    return;
                }
                let Some(o) = orders[slot].get(&guard) else {
                    return;
                };
                if o.orderdate >= p.q3_date {
                    return;
                }
                let Some(c) = o.customer.get(&guard) else {
                    return;
                };
                if c.mktsegment != seg {
                    return;
                }
                let revenue = prices[slot] * (Decimal::ONE - discounts[slot]);
                groups
                    .entry(orderkeys[slot])
                    .and_modify(|r| r.revenue += revenue)
                    .or_insert(Q3Row {
                        orderkey: orderkeys[slot],
                        revenue,
                        orderdate: o.orderdate,
                        shippriority: o.shippriority,
                    });
            });
        }
    });
    q3_finalize(groups)
}

// ---------------------------------------------------------------------
// Q4 — order priority checking
// ---------------------------------------------------------------------

/// Q4, compiled safe: lineitem semi-join (exists commitdate < receiptdate)
/// against the quarter's orders.
pub fn q4(db: &SmcDb, p: &Params) -> Vec<Q4Row> {
    let _span = super::qspan("smc.q4");
    let guard = db.runtime.pin();
    let end = plus_months(p.q4_date, 3);
    // Distinct orders with at least one late lineitem, restricted to the
    // quarter through the order reference.
    let mut late: HashSet<i64> = HashSet::new();
    let mut priorities: HashMap<i64, u8> = HashMap::new();
    db.lineitems.for_each(&guard, |l| {
        if l.commitdate >= l.receiptdate {
            return;
        }
        if late.contains(&l.orderkey) {
            return;
        }
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate < p.q4_date || o.orderdate >= end {
            return;
        }
        late.insert(l.orderkey);
        priorities.insert(l.orderkey, o.orderpriority);
    });
    let mut counts = [0u64; 5];
    for (_, pri) in priorities {
        counts[pri as usize] += 1;
    }
    q4_finalize(counts)
}

/// Q4 with direct-pointer joins.
pub fn q4_direct(db: &SmcDb, p: &Params) -> Vec<Q4Row> {
    let _span = super::qspan("smc.q4_direct");
    let guard = db.runtime.pin();
    let end = plus_months(p.q4_date, 3);
    let mut late: HashSet<i64> = HashSet::new();
    let mut counts = [0u64; 5];
    db.lineitems.for_each(&guard, |l| {
        if l.commitdate >= l.receiptdate || late.contains(&l.orderkey) {
            return;
        }
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if o.orderdate < p.q4_date || o.orderdate >= end {
            return;
        }
        late.insert(l.orderkey);
        counts[o.orderpriority as usize] += 1;
    });
    q4_finalize(counts)
}

// ---------------------------------------------------------------------
// Q5 — local supplier volume
// ---------------------------------------------------------------------

/// Q5, compiled safe: reference joins lineitem → supplier → nation →
/// region and lineitem → order → customer, with the spec's
/// customer-nation = supplier-nation condition.
pub fn q5(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: HashMap<String, Decimal> = HashMap::new();
    db.lineitems.for_each(&guard, |l| {
        let Some(o) = l.order.get(&guard) else { return };
        if o.orderdate < p.q5_date || o.orderdate >= end {
            return;
        }
        let Some(s) = l.supplier.get(&guard) else {
            return;
        };
        let Some(n) = s.nation.get(&guard) else {
            return;
        };
        let Some(r) = n.region.get(&guard) else {
            return;
        };
        if r.name.as_str() != p.q5_region {
            return;
        }
        let Some(c) = o.customer.get(&guard) else {
            return;
        };
        if c.nationkey != s.nationkey {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        *groups.entry(n.name.as_str().to_string()).or_default() += revenue;
    });
    q5_finalize(groups)
}

/// Q5 with direct-pointer joins where available.
pub fn q5_direct(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5_direct");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: HashMap<String, Decimal> = HashMap::new();
    db.lineitems.for_each(&guard, |l| {
        let Some(o) = l.order_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if o.orderdate < p.q5_date || o.orderdate >= end {
            return;
        }
        let Some(s) = l.supplier_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        let Some(n) = s.nation.get(&guard) else {
            return;
        };
        let Some(r) = n.region.get(&guard) else {
            return;
        };
        if r.name.as_str() != p.q5_region {
            return;
        }
        let Some(c) = o.customer_d.and_then(|d| d.get(&guard)) else {
            return;
        };
        if c.nationkey != s.nationkey {
            return;
        }
        let revenue = l.extendedprice * (Decimal::ONE - l.discount);
        *groups.entry(n.name.as_str().to_string()).or_default() += revenue;
    });
    q5_finalize(groups)
}

/// Q5 over columnar lineitems.
pub fn q5_columnar(db: &SmcDb, p: &Params) -> Vec<Q5Row> {
    let _span = super::qspan("smc.q5_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let end = plus_months(p.q5_date, 12);
    let mut groups: HashMap<String, Decimal> = HashMap::new();
    col.for_each_block(&guard, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column indices/types match LineitemCol.
        unsafe {
            let orders = cols.column_slice::<smc::Ref<crate::smcdb::Order>>(licol::ORDER, cap);
            let suppliers =
                cols.column_slice::<smc::Ref<crate::smcdb::Supplier>>(licol::SUPPLIER, cap);
            let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
            let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
            block.valid_slots().for_each(|slot| {
                let slot = slot as usize;
                let Some(o) = orders[slot].get(&guard) else {
                    return;
                };
                if o.orderdate < p.q5_date || o.orderdate >= end {
                    return;
                }
                let Some(s) = suppliers[slot].get(&guard) else {
                    return;
                };
                let Some(n) = s.nation.get(&guard) else {
                    return;
                };
                let Some(r) = n.region.get(&guard) else {
                    return;
                };
                if r.name.as_str() != p.q5_region {
                    return;
                }
                let Some(c) = o.customer.get(&guard) else {
                    return;
                };
                if c.nationkey != s.nationkey {
                    return;
                }
                let revenue = prices[slot] * (Decimal::ONE - discounts[slot]);
                *groups.entry(n.name.as_str().to_string()).or_default() += revenue;
            });
        }
    });
    q5_finalize(groups)
}

// ---------------------------------------------------------------------
// Q6 — forecasting revenue change
// ---------------------------------------------------------------------

/// Q6, compiled safe: pure lineitem scan-aggregate.
pub fn q6(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6");
    let guard = db.runtime.pin();
    let (end, lo, hi) = q6_bounds(p);
    let mut revenue = Decimal::ZERO;
    db.lineitems.for_each(&guard, |l| {
        if l.shipdate >= p.q6_date
            && l.shipdate < end
            && l.discount >= lo
            && l.discount <= hi
            && l.quantity < p.q6_quantity
        {
            revenue += l.extendedprice * l.discount;
        }
    });
    revenue
}

/// Q6's columnar kernel, shared by the sequential and parallel scans: the
/// revenue of one block, from four column arrays and no object access.
fn q6_columnar_block(
    cols: &smc::ColumnArrays,
    block: &smc_memory::block::BlockRef,
    p: &Params,
    (end, lo, hi): (i32, Decimal, Decimal),
) -> Decimal {
    let cap = block.header().capacity as usize;
    let mut revenue = Decimal::ZERO;
    // SAFETY: column indices/types match LineitemCol.
    unsafe {
        let shipdates = cols.column_slice::<i32>(licol::SHIPDATE, cap);
        let discounts = cols.column_slice::<Decimal>(licol::DISCOUNT, cap);
        let qtys = cols.column_slice::<Decimal>(licol::QUANTITY, cap);
        let prices = cols.column_slice::<Decimal>(licol::EXTENDEDPRICE, cap);
        block.valid_slots().for_each(|slot| {
            let slot = slot as usize;
            if shipdates[slot] >= p.q6_date
                && shipdates[slot] < end
                && discounts[slot] >= lo
                && discounts[slot] <= hi
                && qtys[slot] < p.q6_quantity
            {
                revenue += prices[slot] * discounts[slot];
            }
        });
    }
    revenue
}

/// Q6's derived bounds: end of the year, discount window.
fn q6_bounds(p: &Params) -> (i32, Decimal, Decimal) {
    let cent = Decimal::parse("0.01").unwrap();
    (
        plus_months(p.q6_date, 12),
        p.q6_discount - cent,
        p.q6_discount + cent,
    )
}

/// Q6 over columnar storage.
pub fn q6_columnar(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6_columnar");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let guard = db.runtime.pin();
    let bounds = q6_bounds(p);
    let mut revenue = Decimal::ZERO;
    col.for_each_block(&guard, |cols, block| {
        revenue += q6_columnar_block(cols, block, p, bounds);
    });
    revenue
}

/// Q6 through the interpreted LINQ engine.
pub fn q6_linq(db: &SmcDb, p: &Params) -> Decimal {
    let _span = super::qspan("smc.q6_linq");
    let guard = db.runtime.pin();
    let (end, lo, hi) = q6_bounds(p);
    let q6_date = p.q6_date;
    let q6_quantity = p.q6_quantity;
    db.lineitems
        .iter(&guard)
        .map(|(_, l)| l)
        .linq()
        .where_(move |l| {
            l.shipdate >= q6_date
                && l.shipdate < end
                && l.discount >= lo
                && l.discount <= hi
                && l.quantity < q6_quantity
        })
        .sum_by(|l| l.extendedprice * l.discount)
}

// ---------------------------------------------------------------------
// Parallel variants (morsel-driven, smc-exec)
// ---------------------------------------------------------------------

/// Q1 in parallel: each worker folds its morsels into a private 6-slot
/// table; tables are merged slot-wise in the reduce step. Exact decimal
/// arithmetic makes the result bit-identical to [`q1`] regardless of how
/// morsels were distributed.
pub fn q1_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Vec<Q1Row> {
    let _span = super::qspan("smc.q1_par");
    let cutoff = q1_cutoff(p);
    let scan = smc_exec::ParScan::new(&db.lineitems, pool);
    let table = scan.filter_fold(
        || [Q1Acc::default(); 6],
        |l| l.shipdate <= cutoff,
        |t, l| {
            t[q1_slot(l.returnflag, l.linestatus)].fold(
                l.quantity,
                l.extendedprice,
                l.discount,
                l.tax,
            );
        },
        |into, from| q1_merge_tables(into, &from),
    );
    q1_rows_from_table(&table)
}

/// Q6 in parallel: per-worker revenue partials, summed in the reduce step.
pub fn q6_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("smc.q6_par");
    let (end, lo, hi) = q6_bounds(p);
    let scan = smc_exec::ParScan::new(&db.lineitems, pool);
    scan.filter_fold(
        || Decimal::ZERO,
        |l| {
            l.shipdate >= p.q6_date
                && l.shipdate < end
                && l.discount >= lo
                && l.discount <= hi
                && l.quantity < p.q6_quantity
        },
        |revenue, l| *revenue += l.extendedprice * l.discount,
        |into, from| *into += from,
    )
}

/// Q6 over columnar storage in parallel: blocks are the row-group morsels.
pub fn q6_columnar_par(db: &SmcDb, p: &Params, pool: &smc_exec::WorkerPool) -> Decimal {
    let _span = super::qspan("smc.q6_columnar_par");
    let col = db.lineitems_col.as_ref().expect("columnar twin not loaded");
    let bounds = q6_bounds(p);
    smc_exec::ParColumnarScan::new(col, pool).fold_blocks(
        || Decimal::ZERO,
        |revenue, cols, block| *revenue += q6_columnar_block(cols, block, p, bounds),
        |into, from| *into += from,
    )
}
