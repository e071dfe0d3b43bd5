//! The object-oriented adaptations of TPC-H queries Q1–Q6 (§7), one
//! implementation per backend:
//!
//! * [`smc_q`] — compiled queries over the SMC database: the "SMC (C#)" and
//!   "SMC (unsafe C#)" series of Fig 11, plus the direct-pointer (§6) and
//!   columnar (§4.1) variants of Fig 12, plus interpreted-LINQ versions.
//! * [`gc_q`] — the same plans over the managed database, enumerating via
//!   `GcList` or `GcConcurrentDictionary` (the List / C.Dictionary series).
//! * [`cs_q`] — value-based relational plans over the columnstore engine
//!   (the SQL Server stand-in of Fig 13).
//!
//! Every implementation returns the same row types with exact `Decimal`
//! arithmetic, so the test suite asserts bit-identical answers across all
//! backends — the strongest cross-validation the reproduction has.

pub mod cs_q;
pub mod gc_q;
pub mod smc_q;

use smc_memory::Decimal;
use smc_obs::{Histogram, Span};

use crate::dates::date;

/// Cross-backend per-query latency distribution, in nanoseconds. Every
/// query implementation opens a [`qspan`] that feeds this histogram, so a
/// benchmark can report p50/p95/p99 query latency without per-call plumbing.
pub static QUERY_LATENCY_NS: Histogram = Histogram::new();

/// Opens a per-query observation span. On drop it emits a
/// [`QuerySpan`](smc_obs::Event::QuerySpan) trace event (when tracing is
/// enabled) and records the latency into [`QUERY_LATENCY_NS`].
pub fn qspan(label: &str) -> Span<'static> {
    Span::with_histogram(label, &QUERY_LATENCY_NS)
}

/// Query parameters (TPC-H validation values by default).
#[derive(Debug, Clone)]
pub struct Params {
    /// Q1: `DELTA` days subtracted from 1998-12-01.
    pub q1_delta: i32,
    /// Q2: part size.
    pub q2_size: i32,
    /// Q2: part type suffix.
    pub q2_type: String,
    /// Q2: region name.
    pub q2_region: String,
    /// Q3: market segment.
    pub q3_segment: String,
    /// Q3: date split point.
    pub q3_date: i32,
    /// Q4: quarter start.
    pub q4_date: i32,
    /// Q5: region name.
    pub q5_region: String,
    /// Q5: year start.
    pub q5_date: i32,
    /// Q6: year start.
    pub q6_date: i32,
    /// Q6: discount midpoint.
    pub q6_discount: Decimal,
    /// Q6: quantity bound.
    pub q6_quantity: Decimal,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            q1_delta: 90,
            q2_size: 15,
            q2_type: "BRASS".to_string(),
            q2_region: "EUROPE".to_string(),
            q3_segment: "BUILDING".to_string(),
            q3_date: date(1995, 3, 15),
            q4_date: date(1993, 7, 1),
            q5_region: "ASIA".to_string(),
            q5_date: date(1994, 1, 1),
            q6_date: date(1994, 1, 1),
            q6_discount: Decimal::parse("0.06").unwrap(),
            q6_quantity: Decimal::from_int(24),
        }
    }
}

/// Q1 cutoff date: `1998-12-01 - delta days`.
pub fn q1_cutoff(p: &Params) -> i32 {
    date(1998, 12, 1) - p.q1_delta
}

/// Adds three months to an epoch day (for Q4's quarter).
pub fn plus_months(day: i32, months: u32) -> i32 {
    let (y, m, d) = crate::dates::civil(day);
    let total = (m - 1 + months) as i32;
    date(y + total / 12, (total % 12) as u32 + 1, d)
}

/// One Q1 output group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q1Row {
    /// `l_returnflag` of this group.
    pub returnflag: u8,
    /// `l_linestatus` of this group.
    pub linestatus: u8,
    /// `sum(l_quantity)`.
    pub sum_qty: Decimal,
    /// `sum(l_extendedprice)`.
    pub sum_base_price: Decimal,
    /// `sum(l_extendedprice * (1 - l_discount))`.
    pub sum_disc_price: Decimal,
    /// `sum(l_extendedprice * (1 - l_discount) * (1 + l_tax))`.
    pub sum_charge: Decimal,
    /// `sum(l_discount)` (feeds [`avg_disc`](Q1Row::avg_disc)).
    pub sum_discount: Decimal,
    /// `count(*)` of the group.
    pub count: u64,
}

impl Q1Row {
    /// Average discount.
    pub fn avg_disc(&self) -> Decimal {
        self.sum_discount / Decimal::from_int(self.count as i64)
    }
}

/// Accumulator shared by every Q1 implementation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Q1Acc {
    /// Running `sum(l_quantity)`.
    pub sum_qty: Decimal,
    /// Running `sum(l_extendedprice)`.
    pub sum_base: Decimal,
    /// Running discounted-price sum.
    pub sum_disc_price: Decimal,
    /// Running charge sum (discounted price with tax).
    pub sum_charge: Decimal,
    /// Running `sum(l_discount)`.
    pub sum_discount: Decimal,
    /// Rows folded so far.
    pub count: u64,
}

impl Q1Acc {
    /// Folds one lineitem into the group.
    #[inline]
    pub fn fold(&mut self, qty: Decimal, price: Decimal, discount: Decimal, tax: Decimal) {
        let disc_price = price * (Decimal::ONE - discount);
        self.sum_qty += qty;
        self.sum_base += price;
        self.sum_disc_price += disc_price;
        self.sum_charge += disc_price * (Decimal::ONE + tax);
        self.sum_discount += discount;
        self.count += 1;
    }

    /// Merges another partial accumulator into this one (the parallel
    /// reduce step). Decimal addition is exact integer arithmetic on the
    /// mantissa, so merge order cannot change the result — parallel Q1 is
    /// bit-identical to sequential.
    #[inline]
    pub fn merge(&mut self, other: &Q1Acc) {
        self.sum_qty += other.sum_qty;
        self.sum_base += other.sum_base;
        self.sum_disc_price += other.sum_disc_price;
        self.sum_charge += other.sum_charge;
        self.sum_discount += other.sum_discount;
        self.count += other.count;
    }
}

/// Merges a worker's 6-slot Q1 table into the coordinator's.
pub fn q1_merge_tables(into: &mut [Q1Acc; 6], from: &[Q1Acc; 6]) {
    for (a, b) in into.iter_mut().zip(from.iter()) {
        a.merge(b);
    }
}

/// Finalizes a 6-slot Q1 group table (indexed `flag_idx * 2 + status_idx`)
/// into sorted output rows. Flags order: A, N, R; status order: F, O.
pub fn q1_rows_from_table(table: &[Q1Acc; 6]) -> Vec<Q1Row> {
    const FLAGS: [u8; 3] = [b'A', b'N', b'R'];
    const STATUS: [u8; 2] = [b'F', b'O'];
    let mut out = Vec::new();
    for (fi, &flag) in FLAGS.iter().enumerate() {
        for (si, &status) in STATUS.iter().enumerate() {
            let acc = &table[fi * 2 + si];
            if acc.count == 0 {
                continue;
            }
            out.push(Q1Row {
                returnflag: flag,
                linestatus: status,
                sum_qty: acc.sum_qty,
                sum_base_price: acc.sum_base,
                sum_disc_price: acc.sum_disc_price,
                sum_charge: acc.sum_charge,
                sum_discount: acc.sum_discount,
                count: acc.count,
            });
        }
    }
    out
}

/// Index of a (returnflag, linestatus) pair in the 6-slot Q1 table.
#[inline]
pub fn q1_slot(returnflag: u8, linestatus: u8) -> usize {
    let fi = match returnflag {
        b'A' => 0,
        b'N' => 1,
        _ => 2,
    };
    let si = usize::from(linestatus == b'O');
    fi * 2 + si
}

/// One Q2 output row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q2Row {
    /// `s_acctbal` of the winning supplier.
    pub acctbal: Decimal,
    /// `s_name`.
    pub supplier: String,
    /// `n_name`.
    pub nation: String,
    /// `p_partkey`.
    pub partkey: i64,
}

/// Sorts and truncates Q2 rows per the spec (acctbal desc, nation,
/// supplier, partkey; top 100).
pub fn q2_finalize(mut rows: Vec<Q2Row>) -> Vec<Q2Row> {
    rows.sort_by(|a, b| {
        b.acctbal
            .cmp(&a.acctbal)
            .then_with(|| a.nation.cmp(&b.nation))
            .then_with(|| a.supplier.cmp(&b.supplier))
            .then_with(|| a.partkey.cmp(&b.partkey))
    });
    rows.truncate(100);
    rows
}

/// One Q3 output row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q3Row {
    /// `l_orderkey` of the group.
    pub orderkey: i64,
    /// `sum(l_extendedprice * (1 - l_discount))`.
    pub revenue: Decimal,
    /// `o_orderdate` (epoch day).
    pub orderdate: i32,
    /// `o_shippriority`.
    pub shippriority: i32,
}

/// Sorts and truncates Q3 rows (revenue desc, orderdate; top 10).
pub fn q3_finalize(groups: std::collections::HashMap<i64, Q3Row>) -> Vec<Q3Row> {
    let mut rows: Vec<Q3Row> = groups.into_values().collect();
    rows.sort_by(|a, b| {
        b.revenue
            .cmp(&a.revenue)
            .then_with(|| a.orderdate.cmp(&b.orderdate))
            .then_with(|| a.orderkey.cmp(&b.orderkey))
    });
    rows.truncate(10);
    rows
}

/// One Q4 output row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q4Row {
    /// `o_orderpriority`.
    pub priority: String,
    /// Orders in the quarter with at least one late lineitem.
    pub count: u64,
}

/// Finalizes the Q4 per-priority counts into spec order.
pub fn q4_finalize(counts: [u64; 5]) -> Vec<Q4Row> {
    crate::text::PRIORITIES
        .iter()
        .enumerate()
        .filter(|(i, _)| counts[*i] > 0)
        .map(|(i, p)| Q4Row {
            priority: p.to_string(),
            count: counts[i],
        })
        .collect()
}

/// One Q5 output row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Q5Row {
    /// `n_name`.
    pub nation: String,
    /// `sum(l_extendedprice * (1 - l_discount))` for the nation.
    pub revenue: Decimal,
}

/// Sorts Q5 rows by revenue descending.
pub fn q5_finalize(groups: std::collections::HashMap<String, Decimal>) -> Vec<Q5Row> {
    let mut rows: Vec<Q5Row> = groups
        .into_iter()
        .map(|(nation, revenue)| Q5Row { nation, revenue })
        .collect();
    rows.sort_by(|a, b| {
        b.revenue
            .cmp(&a.revenue)
            .then_with(|| a.nation.cmp(&b.nation))
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q1_slot_layout() {
        assert_eq!(q1_slot(b'A', b'F'), 0);
        assert_eq!(q1_slot(b'A', b'O'), 1);
        assert_eq!(q1_slot(b'N', b'F'), 2);
        assert_eq!(q1_slot(b'R', b'O'), 5);
    }

    #[test]
    fn q1_acc_folds_expected_arithmetic() {
        let mut acc = Q1Acc::default();
        acc.fold(
            Decimal::from_int(10),
            Decimal::from_int(100),
            Decimal::parse("0.10").unwrap(),
            Decimal::parse("0.05").unwrap(),
        );
        assert_eq!(acc.sum_qty, Decimal::from_int(10));
        assert_eq!(acc.sum_disc_price, Decimal::from_int(90));
        assert_eq!(acc.sum_charge, Decimal::parse("94.5").unwrap());
        assert_eq!(acc.count, 1);
    }

    #[test]
    fn plus_months_rolls_over_years() {
        assert_eq!(plus_months(date(1993, 7, 1), 3), date(1993, 10, 1));
        assert_eq!(plus_months(date(1993, 11, 1), 3), date(1994, 2, 1));
        assert_eq!(plus_months(date(1994, 1, 1), 12), date(1995, 1, 1));
    }

    #[test]
    fn finalizers_sort_correctly() {
        let rows = q2_finalize(vec![
            Q2Row {
                acctbal: Decimal::from_int(1),
                supplier: "s1".into(),
                nation: "A".into(),
                partkey: 1,
            },
            Q2Row {
                acctbal: Decimal::from_int(5),
                supplier: "s2".into(),
                nation: "B".into(),
                partkey: 2,
            },
        ]);
        assert_eq!(rows[0].partkey, 2, "highest acctbal first");
        let mut groups = std::collections::HashMap::new();
        groups.insert("X".to_string(), Decimal::from_int(3));
        groups.insert("Y".to_string(), Decimal::from_int(9));
        let q5 = q5_finalize(groups);
        assert_eq!(q5[0].nation, "Y");
    }
}
