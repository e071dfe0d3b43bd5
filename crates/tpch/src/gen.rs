//! A deterministic TPC-H `dbgen` clone.
//!
//! Reproduces the spec's cardinalities, value pools, key relationships and
//! the distributions the Q1–Q6 predicates select on (dates, discounts,
//! quantities, flags). Rows are streamed through callbacks so large scale
//! factors never materialize string-heavy intermediate tables; each backend
//! (SMC / managed / columnstore) loads from the same stream, guaranteeing
//! identical logical databases — which is what lets the test suite insist
//! that every backend returns bit-identical query answers.
//!
//! A raw row is `Copy` and allocates nothing: text is written in place at
//! its column's width ([`text`]), dictionary columns are indexes into
//! `text`'s pools, and flags are ASCII bytes.

use smc_util::rng::Pcg32 as StdRng;

use smc_memory::Decimal;

use crate::dates::{CURRENT_DATE, LAST_ORDER_DATE, START_DATE};
use crate::text::{self, formatted};

/// Scale-factor driven generator.
#[derive(Debug, Clone)]
pub struct Generator {
    /// TPC-H scale factor (1.0 ≈ 6M lineitems). Fractional SFs scale every
    /// table proportionally.
    pub scale: f64,
    /// Base RNG seed; the same seed always produces the same database.
    pub seed: u64,
}

/// Row counts per table at this scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cardinalities {
    /// Row count of the `region` table.
    pub regions: usize,
    /// Row count of the `nation` table.
    pub nations: usize,
    /// Row count of the `supplier` table.
    pub suppliers: usize,
    /// Row count of the `part` table.
    pub parts: usize,
    /// Row count of the `partsupp` table.
    pub partsupps: usize,
    /// Row count of the `customer` table.
    pub customers: usize,
    /// Row count of the `order` table.
    pub orders: usize,
}

// Raw row types: the generator's output records.

/// REGION row.
#[derive(Clone, Copy)]
pub struct RawRegion {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::RegionName,
    /// TPC-H comment text.
    pub comment: text::RegionComment,
}

/// NATION row.
#[derive(Clone, Copy)]
pub struct RawNation {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::NationName,
    /// The region (FK).
    pub region: i64,
    /// TPC-H comment text.
    pub comment: text::NationComment,
}

/// SUPPLIER row.
#[derive(Clone, Copy)]
pub struct RawSupplier {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::KeyName,
    /// Address.
    pub address: text::Address,
    /// The nation (FK).
    pub nation: i64,
    /// Phone number.
    pub phone: text::Phone,
    /// Account balance.
    pub acctbal: Decimal,
    /// TPC-H comment text.
    pub comment: text::SupplierComment,
}

/// PART row.
#[derive(Clone, Copy)]
pub struct RawPart {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::PartName,
    /// Manufacturer.
    pub mfgr: text::Mfgr,
    /// Brand.
    pub brand: text::Brand,
    /// Part type string.
    pub typ: text::PartType,
    /// Part size.
    pub size: i32,
    /// Container.
    pub container: text::Container,
    /// Retail price.
    pub retailprice: Decimal,
    /// TPC-H comment text.
    pub comment: text::PartComment,
}

/// PARTSUPP row.
#[derive(Clone, Copy)]
pub struct RawPartSupp {
    /// The part (FK).
    pub part: i64,
    /// The supplier (FK).
    pub supplier: i64,
    /// Available quantity (`ps_availqty`).
    pub availqty: i32,
    /// Supply cost (`ps_supplycost`).
    pub supplycost: Decimal,
    /// TPC-H comment text.
    pub comment: text::PartSuppComment,
}

/// CUSTOMER row.
#[derive(Clone, Copy)]
pub struct RawCustomer {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::KeyName,
    /// Address.
    pub address: text::Address,
    /// The nation (FK).
    pub nation: i64,
    /// Phone number.
    pub phone: text::Phone,
    /// Account balance.
    pub acctbal: Decimal,
    /// Index into [`text::SEGMENTS`].
    pub mktsegment: u8,
    /// TPC-H comment text.
    pub comment: text::CustomerComment,
}

/// ORDERS row.
#[derive(Clone, Copy)]
pub struct RawOrder {
    /// Primary key.
    pub key: i64,
    /// The customer (FK).
    pub customer: i64,
    /// Order status flag: `b'F'`, `b'O'` or `b'P'`.
    pub orderstatus: u8,
    /// Total order price.
    pub totalprice: Decimal,
    /// Order date (epoch day).
    pub orderdate: i32,
    /// Index into [`text::PRIORITIES`].
    pub orderpriority: u8,
    /// Clerk.
    pub clerk: text::Clerk,
    /// Ship priority.
    pub shippriority: i32,
    /// TPC-H comment text.
    pub comment: text::OrderComment,
}

/// LINEITEM row.
#[derive(Clone, Copy)]
pub struct RawLineitem {
    /// The order (FK).
    pub order: i64,
    /// The part (FK).
    pub part: i64,
    /// The supplier (FK).
    pub supplier: i64,
    /// Line number within the order.
    pub linenumber: i32,
    /// Quantity (`l_quantity`).
    pub quantity: Decimal,
    /// Extended price (`l_extendedprice`).
    pub extendedprice: Decimal,
    /// Discount fraction (`l_discount`).
    pub discount: Decimal,
    /// Tax fraction (`l_tax`).
    pub tax: Decimal,
    /// Return flag (`l_returnflag`): `b'R'`, `b'A'` or `b'N'`.
    pub returnflag: u8,
    /// Line status (`l_linestatus`): `b'O'` or `b'F'`.
    pub linestatus: u8,
    /// Ship date (epoch day).
    pub shipdate: i32,
    /// Commit date (epoch day).
    pub commitdate: i32,
    /// Receipt date (epoch day).
    pub receiptdate: i32,
    /// Index into [`text::INSTRUCTIONS`].
    pub shipinstruct: u8,
    /// Index into [`text::MODES`].
    pub shipmode: u8,
    /// TPC-H comment text.
    pub comment: text::LineitemComment,
}

/// `P_RETAILPRICE` from the part key (spec 4.2.3 formula).
fn retail_price(partkey: i64) -> Decimal {
    let cents = 90_000 + (partkey % 20_001) / 10 + 100 * (partkey % 1_000);
    Decimal::from_cents(cents)
}

impl Generator {
    /// Creates a generator for `scale` with the default seed.
    pub fn new(scale: f64) -> Generator {
        Generator {
            scale,
            seed: 0x7c51_70b1,
        }
    }

    /// Creates a generator with an explicit seed.
    pub fn with_seed(scale: f64, seed: u64) -> Generator {
        Generator { scale, seed }
    }

    fn scaled(&self, base: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(1)
    }

    /// Row counts at this scale.
    pub fn cardinalities(&self) -> Cardinalities {
        let parts = self.scaled(200_000);
        Cardinalities {
            regions: 5,
            nations: 25,
            suppliers: self.scaled(10_000),
            parts,
            partsupps: parts * 4,
            customers: self.scaled(150_000),
            orders: self.scaled(1_500_000),
        }
    }

    fn rng(&self, table: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(table),
        )
    }

    /// Streams REGION rows.
    pub fn regions(&self, mut f: impl FnMut(RawRegion)) {
        let mut rng = self.rng(1);
        for (i, name) in text::REGIONS.iter().enumerate() {
            f(RawRegion {
                key: i as i64,
                name: formatted(format_args!("{name}")),
                comment: text::comment(&mut rng),
            });
        }
    }

    /// Streams NATION rows.
    pub fn nations(&self, mut f: impl FnMut(RawNation)) {
        let mut rng = self.rng(2);
        for (i, (name, region)) in text::NATIONS.iter().enumerate() {
            f(RawNation {
                key: i as i64,
                name: formatted(format_args!("{name}")),
                region: *region as i64,
                comment: text::comment(&mut rng),
            });
        }
    }

    /// Streams SUPPLIER rows.
    pub fn suppliers(&self, mut f: impl FnMut(RawSupplier)) {
        let mut rng = self.rng(3);
        let n = self.cardinalities().suppliers;
        for key in 1..=n as i64 {
            let nation = rng.gen_range(0..25);
            f(RawSupplier {
                key,
                name: text::key_name("Supplier#", key as u64),
                address: text::comment(&mut rng),
                nation: nation as i64,
                phone: text::phone(&mut rng, nation),
                acctbal: Decimal::from_cents(rng.gen_range(-99_999..=999_999)),
                comment: text::comment(&mut rng),
            });
        }
    }

    /// Streams PART rows.
    pub fn parts(&self, mut f: impl FnMut(RawPart)) {
        let mut rng = self.rng(4);
        let n = self.cardinalities().parts;
        for key in 1..=n as i64 {
            let m = rng.gen_range(1..=5);
            f(RawPart {
                key,
                name: text::part_name(&mut rng),
                mfgr: formatted(format_args!("Manufacturer#{m}")),
                brand: formatted(format_args!("Brand#{}{}", m, rng.gen_range(1..=5))),
                typ: text::part_type(&mut rng),
                size: rng.gen_range(1..=50),
                container: text::container(&mut rng),
                retailprice: retail_price(key),
                comment: text::comment(&mut rng),
            });
        }
    }

    /// Streams PARTSUPP rows (four suppliers per part, spec key formula).
    pub fn partsupps(&self, mut f: impl FnMut(RawPartSupp)) {
        let mut rng = self.rng(5);
        let c = self.cardinalities();
        let s = c.suppliers as i64;
        for part in 1..=c.parts as i64 {
            for i in 0..4i64 {
                let supplier = (part + i * (s / 4 + (part - 1) / s)) % s + 1;
                f(RawPartSupp {
                    part,
                    supplier,
                    availqty: rng.gen_range(1..=9_999),
                    supplycost: Decimal::from_cents(rng.gen_range(100..=100_000)),
                    comment: text::comment(&mut rng),
                });
            }
        }
    }

    /// Streams CUSTOMER rows.
    pub fn customers(&self, mut f: impl FnMut(RawCustomer)) {
        let mut rng = self.rng(6);
        let n = self.cardinalities().customers;
        for key in 1..=n as i64 {
            let nation = rng.gen_range(0..25);
            f(RawCustomer {
                key,
                name: text::key_name("Customer#", key as u64),
                address: text::comment(&mut rng),
                nation: nation as i64,
                phone: text::phone(&mut rng, nation),
                acctbal: Decimal::from_cents(rng.gen_range(-99_999..=999_999)),
                mktsegment: text::pick_index(&mut rng, text::SEGMENTS),
                comment: text::comment(&mut rng),
            });
        }
    }

    /// Streams ORDERS rows together with their LINEITEM rows (lineitem
    /// dates derive from the order date, so they are generated as a unit —
    /// as dbgen does). The lines are one to seven rows of a buffer that
    /// the next order reuses.
    pub fn orders(&self, mut f: impl FnMut(&RawOrder, &[RawLineitem])) {
        let mut rng = self.rng(7);
        let c = self.cardinalities();
        let mut lines = Vec::with_capacity(7);
        for key in 1..=c.orders as i64 {
            let orderdate = rng.gen_range(START_DATE..=LAST_ORDER_DATE);
            let customer = rng.gen_range(1..=c.customers as i64);
            let nlines: i32 = rng.gen_range(1..=7);
            lines.clear();
            let mut total = Decimal::ZERO;
            let mut all_f = true;
            let mut all_o = true;
            for linenumber in 1..=nlines {
                let part = rng.gen_range(1..=c.parts as i64);
                // One of the part's four suppliers.
                let s = c.suppliers as i64;
                let i = rng.gen_range(0..4i64);
                let supplier = (part + i * (s / 4 + (part - 1) / s)) % s + 1;
                let quantity = rng.gen_range(1..=50i64);
                let extendedprice =
                    Decimal::from_mantissa(retail_price(part).mantissa() * quantity as i128);
                let discount = Decimal::from_cents(rng.gen_range(0..=10)); // 0.00 .. 0.10
                let tax = Decimal::from_cents(rng.gen_range(0..=8)); // 0.00 .. 0.08
                let shipdate = orderdate + rng.gen_range(1..=121);
                let commitdate = orderdate + rng.gen_range(30..=90);
                let receiptdate = shipdate + rng.gen_range(1..=30);
                let returnflag = if receiptdate <= CURRENT_DATE {
                    if rng.gen_bool(0.5) {
                        b'R'
                    } else {
                        b'A'
                    }
                } else {
                    b'N'
                };
                let linestatus = if shipdate > CURRENT_DATE { b'O' } else { b'F' };
                all_f &= linestatus == b'F';
                all_o &= linestatus == b'O';
                total += extendedprice * (Decimal::ONE + tax) * (Decimal::ONE - discount);
                lines.push(RawLineitem {
                    order: key,
                    part,
                    supplier,
                    linenumber,
                    quantity: Decimal::from_int(quantity),
                    extendedprice,
                    discount,
                    tax,
                    returnflag,
                    linestatus,
                    shipdate,
                    commitdate,
                    receiptdate,
                    shipinstruct: text::pick_index(&mut rng, text::INSTRUCTIONS),
                    shipmode: text::pick_index(&mut rng, text::MODES),
                    comment: text::comment(&mut rng),
                });
            }
            let orderstatus = if all_f {
                b'F'
            } else if all_o {
                b'O'
            } else {
                b'P'
            };
            f(
                &RawOrder {
                    key,
                    customer,
                    orderstatus,
                    totalprice: total,
                    orderdate,
                    orderpriority: text::pick_index(&mut rng, text::PRIORITIES),
                    clerk: text::key_name("Clerk#", rng.gen_range(1..=self.scaled(1000) as u64)),
                    shippriority: 0,
                    comment: text::comment(&mut rng),
                },
                &lines,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dates::date;

    #[test]
    fn cardinalities_scale() {
        let g = Generator::new(0.01);
        let c = g.cardinalities();
        assert_eq!(c.regions, 5);
        assert_eq!(c.nations, 25);
        assert_eq!(c.suppliers, 100);
        assert_eq!(c.parts, 2000);
        assert_eq!(c.partsupps, 8000);
        assert_eq!(c.customers, 1500);
        assert_eq!(c.orders, 15_000);
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = Generator::new(0.001);
        let g2 = Generator::new(0.001);
        let (mut t1, mut t2) = (Vec::new(), Vec::new());
        g1.orders(|o, ls| t1.push((o.key, o.totalprice, ls.len())));
        g2.orders(|o, ls| t2.push((o.key, o.totalprice, ls.len())));
        assert_eq!(t1, t2);
    }

    #[test]
    fn lineitem_dates_are_consistent() {
        let g = Generator::new(0.001);
        g.orders(|o, lines| {
            for l in lines {
                assert!(l.shipdate > o.orderdate);
                assert!(l.shipdate <= o.orderdate + 121);
                assert!(l.receiptdate > l.shipdate);
                assert_eq!(l.linestatus == b'O', l.shipdate > CURRENT_DATE);
                assert_eq!(l.returnflag == b'N', l.receiptdate > CURRENT_DATE);
            }
        });
    }

    #[test]
    fn no_field_generated_at_sf_0_01_is_refused() {
        // `text` panics on a value wider than its column; past that, each
        // formatted field reads as `format!` would have written it.
        for g in [Generator::new(0.01), Generator::with_seed(0.01, 42)] {
            g.regions(|_| {});
            g.nations(|n| assert_eq!(n.name.as_str(), text::NATIONS[n.key as usize].0));
            g.suppliers(|s| {
                assert_eq!(s.name.as_str(), format!("Supplier#{:09}", s.key));
                assert_eq!(s.phone.len(), 15, "{}", s.phone);
            });
            g.parts(|p| assert_eq!(p.name.as_str().split(' ').count(), 5));
            g.partsupps(|_| {});
            g.customers(|c| assert_eq!(c.name.as_str(), format!("Customer#{:09}", c.key)));
            g.orders(|o, _| assert_eq!(o.clerk.len(), 15, "{}", o.clerk));
        }
    }

    #[test]
    fn q6_style_selectivity_is_in_range() {
        // Q6 predicate: shipdate in 1994, discount in [0.05, 0.07], qty < 24.
        let g = Generator::new(0.01);
        let (mut hits, mut total) = (0u64, 0u64);
        let lo = date(1994, 1, 1);
        let hi = date(1995, 1, 1);
        let dlo = Decimal::parse("0.05").unwrap();
        let dhi = Decimal::parse("0.07").unwrap();
        g.orders(|_, lines| {
            for l in lines {
                total += 1;
                if l.shipdate >= lo
                    && l.shipdate < hi
                    && l.discount >= dlo
                    && l.discount <= dhi
                    && l.quantity < Decimal::from_int(24)
                {
                    hits += 1;
                }
            }
        });
        let sel = hits as f64 / total as f64;
        // ~1/7 (year) * 3/11 (discount) * 23/50 (quantity) ≈ 1.8 %.
        assert!(sel > 0.005 && sel < 0.04, "selectivity {sel}");
    }

    #[test]
    fn order_totalprice_matches_lineitems() {
        let g = Generator::new(0.001);
        g.orders(|o, lines| {
            let total: Decimal = lines
                .iter()
                .map(|l| l.extendedprice * (Decimal::ONE + l.tax) * (Decimal::ONE - l.discount))
                .sum();
            assert_eq!(o.totalprice, total);
        });
    }

    #[test]
    fn partsupp_suppliers_are_valid_and_distinct() {
        let g = Generator::new(0.01);
        let s = g.cardinalities().suppliers as i64;
        let mut seen_parts = std::collections::HashMap::<i64, Vec<i64>>::new();
        g.partsupps(|ps| {
            assert!((1..=s).contains(&ps.supplier), "supplier {}", ps.supplier);
            seen_parts.entry(ps.part).or_default().push(ps.supplier);
        });
        for (part, sups) in &seen_parts {
            assert_eq!(sups.len(), 4, "part {part}");
            let distinct: std::collections::HashSet<_> = sups.iter().collect();
            assert_eq!(distinct.len(), 4, "part {part} suppliers {sups:?}");
        }
    }

    #[test]
    fn retail_price_formula() {
        assert_eq!(retail_price(1), Decimal::from_cents(90_000 + 100));
        // Price always within the spec's rough band.
        for k in [1, 999, 1000, 20_001, 123_456] {
            let p = retail_price(k);
            assert!(p >= Decimal::from_cents(90_000) && p <= Decimal::from_cents(210_000));
        }
    }
}
