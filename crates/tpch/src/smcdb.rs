//! The object-oriented TPC-H schema over self-managed collections (§7).
//!
//! "TPC-H tables map to collections and each record to an object composed
//! of primitive types and references to other records (all primary-foreign-
//! key relations). Based on the latter, most joins are performed using
//! references." Every table is an [`Smc`]; every FK is a [`Ref`] (checked,
//! via the indirection table) plus an optional [`DirectRef`] (§6) used by
//! the `SMC (direct)` query variants of Figs 10–13.
//!
//! Strings are inline at the spec's column widths (tabular restriction,
//! §2; the widths are [`text`]'s); enumerated columns (`mktsegment`,
//! priorities, ...) are stored as `u8` indexes into the spec's value
//! pools and flags as ASCII bytes — the same dictionary trick any OO
//! adaptation would use, decoded on output. The generator emits rows in
//! this representation, so loading copies fields and converts nothing.

use std::sync::Arc;

use smc::{ColumnArrays, Columnar, Columns, DirectRef, Guard, Ref, Smc};
use smc_memory::{Decimal, Runtime, Tabular};

use crate::gen::Generator;
use crate::text;

/// REGION object.
#[derive(Clone, Copy)]
pub struct Region {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::RegionName,
    /// TPC-H comment text.
    pub comment: text::RegionComment,
}
unsafe impl Tabular for Region {}

/// NATION object.
#[derive(Clone, Copy)]
pub struct Nation {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::NationName,
    /// FK: region key.
    pub regionkey: i64,
    /// The region (FK).
    pub region: Ref<Region>,
    /// TPC-H comment text.
    pub comment: text::NationComment,
}
unsafe impl Tabular for Nation {}

/// SUPPLIER object.
#[derive(Clone, Copy)]
pub struct Supplier {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::KeyName,
    /// Address.
    pub address: text::Address,
    /// FK: nation key.
    pub nationkey: i64,
    /// The nation (FK).
    pub nation: Ref<Nation>,
    /// Phone number.
    pub phone: text::Phone,
    /// Account balance.
    pub acctbal: Decimal,
    /// TPC-H comment text.
    pub comment: text::SupplierComment,
}
unsafe impl Tabular for Supplier {}

/// PART object.
#[derive(Clone, Copy)]
pub struct Part {
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
unsafe impl Tabular for Part {}

/// PARTSUPP object.
#[derive(Clone, Copy)]
pub struct PartSupp {
    /// FK: part key.
    pub partkey: i64,
    /// FK: supplier key.
    pub suppkey: i64,
    /// The part (FK).
    pub part: Ref<Part>,
    /// The supplier (FK).
    pub supplier: Ref<Supplier>,
    /// Available quantity (`ps_availqty`).
    pub availqty: i32,
    /// Supply cost (`ps_supplycost`).
    pub supplycost: Decimal,
    /// TPC-H comment text.
    pub comment: text::PartSuppComment,
}
unsafe impl Tabular for PartSupp {}

/// CUSTOMER object.
#[derive(Clone, Copy)]
pub struct Customer {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: text::KeyName,
    /// Address.
    pub address: text::Address,
    /// FK: nation key.
    pub nationkey: i64,
    /// The nation (FK).
    pub nation: Ref<Nation>,
    /// Phone number.
    pub phone: text::Phone,
    /// Account balance.
    pub acctbal: Decimal,
    /// Index into [`text::SEGMENTS`].
    pub mktsegment: u8,
    /// TPC-H comment text.
    pub comment: text::CustomerComment,
}
unsafe impl Tabular for Customer {}

/// ORDERS object.
#[derive(Clone, Copy)]
pub struct Order {
    /// Primary key.
    pub key: i64,
    /// FK: customer key.
    pub custkey: i64,
    /// The customer (FK).
    pub customer: Ref<Customer>,
    /// §6 direct pointer to the same customer (Fig 10 nested enumeration,
    /// Fig 12 direct variant); linked, so `None` once the customer's block
    /// was spilled or this order was spilled and faulted back in.
    pub customer_d: Option<DirectRef<Customer>>,
    /// Order status flag.
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
unsafe impl Tabular for Order {}

/// LINEITEM object.
#[derive(Clone, Copy)]
pub struct Lineitem {
    /// FK: order key.
    pub orderkey: i64,
    /// FK: part key.
    pub partkey: i64,
    /// FK: supplier key.
    pub suppkey: i64,
    /// The order (FK).
    pub order: Ref<Order>,
    /// The part (FK).
    pub part: Ref<Part>,
    /// The supplier (FK).
    pub supplier: Ref<Supplier>,
    /// Direct-pointer twins of the reference joins (§6), linked: `None`
    /// where no resident address was left to heal to, and the [`Ref`] twin
    /// reads the row then.
    pub order_d: Option<DirectRef<Order>>,
    /// Direct pointer (§6) to the supplier, linked as `order_d` is.
    pub supplier_d: Option<DirectRef<Supplier>>,
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
    /// Return flag (`l_returnflag`).
    pub returnflag: u8,
    /// Line status (`l_linestatus`).
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
unsafe impl Tabular for Lineitem {}

/// Columnar projection of LINEITEM for the §4.1 variant (Fig 12): the
/// columns Q1–Q6 touch, shredded into per-column arrays.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LineitemCol {
    /// FK: order key.
    pub orderkey: i64,
    /// Quantity (`l_quantity`).
    pub quantity: Decimal,
    /// Extended price (`l_extendedprice`).
    pub extendedprice: Decimal,
    /// Discount fraction (`l_discount`).
    pub discount: Decimal,
    /// Tax fraction (`l_tax`).
    pub tax: Decimal,
    /// Return flag (`l_returnflag`).
    pub returnflag: u8,
    /// Line status (`l_linestatus`).
    pub linestatus: u8,
    /// Ship date (epoch day).
    pub shipdate: i32,
    /// Commit date (epoch day).
    pub commitdate: i32,
    /// Receipt date (epoch day).
    pub receiptdate: i32,
    /// The order (FK).
    pub order: Ref<Order>,
    /// The supplier (FK).
    pub supplier: Ref<Supplier>,
}
unsafe impl Tabular for LineitemCol {}

/// Column indices of [`LineitemCol`] (keep in sync with `COLUMN_WIDTHS`).
pub mod licol {
    /// Column index of `l_orderkey` in the columnar layout.
    pub const ORDERKEY: usize = 0;
    /// Column index of `l_quantity` in the columnar layout.
    pub const QUANTITY: usize = 1;
    /// Column index of `l_extendedprice` in the columnar layout.
    pub const EXTENDEDPRICE: usize = 2;
    /// Column index of `l_discount` in the columnar layout.
    pub const DISCOUNT: usize = 3;
    /// Column index of `l_tax` in the columnar layout.
    pub const TAX: usize = 4;
    /// Column index of `l_returnflag` in the columnar layout.
    pub const RETURNFLAG: usize = 5;
    /// Column index of `l_linestatus` in the columnar layout.
    pub const LINESTATUS: usize = 6;
    /// Column index of `l_shipdate` in the columnar layout.
    pub const SHIPDATE: usize = 7;
    /// Column index of `l_commitdate` in the columnar layout.
    pub const COMMITDATE: usize = 8;
    /// Column index of `l_receiptdate` in the columnar layout.
    pub const RECEIPTDATE: usize = 9;
    /// Column index of `l_order` in the columnar layout.
    pub const ORDER: usize = 10;
    /// Column index of `l_supplier` in the columnar layout.
    pub const SUPPLIER: usize = 11;
}

unsafe impl Columnar for LineitemCol {
    const COLUMN_WIDTHS: &'static [usize] = &[8, 16, 16, 16, 16, 1, 1, 4, 4, 4, 16, 16];

    unsafe fn scatter(&self, cols: &ColumnArrays, slot: usize) {
        cols.cell::<i64>(licol::ORDERKEY, slot).write(self.orderkey);
        cols.cell::<Decimal>(licol::QUANTITY, slot)
            .write(self.quantity);
        cols.cell::<Decimal>(licol::EXTENDEDPRICE, slot)
            .write(self.extendedprice);
        cols.cell::<Decimal>(licol::DISCOUNT, slot)
            .write(self.discount);
        cols.cell::<Decimal>(licol::TAX, slot).write(self.tax);
        cols.cell::<u8>(licol::RETURNFLAG, slot)
            .write(self.returnflag);
        cols.cell::<u8>(licol::LINESTATUS, slot)
            .write(self.linestatus);
        cols.cell::<i32>(licol::SHIPDATE, slot).write(self.shipdate);
        cols.cell::<i32>(licol::COMMITDATE, slot)
            .write(self.commitdate);
        cols.cell::<i32>(licol::RECEIPTDATE, slot)
            .write(self.receiptdate);
        cols.cell::<Ref<Order>>(licol::ORDER, slot)
            .write(self.order);
        cols.cell::<Ref<Supplier>>(licol::SUPPLIER, slot)
            .write(self.supplier);
    }

    unsafe fn gather(cols: &ColumnArrays, slot: usize) -> Self {
        LineitemCol {
            orderkey: cols.cell::<i64>(licol::ORDERKEY, slot).read(),
            quantity: cols.cell::<Decimal>(licol::QUANTITY, slot).read(),
            extendedprice: cols.cell::<Decimal>(licol::EXTENDEDPRICE, slot).read(),
            discount: cols.cell::<Decimal>(licol::DISCOUNT, slot).read(),
            tax: cols.cell::<Decimal>(licol::TAX, slot).read(),
            returnflag: cols.cell::<u8>(licol::RETURNFLAG, slot).read(),
            linestatus: cols.cell::<u8>(licol::LINESTATUS, slot).read(),
            shipdate: cols.cell::<i32>(licol::SHIPDATE, slot).read(),
            commitdate: cols.cell::<i32>(licol::COMMITDATE, slot).read(),
            receiptdate: cols.cell::<i32>(licol::RECEIPTDATE, slot).read(),
            order: cols.cell::<Ref<Order>>(licol::ORDER, slot).read(),
            supplier: cols.cell::<Ref<Supplier>>(licol::SUPPLIER, slot).read(),
        }
    }
}

/// Follows a linked §6 direct pointer, or its checked [`Ref`] twin where
/// the pointer is `None`: cleared because no resident address was left to
/// heal it to, or never set. `None` when the row was removed. Inlined as
/// `Ref::get` is: out of line, the call cost more than the dereference
/// (Fig 10's nested direct walk ran 1.2× the checked one's time).
#[inline]
pub(crate) fn direct_or<'g, T: Tabular>(
    direct: Option<DirectRef<T>>,
    checked: Ref<T>,
    guard: &'g Guard<'_>,
) -> Option<&'g T> {
    match direct {
        Some(d) => d.get(guard),
        None => checked.get(guard),
    }
}

/// The full TPC-H database over self-managed collections.
pub struct SmcDb {
    /// The runtime owning every collection's memory context.
    pub runtime: Arc<Runtime>,
    // The holders of linked direct pointers come before the tables those
    // lead into: fields drop in declaration order, and a table dropped
    // before its holders would have to clear their pointers first.
    /// The `lineitem` table.
    pub lineitems: Smc<Lineitem>,
    /// The `order` table.
    pub orders: Smc<Order>,
    /// The `region` table.
    pub regions: Smc<Region>,
    /// The `nation` table.
    pub nations: Smc<Nation>,
    /// The `supplier` table.
    pub suppliers: Smc<Supplier>,
    /// The `part` table.
    pub parts: Smc<Part>,
    /// The `partsupp` table.
    pub partsupps: Smc<PartSupp>,
    /// The `customer` table.
    pub customers: Smc<Customer>,
    /// Columnar twin of the lineitem collection (loaded on demand).
    pub lineitems_col: Option<Smc<LineitemCol, Columns>>,
}

impl SmcDb {
    /// Generates and loads the database at the generator's scale factor.
    /// `with_columnar` additionally loads the §4.1 columnar lineitem twin.
    pub fn load(gen: &Generator, with_columnar: bool) -> SmcDb {
        let runtime = Runtime::new();
        let regions: Smc<Region> = Smc::new(&runtime);
        let nations: Smc<Nation> = Smc::new(&runtime);
        let suppliers: Smc<Supplier> = Smc::new(&runtime);
        let parts: Smc<Part> = Smc::new(&runtime);
        let partsupps: Smc<PartSupp> = Smc::new(&runtime);
        let customers: Smc<Customer> = Smc::new(&runtime);
        let orders: Smc<Order> = Smc::new(&runtime);
        let lineitems: Smc<Lineitem> = Smc::new(&runtime);
        let lineitems_col: Option<Smc<LineitemCol, Columns>> =
            with_columnar.then(|| Smc::columnar(&runtime));
        // The §6 direct pointers, declared before any is stored: whatever
        // block of a target leaves it, the memory manager heals or clears
        // the pointers into it first.
        lineitems.link_direct(&orders, |l| &mut l.order_d);
        lineitems.link_direct(&suppliers, |l| &mut l.supplier_d);
        orders.link_direct(&customers, |o| &mut o.customer_d);

        // Key → reference maps, dense (keys are 0.. or 1..N).
        let mut region_refs = Vec::new();
        gen.regions(|r| {
            region_refs.push(regions.add(Region {
                key: r.key,
                name: r.name,
                comment: r.comment,
            }));
        });
        let mut nation_refs = Vec::new();
        gen.nations(|n| {
            nation_refs.push(nations.add(Nation {
                key: n.key,
                name: n.name,
                regionkey: n.region,
                region: region_refs[n.region as usize],
                comment: n.comment,
            }));
        });
        let mut supplier_refs = Vec::with_capacity(gen.cardinalities().suppliers + 1);
        supplier_refs.push(Ref::null()); // keys are 1-based
        gen.suppliers(|s| {
            supplier_refs.push(suppliers.add(Supplier {
                key: s.key,
                name: s.name,
                address: s.address,
                nationkey: s.nation,
                nation: nation_refs[s.nation as usize],
                phone: s.phone,
                acctbal: s.acctbal,
                comment: s.comment,
            }));
        });
        let mut part_refs = Vec::with_capacity(gen.cardinalities().parts + 1);
        part_refs.push(Ref::null());
        gen.parts(|p| {
            part_refs.push(parts.add(Part {
                key: p.key,
                name: p.name,
                mfgr: p.mfgr,
                brand: p.brand,
                typ: p.typ,
                size: p.size,
                container: p.container,
                retailprice: p.retailprice,
                comment: p.comment,
            }));
        });
        gen.partsupps(|ps| {
            partsupps.add(PartSupp {
                partkey: ps.part,
                suppkey: ps.supplier,
                part: part_refs[ps.part as usize],
                supplier: supplier_refs[ps.supplier as usize],
                availqty: ps.availqty,
                supplycost: ps.supplycost,
                comment: ps.comment,
            });
        });
        let mut customer_refs = Vec::with_capacity(gen.cardinalities().customers + 1);
        customer_refs.push(Ref::null());
        gen.customers(|c| {
            customer_refs.push(customers.add(Customer {
                key: c.key,
                name: c.name,
                address: c.address,
                nationkey: c.nation,
                nation: nation_refs[c.nation as usize],
                phone: c.phone,
                acctbal: c.acctbal,
                mktsegment: c.mktsegment,
                comment: c.comment,
            }));
        });
        {
            // Direct pointers are resolved inside one critical section.
            let guard = runtime.pin();
            gen.orders(|o, lines| {
                let customer = customer_refs[o.customer as usize];
                let order_ref = orders.add(Order {
                    key: o.key,
                    custkey: o.customer,
                    customer,
                    customer_d: customer.to_direct(&guard),
                    orderstatus: o.orderstatus,
                    totalprice: o.totalprice,
                    orderdate: o.orderdate,
                    orderpriority: o.orderpriority,
                    clerk: o.clerk,
                    shippriority: o.shippriority,
                    comment: o.comment,
                });
                for l in lines {
                    let supplier = supplier_refs[l.supplier as usize];
                    let li = Lineitem {
                        orderkey: l.order,
                        partkey: l.part,
                        suppkey: l.supplier,
                        order: order_ref,
                        part: part_refs[l.part as usize],
                        supplier,
                        order_d: order_ref.to_direct(&guard),
                        supplier_d: supplier.to_direct(&guard),
                        linenumber: l.linenumber,
                        quantity: l.quantity,
                        extendedprice: l.extendedprice,
                        discount: l.discount,
                        tax: l.tax,
                        returnflag: l.returnflag,
                        linestatus: l.linestatus,
                        shipdate: l.shipdate,
                        commitdate: l.commitdate,
                        receiptdate: l.receiptdate,
                        shipinstruct: l.shipinstruct,
                        shipmode: l.shipmode,
                        comment: l.comment,
                    };
                    lineitems.add(li);
                    if let Some(col) = &lineitems_col {
                        col.add(LineitemCol {
                            orderkey: li.orderkey,
                            quantity: li.quantity,
                            extendedprice: li.extendedprice,
                            discount: li.discount,
                            tax: li.tax,
                            returnflag: li.returnflag,
                            linestatus: li.linestatus,
                            shipdate: li.shipdate,
                            commitdate: li.commitdate,
                            receiptdate: li.receiptdate,
                            order: li.order,
                            supplier: li.supplier,
                        });
                    }
                }
            });
        }
        SmcDb {
            runtime,
            regions,
            nations,
            suppliers,
            parts,
            partsupps,
            customers,
            orders,
            lineitems,
            lineitems_col,
        }
    }

    /// Total off-heap bytes across all collections.
    pub fn memory_bytes(&self) -> usize {
        self.regions.memory_bytes()
            + self.nations.memory_bytes()
            + self.suppliers.memory_bytes()
            + self.parts.memory_bytes()
            + self.partsupps.memory_bytes()
            + self.customers.memory_bytes()
            + self.orders.memory_bytes()
            + self.lineitems.memory_bytes()
            + self.lineitems_col.as_ref().map_or(0, |c| c.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_small_db_and_count() {
        let gen = Generator::new(0.002);
        let db = SmcDb::load(&gen, true);
        let c = gen.cardinalities();
        assert_eq!(db.regions.len(), 5);
        assert_eq!(db.nations.len(), 25);
        assert_eq!(db.suppliers.len(), c.suppliers as u64);
        assert_eq!(db.parts.len(), c.parts as u64);
        assert_eq!(db.customers.len(), c.customers as u64);
        assert_eq!(db.orders.len(), c.orders as u64);
        assert!(
            db.lineitems.len() >= c.orders as u64,
            "1..=7 lines per order"
        );
        assert_eq!(db.lineitems.len(), db.lineitems_col.as_ref().unwrap().len());
        assert!(db.memory_bytes() > 0);
    }

    #[test]
    fn reference_joins_resolve() {
        let gen = Generator::new(0.001);
        let db = SmcDb::load(&gen, false);
        let g = db.runtime.pin();
        let mut checked = 0;
        db.lineitems.for_each(&g, |l| {
            let o = l.order.get(&g).expect("order reachable");
            assert_eq!(o.key, l.orderkey);
            let c = o.customer.get(&g).expect("customer reachable");
            assert_eq!(c.key, o.custkey);
            let n = c.nation.get(&g).expect("nation reachable");
            assert!(n.region.get(&g).is_some());
            checked += 1;
        });
        assert!(checked > 500);
    }

    #[test]
    fn direct_refs_agree_with_checked_refs() {
        let gen = Generator::new(0.001);
        let db = SmcDb::load(&gen, false);
        let g = db.runtime.pin();
        db.lineitems.for_each(&g, |l| {
            let via_ref = l.order.get(&g).unwrap().key;
            let via_direct = l.order_d.unwrap().get(&g).unwrap().key;
            assert_eq!(via_ref, via_direct);
            let s_ref = l.supplier.get(&g).unwrap().key;
            let s_dir = l.supplier_d.unwrap().get(&g).unwrap().key;
            assert_eq!(s_ref, s_dir);
        });
    }

    #[test]
    fn columnar_twin_matches_row_data() {
        let gen = Generator::new(0.001);
        let db = SmcDb::load(&gen, true);
        let col = db.lineitems_col.as_ref().unwrap();
        let g = db.runtime.pin();
        let mut row_sum = Decimal::ZERO;
        db.lineitems.for_each(&g, |l| row_sum += l.extendedprice);
        let mut col_sum = Decimal::ZERO;
        col.for_each(&g, |l| col_sum += l.extendedprice);
        assert_eq!(row_sum, col_sum);
    }

    /// Bytes a scan crosses per lineitem in each layout that Figs 11 and 12
    /// compare, pinned before any row is narrowed: the row SMC's slot (the
    /// incarnation word padded to the row's 16-byte alignment, then the
    /// row), the managed row, and the columnar store's bytes per slot (the
    /// 4-byte incarnation cell plus one cell per column, the `LineitemCol`
    /// it gathers into being 128 bytes).
    #[test]
    fn bytes_per_scanned_lineitem_of_each_layout() {
        use smc_memory::BlockLayout;
        let rows = BlockLayout::rows_of::<Lineitem>().unwrap();
        let cols = BlockLayout::columnar(LineitemCol::COLUMN_WIDTHS).unwrap();
        assert_eq!(std::mem::size_of::<Lineitem>(), 224);
        assert_eq!(rows.obj_offset, 16);
        assert_eq!(rows.slot_stride, 240);
        assert_eq!(std::mem::size_of::<crate::gcdb::GcLineitem>(), 144);
        assert_eq!(std::mem::size_of::<LineitemCol>(), 128);
        assert_eq!(LineitemCol::COLUMN_WIDTHS.iter().sum::<usize>(), 118);
        assert_eq!(cols.store_len / cols.capacity, 4 + 118);
    }
}
