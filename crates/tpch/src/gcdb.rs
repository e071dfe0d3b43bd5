//! The TPC-H schema over the simulated managed heap — the paper's baseline
//! databases (`List<T>` and `ConcurrentDictionary<TKey,TValue>` of §7).
//!
//! Objects are heap-allocated and referenced by handles; FK relations are
//! handle fields traversed through the arena (the managed pointer chase).
//! The same objects are rooted both in per-table `GcList`s and in a
//! `GcConcurrentDictionary` keyed by primary key, so Fig 11's List and
//! C.Dictionary series run over identical object graphs and differ only in
//! the enumeration path.

use std::sync::Arc;

use managed_heap::{Arena, GcConcurrentDictionary, GcList, Handle, ManagedHeap, Marker, Trace};
use smc_memory::Decimal;

use crate::gen::Generator;

/// REGION object (managed).
pub struct GcRegion {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: String,
    /// TPC-H comment text.
    pub comment: String,
}
impl Trace for GcRegion {}

/// NATION object (managed).
pub struct GcNation {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: String,
    /// FK: region key.
    pub regionkey: i64,
    /// The region (FK).
    pub region: Handle<GcRegion>,
    /// TPC-H comment text.
    pub comment: String,
}
impl Trace for GcNation {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.region);
    }
}

/// SUPPLIER object (managed).
pub struct GcSupplier {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: String,
    /// FK: nation key.
    pub nationkey: i64,
    /// The nation (FK).
    pub nation: Handle<GcNation>,
    /// Account balance.
    pub acctbal: Decimal,
    /// TPC-H comment text.
    pub comment: String,
}
impl Trace for GcSupplier {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.nation);
    }
}

/// PART object (managed).
pub struct GcPart {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: String,
    /// Manufacturer.
    pub mfgr: String,
    /// Part type string.
    pub typ: String,
    /// Part size.
    pub size: i32,
    /// Retail price.
    pub retailprice: Decimal,
}
impl Trace for GcPart {}

/// PARTSUPP object (managed).
pub struct GcPartSupp {
    /// FK: part key.
    pub partkey: i64,
    /// FK: supplier key.
    pub suppkey: i64,
    /// The part (FK).
    pub part: Handle<GcPart>,
    /// The supplier (FK).
    pub supplier: Handle<GcSupplier>,
    /// Supply cost (`ps_supplycost`).
    pub supplycost: Decimal,
}
impl Trace for GcPartSupp {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.part);
        m.mark(self.supplier);
    }
}

/// CUSTOMER object (managed).
pub struct GcCustomer {
    /// Primary key.
    pub key: i64,
    /// Name.
    pub name: String,
    /// FK: nation key.
    pub nationkey: i64,
    /// The nation (FK).
    pub nation: Handle<GcNation>,
    /// Account balance.
    pub acctbal: Decimal,
    /// Market segment.
    pub mktsegment: u8,
}
impl Trace for GcCustomer {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.nation);
    }
}

/// ORDERS object (managed).
pub struct GcOrder {
    /// Primary key.
    pub key: i64,
    /// FK: customer key.
    pub custkey: i64,
    /// The customer (FK).
    pub customer: Handle<GcCustomer>,
    /// Order status flag.
    pub orderstatus: u8,
    /// Total order price.
    pub totalprice: Decimal,
    /// Order date (epoch day).
    pub orderdate: i32,
    /// Order priority.
    pub orderpriority: u8,
    /// Ship priority.
    pub shippriority: i32,
}
impl Trace for GcOrder {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.customer);
    }
}

/// LINEITEM object (managed).
pub struct GcLineitem {
    /// FK: order key.
    pub orderkey: i64,
    /// FK: part key.
    pub partkey: i64,
    /// FK: supplier key.
    pub suppkey: i64,
    /// The order (FK).
    pub order: Handle<GcOrder>,
    /// The part (FK).
    pub part: Handle<GcPart>,
    /// The supplier (FK).
    pub supplier: Handle<GcSupplier>,
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
    /// TPC-H comment text.
    pub comment: String,
}
impl Trace for GcLineitem {
    fn trace(&self, m: &mut Marker<'_>) {
        m.mark(self.order);
        m.mark(self.part);
        m.mark(self.supplier);
    }
}

/// The managed TPC-H database: `GcList` per table plus a keyed dictionary
/// over the same lineitem objects.
pub struct GcDb {
    /// The heap every object lives on.
    pub heap: Arc<ManagedHeap>,
    /// The `region` table.
    pub regions: GcList<GcRegion>,
    /// The `nation` table.
    pub nations: GcList<GcNation>,
    /// The `supplier` table.
    pub suppliers: GcList<GcSupplier>,
    /// The `part` table.
    pub parts: GcList<GcPart>,
    /// The `partsupp` table.
    pub partsupps: GcList<GcPartSupp>,
    /// The `customer` table.
    pub customers: GcList<GcCustomer>,
    /// The `order` table.
    pub orders: GcList<GcOrder>,
    /// The `lineitem` table.
    pub lineitems: GcList<GcLineitem>,
    /// Dictionary view of the same lineitem objects, keyed by
    /// `orderkey * 8 + linenumber` (the C.Dictionary series of Fig 11).
    pub lineitem_dict: GcConcurrentDictionary<i64, GcLineitem>,
    /// Arenas for FK traversal in queries.
    /// Arena resolving `GcOrder` handles during FK traversal.
    pub order_arena: Arc<Arena<GcOrder>>,
    /// Arena resolving `GcCustomer` handles during FK traversal.
    pub customer_arena: Arc<Arena<GcCustomer>>,
    /// Arena resolving `GcSupplier` handles during FK traversal.
    pub supplier_arena: Arc<Arena<GcSupplier>>,
    /// Arena resolving `GcNation` handles during FK traversal.
    pub nation_arena: Arc<Arena<GcNation>>,
    /// Arena resolving `GcRegion` handles during FK traversal.
    pub region_arena: Arc<Arena<GcRegion>>,
    /// Arena resolving `GcPart` handles during FK traversal.
    pub part_arena: Arc<Arena<GcPart>>,
}

/// The dictionary key for a lineitem.
pub fn lineitem_key(orderkey: i64, linenumber: i32) -> i64 {
    orderkey * 8 + linenumber as i64
}

impl GcDb {
    /// Generates and loads the managed database on `heap`.
    pub fn load(gen: &Generator, heap: &Arc<ManagedHeap>) -> GcDb {
        let regions: GcList<GcRegion> = GcList::new(heap);
        let nations: GcList<GcNation> = GcList::new(heap);
        let suppliers: GcList<GcSupplier> = GcList::new(heap);
        let parts: GcList<GcPart> = GcList::new(heap);
        let partsupps: GcList<GcPartSupp> = GcList::new(heap);
        let customers: GcList<GcCustomer> = GcList::new(heap);
        let orders: GcList<GcOrder> = GcList::new(heap);
        let lineitems: GcList<GcLineitem> = GcList::new(heap);
        let lineitem_dict: GcConcurrentDictionary<i64, GcLineitem> =
            GcConcurrentDictionary::new(heap);

        let mut region_hs = Vec::new();
        gen.regions(|r| {
            region_hs.push(regions.add(GcRegion {
                key: r.key,
                name: r.name.to_string(),
                comment: r.comment.to_string(),
            }));
        });
        let mut nation_hs = Vec::new();
        gen.nations(|n| {
            nation_hs.push(nations.add(GcNation {
                key: n.key,
                name: n.name.to_string(),
                regionkey: n.region,
                region: region_hs[n.region as usize],
                comment: n.comment.to_string(),
            }));
        });
        let mut supplier_hs = Vec::with_capacity(gen.cardinalities().suppliers + 1);
        supplier_hs.push(Handle::<GcSupplier>::new_invalid());
        gen.suppliers(|s| {
            supplier_hs.push(suppliers.add(GcSupplier {
                key: s.key,
                name: s.name.to_string(),
                nationkey: s.nation,
                nation: nation_hs[s.nation as usize],
                acctbal: s.acctbal,
                comment: s.comment.to_string(),
            }));
        });
        let mut part_hs = Vec::with_capacity(gen.cardinalities().parts + 1);
        part_hs.push(Handle::<GcPart>::new_invalid());
        gen.parts(|p| {
            part_hs.push(parts.add(GcPart {
                key: p.key,
                name: p.name.to_string(),
                mfgr: p.mfgr.to_string(),
                typ: p.typ.to_string(),
                size: p.size,
                retailprice: p.retailprice,
            }));
        });
        gen.partsupps(|ps| {
            partsupps.add(GcPartSupp {
                partkey: ps.part,
                suppkey: ps.supplier,
                part: part_hs[ps.part as usize],
                supplier: supplier_hs[ps.supplier as usize],
                supplycost: ps.supplycost,
            });
        });
        let mut customer_hs = Vec::with_capacity(gen.cardinalities().customers + 1);
        customer_hs.push(Handle::<GcCustomer>::new_invalid());
        gen.customers(|c| {
            customer_hs.push(customers.add(GcCustomer {
                key: c.key,
                name: c.name.to_string(),
                nationkey: c.nation,
                nation: nation_hs[c.nation as usize],
                acctbal: c.acctbal,
                mktsegment: c.mktsegment,
            }));
        });
        gen.orders(|o, lines| {
            let oh = orders.add(GcOrder {
                key: o.key,
                custkey: o.customer,
                customer: customer_hs[o.customer as usize],
                orderstatus: o.orderstatus,
                totalprice: o.totalprice,
                orderdate: o.orderdate,
                orderpriority: o.orderpriority,
                shippriority: o.shippriority,
            });
            for l in lines {
                let lh = lineitems.add(GcLineitem {
                    orderkey: l.order,
                    partkey: l.part,
                    suppkey: l.supplier,
                    order: oh,
                    part: part_hs[l.part as usize],
                    supplier: supplier_hs[l.supplier as usize],
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
                    comment: l.comment.to_string(),
                });
                lineitem_dict.insert_handle(lineitem_key(l.order, l.linenumber), lh);
            }
        });
        GcDb {
            heap: heap.clone(),
            order_arena: heap.arena::<GcOrder>(),
            customer_arena: heap.arena::<GcCustomer>(),
            supplier_arena: heap.arena::<GcSupplier>(),
            nation_arena: heap.arena::<GcNation>(),
            region_arena: heap.arena::<GcRegion>(),
            part_arena: heap.arena::<GcPart>(),
            regions,
            nations,
            suppliers,
            parts,
            partsupps,
            customers,
            orders,
            lineitems,
            lineitem_dict,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_and_traverse() {
        let gen = Generator::new(0.001);
        let heap = ManagedHeap::new_batch();
        let db = GcDb::load(&gen, &heap);
        assert_eq!(db.regions.len(), 5);
        assert_eq!(db.orders.len(), gen.cardinalities().orders);
        assert_eq!(db.lineitems.len(), db.lineitem_dict.len());
        let g = heap.enter();
        let mut checked = 0;
        db.lineitems.for_each(&g, |l| {
            let o = db.order_arena.get(l.order).expect("order");
            assert_eq!(o.key, l.orderkey);
            let c = db.customer_arena.get(o.customer).expect("customer");
            assert_eq!(c.key, o.custkey);
            checked += 1;
        });
        assert!(checked > 500);
    }

    #[test]
    fn objects_survive_collections_during_load() {
        // A small nursery forces many collections during load; the object
        // graph must stay intact because the lists root everything.
        let gen = Generator::new(0.001);
        let heap = managed_heap::ManagedHeap::new(managed_heap::HeapConfig {
            nursery_budget: 2_000,
            ..managed_heap::HeapConfig::default()
        });
        let db = GcDb::load(&gen, &heap);
        assert!(heap.collections() > 0, "load must have triggered GCs");
        let g = heap.enter();
        let n = db.lineitems.for_each(&g, |l| {
            assert!(db.order_arena.get(l.order).is_some());
        });
        assert_eq!(n, db.lineitems.len() as u64);
    }
}
