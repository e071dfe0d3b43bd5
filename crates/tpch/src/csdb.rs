//! The TPC-H schema over the columnstore engine — the Fig 13 RDBMS
//! baseline. Tables are bulk-loaded into compressed column tables; per the
//! paper's setup, `lineitem` is clustered on `l_shipdate` and `orders` on
//! `o_orderdate` (§7: "use clustered indexes on shipdate and orderdate").

use columnstore::{ColTable, TableBuilder, Value};

use crate::gen::Generator;
use crate::text::{PRIORITIES, SEGMENTS};

/// The columnstore TPC-H database.
pub struct CsDb {
    /// `lineitem`, clustered on `l_shipdate`.
    pub lineitem: ColTable,
    /// `orders`, clustered on `o_orderdate`.
    pub orders: ColTable,
    /// `customer`.
    pub customer: ColTable,
    /// `supplier`.
    pub supplier: ColTable,
    /// `nation`.
    pub nation: ColTable,
    /// `region`.
    pub region: ColTable,
    /// `part`.
    pub part: ColTable,
    /// `partsupp`.
    pub partsupp: ColTable,
}

impl CsDb {
    /// Generates and bulk-loads all eight tables.
    pub fn load(gen: &Generator) -> CsDb {
        let mut region = TableBuilder::new(&["r_regionkey", "r_name"]);
        gen.regions(|r| {
            region.push_row(vec![Value::I64(r.key), Value::Str(r.name.to_string())]);
        });
        let mut nation = TableBuilder::new(&["n_nationkey", "n_name", "n_regionkey"]);
        gen.nations(|n| {
            nation.push_row(vec![
                Value::I64(n.key),
                Value::Str(n.name.to_string()),
                Value::I64(n.region),
            ]);
        });
        let mut supplier = TableBuilder::new(&["s_suppkey", "s_name", "s_nationkey", "s_acctbal"]);
        gen.suppliers(|s| {
            supplier.push_row(vec![
                Value::I64(s.key),
                Value::Str(s.name.to_string()),
                Value::I64(s.nation),
                Value::Decimal(s.acctbal),
            ]);
        });
        let mut part = TableBuilder::new(&["p_partkey", "p_name", "p_mfgr", "p_type", "p_size"]);
        gen.parts(|p| {
            part.push_row(vec![
                Value::I64(p.key),
                Value::Str(p.name.to_string()),
                Value::Str(p.mfgr.to_string()),
                Value::Str(p.typ.to_string()),
                Value::I64(p.size as i64),
            ]);
        });
        let mut partsupp = TableBuilder::new(&["ps_partkey", "ps_suppkey", "ps_supplycost"]);
        gen.partsupps(|ps| {
            partsupp.push_row(vec![
                Value::I64(ps.part),
                Value::I64(ps.supplier),
                Value::Decimal(ps.supplycost),
            ]);
        });
        let mut customer = TableBuilder::new(&[
            "c_custkey",
            "c_name",
            "c_nationkey",
            "c_acctbal",
            "c_mktsegment",
        ]);
        gen.customers(|c| {
            customer.push_row(vec![
                Value::I64(c.key),
                Value::Str(c.name.to_string()),
                Value::I64(c.nation),
                Value::Decimal(c.acctbal),
                Value::Str(SEGMENTS[c.mktsegment as usize].to_string()),
            ]);
        });
        let mut orders = TableBuilder::new(&[
            "o_orderkey",
            "o_custkey",
            "o_totalprice",
            "o_orderdate",
            "o_orderpriority",
            "o_shippriority",
        ])
        .clustered_on("o_orderdate");
        let mut lineitem = TableBuilder::new(&[
            "l_orderkey",
            "l_partkey",
            "l_suppkey",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_tax",
            "l_returnflag",
            "l_linestatus",
            "l_shipdate",
            "l_commitdate",
            "l_receiptdate",
            "l_orderpriority",
        ])
        .clustered_on("l_shipdate");
        gen.orders(|o, lines| {
            orders.push_row(vec![
                Value::I64(o.key),
                Value::I64(o.customer),
                Value::Decimal(o.totalprice),
                Value::I64(o.orderdate as i64),
                Value::Str(PRIORITIES[o.orderpriority as usize].to_string()),
                Value::I64(o.shippriority as i64),
            ]);
            for l in lines {
                lineitem.push_row(vec![
                    Value::I64(l.order),
                    Value::I64(l.part),
                    Value::I64(l.supplier),
                    Value::Decimal(l.quantity),
                    Value::Decimal(l.extendedprice),
                    Value::Decimal(l.discount),
                    Value::Decimal(l.tax),
                    Value::Str((l.returnflag as char).to_string()),
                    Value::Str((l.linestatus as char).to_string()),
                    Value::I64(l.shipdate as i64),
                    Value::I64(l.commitdate as i64),
                    Value::I64(l.receiptdate as i64),
                    // Denormalized copy of the order priority to support the
                    // engine's Q4 semi-join output without a second pass.
                    Value::Str(PRIORITIES[o.orderpriority as usize].to_string()),
                ]);
            }
        });
        CsDb {
            lineitem: lineitem.build(),
            orders: orders.build(),
            customer: customer.build(),
            supplier: supplier.build(),
            nation: nation.build(),
            region: region.build(),
            part: part.build(),
            partsupp: partsupp.build(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dates::date;

    #[test]
    fn loads_clustered_tables() {
        let gen = Generator::new(0.002);
        let db = CsDb::load(&gen);
        assert_eq!(db.region.rows(), 5);
        assert_eq!(db.orders.rows(), gen.cardinalities().orders);
        assert!(db.lineitem.rows() >= db.orders.rows());
        assert_eq!(db.lineitem.clustered(), Some("l_shipdate"));
        assert_eq!(db.orders.clustered(), Some("o_orderdate"));
        // Clustered order means date predicates eliminate segments.
        if db.lineitem.rows() > columnstore::SEGMENT_ROWS {
            let ratio =
                db.lineitem
                    .elimination_ratio("l_shipdate", date(1998, 1, 1) as i64, i64::MAX);
            assert!(ratio > 0.0, "late dates should skip early segments");
        }
        assert!(db.lineitem.compressed_bytes() > 0);
    }
}
