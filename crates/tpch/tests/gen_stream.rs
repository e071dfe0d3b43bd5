//! The generated database, pinned. One `page::checksum64` digest covers
//! every field of every row the generator streams, in stream order; a
//! second covers every row `SmcDb::load` stores, `Ref` and `DirectRef`
//! fields excluded. Moving one RNG draw, clipping one string or changing
//! one stored byte changes a digest.
//!
//! Each field is encoded by value, not by representation: integers as
//! little-endian `i64`, decimals by mantissa, strings length-prefixed, and
//! dictionary columns and flags as the strings they stand for. A change
//! of how a row type holds a field changes only the accessor below, never
//! the constants.

use smc_memory::page::checksum64;
use smc_memory::Decimal;
use tpch::smcdb::SmcDb;
use tpch::text::{INSTRUCTIONS, MODES, PRIORITIES, SEGMENTS};
use tpch::Generator;

const SF: f64 = 0.01;
const DEFAULT_STREAM: u64 = 0x409a_b05e_922c_e3c1;
const DEFAULT_LOADED: u64 = 0xb9d4_a215_12d4_0392;
const SEED_42_STREAM: u64 = 0xf041_5d0c_0a0d_c577;
const SEED_42_LOADED: u64 = 0x1102_04e2_058a_d61c;

/// Field bytes, appended in the order they are given.
#[derive(Default)]
struct Fields(Vec<u8>);

impl Fields {
    fn int(&mut self, v: impl Into<i64>) -> &mut Self {
        self.0.extend_from_slice(&v.into().to_le_bytes());
        self
    }

    fn dec(&mut self, d: Decimal) -> &mut Self {
        self.0.extend_from_slice(&d.mantissa().to_le_bytes());
        self
    }

    fn str(&mut self, s: &str) -> &mut Self {
        self.int(s.len() as i64);
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    fn flag(&mut self, c: char) -> &mut Self {
        self.str(c.encode_utf8(&mut [0; 4]))
    }
}

fn stream_digest(gen: &Generator) -> u64 {
    let mut d = Fields::default();
    gen.regions(|r| {
        d.int(r.key).str(r.name.as_str()).str(r.comment.as_str());
    });
    gen.nations(|n| {
        d.int(n.key)
            .str(n.name.as_str())
            .int(n.region)
            .str(n.comment.as_str());
    });
    gen.suppliers(|s| {
        d.int(s.key)
            .str(s.name.as_str())
            .str(s.address.as_str())
            .int(s.nation)
            .str(s.phone.as_str())
            .dec(s.acctbal)
            .str(s.comment.as_str());
    });
    gen.parts(|p| {
        d.int(p.key)
            .str(p.name.as_str())
            .str(p.mfgr.as_str())
            .str(p.brand.as_str())
            .str(p.typ.as_str())
            .int(p.size)
            .str(p.container.as_str())
            .dec(p.retailprice)
            .str(p.comment.as_str());
    });
    gen.partsupps(|ps| {
        d.int(ps.part)
            .int(ps.supplier)
            .int(ps.availqty)
            .dec(ps.supplycost)
            .str(ps.comment.as_str());
    });
    gen.customers(|c| {
        d.int(c.key)
            .str(c.name.as_str())
            .str(c.address.as_str())
            .int(c.nation)
            .str(c.phone.as_str())
            .dec(c.acctbal)
            .str(SEGMENTS[c.mktsegment as usize])
            .str(c.comment.as_str());
    });
    gen.orders(|o, lines| {
        d.int(o.key)
            .int(o.customer)
            .flag(o.orderstatus as char)
            .dec(o.totalprice)
            .int(o.orderdate)
            .str(PRIORITIES[o.orderpriority as usize])
            .str(o.clerk.as_str())
            .int(o.shippriority)
            .str(o.comment.as_str());
        for l in lines.iter() {
            d.int(l.order)
                .int(l.part)
                .int(l.supplier)
                .int(l.linenumber)
                .dec(l.quantity)
                .dec(l.extendedprice)
                .dec(l.discount)
                .dec(l.tax)
                .flag(l.returnflag as char)
                .flag(l.linestatus as char)
                .int(l.shipdate)
                .int(l.commitdate)
                .int(l.receiptdate)
                .str(INSTRUCTIONS[l.shipinstruct as usize])
                .str(MODES[l.shipmode as usize])
                .str(l.comment.as_str());
        }
    });
    checksum64(&d.0)
}

/// Digest of one table: each row encoded alone, the rows sorted, so the
/// digest depends on what is stored and not on where.
fn table(out: &mut Fields, mut rows: Vec<Vec<u8>>) {
    rows.sort_unstable();
    out.int(rows.len() as i64);
    for row in rows {
        out.0.extend_from_slice(&row);
    }
}

fn loaded_digest(gen: &Generator) -> u64 {
    let db = SmcDb::load(gen, true);
    let g = db.runtime.pin();
    let mut d = Fields::default();
    macro_rules! rows {
        ($smc:expr, |$r:ident, $f:ident| $body:expr) => {{
            let mut rows = Vec::new();
            $smc.for_each(&g, |$r| {
                let mut $f = Fields::default();
                $body;
                rows.push($f.0);
            });
            table(&mut d, rows);
        }};
    }
    rows!(db.regions, |r, f| f
        .int(r.key)
        .str(r.name.as_str())
        .str(r.comment.as_str()));
    rows!(db.nations, |n, f| f
        .int(n.key)
        .str(n.name.as_str())
        .int(n.regionkey)
        .str(n.comment.as_str()));
    rows!(db.suppliers, |s, f| f
        .int(s.key)
        .str(s.name.as_str())
        .str(s.address.as_str())
        .int(s.nationkey)
        .str(s.phone.as_str())
        .dec(s.acctbal)
        .str(s.comment.as_str()));
    rows!(db.parts, |p, f| f
        .int(p.key)
        .str(p.name.as_str())
        .str(p.mfgr.as_str())
        .str(p.brand.as_str())
        .str(p.typ.as_str())
        .int(p.size)
        .str(p.container.as_str())
        .dec(p.retailprice)
        .str(p.comment.as_str()));
    rows!(db.partsupps, |ps, f| f
        .int(ps.partkey)
        .int(ps.suppkey)
        .int(ps.availqty)
        .dec(ps.supplycost)
        .str(ps.comment.as_str()));
    rows!(db.customers, |c, f| f
        .int(c.key)
        .str(c.name.as_str())
        .str(c.address.as_str())
        .int(c.nationkey)
        .str(c.phone.as_str())
        .dec(c.acctbal)
        .str(SEGMENTS[c.mktsegment as usize])
        .str(c.comment.as_str()));
    rows!(db.orders, |o, f| f
        .int(o.key)
        .int(o.custkey)
        .flag(o.orderstatus as char)
        .dec(o.totalprice)
        .int(o.orderdate)
        .str(PRIORITIES[o.orderpriority as usize])
        .str(o.clerk.as_str())
        .int(o.shippriority)
        .str(o.comment.as_str()));
    rows!(db.lineitems, |l, f| f
        .int(l.orderkey)
        .int(l.partkey)
        .int(l.suppkey)
        .int(l.linenumber)
        .dec(l.quantity)
        .dec(l.extendedprice)
        .dec(l.discount)
        .dec(l.tax)
        .flag(l.returnflag as char)
        .flag(l.linestatus as char)
        .int(l.shipdate)
        .int(l.commitdate)
        .int(l.receiptdate)
        .str(INSTRUCTIONS[l.shipinstruct as usize])
        .str(MODES[l.shipmode as usize])
        .str(l.comment.as_str()));
    rows!(
        db.lineitems_col.as_ref().expect("loaded with the twin"),
        |l, f| f
            .int(l.orderkey)
            .dec(l.quantity)
            .dec(l.extendedprice)
            .dec(l.discount)
            .dec(l.tax)
            .flag(l.returnflag as char)
            .flag(l.linestatus as char)
            .int(l.shipdate)
            .int(l.commitdate)
            .int(l.receiptdate)
    );
    checksum64(&d.0)
}

#[test]
fn default_seed_stream_and_load_are_pinned() {
    let gen = Generator::new(SF);
    assert_eq!(stream_digest(&gen), DEFAULT_STREAM, "generated stream");
    assert_eq!(loaded_digest(&gen), DEFAULT_LOADED, "loaded SmcDb rows");
}

#[test]
fn seed_42_stream_and_load_are_pinned() {
    let gen = Generator::with_seed(SF, 42);
    assert_eq!(stream_digest(&gen), SEED_42_STREAM, "generated stream");
    assert_eq!(loaded_digest(&gen), SEED_42_LOADED, "loaded SmcDb rows");
}
