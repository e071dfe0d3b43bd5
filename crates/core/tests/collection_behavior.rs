//! Behavioral tests for `Smc<T>`: the §2 semantics (ownership, null-on-
//! remove), §4 enumeration, §5 compaction with live references, and §6
//! direct pointers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use smc::{ColumnArrays, Columnar, Columns, ContextConfig, DirectRef, Ref, Smc};
use smc_memory::{Decimal, InlineStr, Runtime, Tabular};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Person {
    name: InlineStr<16>,
    age: u32,
}
unsafe impl Tabular for Person {}

fn person(name: &str, age: u32) -> Person {
    Person {
        name: name.into(),
        age,
    }
}

#[derive(Clone, Copy)]
struct Order {
    #[allow(dead_code)] // schema mirror; only `customer`/`total` are asserted
    id: u64,
    customer: Ref<Person>,
    total: Decimal,
}
unsafe impl Tabular for Order {}

#[test]
fn paper_overview_example() {
    // The §2 code excerpt: add, use, remove, observe nullness.
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    let adam = persons.add(person("Adam", 27));
    {
        let g = rt.pin();
        assert_eq!(adam.get(&g).unwrap().name, "Adam");
    }
    assert!(persons.remove(adam));
    let g = rt.pin();
    assert!(
        adam.get(&g).is_none(),
        "removed object dereferences to null"
    );
    assert!(!persons.remove(adam), "remove is not double-applied");
}

#[test]
fn enumeration_matches_live_set() {
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    let mut refs = Vec::new();
    for i in 0..1000 {
        refs.push(persons.add(person(&format!("p{i}"), i as u32 % 90)));
    }
    // Remove every third person.
    for (i, r) in refs.iter().enumerate() {
        if i % 3 == 0 {
            assert!(persons.remove(*r));
        }
    }
    let g = rt.pin();
    let mut seen = 0u64;
    let visited = persons.for_each(&g, |_| seen += 1);
    assert_eq!(seen, visited);
    assert_eq!(seen, persons.len());
    assert_eq!(seen, 1000 - 334);
}

#[test]
fn predicate_enumeration_like_generated_query() {
    // The §4 compiled query: age > 17 over the whole collection.
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    for i in 0..500 {
        persons.add(person("x", i % 40));
    }
    let g = rt.pin();
    let mut adults = 0;
    persons.for_each(&g, |p| {
        if p.age > 17 {
            adults += 1;
        }
    });
    // ages cycle 0..39; 22 of every 40 are > 17; 500 = 12*40 + 20.
    let expected = 12 * 22 + 2; // ages 18,19 in the final partial cycle
    assert_eq!(adults, expected);
}

#[test]
fn iterator_yields_usable_refs() {
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    for i in 0..100 {
        persons.add(person("it", i));
    }
    let g = rt.pin();
    let collected: Vec<(Ref<Person>, u32)> = persons.iter(&g).map(|(r, p)| (r, p.age)).collect();
    assert_eq!(collected.len(), 100);
    // Each yielded ref dereferences to the same object.
    for (r, age) in &collected {
        assert_eq!(r.get(&g).unwrap().age, *age);
    }
    drop(g);
    // Refs survive guard churn; removal nulls them.
    let (r0, _) = collected[0];
    persons.remove(r0);
    let g = rt.pin();
    assert!(r0.get(&g).is_none());
}

#[test]
fn references_between_collections_join() {
    // Reference-based joins, the TPC-H adaptation pattern (§7).
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    let orders: Smc<Order> = Smc::new(&rt);
    let alice = persons.add(person("Alice", 30));
    let bob = persons.add(person("Bob", 40));
    for i in 0..10 {
        orders.add(Order {
            id: i,
            customer: if i % 2 == 0 { alice } else { bob },
            total: Decimal::from_int(i as i64 * 10),
        });
    }
    let g = rt.pin();
    // "join" orders to customers through references.
    let mut alice_total = Decimal::ZERO;
    orders.for_each(&g, |o| {
        if let Some(c) = o.customer.get(&g) {
            if c.name == "Alice" {
                alice_total += o.total;
            }
        }
    });
    assert_eq!(alice_total, Decimal::from_int(20 + 40 + 60 + 80));
    drop(g);
    // Removing a customer nulls the reference inside orders.
    persons.remove(alice);
    let g = rt.pin();
    let mut dangling = 0;
    orders.for_each(&g, |o| {
        if o.customer.get(&g).is_none() {
            dangling += 1;
        }
    });
    assert_eq!(dangling, 5);
}

#[test]
fn update_in_place() {
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    let r = persons.add(person("Carol", 20));
    let g = rt.pin();
    assert_eq!(persons.update(r, &g, |p| p.age += 1), Ok(Some(())));
    assert_eq!(r.get(&g).unwrap().age, 21);
    drop(g);
    persons.remove(r);
    let g = rt.pin();
    assert_eq!(persons.update(r, &g, |p| p.age += 1), Ok(None));
}

#[test]
fn slot_reuse_does_not_resurrect_references() {
    // Remove objects, advance epochs, allocate replacements into the same
    // slots — the old references must stay null (incarnation protection).
    let rt = Runtime::new();
    let config = ContextConfig {
        reclamation_threshold: 0.0,
        ..ContextConfig::default()
    };
    let persons: Smc<Person> = Smc::with_config(&rt, config);
    let cap = persons.context().layout().capacity as usize;
    let old: Vec<Ref<Person>> = (0..cap * 2)
        .map(|i| persons.add(person("old", i as u32)))
        .collect();
    for r in &old {
        assert!(persons.remove(*r));
    }
    // Let epochs pass so slots are reclaimable.
    rt.try_advance_epoch();
    rt.try_advance_epoch();
    for i in 0..cap * 2 {
        persons.add(person("new", i as u32));
    }
    let g = rt.pin();
    for r in &old {
        assert!(r.get(&g).is_none(), "stale ref must not see slot reuse");
    }
    assert_eq!(persons.len(), (cap * 2) as u64);
}

#[test]
fn compaction_preserves_references_and_values() {
    let rt = Runtime::new();
    // Isolate compaction from reclamation.
    let config = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let persons: Smc<Person> = Smc::with_config(&rt, config);
    let cap = persons.context().layout().capacity as usize;
    let refs: Vec<Ref<Person>> = (0..cap * 5)
        .map(|i| persons.add(person(&format!("c{i}"), i as u32)))
        .collect();
    // Keep 10%: five sparse blocks.
    let mut kept = Vec::new();
    for (i, r) in refs.iter().enumerate() {
        if i % 10 == 0 {
            kept.push((*r, i as u32));
        } else {
            persons.remove(*r);
        }
    }
    let before_bytes = persons.memory_bytes();
    let report = persons.compact();
    assert!(report.moved > 0, "compaction should move survivors");
    rt.drain_graveyard_blocking();
    assert!(
        persons.memory_bytes() < before_bytes,
        "memory footprint must shrink"
    );
    let g = rt.pin();
    for (r, age) in &kept {
        let p = r.get(&g).expect("survivor reachable after compaction");
        assert_eq!(p.age, *age);
    }
    // Enumeration sees exactly the survivors.
    let mut n = 0;
    persons.for_each(&g, |_| n += 1);
    assert_eq!(n, kept.len());
}

#[test]
fn direct_refs_fast_path_and_tombstone_healing() {
    let rt = Runtime::new();
    let config = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let persons: Smc<Person> = Smc::with_config(&rt, config);
    let cap = persons.context().layout().capacity as usize;
    let refs: Vec<Ref<Person>> = (0..cap * 3)
        .map(|i| persons.add(person("d", i as u32)))
        .collect();
    let survivor = refs[7];
    // Direct pointer taken before compaction.
    let direct: DirectRef<Person> = {
        let g = rt.pin();
        survivor.to_direct(&g).unwrap()
    };
    for (i, r) in refs.iter().enumerate() {
        if i != 7 {
            persons.remove(*r);
        }
    }
    let report = persons.compact();
    assert!(report.moved >= 1);
    // The direct ref crosses the tombstone. It is held in no linked field,
    // so nothing healed it before the pass retired its block; the block is
    // still mapped because nothing has moved the epoch since the pass
    // buried it.
    let g = rt.pin();
    let p = direct.get(&g).expect("tombstone must forward");
    assert_eq!(p.age, 7);
    drop(g);
    persons.remove(survivor);
    let g = rt.pin();
    assert!(direct.get(&g).is_none(), "direct ref nulls after removal");
}

/// A holder of §6 direct pointers: each object points at one person through
/// a checked reference and through its direct twin.
#[derive(Clone, Copy)]
struct Holder {
    to: Ref<Person>,
    to_d: Option<DirectRef<Person>>,
}
unsafe impl Tabular for Holder {}

/// Four blocks of persons, a holder with direct pointers to every 20th of
/// them, and every other person removed: the first three blocks are sparse
/// enough for a compaction pass to empty.
fn linked_world(rt: &Arc<Runtime>) -> (Smc<Person>, Smc<Holder>) {
    let config = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let persons: Smc<Person> = Smc::with_config(rt, config);
    let holders: Smc<Holder> = Smc::new(rt);
    let cap = persons.context().layout().capacity as usize;
    let refs: Vec<Ref<Person>> = (0..cap * 4)
        .map(|i| persons.add(person("h", i as u32)))
        .collect();
    let g = rt.pin();
    for r in refs.iter().step_by(20) {
        holders.add(Holder {
            to: *r,
            to_d: r.to_direct(&g),
        });
    }
    drop(g);
    for (i, r) in refs.iter().enumerate() {
        if i % 20 != 0 {
            persons.remove(*r);
        }
    }
    (persons, holders)
}

/// Every holder pointer still set lies in one of the target's live blocks
/// and reads the person its checked reference reads. Returns how many are
/// set and how many cleared.
fn linked_pointers(persons: &Smc<Person>, holders: &Smc<Holder>) -> (usize, usize) {
    let live: std::collections::HashSet<usize> = (persons.context().membership_snapshot())
        .blocks
        .iter()
        .map(|b| b.base() as usize)
        .collect();
    let g = persons.runtime().pin();
    let (mut set, mut cleared) = (0, 0);
    holders.for_each(&g, |h| {
        let Some(d) = h.to_d else {
            cleared += 1;
            return;
        };
        let base = d.addr() & !(smc_memory::BLOCK_SIZE - 1);
        assert!(live.contains(&base), "a pointer into a block that left");
        let via_direct = d.get(&g).expect("the pointer resolves");
        assert_eq!(via_direct.age, h.to.get(&g).expect("ref resolves").age);
        set += 1;
    });
    (set, cleared)
}

/// Every holder pointer is set, lies in one of the target's live blocks and
/// reads the person its checked reference reads.
fn assert_pointers_live(persons: &Smc<Person>, holders: &Smc<Holder>) {
    let (set, cleared) = linked_pointers(persons, holders);
    assert_eq!(cleared, 0, "a live person's pointer stays set");
    assert!(set > 0);
}

#[test]
fn a_coordinator_pass_leaves_no_linked_pointer_stale() {
    let rt = Runtime::new();
    let (persons, holders) = linked_world(&rt);
    holders.link_direct(&persons, |h| &mut h.to_d);
    let coordinator = smc_maint::Coordinator::new(smc_maint::MaintConfig::default());
    persons.register_maintenance(&coordinator, smc_maint::MaintPolicy);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while coordinator.snapshot().passes_completed == 0 {
        assert!(std::time::Instant::now() < deadline, "no pass completed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    coordinator.quiesce();
    rt.drain_graveyard_blocking();
    assert_pointers_live(&persons, &holders);
}

#[test]
fn an_inline_pass_leaves_no_linked_pointer_stale() {
    let rt = Runtime::new();
    let (persons, holders) = linked_world(&rt);
    holders.link_direct(&persons, |h| &mut h.to_d);
    let fixed = || smc_memory::MemoryStats::get(&rt.stats.direct_pointers_fixed);
    let before = fixed();
    let report = persons.compact();
    assert!(report.retired > 0, "{report:?}");
    assert!(fixed() > before, "the pass's retirement fixed no pointer");
    rt.drain_graveyard_blocking();
    assert_pointers_live(&persons, &holders);
}

/// A target dropped on a thread that cannot claim an epoch slot cannot run
/// the fix-up: the drop does not panic, its blocks stay mapped instead of
/// being buried, and the holder's pointers into them read `None` (the drop
/// retired their slots' counters).
#[test]
fn a_drop_that_cannot_fix_up_leaks_its_blocks_and_does_not_panic() {
    let rt = Runtime::new();
    let (persons, holders) = linked_world(&rt);
    holders.link_direct(&persons, |h| &mut h.to_d);
    let rate = smc_memory::fault::RATE_DENOMINATOR;
    rt.faults()
        .set_rate(smc_memory::FaultSite::ThreadClaim, rate);
    rt.faults().enable(0x1eaf);
    let dropped = std::thread::spawn(move || drop(persons)).join();
    rt.faults().disable();
    assert!(dropped.is_ok(), "the drop panicked");
    assert_eq!(rt.buried().blocks, 0, "blocks buried without their fix-up");
    let g = rt.pin();
    holders.for_each(&g, |h| assert!(h.to_d.and_then(|d| d.get(&g)).is_none()));
}

/// A page store that runs a compaction pass over another context, then
/// fails the write: the pass retires blocks while the spilling holder's
/// victim is out of the holder's membership, where no fix-up reaches it.
#[derive(Debug)]
struct CompactThenFail {
    target: Arc<smc_memory::MemoryContext>,
    retired: std::sync::atomic::AtomicUsize,
}

impl smc_memory::PageStore for CompactThenFail {
    fn store_page(&self, _: u64, _: &[u8]) -> Result<u64, smc_memory::SpillIoError> {
        let report = self.target.compact();
        self.retired.fetch_add(report.retired, Ordering::Relaxed);
        Err(smc_memory::SpillIoError("the write failed".into()))
    }

    fn load_page(&self, _: u64, _: u64, _: &mut Vec<u8>) -> Result<(), smc_memory::SpillIoError> {
        unreachable!("no page was stored")
    }

    fn discard_page(&self, _: u64) {}
}

/// A holder's spill whose store fails hands its victim back, and the target
/// retired blocks while the victim was away: the victim comes back holding
/// no pointer into them.
#[test]
fn a_failed_holder_spill_keeps_no_pointer_into_a_retired_block() {
    let rt = Runtime::new();
    let (persons, holders) = linked_world(&rt);
    holders.link_direct(&persons, |h| &mut h.to_d);
    // Fill the holders' first block with pointers into the sparse blocks;
    // the loading thread moves on to a second, so the first can spill.
    let copies: Vec<Holder> = {
        let g = rt.pin();
        let mut copies = Vec::new();
        holders.for_each(&g, |h| copies.push(*h));
        copies
    };
    let cap = holders.context().layout().capacity as usize;
    for h in copies.iter().cycle().take(cap) {
        holders.add(*h);
    }
    let store = Arc::new(CompactThenFail {
        target: persons.context().clone(),
        retired: Default::default(),
    });
    assert!(holders.enable_spill(store.clone()));
    assert!(!holders.context().try_spill_one(), "the store failed");
    assert_eq!(holders.spilled_blocks(), 0);
    assert!(
        store.retired.load(Ordering::Relaxed) > 0,
        "no block retired"
    );
    rt.drain_graveyard_blocking();
    let (set, cleared) = linked_pointers(&persons, &holders);
    assert!(set > 0, "no pointer outside the victim was healed");
    assert!(cleared > 0, "the victim kept its pointers");
}

/// A spill of the target clears every linked pointer into its victim, and a
/// spill of the holder clears the linked field of each record it writes, so
/// no page carries a direct pointer and a faulted-in record holds none.
#[test]
fn spills_leave_no_linked_pointer_behind() {
    let rt = Runtime::new();
    let (persons, holders) = linked_world(&rt);
    holders.link_direct(&persons, |h| &mut h.to_d);
    let store = || Arc::new(smc_memory::MemoryPageStore::new());
    assert!(persons.enable_spill(store()) && holders.enable_spill(store()));
    // Counts the holders whose pointer is cleared; every one still set
    // reads what its checked reference reads.
    let cleared = || {
        let g = rt.pin();
        let mut cleared = 0;
        holders.for_each(&g, |h| match h.to_d {
            Some(d) => assert_eq!(d.get(&g).map(|p| p.age), h.to.get(&g).map(|p| p.age)),
            None => cleared += 1,
        });
        cleared
    };
    assert_eq!(cleared(), 0);
    // The target's side: all but the block the loading thread owns spill.
    while persons.context().try_spill_one() {}
    assert!(persons.spilled_blocks() >= 3);
    rt.drain_graveyard_blocking();
    let into_spilled = cleared();
    assert!(
        into_spilled > 0,
        "no pointer into a spilled block was cleared"
    );
    // The holder's side: a full block of pointers at a resident person,
    // then a spill of that block.
    let resident = persons.add(person("r", 0));
    let cap = holders.context().layout().capacity as usize;
    let added: Vec<Ref<Holder>> = {
        let g = rt.pin();
        let to_d = resident.to_direct(&g);
        let holder = Holder { to: resident, to_d };
        (0..cap).map(|_| holders.add(holder)).collect()
    };
    assert!(holders.context().try_spill_one());
    let mut paged = 0;
    let scan = holders
        .context()
        .scan_spilled_then_snapshot(&mut |_, _, obj| {
            // SAFETY: a record of a `Holder` page, aligned for the call.
            let h = unsafe { &*obj.cast::<Holder>() };
            assert!(h.to_d.is_none(), "a page kept a pointer");
            paged += 1;
        });
    assert!(scan.is_ok() && paged > 0);
    let after_spill = cleared();
    assert!(
        after_spill > into_spilled,
        "the holder's spill cleared nothing"
    );
    // Faulted back in, the records hold no pointer either.
    let g = rt.pin();
    for r in &added {
        assert_eq!(holders.update(*r, &g, |_| ()), Ok(Some(())));
    }
    drop(g);
    assert_eq!(holders.spilled_blocks(), 0);
    assert_eq!(cleared(), after_spill);
}

#[test]
fn concurrent_enumeration_during_compaction() {
    // Readers enumerate continuously while compaction runs; every pass must
    // observe exactly the live survivors (bag semantics, §5.2 consistency).
    let rt = Runtime::new();
    let config = ContextConfig {
        reclamation_threshold: 1.1,
        compaction_patience: std::time::Duration::from_millis(500),
        ..ContextConfig::default()
    };
    let persons: Arc<Smc<Person>> = Arc::new(Smc::with_config(&rt, config));
    let cap = persons.context().layout().capacity as usize;
    let refs: Vec<Ref<Person>> = (0..cap * 6)
        .map(|i| persons.add(person("e", i as u32)))
        .collect();
    let mut survivors = 0u64;
    for (i, r) in refs.iter().enumerate() {
        if i % 8 == 0 {
            survivors += 1;
        } else {
            persons.remove(*r);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..3 {
        let p = persons.clone();
        let rt = rt.clone();
        let stop = stop.clone();
        readers.push(std::thread::spawn(move || {
            let mut enumerations = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let g = rt.pin();
                let mut n = 0u64;
                p.for_each(&g, |_| n += 1);
                assert_eq!(n, survivors, "enumeration must never miss or duplicate");
                drop(g);
                enumerations += 1;
            }
            enumerations
        }));
    }
    // Run several compaction passes under the readers.
    let mut total_moved = 0;
    for _ in 0..5 {
        let report = persons.compact();
        total_moved += report.moved;
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    stop.store(true, Ordering::SeqCst);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    assert!(total_moved > 0, "at least one pass should relocate objects");
    rt.drain_graveyard_blocking();
}

// ---------------------------------------------------------------------
// Columnar storage (§4.1)
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq)]
struct Point {
    key: u64,
    price: Decimal,
    qty: u32,
}
unsafe impl Tabular for Point {}

unsafe impl Columnar for Point {
    const COLUMN_WIDTHS: &'static [usize] = &[8, 16, 4];

    unsafe fn scatter(&self, cols: &ColumnArrays, slot: usize) {
        cols.cell::<u64>(0, slot).write(self.key);
        cols.cell::<Decimal>(1, slot).write(self.price);
        cols.cell::<u32>(2, slot).write(self.qty);
    }

    unsafe fn gather(cols: &ColumnArrays, slot: usize) -> Self {
        Point {
            key: cols.cell::<u64>(0, slot).read(),
            price: cols.cell::<Decimal>(1, slot).read(),
            qty: cols.cell::<u32>(2, slot).read(),
        }
    }
}

#[test]
fn columnar_round_trip_and_removal() {
    let rt = Runtime::new();
    let points: Smc<Point, Columns> = Smc::columnar(&rt);
    let mut refs = Vec::new();
    for i in 0..5000u64 {
        refs.push(points.add(Point {
            key: i,
            price: Decimal::from_cents(i as i64),
            qty: (i % 50) as u32,
        }));
    }
    assert_eq!(points.len(), 5000);
    let g = rt.pin();
    let p = points.read(refs[1234], &g).unwrap();
    assert_eq!(
        p,
        Point {
            key: 1234,
            price: Decimal::from_cents(1234),
            qty: 1234 % 50
        }
    );
    drop(g);
    assert!(points.remove(refs[1234]));
    let g = rt.pin();
    assert!(points.read(refs[1234], &g).is_none());
    assert_eq!(points.len(), 4999);
}

#[test]
fn columnar_single_column_scan() {
    // The Fig 12 win: a single-column aggregate reads one array only.
    let rt = Runtime::new();
    let points: Smc<Point, Columns> = Smc::columnar(&rt);
    for i in 0..10_000u64 {
        points.add(Point {
            key: i,
            price: Decimal::from_cents(100),
            qty: 1,
        });
    }
    let g = rt.pin();
    let mut sum = 0u64;
    points.for_each_block(&g, |cols, block| {
        let cap = block.header().capacity as usize;
        // SAFETY: column 0 is the u64 key column.
        let keys = unsafe { cols.column_slice::<u64>(0, cap) };
        for (slot, key) in keys.iter().enumerate().take(cap) {
            if block.slot_word(slot as u32).state() == smc_memory::SlotState::Valid {
                sum += *key;
            }
        }
    });
    assert_eq!(sum, (0..10_000u64).sum());
}

#[test]
fn columnar_enumeration_gathers_objects() {
    let rt = Runtime::new();
    let points: Smc<Point, Columns> = Smc::columnar(&rt);
    let refs: Vec<_> = (0..300u64)
        .map(|i| {
            points.add(Point {
                key: i,
                price: Decimal::ZERO,
                qty: i as u32,
            })
        })
        .collect();
    points.remove(refs[0]);
    points.remove(refs[299]);
    let g = rt.pin();
    let mut keys = Vec::new();
    points.for_each(&g, |p| keys.push(p.key));
    keys.sort_unstable();
    assert_eq!(keys.len(), 298);
    assert_eq!(keys[0], 1);
    assert_eq!(*keys.last().unwrap(), 298);
}

#[test]
fn memory_footprint_tracks_block_count() {
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    assert_eq!(persons.memory_bytes(), 0);
    persons.add(person("m", 1));
    assert_eq!(persons.memory_bytes(), smc_memory::BLOCK_SIZE);
}

#[test]
fn iter_size_hint_bounds_remaining_work() {
    let rt = Runtime::new();
    let persons: Smc<Person> = Smc::new(&rt);
    let refs: Vec<Ref<Person>> = (0..500).map(|i| persons.add(person("sh", i))).collect();
    for (i, r) in refs.iter().enumerate() {
        if i % 5 == 0 {
            persons.remove(*r);
        }
    }
    let live = persons.len() as usize;
    let g = rt.pin();
    let mut it = persons.iter(&g);
    // The lower bound must never overpromise under concurrent removal, so
    // it is always 0; the upper bound must cover everything still live.
    let (lo, hi) = it.size_hint();
    assert_eq!(lo, 0);
    assert!(hi.unwrap() >= live, "hint {hi:?} below live count {live}");
    // The upper bound shrinks monotonically as blocks drain.
    let mut prev = hi.unwrap();
    let mut seen = 0usize;
    while it.next().is_some() {
        seen += 1;
        let (lo, hi) = it.size_hint();
        assert_eq!(lo, 0);
        let hi = hi.unwrap();
        assert!(hi <= prev, "upper bound grew: {prev} -> {hi}");
        assert!(
            hi >= live - seen,
            "hint {hi} below remaining {}",
            live - seen
        );
        prev = hi;
    }
    assert_eq!(seen, live);
    assert_eq!(it.size_hint(), (0, Some(0)), "exhausted iterator");
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct Pair {
    key: u64,
    val: u64,
}
unsafe impl Tabular for Pair {}

unsafe impl Columnar for Pair {
    const COLUMN_WIDTHS: &'static [usize] = &[8, 8];

    unsafe fn scatter(&self, cols: &ColumnArrays, slot: usize) {
        cols.cell::<u64>(0, slot).write(self.key);
        cols.cell::<u64>(1, slot).write(self.val);
    }

    unsafe fn gather(cols: &ColumnArrays, slot: usize) -> Self {
        Pair {
            key: cols.cell::<u64>(0, slot).read(),
            val: cols.cell::<u64>(1, slot).read(),
        }
    }
}

#[test]
fn columnar_compaction_keeps_every_survivor() {
    // Relocation must move a columnar object's cells, not zero bytes of it:
    // every row a pass moved reads back as itself, through its reference
    // and through a scan, and the pass must have moved some.
    let rt = Runtime::new();
    let pairs: Smc<Pair, Columns> = Smc::columnar(&rt);
    let pair = |k: u64| Pair {
        key: k,
        val: k * 7 + 1,
    };
    let refs: Vec<_> = (0..20_000u64).map(|k| pairs.add(pair(k))).collect();
    for (k, r) in refs.iter().enumerate() {
        if k % 5 != 0 {
            assert!(pairs.remove(*r));
        }
    }
    let report = pairs.compact();
    assert!(report.moved > 0, "the pass moved nothing: {report:?}");
    let clean = pairs.verify().is_ok();
    let g = rt.pin();
    let survivors: Vec<_> = refs
        .iter()
        .enumerate()
        .filter(|(k, _)| k % 5 == 0)
        .collect();
    let wrong = survivors
        .iter()
        .filter(|(k, r)| pairs.read(**r, &g) != Some(pair(*k as u64)))
        .count();
    assert_eq!(
        wrong,
        0,
        "{wrong} of {} survivors read back wrong after a pass that moved {} (verify clean: {clean})",
        survivors.len(),
        report.moved
    );
    let mut keys = Vec::new();
    pairs.for_each(&g, |p| {
        assert_eq!(*p, pair(p.key));
        keys.push(p.key);
    });
    keys.sort_unstable();
    assert_eq!(keys, (0..20_000u64).step_by(5).collect::<Vec<_>>());
}

/// A 2 KiB row: 31 fill a block, so 63 rows leave one in the tail block.
#[derive(Clone, Copy)]
struct Slab {
    id: u64,
    pad: [u8; 2040],
}
unsafe impl Tabular for Slab {}

/// A spill-enabled collection of `n` wide rows, spilled down to the block
/// its loading thread still allocates into.
fn spilled_slabs(rt: &Arc<Runtime>, n: u64) -> (Smc<Slab>, Vec<Ref<Slab>>) {
    let c: Smc<Slab> = Smc::new(rt);
    assert!(c.enable_spill(Arc::new(smc_memory::MemoryPageStore::new())));
    let refs = (0..n)
        .map(|id| {
            c.add(Slab {
                id,
                pad: [id as u8; 2040],
            })
        })
        .collect();
    while c.context().try_spill_one() {}
    assert!(c.spilled_objects() > 0 && c.spilled_objects() < n);
    (c, refs)
}

#[test]
fn a_scan_inside_a_spilled_scan_sees_every_spilled_row() {
    // The reference joins of §7 follow `Ref`s from inside a scan. Over
    // spilled data the inner scan and every dereference must answer as
    // they would over resident data: no rows missing, no refs null. Each
    // outer row spills B down to its tail block again first, so every
    // inner scan starts from spilled pages.
    let rt = Runtime::new();
    let (a, _) = spilled_slabs(&rt, 63);
    let (b, b_refs) = spilled_slabs(&rt, 63);
    let g = rt.pin();
    let (mut outer, mut respilled, mut none) = (0, 0, 0);
    let mut nested_visits = usize::MAX;
    a.for_each(&g, |_| {
        outer += 1;
        while b.context().try_spill_one() {
            respilled += 1;
        }
        let mut ids = Vec::new();
        b.for_each(&g, |w| {
            assert_eq!(w.pad, [w.id as u8; 2040], "row {} torn", w.id);
            ids.push(w.id);
        });
        ids.sort_unstable();
        ids.dedup();
        nested_visits = nested_visits.min(ids.len());
        none += b_refs
            .iter()
            .enumerate()
            .filter(|(id, r)| r.get(&g).map(|w| w.id) != Some(*id as u64))
            .count();
    });
    assert_eq!(outer, 63, "the outer scan visits every row of A");
    assert_eq!(
        (nested_visits, none),
        (63, 0),
        "nested_visits={nested_visits} none={none} of {}",
        63 * 63
    );
    assert!(respilled > 0, "B was never spilled again inside the scan");
    drop(g);
    a.verify().unwrap();
    b.verify().unwrap();
}

#[test]
fn a_row_removed_mid_scan_yields_a_dead_reference() {
    // The scan reads each spilled page from its own copy, so it still
    // visits a row that `f` removed after the page was listed. The
    // reference it hands out for that row must be as dead as the row:
    // `get` answers `None`, and a second `remove` frees nothing.
    let rt = Runtime::new();
    let (c, refs) = spilled_slabs(&rt, 63);
    let g = rt.pin();
    let mut removed = None;
    let mut handed_out = None;
    c.for_each_ref(&g, |r, w| match removed {
        // The first row visited is the first record of a spilled page;
        // the next id is a later record of the same page.
        None => {
            assert!(c.remove(refs[w.id as usize + 1]));
            removed = Some(w.id + 1);
        }
        Some(id) if w.id == id => handed_out = Some(r),
        Some(_) => {}
    });
    let r = handed_out.expect("the scan visits the removed row from its page copy");
    let read_back = r.get(&g).is_some();
    drop(g);
    let freed_again = c.remove(r);
    assert_eq!(
        (read_back, freed_again),
        (false, false),
        "read_back={read_back} freed_again={freed_again}"
    );
    assert_eq!(c.len(), 62);
    c.verify().unwrap();
}

#[test]
fn iter_yields_spilled_rows_once_each() {
    let rt = Runtime::new();
    let (c, refs) = spilled_slabs(&rt, 63);
    let g = rt.pin();
    let mut seen: Vec<(u64, bool)> = (c.iter(&g))
        .map(|(r, w)| {
            (
                w.id,
                r == refs[w.id as usize] && w.pad == [w.id as u8; 2040],
            )
        })
        .collect();
    seen.sort_unstable();
    let expected: Vec<(u64, bool)> = (0..63).map(|id| (id, true)).collect();
    assert_eq!(seen, expected, "{} spilled rows", c.spilled_objects());
}

/// A page store whose loads hand back every page with one byte flipped
/// once `corrupt` is set: a store that rotted under its pages.
#[derive(Debug, Default)]
struct RottingStore {
    pages: smc_memory::MemoryPageStore,
    corrupt: AtomicBool,
}

impl smc_memory::PageStore for RottingStore {
    fn store_page(&self, block_id: u64, bytes: &[u8]) -> Result<u64, smc_memory::SpillIoError> {
        self.pages.store_page(block_id, bytes)
    }

    fn load_page(
        &self,
        ticket: u64,
        block_id: u64,
        out: &mut Vec<u8>,
    ) -> Result<(), smc_memory::SpillIoError> {
        self.pages.load_page(ticket, block_id, out)?;
        if self.corrupt.load(Ordering::SeqCst) {
            let mid = out.len() / 2;
            out[mid] ^= 0xff;
        }
        Ok(())
    }

    fn discard_page(&self, ticket: u64) {
        self.pages.discard_page(ticket)
    }
}

#[test]
fn an_unreadable_spilled_row_is_an_error_not_a_removed_row() {
    let rt = Runtime::new();
    let c: Smc<Slab> = Smc::new(&rt);
    let store = Arc::new(RottingStore::default());
    assert!(c.enable_spill(store.clone()));
    let slab = |id: u64| Slab {
        id,
        pad: [id as u8; 2040],
    };
    let refs: Vec<Ref<Slab>> = (0..63).map(|id| c.add(slab(id))).collect();
    assert!(c.remove(refs[5]), "a row of the first block goes");
    while c.context().try_spill_one() {}
    assert!(c.spilled_objects() >= 30, "the first block is spilled");
    store.corrupt.store(true, Ordering::SeqCst);
    let g = rt.pin();
    let spilled = refs[0];
    assert_eq!(
        spilled.try_get(&g).map(|w| w.map(|w| w.id)),
        Err(smc_memory::MemError::SpillFault)
    );
    let get = std::panic::AssertUnwindSafe(|| spilled.get(&g).map(|w| w.id));
    let got = std::panic::catch_unwind(get);
    assert!(got.is_err(), "get answered {got:?} for an unreadable page");
    let update = c.update(spilled, &g, |w| w.pad[0] = 0);
    assert_eq!(update, Err(smc_memory::MemError::SpillFault));
    assert!(refs[5].get(&g).is_none(), "a removed row is still None");
    assert_eq!(refs[5].try_get(&g).map(|w| w.is_none()), Ok(true));
    drop(g);
    store.corrupt.store(false, Ordering::SeqCst);
    let g = rt.pin();
    assert_eq!(
        spilled.get(&g).map(|w| w.id),
        Some(0),
        "the page stayed intact"
    );
}
