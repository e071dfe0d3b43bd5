//! Targeted tests for the §5/§6 compaction protocol edges: repeated
//! passes, bailed relocations retried later, reference stability across
//! multiple generations of moves, and direct pointers across tombstones.

use smc::{ContextConfig, DirectRef, Ref, Smc};
use smc_memory::{Runtime, Tabular};

#[derive(Clone, Copy, Debug, PartialEq)]
struct Obj {
    key: u64,
    payload: [u64; 8],
}
unsafe impl Tabular for Obj {}

fn obj(key: u64) -> Obj {
    Obj {
        key,
        payload: [key; 8],
    }
}

fn sparse_collection(
    rt: &std::sync::Arc<Runtime>,
    blocks: usize,
    keep_mod: usize,
) -> (Smc<Obj>, Vec<(Ref<Obj>, u64)>) {
    let cfg = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let c: Smc<Obj> = Smc::with_config(rt, cfg);
    let cap = c.context().layout().capacity as usize;
    let mut kept = Vec::new();
    for i in 0..cap * blocks {
        let r = c.add(obj(i as u64));
        if i % keep_mod == 0 {
            kept.push((r, i as u64));
        } else {
            c.remove(r);
        }
    }
    (c, kept)
}

#[test]
fn repeated_compactions_converge() {
    let rt = Runtime::new();
    let (c, kept) = sparse_collection(&rt, 6, 12);
    // Compact repeatedly; each pass must preserve every survivor, and the
    // second-and-later passes find progressively less to do.
    let mut last_moved = usize::MAX;
    for pass in 0..4 {
        let report = c.compact();
        assert!(!report.aborted, "pass {pass} aborted");
        assert!(report.moved <= last_moved || report.moved == 0);
        last_moved = report.moved.max(1);
        let g = rt.pin();
        for (r, key) in &kept {
            assert_eq!(r.get(&g).unwrap().key, *key, "pass {pass}");
        }
    }
    rt.drain_graveyard_blocking();
    assert_eq!(c.len(), kept.len() as u64);
}

#[test]
fn references_survive_multiple_generations_of_moves() {
    // Move survivors, then shrink again and move them a second time: the
    // original references (and their incarnations) must keep resolving.
    let rt = Runtime::new();
    let (c, kept) = sparse_collection(&rt, 4, 10);
    c.compact();
    // Second shrink: remove half the survivors, compact again.
    let survivors: Vec<_> = kept.iter().step_by(2).copied().collect();
    for (i, (r, _)) in kept.iter().enumerate() {
        if i % 2 == 1 {
            c.remove(*r);
        }
    }
    let report = c.compact();
    let _ = report;
    let g = rt.pin();
    for (r, key) in &survivors {
        assert_eq!(r.get(&g).unwrap().key, *key, "second-generation move");
    }
    assert_eq!(c.len(), survivors.len() as u64);
}

#[test]
fn direct_ref_heals_across_two_compactions() {
    let rt = Runtime::new();
    let (c, kept) = sparse_collection(&rt, 4, 50);
    let (target, key) = kept[1];
    let mut direct: DirectRef<Obj> = {
        let g = rt.pin();
        target.to_direct(&g).unwrap()
    };
    // First compaction: the direct ref crosses one tombstone. It is held
    // in no linked field, so nothing heals it: it is read each time before
    // the burial of the block it left has ripened (nothing moves the epoch
    // between a pass and the read after it), and a fresh one is taken in
    // that critical section, as its copy outlives the next pass.
    c.compact();
    {
        let g = rt.pin();
        assert_eq!(direct.get(&g).unwrap().key, key);
        direct = target.to_direct(&g).unwrap();
    }
    // Compact again after another shrink.
    let caps = c.context().layout().capacity as usize;
    let fillers: Vec<_> = (0..caps * 2)
        .map(|i| c.add(obj(900_000 + i as u64)))
        .collect();
    for f in &fillers {
        c.remove(*f);
    }
    c.compact();
    let g = rt.pin();
    assert_eq!(direct.get(&g).unwrap().key, key, "second move");
    // And the checked reference agrees.
    assert_eq!(target.get(&g).unwrap().key, key);
    drop(g);
    rt.drain_graveyard_blocking();
}

#[test]
fn enumeration_during_pre_state_pin_is_complete() {
    // Take an iterator (which pins group pre-state when it hits a group
    // mid-compaction) and verify counts even when a compaction pass runs
    // between iterator construction and consumption.
    let rt = Runtime::new();
    let (c, kept) = sparse_collection(&rt, 5, 9);
    let g = rt.pin();
    let it = c.iter(&g);
    // The guard pins our epoch, so a concurrent compaction cannot reach
    // its moving phase while `it` is alive; consume and count.
    let seen = it.count();
    assert_eq!(seen, kept.len());
    drop(g);
    c.compact();
    let g = rt.pin();
    assert_eq!(c.iter(&g).count(), kept.len());
}

#[test]
fn compaction_with_zero_occupancy_blocks_retires_them() {
    let rt = Runtime::new();
    let cfg = ContextConfig {
        reclamation_threshold: 1.1,
        ..ContextConfig::default()
    };
    let c: Smc<Obj> = Smc::with_config(&rt, cfg);
    let cap = c.context().layout().capacity as usize;
    // Two completely emptied blocks plus one partially filled.
    let refs: Vec<_> = (0..cap * 2 + 5).map(|i| c.add(obj(i as u64))).collect();
    for r in refs.iter().take(cap * 2) {
        c.remove(*r);
    }
    let before = c.memory_bytes();
    let report = c.compact();
    rt.drain_graveyard_blocking();
    let _ = report;
    assert!(c.memory_bytes() < before, "empty blocks must be reclaimed");
    assert_eq!(c.len(), 5);
}

#[test]
fn update_in_place_survives_compaction() {
    let rt = Runtime::new();
    let (c, kept) = sparse_collection(&rt, 3, 20);
    {
        let g = rt.pin();
        for (r, _) in &kept {
            c.update(*r, &g, |o| o.payload[0] = o.key * 2)
                .unwrap()
                .unwrap();
        }
    }
    c.compact();
    let g = rt.pin();
    for (r, key) in &kept {
        assert_eq!(
            r.get(&g).unwrap().payload[0],
            key * 2,
            "update preserved by move"
        );
    }
}

#[test]
fn compaction_respects_occupancy_threshold_config() {
    let rt = Runtime::new();
    let cfg = ContextConfig {
        reclamation_threshold: 1.1,
        compaction_occupancy: 0.10, // only compact blocks under 10 % full
        ..ContextConfig::default()
    };
    let c: Smc<Obj> = Smc::with_config(&rt, cfg);
    let cap = c.context().layout().capacity as usize;
    let refs: Vec<_> = (0..cap * 3).map(|i| c.add(obj(i as u64))).collect();
    // Leave blocks 50 % full: above the 10 % threshold, so nothing moves.
    for (i, r) in refs.iter().enumerate() {
        if i % 2 == 0 {
            c.remove(*r);
        }
    }
    let report = c.compact();
    assert_eq!(report.groups, 0);
    assert_eq!(report.moved, 0);
}

/// A holder of a §6 direct pointer into a person collection, beside the
/// checked reference it twins.
#[derive(Clone, Copy)]
struct Holder {
    to: Ref<Obj>,
    to_d: Option<DirectRef<Obj>>,
}
unsafe impl Tabular for Holder {}

/// A pass that dies mid-group leaves a source it only partly emptied. That
/// source goes back into the collection as any claimed block does: its
/// moved-out slots are ordinary counted limbo, reused by a refill once
/// their epoch has passed, and the linked pointers into it were healed.
#[test]
fn a_partly_moved_source_refills_as_ordinary_limbo() {
    for seed in 0..4u64 {
        let rt = Runtime::new();
        let persons: Smc<Obj> = Smc::new(&rt);
        let holders: Smc<Holder> = Smc::new(&rt);
        holders.link_direct(&persons, |h| &mut h.to_d);
        let cap = persons.context().layout().capacity as usize;
        let refs: Vec<Ref<Obj>> = (0..cap * 4).map(|i| persons.add(obj(i as u64))).collect();
        let mut kept = Vec::new();
        for (i, r) in refs.iter().enumerate() {
            if i % 5 == 0 {
                kept.push(*r);
            } else {
                persons.remove(*r);
            }
        }
        {
            let g = rt.pin();
            for r in &kept {
                holders.add(Holder {
                    to: *r,
                    to_d: r.to_direct(&g),
                });
            }
        }
        // An inline pass whose mover dies after at least one move.
        rt.faults().set_rate(smc_memory::FaultSite::Relocation, 96);
        rt.faults().set_limit(Some(1));
        rt.faults().enable(seed);
        let report = persons.compact();
        rt.faults().disable();
        assert!(
            report.interrupted && report.moved > 0,
            "seed {seed}: {report:?}"
        );
        for r in kept.iter().step_by(7) {
            assert!(persons.remove(*r));
        }
        for _ in 0..4 {
            rt.try_advance_epoch();
        }
        for i in 0..cap * 2 {
            persons.add(obj(1_000_000 + i as u64));
        }
        rt.drain_graveyard_blocking();
        let errors = persons.verify().err().into_iter().chain(rt.verify().err());
        let errors: Vec<String> = errors.flatten().collect();
        assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        let g = rt.pin();
        let mut mismatched = 0;
        holders.for_each(&g, |h| {
            if let Some(p) = h.to.get(&g) {
                let direct = h.to_d.and_then(|d| d.get(&g)).map(|o| o.key);
                mismatched += usize::from(direct != Some(p.key));
            }
        });
        assert_eq!(mismatched, 0, "seed {seed}: linked pointers that misread");
    }
}
