//! Quickstart: the paper's §2 overview example, end to end.
//!
//! Run with: `cargo run --release --example quickstart`

use smc::{DirectRef, Ref, Smc, Tabular};
use smc_memory::{InlineStr, Runtime};

/// A `tabular` class (§2): fixed size, no heap references, inline strings.
#[derive(Clone, Copy, Debug)]
struct Person {
    name: InlineStr<24>,
    age: u32,
}
// SAFETY: only primitives and inline strings.
unsafe impl Tabular for Person {}

/// A row of another collection that points at a person twice: through a
/// checked reference and through a §6 direct pointer, which skips the
/// indirection table.
#[derive(Clone, Copy)]
struct Badge {
    owner: Ref<Person>,
    owner_d: Option<DirectRef<Person>>,
}
// SAFETY: references are plain data, validated at every dereference.
unsafe impl Tabular for Badge {}

fn main() {
    // One off-heap memory runtime per application.
    let runtime = Runtime::new();

    // The §2 code excerpt: Collection<Person> persons = new ...
    let persons: Smc<Person> = Smc::new(&runtime);
    let adam = persons.add(Person {
        name: "Adam".into(),
        age: 27,
    });
    for i in 0..1_000_000u32 {
        persons.add(Person {
            name: InlineStr::new(&format!("p{i}")),
            age: i % 95,
        });
    }
    println!(
        "collection holds {} people in {} KiB of off-heap blocks",
        persons.len(),
        persons.memory_bytes() / 1024
    );

    // Language-integrated query, compiled style: enumerate the collection's
    // memory blocks directly, skipping dead slots via the slot directory.
    {
        let guard = runtime.pin(); // enter a critical section (§3.4)
        let mut adults = 0u64;
        let visited = persons.for_each(&guard, |p| {
            if p.age > 17 {
                adults += 1;
            }
        });
        println!("scanned {visited} objects, found {adults} adults");
        println!("adam is {:?}", adam.get(&guard).map(|p| (p.name, p.age)));
    }

    // Containment semantics: removal ends the object's lifetime and every
    // outstanding reference becomes null (§2).
    persons.remove(adam);
    let guard = runtime.pin();
    assert!(adam.get(&guard).is_none());
    println!("after Remove(adam): adam.get() = {:?}", adam.get(&guard));
    drop(guard);

    // Direct pointers (§6): badges point at every person aged 40. The link,
    // declared once, is what keeps the pointers valid when a block of
    // `persons` moves or leaves: the memory manager heals them first.
    let badges: Smc<Badge> = Smc::new(&runtime);
    badges.link_direct(&persons, |b| &mut b.owner_d);

    // Heavy shrinkage triggers compaction (§5): remove 95 % and compact.
    let mut refs = Vec::new();
    let g = runtime.pin();
    persons.for_each_ref(&g, |r, p| {
        if p.age % 20 != 0 {
            refs.push(r);
        } else if p.age == 40 {
            let owner_d = r.to_direct(&g);
            badges.add(Badge { owner: r, owner_d });
        }
    });
    drop(g);
    for r in refs {
        persons.remove(r);
    }
    let before = persons.memory_bytes();
    let report = persons.compact();
    runtime.drain_graveyard_blocking();
    println!(
        "compaction: moved {} objects in {} groups, retired {} blocks; memory {} KiB -> {} KiB",
        report.moved,
        report.groups,
        report.retired,
        before / 1024,
        persons.memory_bytes() / 1024
    );

    // Every badge's direct pointer was healed to where its person lives now.
    let guard = runtime.pin();
    let mut agree = 0;
    badges.for_each(&guard, |b| {
        let direct = b.owner_d.and_then(|d| d.get(&guard)).map(|p| p.name);
        assert_eq!(direct, b.owner.get(&guard).map(|p| p.name));
        agree += 1;
    });
    println!("{agree} badges read their owner through a healed direct pointer");
}
