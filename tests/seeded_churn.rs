//! One seeded churn harness: the safety claim of slot reclamation and
//! concurrent compaction (§3.5, §5) — every live object stays intact under
//! churn — checked under injected failures and a context budget.
//!
//! Worker threads each own a model pool of `(key, ref)` over one `Smc` of a
//! self-checking row, stored in rows or in columns, and run a seeded mix of
//! add, remove, read and enumerate, or fill-and-decimate churn. Compaction runs either inline, one
//! pass before each worker joins and one after the last, with faults armed,
//! or in a maintenance `Coordinator` beside a scanning thread. Once the
//! workers have joined, with faults off and no pass in flight, `Smc::verify`
//! and `Runtime::verify` check what the churn left, before any quiescent
//! pass tidies it. Every round then ends quiescent:
//! passes that are not interrupted, both verifies clean again, `len` and
//! `valid_slots` equal to the models, and no torn read. The run ends by
//! reading every survivor back.
//!
//! Each test is one configuration, and each asserts it was not vacuous:
//! every site it arms injects, a budgeted run meets the budget gate's
//! refusal, an inline run interrupts a pass and moves an object, and a
//! coordinator run both fails a pass and completes one. A seed fixes which call
//! indices fail at each site, not which thread draws them, so with more than
//! one thread the counters vary from run to run; the rates are set so that
//! a call index every run reaches fails. `--nocapture` prints the counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smc_maint::{Coordinator, MaintConfig, MaintPolicy};
use smc_obs::hist::Histogram;
use smc_repro::smc::{ColumnArrays, Columnar, Columns, ContextConfig, Layout, Ref, Smc, Tabular};
use smc_repro::smc_memory::error::MemError;
use smc_repro::smc_memory::fault::FaultSite;
use smc_repro::smc_memory::{Runtime, BLOCK_SIZE};
use smc_repro::smc_util::Pcg32;

/// 64 bytes: the key, then seven words derived from it, so a read of a
/// half-moved or half-written row fails [`coherent`]. Stored in columns,
/// each word is a column.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Row([u64; 8]);
unsafe impl Tabular for Row {}

unsafe impl Columnar for Row {
    const COLUMN_WIDTHS: &'static [usize] = &[8; 8];

    unsafe fn scatter(&self, cols: &ColumnArrays, slot: usize) {
        for (i, word) in self.0.iter().enumerate() {
            cols.cell::<u64>(i, slot).write(*word);
        }
    }

    unsafe fn gather(cols: &ColumnArrays, slot: usize) -> Self {
        Row(std::array::from_fn(|i| cols.cell::<u64>(i, slot).read()))
    }
}

fn row(key: u64) -> Row {
    Row(std::array::from_fn(|i| match i {
        0 => key,
        _ => key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (0x5ca1_ab1e + i as u64),
    }))
}

fn coherent(r: &Row) -> bool {
    *r == row(r.0[0])
}

/// A worker's model: the rows it added and has not removed.
type Pool<L> = Vec<(u64, Ref<Row, L>)>;

/// The shape of a worker's churn.
#[derive(Clone, Copy)]
enum Mix {
    /// Each operation draws an add, a remove, a read or an enumeration.
    Random,
    /// Tops the pool up to `rows`, removes about nine in ten of them,
    /// pauses a millisecond and repeats; each add and remove is one
    /// operation. The removes leave sparse blocks behind, some of which
    /// in-place reclamation queues and some of which compaction claims.
    Decimate { rows: usize },
}

/// Who compacts while the workers run.
enum Compaction {
    /// The driving thread runs one pass before each worker joins, so the
    /// first races every worker, and one after the last join, all with
    /// faults armed.
    Inline,
    /// A coordinator owns compaction. The workers churn for at least
    /// [`SOAK`] while the driving thread scans; then the driving thread
    /// breaches the coordinator's SLO gauge, and a due pass must be
    /// deferred.
    Coordinator,
}

/// How long a coordinator round soaks before its passes are checked: about
/// a dozen of the coordinator's 125 ms periods.
const SOAK: Duration = Duration::from_millis(1500);

struct Config {
    seed: u64,
    threads: usize,
    /// Operations per worker and round; a coordinator round's workers stop
    /// when the coordinator's phases end, if that is sooner.
    ops: usize,
    rounds: usize,
    mix: Mix,
    /// Failpoint rates out of 1024. Only these sites are armed.
    rates: Vec<(FaultSite, u32)>,
    /// Cap on the injections of the whole run.
    fault_limit: Option<u64>,
    context: ContextConfig,
    compaction: Compaction,
}

/// What a run did, for the non-vacuity assertions.
#[derive(Debug)]
struct Tally {
    injected: Vec<(FaultSite, u64)>,
    budget_rejections: u64,
    interrupted_passes: u64,
    /// Objects the inline passes moved.
    objects_moved: u64,
    /// Limbo slots that in-place reclamation handed out again.
    slots_reclaimed: u64,
}

/// Runs `ops` operations of `mix` on `pool`, fewer once `stop` is set;
/// returns the torn rows it read.
fn churn<L: Layout<Row>>(
    c: &Smc<Row, L>,
    mix: Mix,
    rng: &mut Pcg32,
    pool: &mut Pool<L>,
    ops: usize,
    stop: &AtomicBool,
    next_key: &AtomicU64,
) -> u64 {
    match mix {
        Mix::Random => random(c, rng, pool, ops, stop, next_key),
        Mix::Decimate { rows } => {
            let mut ops = ops;
            while ops > 0 && !stop.load(Ordering::Relaxed) {
                while pool.len() < rows && ops > 0 && !stop.load(Ordering::Relaxed) {
                    add(c, pool, next_key);
                    ops -= 1;
                }
                for taken in std::mem::take(pool) {
                    if rng.gen_range(0u32..10) == 0 || ops == 0 {
                        pool.push(taken);
                    } else {
                        remove(c, pool, taken);
                        ops -= 1;
                    }
                }
                // Distinct churn generations for the coordinator to see.
                std::thread::sleep(Duration::from_millis(1));
            }
            0
        }
    }
}

fn random<L: Layout<Row>>(
    c: &Smc<Row, L>,
    rng: &mut Pcg32,
    pool: &mut Pool<L>,
    ops: usize,
    stop: &AtomicBool,
    next_key: &AtomicU64,
) -> u64 {
    let mut torn = 0;
    for _ in 0..ops {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        match rng.gen_range(0u32..100) {
            // Insert-heavy, so the live set presses on the budget.
            0..=44 => add(c, pool, next_key),
            45..=69 if !pool.is_empty() => {
                let taken = pool.swap_remove(rng.gen_range(0..pool.len()));
                remove(c, pool, taken);
            }
            70..=94 if !pool.is_empty() => {
                let (key, r) = pool[rng.gen_range(0..pool.len())];
                match c.runtime().try_pin() {
                    Ok(guard) => match c.read(r, &guard) {
                        Some(v) => torn += u64::from(v.0[0] != key || !coherent(&v)),
                        None => panic!("own live ref read as null"),
                    },
                    Err(MemError::TooManyThreads) => {}
                    Err(e) => panic!("unexpected pin error: {e}"),
                }
            }
            95.. => match c.runtime().try_pin() {
                Ok(guard) => {
                    c.for_each(&guard, |v| torn += u64::from(!coherent(v)));
                }
                Err(MemError::TooManyThreads) => {}
                Err(e) => panic!("unexpected pin error: {e}"),
            },
            _ => {}
        }
    }
    torn
}

/// Adds the next key's row to `pool`. Refused for the budget, it sheds the
/// oldest quarter of `pool`: the application's answer to pressure.
fn add<L: Layout<Row>>(c: &Smc<Row, L>, pool: &mut Pool<L>, next_key: &AtomicU64) {
    let key = next_key.fetch_add(1, Ordering::Relaxed);
    match c.try_add(row(key)) {
        Ok(r) => pool.push((key, r)),
        Err(MemError::OutOfMemory) => {
            let shed = (pool.len() / 4).max(1).min(pool.len());
            let oldest: Pool<L> = pool.drain(..shed).collect();
            for taken in oldest {
                remove(c, pool, taken);
            }
        }
        Err(MemError::TooManyThreads) => {}
        Err(e) => panic!("unexpected add error: {e}"),
    }
}

/// Removes `taken`, which the caller took out of `pool`; when the remove
/// does not happen (a refused thread claim), puts exactly it back.
fn remove<L: Layout<Row>>(c: &Smc<Row, L>, pool: &mut Pool<L>, taken: (u64, Ref<Row, L>)) {
    match c.try_remove(taken.1) {
        Ok(true) => {}
        Ok(false) => panic!("own live ref was already removed"),
        Err(MemError::TooManyThreads) => pool.push(taken),
        Err(e) => panic!("unexpected remove error: {e}"),
    }
}

/// Scans under a pin until `done`; returns the torn rows seen.
fn scan_until<L: Layout<Row>>(c: &Smc<Row, L>, mut done: impl FnMut() -> bool) -> u64 {
    let mut torn = 0;
    while !done() {
        let guard = c.runtime().pin();
        c.for_each(&guard, |v| torn += u64::from(!coherent(v)));
        drop(guard);
        std::thread::sleep(Duration::from_millis(1));
    }
    torn
}

/// The coordinator's phases while the workers churn: a soak with an empty
/// SLO gauge, which must complete passes and defer none, then a 1 s scan on
/// the gauge's record, under which a due pass must be deferred. Returns the
/// coordinator and the torn rows the scans saw.
fn soak_and_defer<L: Layout<Row>>(c: &Smc<Row, L>) -> (Coordinator, u64) {
    let gauge = Arc::new(Histogram::new());
    let coordinator = Coordinator::new(MaintConfig {
        gauge: Some(gauge.clone()),
    });
    c.register_maintenance(&coordinator, MaintPolicy);

    let soak_end = Instant::now() + SOAK;
    let mut torn = scan_until(c, || Instant::now() >= soak_end);
    let m = coordinator.snapshot();
    assert!(m.passes_completed > 0, "no unprompted pass: {m:?}");
    assert_eq!(m.passes_deferred, 0, "deferred under an empty gauge: {m:?}");
    let reclaimed = c.runtime().stats.snapshot().slots_reclaimed;
    println!("soaked: {m:?}, slots_reclaimed={reclaimed}");

    gauge.record_duration(Duration::from_secs(1));
    let deadline = Instant::now() + Duration::from_secs(5);
    let deferred = || coordinator.snapshot().passes_deferred > 0;
    torn += scan_until(c, || deferred() || Instant::now() >= deadline);
    assert!(deferred(), "a breached gauge never deferred a due pass");
    println!("coordinator: {:?}", coordinator.snapshot());
    (coordinator, torn)
}

/// Builds the collection under test: `Smc::with_config` for rows,
/// `Smc::columnar_with_config` for columns.
type Make<L> = fn(&Arc<Runtime>, ContextConfig) -> Smc<Row, L>;

/// Runs `cfg` on a collection from `make`, asserting every correctness
/// property on the way.
fn run<L: Layout<Row>>(name: &str, cfg: &Config, make: Make<L>) -> Tally {
    println!("{name}: seed {:#x}", cfg.seed); // shown on failure
    let rt = Runtime::new();
    let c = Arc::new(make(&rt, cfg.context));
    // The driving thread registers before any failpoint is armed, as a
    // worker pool's threads do, so the `ThreadClaim` site's refusals land
    // on the churn workers. A pass it is still refused is counted below.
    rt.thread_slot().expect("a fresh registry has room");
    for &(site, rate) in &cfg.rates {
        rt.faults().set_rate(site, rate);
    }
    rt.faults().set_limit(cfg.fault_limit);
    let next_key = Arc::new(AtomicU64::new(0));
    let mut pools: Vec<Pool<L>> = vec![Vec::new(); cfg.threads];
    let mut interrupted_passes = 0;
    let mut objects_moved = 0;
    let mut refused_passes = 0;
    for round in 0..cfg.rounds {
        rt.faults().enable(cfg.seed.wrapping_add(round as u64));
        // Detached threads, not a scope: a failed assert below must fail
        // the test, not wait forever on workers nobody told to stop.
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (pools.iter_mut().enumerate())
            .map(|(t, pool)| {
                let tid = (t + round * cfg.threads) as u64;
                let mut rng = Pcg32::seed_from_u64(cfg.seed ^ (0xdead_beef + tid));
                let mut pool = std::mem::take(pool);
                let (c, stop, next_key, ops) = (c.clone(), stop.clone(), next_key.clone(), cfg.ops);
                let mix = cfg.mix;
                std::thread::spawn(move || {
                    let torn = churn(&c, mix, &mut rng, &mut pool, ops, &stop, &next_key);
                    (pool, torn)
                })
            })
            .collect();
        let mut torn = 0;
        let coordinator = match cfg.compaction {
            Compaction::Inline => None,
            Compaction::Coordinator => {
                let (coordinator, scanned) = soak_and_defer(&c);
                torn += scanned;
                stop.store(true, Ordering::Relaxed);
                Some(coordinator)
            }
        };
        // Compact under fire: a relocation fault interrupts a pass
        // mid-group, which must leave the collection valid.
        let mut compact_inline = || {
            if coordinator.is_none() {
                // A refused epoch-slot claim is the pass's own error; the
                // next inline pass claims again.
                match c.try_compact() {
                    Ok(pass) => {
                        interrupted_passes += u64::from(pass.interrupted);
                        objects_moved += pass.moved as u64;
                    }
                    Err(e) => {
                        assert_eq!(e, MemError::TooManyThreads, "round {round}");
                        refused_passes += 1;
                    }
                }
            }
        };
        for (t, worker) in workers.into_iter().enumerate() {
            compact_inline();
            let (pool, worker_torn) = worker.join().expect("worker panicked");
            pools[t] = pool;
            torn += worker_torn;
        }
        compact_inline();
        if let Some(coordinator) = &coordinator {
            coordinator.quiesce();
            // A failed pass stayed due, and a later period completed one.
            let m = coordinator.snapshot();
            assert!(
                m.passes_planned > m.passes_completed && m.passes_completed > 0,
                "round {round}: no failed pass beside a completed one: {m:?}"
            );
        }

        // Faults off and no pass in flight: verify what the churn and its
        // passes left, before the quiescent passes below tidy it up.
        rt.faults().disable();
        let verify = |when: &str| {
            let fail = |what: &str, v: Vec<String>| {
                format!("round {round}, {when}: {what}:\n  {}", v.join("\n  "))
            };
            let report = (c.verify()).unwrap_or_else(|v| panic!("{}", fail("Smc::verify", v)));
            (rt.verify()).unwrap_or_else(|v| panic!("{}", fail("Runtime::verify", v)));
            report
        };
        verify("after the joins");
        // Then compact until a pass forms no group or none would (the
        // context is not due; a pass's own part-filled destination can be a
        // candidate).
        let compacted = || !c.context().compaction_due();
        for _ in 0..4 {
            let pass = c.compact();
            assert!(
                !pass.interrupted,
                "round {round}: interrupted with faults off"
            );
            if pass.groups == 0 || compacted() {
                break;
            }
        }
        rt.drain_graveyard_blocking();

        assert_eq!(torn, 0, "round {round}: torn rows read");
        let report = verify("quiescent");
        let live = pools.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(c.len(), live, "round {round}: len != the models");
        assert_eq!(report.valid_slots, live, "round {round}: valid_slots");
        if coordinator.is_some() {
            assert!(
                compacted(),
                "round {round}: a group's worth of sparse blocks left"
            );
        }
    }

    // Contents, not just counts: every survivor reads back its own row.
    let guard = rt.pin();
    for &(key, r) in pools.iter().flatten() {
        let v = c.read(r, &guard).expect("survivor read as null");
        assert!(v.0[0] == key && coherent(&v), "survivor {key} reads {v:?}");
    }
    drop(guard);

    let tally = Tally {
        injected: (cfg.rates.iter())
            .map(|&(s, _)| (s, rt.faults().injected(s)))
            .collect(),
        budget_rejections: rt.stats.snapshot().context_budget_rejections,
        interrupted_passes,
        objects_moved,
        slots_reclaimed: rt.stats.snapshot().slots_reclaimed,
    };
    println!("{name}: {tally:?}\n{name}: {}", rt.faults());
    println!("{name}: inline passes refused an epoch slot: {refused_passes}");
    tally
}

/// What makes a run of `cfg` vacuous: an armed site that never injected, a
/// budget the gate never enforced, inline compaction never interrupted or
/// never moving an object, or in-place reclamation on but never handing a
/// slot out again.
fn vacuous(cfg: &Config, tally: &Tally) -> Vec<String> {
    let mut why: Vec<String> = (tally.injected.iter())
        .filter(|&&(_, n)| n == 0)
        .map(|(site, _)| format!("{} armed, never injected", site.name()))
        .collect();
    if cfg.context.budget_bytes.is_some() && tally.budget_rejections == 0 {
        why.push("the budget gate never refused".into());
    }
    if matches!(cfg.compaction, Compaction::Inline) && tally.interrupted_passes == 0 {
        why.push("no inline pass was interrupted".into());
    }
    if matches!(cfg.compaction, Compaction::Inline) && tally.objects_moved == 0 {
        why.push("no inline pass moved an object".into());
    }
    if cfg.context.reclamation_threshold <= 1.0 && tally.slots_reclaimed == 0 {
        why.push("in-place reclamation never reused a slot".into());
    }
    why
}

fn check<L: Layout<Row>>(name: &str, cfg: Config, make: Make<L>) {
    let tally = run(name, &cfg, make);
    let why = vacuous(&cfg, &tally);
    assert!(why.is_empty(), "{name} was vacuous: {why:?}");
}

fn budget(blocks: u64) -> Option<u64> {
    Some(blocks * BLOCK_SIZE as u64)
}

/// In-place reclamation off and a high occupancy cutoff: removes drain
/// blocks until compaction must move survivors.
fn compaction_eager(budget_blocks: u64) -> ContextConfig {
    ContextConfig {
        reclamation_threshold: 1.1,
        compaction_occupancy: 0.85,
        budget_bytes: budget(budget_blocks),
        ..ContextConfig::default()
    }
}

/// Four workers, two rounds of 5 000 operations each, inline compaction.
/// The thread claim is reached nine times a run (once per worker and round,
/// once by the driving thread) and the epoch advance as few as ten; at
/// 384/1024 each seed fails one of the call indices every run reaches.
/// In-place reclamation is off, so the budget caps what a round allocates
/// between passes: at sixteen blocks the gate refuses hundreds of adds a
/// run and thousands of rows survive (at twelve, some runs shed them all;
/// at eighteen, some are never refused).
fn stress(seed: u64) -> Config {
    Config {
        seed,
        threads: 4,
        ops: 5000,
        rounds: 2,
        mix: Mix::Random,
        rates: vec![
            (FaultSite::BlockAlloc, 192),
            (FaultSite::EpochAdvance, 384),
            (FaultSite::ThreadClaim, 384),
            (FaultSite::Relocation, 64),
        ],
        fault_limit: None,
        context: compaction_eager(16),
        compaction: Compaction::Inline,
    }
}

#[test]
fn stress_seed_5eed() {
    check("stress_seed_5eed", stress(0x5eed), Smc::with_config);
}

#[test]
fn stress_seed_31337() {
    check("stress_seed_31337", stress(31337), Smc::with_config);
}

#[test]
fn stress_seed_7() {
    check("stress_seed_7", stress(7), Smc::with_config);
}

/// The stress configuration over the columnar layout: relocation must move
/// each object's cells, so every survivor of a pass reads back its own row.
#[test]
fn columns_stress_seed_5eed() {
    check(
        "columns_stress_seed_5eed",
        stress(0x5eed),
        Smc::<Row, Columns>::columnar_with_config,
    );
}

/// One worker, six rounds of 2 000 operations under a four-block budget,
/// in-place reclamation on. At the default 30 % occupancy cutoff no pass
/// ever formed a group here, so it takes the stress cutoff. A block is
/// queued for reclamation at 25 % limbo, not 5 %: at 5 % the queue refills
/// holes so fast that in some runs no armed pass formed a group, and then
/// the pass that races the worker decided whether one did. The block
/// allocation is reached about eight times a run, so its rate is twice the
/// stress rate: at 192 about one seed in five never injects there.
#[test]
fn one_thread_six_rounds() {
    let cfg = Config {
        seed: 0x5eed,
        threads: 1,
        ops: 2000,
        rounds: 6,
        mix: Mix::Random,
        rates: vec![
            (FaultSite::BlockAlloc, 384),
            (FaultSite::EpochAdvance, 192),
            (FaultSite::ThreadClaim, 512),
            (FaultSite::Relocation, 48),
        ],
        fault_limit: None,
        context: ContextConfig {
            reclamation_threshold: 0.25,
            compaction_occupancy: 0.85,
            budget_bytes: budget(4),
            ..ContextConfig::default()
        },
        compaction: Compaction::Inline,
    };
    check("one_thread_six_rounds", cfg, Smc::with_config);
}

/// The coordinator soak: fill-and-decimate churn, a scanning foreground
/// and seeded relocation faults, the combination DESIGN §13 credits with
/// flushing out four free-vs-compaction races, two of which need in-place
/// reclamation's queue, here on at its default threshold. The injection cap
/// makes the interruptions transient: a pass spends at most one fault, as
/// an interrupted mover stops, and at 32/1024 almost every pass that moves
/// spends one while any are left, so the cap of 3 is spent by the soak's
/// first three periods and the later ones complete their passes.
#[test]
fn coordinator_soak() {
    let cfg = Config {
        seed: 0x5eed,
        threads: 2,
        ops: usize::MAX,
        rounds: 1,
        mix: Mix::Decimate { rows: 10_000 },
        rates: vec![(FaultSite::Relocation, 32)],
        fault_limit: Some(3),
        context: ContextConfig::default(),
        compaction: Compaction::Coordinator,
    };
    check("coordinator_soak", cfg, Smc::with_config);
}

/// Each way a run can be vacuous is named, on a hand-made tally of a
/// budgeted, inline-compacting configuration with reclamation on.
#[test]
fn vacuous_names_every_reason() {
    let cfg = Config {
        context: ContextConfig {
            budget_bytes: budget(4),
            ..ContextConfig::default()
        },
        ..stress(0x5eed)
    };
    let tally = Tally {
        injected: vec![(FaultSite::BlockAlloc, 3), (FaultSite::ThreadClaim, 0)],
        budget_rejections: 0,
        interrupted_passes: 0,
        objects_moved: 0,
        slots_reclaimed: 0,
    };
    assert_eq!(
        vacuous(&cfg, &tally),
        [
            "thread-claim armed, never injected",
            "the budget gate never refused",
            "no inline pass was interrupted",
            "no inline pass moved an object",
            "in-place reclamation never reused a slot",
        ]
    );
    let busy = Tally {
        injected: vec![(FaultSite::ThreadClaim, 1)],
        budget_rejections: 1,
        interrupted_passes: 1,
        objects_moved: 1,
        slots_reclaimed: 1,
    };
    assert!(vacuous(&cfg, &busy).is_empty());
}
