//! Deterministic, seeded fault injection for the memory manager.
//!
//! Robustness work on a manual memory manager needs failures on demand:
//! allocation refusals, stalled epoch advancement, thread-registry
//! exhaustion, and compactions that die mid-relocation. This module provides
//! a [`FaultInjector`] with one *failpoint* per such site
//! ([`FaultSite`]). Sites are compiled in permanently but cost one relaxed
//! atomic load when injection is disabled (the default).
//!
//! ## Determinism
//!
//! Whether call `n` at a site fails is a pure function of `(seed, site, n)`:
//! each site keeps an atomic call counter, and the decision hashes the call
//! index mixed into a key that SplitMix64 draws from the seed and a per-site
//! salt, so no two sites, and no two neighbouring seeds, share a schedule. Re-running a
//! single-threaded workload with the same seed therefore injects failures at
//! exactly the same calls. Under concurrency the *set* of failing call
//! indices is still fixed by the seed; only which thread draws which index
//! varies with scheduling.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use smc_util::rng::splitmix64;

use crate::stats::MemoryStats;

// One table — a doc comment and a `Variant = salt => "name"` line per site —
// is the enum, `NUM_SITES`, `ALL`, the salts and the names. A site's index is
// its position, which only sizes the per-site arrays; its decisions hash its
// salt. A salt is the site's own for good: never change one and never give a
// deleted site's number to another, or every recorded seed replays another
// schedule (`every_site_decides_as_pinned` fails).
macro_rules! fault_sites {
    ($($(#[$doc:meta])* $site:ident = $salt:literal => $name:literal,)*) => {
        /// The failpoints wired into the memory manager.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum FaultSite {
            $($(#[$doc])* $site,)*
        }

        /// Number of distinct failpoints.
        pub const NUM_SITES: usize = [$($name,)*].len();

        const NAMES: [&str; NUM_SITES] = [$($name,)*];

        const SALTS: [u64; NUM_SITES] = [$($salt,)*];

        impl FaultSite {
            /// Every site, in index order.
            pub const ALL: [FaultSite; NUM_SITES] = [$(FaultSite::$site,)*];
        }
    };
}

fault_sites! {
    /// OS-level block allocation ([`Runtime::allocate_block`](crate::runtime::Runtime::allocate_block)). Injection simulates a hard
    /// allocation failure: the call returns
    /// [`MemError::OutOfMemory`](crate::error::MemError::OutOfMemory)
    /// at once, as when the OS refuses a mapping.
    BlockAlloc = 1 => "block-alloc",
    /// Global epoch advancement (`EpochManager::try_advance*`). Injection
    /// makes the attempt report failure, as if a straggling critical section
    /// were pinned behind the current epoch.
    EpochAdvance = 2 => "epoch-advance",
    /// Thread-slot registration (`EpochManager::slot` on first use).
    /// Injection returns
    /// [`MemError::TooManyThreads`](crate::error::MemError::TooManyThreads),
    /// as if the registry were full.
    ThreadClaim = 3 => "thread-claim",
    /// Object relocation during a compaction pass's moving phase. Injection
    /// aborts the group mid-move — the crash-only path: remaining entries
    /// stay `Pending` and are bailed out by the pass epilogue, leaving the
    /// collection valid and the compaction retriable.
    Relocation = 4 => "relocation",
    /// Snapshot page write (`smc-persist`). Injection fails the page file
    /// write mid-snapshot — the snapshot aborts, the previous published
    /// generation stays intact, and the temporary files are removed.
    SnapshotPage = 7 => "snapshot-page",
    /// Snapshot manifest write (`smc-persist`). Injection fails the
    /// `MANIFEST.tmp` write after all pages landed; the snapshot is not
    /// published and recovery still sees the previous generation.
    SnapshotManifest = 8 => "snapshot-manifest",
    /// Snapshot manifest publish (`smc-persist`'s atomic rename). Injection
    /// fails the rename — the last durable step — proving the commit point
    /// is exactly the rename and nothing earlier.
    SnapshotRename = 9 => "snapshot-rename",
    /// Spill page store ([`PageStore::store_page`](crate::spill::PageStore::store_page)
    /// in `try_spill_one`). Injection takes the branch a store's own error
    /// takes: every tagged entry is restored, the victim rejoins membership
    /// and the spill reports no progress.
    SpillStore = 10 => "spill-store",
    /// Spill page load ([`PageStore::load_page`](crate::spill::PageStore::load_page)
    /// under fault-in and the spilled scan). Injection takes the branch an
    /// unreadable page takes: [`MemError::SpillFault`](crate::error::MemError::SpillFault),
    /// the page still spilled and the heap untouched.
    SpillLoad = 11 => "spill-load",
}

impl FaultSite {
    /// Dense index of this site.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// What call `call` at this site under `seed` hashes: the call index
    /// mixed into a key drawn through SplitMix64 from the seed and the
    /// site's salt. The key spreads both, so sites and neighbouring seeds do
    /// not differ only in the low bits the call index also fills.
    #[inline]
    fn hash_input(self, seed: u64, call: u64) -> u64 {
        splitmix64(splitmix64(seed) ^ SALTS[self.index()]) ^ call
    }

    /// Human-readable site name.
    pub fn name(self) -> &'static str {
        NAMES[self.index()]
    }
}

/// Injection rates are expressed out of this denominator.
pub const RATE_DENOMINATOR: u32 = 1024;

/// The per-runtime failpoint registry.
///
/// Disabled by default; every site then reduces to a single relaxed load.
/// Enabled via [`enable`](Self::enable) with a seed, after which each site
/// fails a deterministic, seed-reproducible subset of its calls at the
/// configured rate.
#[derive(Debug)]
pub struct FaultInjector {
    enabled: AtomicBool,
    seed: AtomicU64,
    /// Per-site injection rate out of [`RATE_DENOMINATOR`].
    rates: [AtomicU32; NUM_SITES],
    /// Per-site counters of the calls made while armed (the `n` in the
    /// `(seed, site, n)` hash).
    calls: [AtomicU64; NUM_SITES],
    /// Per-site injected-failure counters.
    injected: [AtomicU64; NUM_SITES],
    /// Remaining injection allowance; `u64::MAX` means unlimited.
    remaining: AtomicU64,
    stats: Arc<MemoryStats>,
}

impl FaultInjector {
    /// A disabled injector reporting into `stats`.
    pub fn new(stats: Arc<MemoryStats>) -> FaultInjector {
        FaultInjector {
            enabled: AtomicBool::new(false),
            seed: AtomicU64::new(0),
            rates: std::array::from_fn(|_| AtomicU32::new(0)),
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
            remaining: AtomicU64::new(u64::MAX),
            stats,
        }
    }

    /// A disabled injector with private stats, for components constructed
    /// without a runtime (e.g. a bare `EpochManager` in tests).
    pub fn detached() -> FaultInjector {
        FaultInjector::new(Arc::new(MemoryStats::new()))
    }

    /// Arms the injector with a seed. Sites only fire once a non-zero rate
    /// is also set ([`set_rate`](Self::set_rate)).
    pub fn enable(&self, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Disarms every site. A disarmed site returns before it counts the
    /// call, so re-arming resumes each site's call index where it stood: a
    /// disarmed window moves no later decision.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// True once armed.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The seed the injector was armed with.
    pub fn seed(&self) -> u64 {
        self.seed.load(Ordering::Relaxed)
    }

    /// Sets one site's injection rate, out of [`RATE_DENOMINATOR`].
    pub fn set_rate(&self, site: FaultSite, rate_per_1024: u32) {
        self.rates[site.index()].store(rate_per_1024.min(RATE_DENOMINATOR), Ordering::Relaxed);
    }

    /// Sets every site to the same injection rate.
    pub fn set_all_rates(&self, rate_per_1024: u32) {
        for site in FaultSite::ALL {
            self.set_rate(site, rate_per_1024);
        }
    }

    /// Caps the total number of injections (`None` = unlimited). Useful for
    /// "fail exactly the next allocation" style tests.
    pub fn set_limit(&self, limit: Option<u64>) {
        self.remaining
            .store(limit.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// The failpoint: true when the current call at `site` must fail.
    #[inline]
    pub fn should_fail(&self, site: FaultSite) -> bool {
        if !self.enabled.load(Ordering::Relaxed) {
            return false;
        }
        self.should_fail_armed(site)
    }

    #[cold]
    fn should_fail_armed(&self, site: FaultSite) -> bool {
        let i = site.index();
        let call = self.calls[i].fetch_add(1, Ordering::Relaxed);
        let rate = self.rates[i].load(Ordering::Relaxed);
        if rate == 0 {
            return false;
        }
        let h = splitmix64(site.hash_input(self.seed.load(Ordering::Relaxed), call));
        if (h % RATE_DENOMINATOR as u64) as u32 >= rate {
            return false;
        }
        // Respect the injection allowance without going negative under races.
        let allowed = self
            .remaining
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| match r {
                u64::MAX => Some(u64::MAX),
                0 => None,
                n => Some(n - 1),
            })
            .is_ok();
        if !allowed {
            return false;
        }
        self.injected[i].fetch_add(1, Ordering::Relaxed);
        MemoryStats::inc(&self.stats.faults_injected);
        smc_obs::trace::emit(smc_obs::Event::FailpointTrip {
            site: smc_obs::Label::new(site.name()),
        });
        true
    }

    /// Times this site was reached while armed (failing or not).
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site.index()].load(Ordering::Relaxed)
    }

    /// Failures injected at this site.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Failures injected across all sites.
    pub fn injected_total(&self) -> u64 {
        FaultSite::ALL.iter().map(|&s| self.injected(s)).sum()
    }
}

impl std::fmt::Display for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults[{}; seed={}]",
            if self.is_enabled() {
                "armed"
            } else {
                "disarmed"
            },
            self.seed()
        )?;
        for site in FaultSite::ALL {
            write!(
                f,
                " {}={}/{}",
                site.name(),
                self.injected(site),
                self.calls(site)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fails() {
        let inj = FaultInjector::detached();
        inj.set_all_rates(RATE_DENOMINATOR); // would fail every call if armed
        for _ in 0..1000 {
            assert!(!inj.should_fail(FaultSite::BlockAlloc));
        }
        assert_eq!(inj.injected_total(), 0);
    }

    #[test]
    fn same_seed_fails_same_calls() {
        let pattern = |seed: u64| -> Vec<bool> {
            let inj = FaultInjector::detached();
            inj.enable(seed);
            inj.set_rate(FaultSite::Relocation, 128);
            (0..512)
                .map(|_| inj.should_fail(FaultSite::Relocation))
                .collect()
        };
        assert_eq!(pattern(7), pattern(7));
        assert_ne!(pattern(7), pattern(8), "different seeds should differ");
    }

    #[test]
    fn disarmed_window_does_not_advance_the_call_index() {
        let armed = |inj: &FaultInjector, n: usize| -> Vec<bool> {
            (0..n)
                .map(|_| inj.should_fail(FaultSite::Relocation))
                .collect()
        };
        let straight = FaultInjector::detached();
        straight.enable(11);
        straight.set_rate(FaultSite::Relocation, 512);
        let inj = FaultInjector::detached();
        inj.enable(11);
        inj.set_rate(FaultSite::Relocation, 512);
        let mut windowed = armed(&inj, 8);
        inj.disable();
        assert!(armed(&inj, 100).iter().all(|&failed| !failed));
        assert_eq!(inj.calls(FaultSite::Relocation), 8);
        inj.enable(11);
        windowed.extend(armed(&inj, 8));
        assert_eq!(windowed, armed(&straight, 16));
    }

    /// The first 64 decisions of every site under one seed at rate 512,
    /// bit `i` for call `i`. Adding or deleting a site must not move
    /// another site's schedule, so these stay as recorded.
    #[test]
    fn every_site_decides_as_pinned() {
        const PINS: [(FaultSite, u64); NUM_SITES] = [
            (FaultSite::BlockAlloc, 0xfadb_829a_2884_04de),
            (FaultSite::EpochAdvance, 0xc3f2_b639_752b_d21a),
            (FaultSite::ThreadClaim, 0x5627_a77a_d12f_419d),
            (FaultSite::Relocation, 0x70cb_6a8a_5e3f_e2b5),
            (FaultSite::SnapshotPage, 0x2281_bf9e_679e_c682),
            (FaultSite::SnapshotManifest, 0x025e_9346_50b4_eb43),
            (FaultSite::SnapshotRename, 0xac21_fa0c_9c8b_71de),
            (FaultSite::SpillStore, 0x0a35_5d3b_7a0e_ed8b),
            (FaultSite::SpillLoad, 0x4165_3c37_cca1_e1ff),
        ];
        assert_eq!(PINS.map(|(site, _)| site), FaultSite::ALL);
        let inj = FaultInjector::detached();
        inj.enable(0x5eed);
        inj.set_all_rates(512);
        for (site, pin) in PINS {
            let decisions = (0..64).fold(0u64, |mask, call| {
                mask | u64::from(inj.should_fail(site)) << call
            });
            assert_eq!(decisions, pin, "{}: {decisions:#x}", site.name());
        }
    }

    /// No two sites under one seed, and no site under seeds `s` and `s + 1`,
    /// hash the same input in their first 16 calls: else one's decisions
    /// are another's, reordered.
    #[test]
    fn sites_and_neighbouring_seeds_share_no_hash_input() {
        for seed in (0..64).chain([7, 0x5b11, 0x5eed, 31337, u64::MAX - 1]) {
            let mut inputs = std::collections::HashSet::new();
            for s in [seed, seed + 1] {
                for site in FaultSite::ALL {
                    for call in 0..16 {
                        let input = site.hash_input(s, call);
                        assert!(
                            inputs.insert(input),
                            "seed {s:#x} {} call {call}",
                            site.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rate_roughly_honored() {
        let inj = FaultInjector::detached();
        inj.enable(42);
        inj.set_rate(FaultSite::EpochAdvance, 256); // 25%
        let hits = (0..4096)
            .filter(|_| inj.should_fail(FaultSite::EpochAdvance))
            .count();
        assert!((700..1350).contains(&hits), "{hits}/4096 at 25%");
        assert_eq!(inj.injected(FaultSite::EpochAdvance) as usize, hits);
        assert_eq!(inj.calls(FaultSite::EpochAdvance), 4096);
    }

    #[test]
    fn sites_are_independent() {
        let inj = FaultInjector::detached();
        inj.enable(1);
        inj.set_rate(FaultSite::BlockAlloc, RATE_DENOMINATOR);
        // Armed site fails every call; others never do.
        assert!(inj.should_fail(FaultSite::BlockAlloc));
        assert!(!inj.should_fail(FaultSite::ThreadClaim));
        assert!(!inj.should_fail(FaultSite::Relocation));
    }

    #[test]
    fn limit_caps_injections() {
        let inj = FaultInjector::detached();
        inj.enable(3);
        inj.set_all_rates(RATE_DENOMINATOR);
        inj.set_limit(Some(2));
        let hits = (0..100)
            .filter(|_| inj.should_fail(FaultSite::BlockAlloc))
            .count();
        assert_eq!(hits, 2);
        inj.set_limit(Some(1));
        assert!(inj.should_fail(FaultSite::BlockAlloc));
        assert!(!inj.should_fail(FaultSite::BlockAlloc));
    }

    #[test]
    fn stats_counter_tracks_injections() {
        let stats = Arc::new(MemoryStats::new());
        let inj = FaultInjector::new(stats.clone());
        inj.enable(5);
        inj.set_rate(FaultSite::BlockAlloc, RATE_DENOMINATOR);
        for _ in 0..7 {
            assert!(inj.should_fail(FaultSite::BlockAlloc));
        }
        assert_eq!(MemoryStats::get(&stats.faults_injected), 7);
    }

    #[test]
    fn display_lists_sites() {
        let inj = FaultInjector::detached();
        inj.enable(9);
        let s = format!("{inj}");
        assert!(s.contains("armed"));
        assert!(s.contains("block-alloc"));
        assert!(s.contains("relocation"));
    }
}
