//! Lock-free, thread-local structured event tracing.
//!
//! Every subsystem of the workspace emits typed [`Event`]s through
//! [`emit`]: GC pauses, epoch advances, the compaction-group lifecycle
//! (select → relocate → retire), budget recovery-ladder rungs, failpoint
//! trips, and morsel dispatch. Tracing is **disabled by default** and the
//! disabled path is a single relaxed load and a predictable branch — no
//! allocation, no time-stamping, no TLS access — so instrumented hot paths
//! stay unperturbed (`tests/overhead.rs` asserts ≤ 2 ns/op in release).
//!
//! When [enabled](enable), each thread writes into its own fixed-size ring
//! buffer of [`RING_CAPACITY`] slots (registered globally on first use, so
//! [`snapshot`] can observe every thread). Writes are wait-free for the
//! owning thread; a concurrent [`snapshot`] validates each slot with a
//! seqlock-style tag and simply skips slots that are mid-write. When a ring
//! wraps, the oldest events are overwritten and counted in [`dropped`] —
//! tracing never blocks or grows memory.
//!
//! Events are POD ([`Copy`], no heap): textual payloads travel as fixed
//! 15-byte [`Label`]s. Each emitted event carries a global sequence number
//! (total order across threads) and nanoseconds since the first
//! [`enable`]/emission.
//!
//! ```
//! use smc_obs::trace::{self, Event};
//!
//! trace::enable();
//! trace::emit(Event::EpochAdvance { epoch: 7 });
//! let events = trace::snapshot();
//! assert!(events
//!     .iter()
//!     .any(|t| matches!(t.event, Event::EpochAdvance { epoch: 7 })));
//! trace::disable();
//! ```

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{fence, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::hist::Histogram;

/// Events each per-thread ring can hold before overwriting the oldest.
pub const RING_CAPACITY: usize = 1024;

/// A fixed-size, copyable string for event payloads (site names, query
/// labels). Longer strings are truncated at a UTF-8 boundary.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Label {
    len: u8,
    bytes: [u8; 15],
}

impl Label {
    /// The empty label.
    pub const EMPTY: Label = Label {
        len: 0,
        bytes: [0; 15],
    };

    /// Builds a label from up to 15 bytes of `s` (truncating at a character
    /// boundary).
    pub fn new(s: &str) -> Label {
        let mut n = s.len().min(15);
        while !s.is_char_boundary(n) {
            n -= 1;
        }
        let mut bytes = [0u8; 15];
        bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
        Label {
            len: n as u8,
            bytes,
        }
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }

    /// Packs the label into two words for ring storage.
    fn pack(&self) -> (u64, u64) {
        let mut raw = [0u8; 16];
        raw[0] = self.len;
        raw[1..16].copy_from_slice(&self.bytes);
        (
            u64::from_le_bytes(raw[0..8].try_into().unwrap()),
            u64::from_le_bytes(raw[8..16].try_into().unwrap()),
        )
    }

    fn unpack(a: u64, b: u64) -> Label {
        let mut raw = [0u8; 16];
        raw[0..8].copy_from_slice(&a.to_le_bytes());
        raw[8..16].copy_from_slice(&b.to_le_bytes());
        let mut bytes = [0u8; 15];
        bytes.copy_from_slice(&raw[1..16]);
        Label {
            len: raw[0].min(15),
            bytes,
        }
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Label {
        Label::new(s)
    }
}

impl std::fmt::Display for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::fmt::Debug for Label {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// The typed event taxonomy (DESIGN.md §10). All variants are POD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A stop-the-world GC pause is starting (`managed-heap` collector).
    GcPauseBegin {
        /// True for a major (full-heap) cycle.
        major: bool,
    },
    /// A stop-the-world GC pause ended.
    GcPauseEnd {
        /// True for a major (full-heap) cycle.
        major: bool,
        /// Pause duration in nanoseconds.
        nanos: u64,
        /// Objects traced during the pause.
        traced: u64,
        /// Objects swept (0 for non-final incremental slices).
        swept: u64,
    },
    /// The global epoch advanced (§3.4).
    EpochAdvance {
        /// The new global epoch.
        epoch: u64,
    },
    /// A compaction pass selected its source candidates (§5.2 select).
    CompactionSelect {
        /// Memory-context id running the pass.
        context: u64,
        /// Low-occupancy blocks chosen as relocation sources.
        candidates: u64,
    },
    /// A compaction pass finished its moving phase (§5.1 relocate).
    CompactionRelocate {
        /// Memory-context id running the pass.
        context: u64,
        /// Objects moved to destination blocks.
        moved: u64,
        /// Relocations bailed out by readers (§5.1 case b).
        bailed: u64,
        /// Moving-phase duration in nanoseconds.
        nanos: u64,
    },
    /// A compaction pass retired its emptied source blocks (§5.2 retire).
    CompactionRetire {
        /// Memory-context id running the pass.
        context: u64,
        /// Fully-emptied source blocks retired to the graveyard path.
        retired: u64,
    },
    /// One object was relocated (by the compaction thread or a helping
    /// reader, §5.1 case c).
    ObjectRelocated {
        /// Source slot within the source block.
        src_slot: u64,
        /// Destination slot within the group's destination block.
        dest_slot: u64,
    },
    /// A reader bailed a scheduled relocation out (§5.1 case b).
    RelocationBailed {
        /// Source slot whose move was cancelled.
        src_slot: u64,
    },
    /// One rung of the allocation recovery ladder ran under memory pressure.
    RecoveryStep {
        /// Retry attempt number (1-based).
        attempt: u64,
        /// Graveyard blocks freed by this rung.
        freed_blocks: u64,
        /// Whether the rung forced an emergency epoch advance.
        advanced: bool,
    },
    /// A seeded failpoint fired ([`FaultInjector`](../../smc_memory/fault)).
    FailpointTrip {
        /// Site name (e.g. `block-alloc`, `relocation`).
        site: Label,
    },
    /// A parallel-scan worker claimed a morsel.
    MorselDispatch {
        /// Worker index within its pool.
        worker: u64,
        /// Index of the morsel within the scan's snapshot.
        morsel: u64,
    },
    /// A worker pool finished broadcasting one job to all workers.
    PoolBroadcast {
        /// Worker count.
        threads: u64,
        /// Wall time of the broadcast in nanoseconds.
        nanos: u64,
    },
    /// A traced span (e.g. one TPC-H query execution) completed.
    QuerySpan {
        /// Span label (e.g. `smc.q1`).
        label: Label,
        /// Span duration in nanoseconds.
        nanos: u64,
    },
    /// The maintenance coordinator dispatched a compaction pass.
    MaintPassStart {
        /// Memory-context id the pass targets.
        context: u64,
        /// Why the pass was planned (e.g. `frag`, `limbo`, `churn`, `nudge`).
        reason: Label,
    },
    /// A coordinator-driven compaction pass finished.
    MaintPassEnd {
        /// Memory-context id the pass targeted.
        context: u64,
        /// Objects moved by the pass.
        moved: u64,
        /// Relocations rolled back through the bail path.
        bailed: u64,
        /// Outcome class (`done`, `retry`, `cancel`, `abort`). Must fit in
        /// 7 bytes: the record packs context/moved/bailed plus the label's
        /// first word, so only short tokens survive encoding.
        outcome: Label,
    },
    /// The coordinator deferred a due pass because the foreground scan SLO
    /// is breached (back-pressure).
    MaintDeferred {
        /// Memory-context id whose pass was deferred.
        context: u64,
        /// Observed foreground p99 scan latency in nanoseconds.
        p99_ns: u64,
        /// The configured SLO ceiling in nanoseconds.
        slo_ns: u64,
    },
    /// The coordinator's SLO state flipped (breached or recovered).
    MaintSloState {
        /// True when entering the breached (back-pressure) state.
        breached: bool,
        /// Observed foreground p99 scan latency in nanoseconds.
        p99_ns: u64,
    },
    /// A block was evicted to the page store (the spill rung of the OOM
    /// ladder; persistence tier).
    BlockSpilled {
        /// Memory-context id that spilled the block.
        context: u64,
        /// Id of the spilled block.
        block_id: u64,
    },
    /// A spilled page was brought back to residency (into a fresh block).
    BlockFaulted {
        /// Memory-context id that faulted the page in.
        context: u64,
        /// Id of the originally-spilled block.
        block_id: u64,
        /// Fault-in duration in nanoseconds (store read through repoint).
        nanos: u64,
    },
    /// A crash-consistent snapshot generation was published (`smc-persist`).
    SnapshotWritten {
        /// Memory-context id that was snapshotted.
        context: u64,
        /// Pages written to the generation's page file.
        pages: u64,
        /// Total bytes written (pages plus manifest).
        bytes: u64,
        /// Snapshot duration in nanoseconds (walk through rename).
        nanos: u64,
    },
    /// A context was rebuilt from a snapshot directory (`smc-persist`).
    RecoveryLoaded {
        /// Memory-context id of the rebuilt context.
        context: u64,
        /// Pages read and verified.
        pages: u64,
        /// Objects re-inserted.
        objects: u64,
        /// Recovery duration in nanoseconds (read through verify).
        nanos: u64,
    },
    /// One stage of a traced request finished on some thread (conn read,
    /// ring wait, shard execution, exec-worker slice). The Chrome exporter
    /// renders these as complete (`X`) spans named `req.<stage>` carrying
    /// the request id, so one request's flow is linkable across `tid`
    /// tracks ([`RequestId`], DESIGN.md §17).
    ReqStage {
        /// The originating [`RequestId`] (non-zero).
        req: u64,
        /// Stage name (`conn`, `ring`, `shard`, `exec`). Must fit in
        /// 7 bytes: the record packs the id, the duration and the label's
        /// first word, so only short stage tokens survive encoding.
        stage: Label,
        /// Stage duration in nanoseconds.
        nanos: u64,
    },
}

const K_GC_BEGIN: u64 = 1;
const K_GC_END: u64 = 2;
const K_EPOCH: u64 = 3;
const K_SELECT: u64 = 4;
const K_RELOCATE: u64 = 5;
const K_RETIRE: u64 = 6;
const K_OBJ_MOVED: u64 = 7;
const K_OBJ_BAILED: u64 = 8;
const K_RECOVERY: u64 = 9;
const K_FAILPOINT: u64 = 10;
const K_MORSEL: u64 = 11;
const K_BROADCAST: u64 = 12;
const K_SPAN: u64 = 13;
const K_MAINT_START: u64 = 14;
const K_MAINT_END: u64 = 15;
const K_MAINT_DEFER: u64 = 16;
const K_MAINT_SLO: u64 = 17;
const K_SPILL: u64 = 18;
const K_FAULT_IN: u64 = 19;
const K_SNAP_WRITE: u64 = 20;
const K_RECOVER: u64 = 21;
const K_REQ_STAGE: u64 = 22;

impl Event {
    /// Short kind name, stable for log processing.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::GcPauseBegin { .. } => "gc-pause-begin",
            Event::GcPauseEnd { .. } => "gc-pause-end",
            Event::EpochAdvance { .. } => "epoch-advance",
            Event::CompactionSelect { .. } => "compaction-select",
            Event::CompactionRelocate { .. } => "compaction-relocate",
            Event::CompactionRetire { .. } => "compaction-retire",
            Event::ObjectRelocated { .. } => "object-relocated",
            Event::RelocationBailed { .. } => "relocation-bailed",
            Event::RecoveryStep { .. } => "recovery-step",
            Event::FailpointTrip { .. } => "failpoint-trip",
            Event::MorselDispatch { .. } => "morsel-dispatch",
            Event::PoolBroadcast { .. } => "pool-broadcast",
            Event::QuerySpan { .. } => "query-span",
            Event::MaintPassStart { .. } => "maint-pass-start",
            Event::MaintPassEnd { .. } => "maint-pass-end",
            Event::MaintDeferred { .. } => "maint-deferred",
            Event::MaintSloState { .. } => "maint-slo-state",
            Event::BlockSpilled { .. } => "block-spilled",
            Event::BlockFaulted { .. } => "block-faulted",
            Event::SnapshotWritten { .. } => "snapshot-written",
            Event::RecoveryLoaded { .. } => "recovery-loaded",
            Event::ReqStage { .. } => "req-stage",
        }
    }

    pub(crate) fn encode(&self) -> (u64, [u64; 4]) {
        match *self {
            Event::GcPauseBegin { major } => (K_GC_BEGIN, [major as u64, 0, 0, 0]),
            Event::GcPauseEnd {
                major,
                nanos,
                traced,
                swept,
            } => (K_GC_END, [major as u64, nanos, traced, swept]),
            Event::EpochAdvance { epoch } => (K_EPOCH, [epoch, 0, 0, 0]),
            Event::CompactionSelect {
                context,
                candidates,
            } => (K_SELECT, [context, candidates, 0, 0]),
            Event::CompactionRelocate {
                context,
                moved,
                bailed,
                nanos,
            } => (K_RELOCATE, [context, moved, bailed, nanos]),
            Event::CompactionRetire { context, retired } => (K_RETIRE, [context, retired, 0, 0]),
            Event::ObjectRelocated {
                src_slot,
                dest_slot,
            } => (K_OBJ_MOVED, [src_slot, dest_slot, 0, 0]),
            Event::RelocationBailed { src_slot } => (K_OBJ_BAILED, [src_slot, 0, 0, 0]),
            Event::RecoveryStep {
                attempt,
                freed_blocks,
                advanced,
            } => (K_RECOVERY, [attempt, freed_blocks, advanced as u64, 0]),
            Event::FailpointTrip { site } => {
                let (a, b) = site.pack();
                (K_FAILPOINT, [a, b, 0, 0])
            }
            Event::MorselDispatch { worker, morsel } => (K_MORSEL, [worker, morsel, 0, 0]),
            Event::PoolBroadcast { threads, nanos } => (K_BROADCAST, [threads, nanos, 0, 0]),
            Event::QuerySpan { label, nanos } => {
                let (a, b) = label.pack();
                (K_SPAN, [a, b, nanos, 0])
            }
            Event::MaintPassStart { context, reason } => {
                let (a, b) = reason.pack();
                (K_MAINT_START, [context, a, b, 0])
            }
            Event::MaintPassEnd {
                context,
                moved,
                bailed,
                outcome,
            } => {
                // Four payload words must carry context/moved/bailed plus the
                // outcome, so only the label's first packed word (length +
                // 7 bytes) is stored — enough for every outcome token.
                let (a, b) = outcome.pack();
                debug_assert_eq!(b, 0, "outcome label must fit 7 bytes");
                (K_MAINT_END, [context, moved, bailed, a])
            }
            Event::MaintDeferred {
                context,
                p99_ns,
                slo_ns,
            } => (K_MAINT_DEFER, [context, p99_ns, slo_ns, 0]),
            Event::MaintSloState { breached, p99_ns } => {
                (K_MAINT_SLO, [breached as u64, p99_ns, 0, 0])
            }
            Event::BlockSpilled { context, block_id } => (K_SPILL, [context, block_id, 0, 0]),
            Event::BlockFaulted {
                context,
                block_id,
                nanos,
            } => (K_FAULT_IN, [context, block_id, nanos, 0]),
            Event::SnapshotWritten {
                context,
                pages,
                bytes,
                nanos,
            } => (K_SNAP_WRITE, [context, pages, bytes, nanos]),
            Event::RecoveryLoaded {
                context,
                pages,
                objects,
                nanos,
            } => (K_RECOVER, [context, pages, objects, nanos]),
            Event::ReqStage { req, stage, nanos } => {
                let (a, b) = stage.pack();
                debug_assert_eq!(b, 0, "stage label must fit 7 bytes");
                (K_REQ_STAGE, [req, a, nanos, 0])
            }
        }
    }

    /// Defensive inverse of `encode`: a torn or unknown record decodes to
    /// `None` and is skipped by [`snapshot`].
    pub(crate) fn decode(kind: u64, p: [u64; 4]) -> Option<Event> {
        Some(match kind {
            K_GC_BEGIN => Event::GcPauseBegin { major: p[0] != 0 },
            K_GC_END => Event::GcPauseEnd {
                major: p[0] != 0,
                nanos: p[1],
                traced: p[2],
                swept: p[3],
            },
            K_EPOCH => Event::EpochAdvance { epoch: p[0] },
            K_SELECT => Event::CompactionSelect {
                context: p[0],
                candidates: p[1],
            },
            K_RELOCATE => Event::CompactionRelocate {
                context: p[0],
                moved: p[1],
                bailed: p[2],
                nanos: p[3],
            },
            K_RETIRE => Event::CompactionRetire {
                context: p[0],
                retired: p[1],
            },
            K_OBJ_MOVED => Event::ObjectRelocated {
                src_slot: p[0],
                dest_slot: p[1],
            },
            K_OBJ_BAILED => Event::RelocationBailed { src_slot: p[0] },
            K_RECOVERY => Event::RecoveryStep {
                attempt: p[0],
                freed_blocks: p[1],
                advanced: p[2] != 0,
            },
            K_FAILPOINT => Event::FailpointTrip {
                site: Label::unpack(p[0], p[1]),
            },
            K_MORSEL => Event::MorselDispatch {
                worker: p[0],
                morsel: p[1],
            },
            K_BROADCAST => Event::PoolBroadcast {
                threads: p[0],
                nanos: p[1],
            },
            K_SPAN => Event::QuerySpan {
                label: Label::unpack(p[0], p[1]),
                nanos: p[2],
            },
            K_MAINT_START => Event::MaintPassStart {
                context: p[0],
                reason: Label::unpack(p[1], p[2]),
            },
            K_MAINT_END => Event::MaintPassEnd {
                context: p[0],
                moved: p[1],
                bailed: p[2],
                outcome: Label::unpack(p[3], 0),
            },
            K_MAINT_DEFER => Event::MaintDeferred {
                context: p[0],
                p99_ns: p[1],
                slo_ns: p[2],
            },
            K_MAINT_SLO => Event::MaintSloState {
                breached: p[0] != 0,
                p99_ns: p[1],
            },
            K_SPILL => Event::BlockSpilled {
                context: p[0],
                block_id: p[1],
            },
            K_FAULT_IN => Event::BlockFaulted {
                context: p[0],
                block_id: p[1],
                nanos: p[2],
            },
            K_SNAP_WRITE => Event::SnapshotWritten {
                context: p[0],
                pages: p[1],
                bytes: p[2],
                nanos: p[3],
            },
            K_RECOVER => Event::RecoveryLoaded {
                context: p[0],
                pages: p[1],
                objects: p[2],
                nanos: p[3],
            },
            K_REQ_STAGE => Event::ReqStage {
                req: p[0],
                stage: Label::unpack(p[1], 0),
                nanos: p[2],
            },
            _ => return None,
        })
    }
}

/// One event as observed by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Global sequence number: a total order across all threads.
    pub seq: u64,
    /// Emitting thread's tracer id (dense, per-process).
    pub thread: u64,
    /// Nanoseconds since the tracer's time origin (first enable/emission).
    pub nanos: u64,
    /// The event payload.
    pub event: Event,
}

impl TracedEvent {
    /// The record's slot encoding: kind, seq, nanos, thread, p0..p3.
    fn to_words(self) -> [u64; 8] {
        let (kind, [p0, p1, p2, p3]) = self.event.encode();
        let (seq, nanos, thread) = (self.seq, self.nanos, self.thread);
        [kind, seq, nanos, thread, p0, p1, p2, p3]
    }

    /// Inverse of [`to_words`](Self::to_words); `None` for an unknown kind.
    fn from_words(w: [u64; 8]) -> Option<TracedEvent> {
        Some(TracedEvent {
            seq: w[1],
            nanos: w[2],
            thread: w[3],
            event: Event::decode(w[0], [w[4], w[5], w[6], w[7]])?,
        })
    }
}

/// Seqlock-tagged record of 8 atomic words, the slot of both the per-thread
/// rings and the [flight recorder](crate::flight). `tag == 0` means empty or
/// mid-write; `tag == logical_position + 1` means the words hold the
/// complete record for that position. All accesses are atomic (no UB); a
/// reader validating the tag before and after its word reads either sees a
/// consistent record or skips the slot.
pub(crate) struct SeqSlot {
    tag: AtomicU64,
    words: [AtomicU64; 8],
}

impl SeqSlot {
    pub(crate) const fn new() -> SeqSlot {
        SeqSlot {
            tag: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; 8],
        }
    }

    /// Writes `words` as the record for logical position `pos`: invalidate,
    /// publish the invalidation before any new word, write the record, then
    /// publish the new tag after every word.
    pub(crate) fn publish(&self, pos: u64, words: [u64; 8]) {
        self.tag.store(0, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        for (slot, word) in self.words.iter().zip(words) {
            slot.store(word, Ordering::Relaxed);
        }
        self.tag.store(pos + 1, Ordering::Release);
    }

    /// The slot's record, or `None` when it is empty, mid-write, or was
    /// overwritten during the read.
    pub(crate) fn read(&self) -> Option<[u64; 8]> {
        let t1 = self.tag.load(Ordering::Acquire);
        if t1 == 0 {
            return None;
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        fence(Ordering::SeqCst);
        (self.tag.load(Ordering::Relaxed) == t1).then_some(words)
    }

    /// The slot's record decoded; `None` as [`read`](Self::read), or for an
    /// unknown event kind.
    pub(crate) fn read_event(&self) -> Option<TracedEvent> {
        self.read().and_then(TracedEvent::from_words)
    }
}

struct Ring {
    thread: u64,
    /// Next logical write position (monotonic; wraps modulo capacity).
    head: AtomicU64,
    /// Events overwritten by wraparound, counted explicitly at the moment
    /// [`Ring::push`] reuses a previously-published slot (so [`clear`] and
    /// future resizes cannot skew the accounting).
    dropped: AtomicU64,
    slots: Box<[SeqSlot]>,
    /// Owning-thread flag so `clear` can tell live rings from dead ones.
    _private: UnsafeCell<()>,
}

// SAFETY: all shared state is atomic; the UnsafeCell is a never-accessed
// marker making the type !RefUnwindSafe-irrelevant. Slots follow the
// seqlock protocol documented on `SeqSlot`.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(thread: u64) -> Ring {
        Ring {
            thread,
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| SeqSlot::new()).collect(),
            _private: UnsafeCell::new(()),
        }
    }

    /// Single-writer append (owning thread only).
    fn push(&self, words: [u64; 8]) {
        let pos = self.head.load(Ordering::Relaxed);
        if pos >= RING_CAPACITY as u64 {
            // This write reuses a slot that held a published record: the
            // ring has wrapped and the oldest event is being overwritten.
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.slots[(pos as usize) % RING_CAPACITY].publish(pos, words);
        self.head.store(pos + 1, Ordering::Release);
    }
}

/// Tracer mode bit: per-thread ring recording ([`enable`]/[`disable`]).
const MODE_RINGS: u8 = 1 << 0;
/// Tracer mode bit: the global flight recorder ([`crate::flight::enable`]).
const MODE_FLIGHT: u8 = 1 << 1;

/// Which sinks are live. Zero means every [`emit`] is a single relaxed load
/// plus one predictable branch — the ≤ 2 ns/op budget the overhead test
/// holds covers both sinks being off.
static MODE: AtomicU8 = AtomicU8::new(0);
static SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: Arc<Ring> = {
        let ring = Arc::new(Ring::new(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)));
        registry().lock().unwrap_or_else(|e| e.into_inner()).push(ring.clone());
        ring
    };
}

/// Turns ring tracing on. Emissions before this call were dropped at zero
/// cost (unless the [flight recorder](crate::flight) was already live).
pub fn enable() {
    origin(); // pin the time origin no later than the first enablement
    MODE.fetch_or(MODE_RINGS, Ordering::Relaxed);
}

/// Turns ring tracing off; with the flight recorder also off, [`emit`]
/// reverts to the ≤ 2 ns no-op path.
pub fn disable() {
    MODE.fetch_and(!MODE_RINGS, Ordering::Relaxed);
}

/// True while ring tracing is on (the flight recorder does not count: it is
/// a forensic sink, not the export path `snapshot` serves).
#[inline]
pub fn is_enabled() -> bool {
    MODE.load(Ordering::Relaxed) & MODE_RINGS != 0
}

/// Flips the flight-recorder mode bit (called by [`crate::flight`] only;
/// the recorder allocates its ring before setting the bit).
pub(crate) fn set_flight_mode(on: bool) {
    origin();
    if on {
        MODE.fetch_or(MODE_FLIGHT, Ordering::Relaxed);
    } else {
        MODE.fetch_and(!MODE_FLIGHT, Ordering::Relaxed);
    }
    crate::flight::note_mode(on);
}

/// Emits one event. When both sinks are disabled this is one relaxed load
/// and a branch — no allocation, no clock read, no TLS access.
#[inline]
pub fn emit(event: Event) {
    let mode = MODE.load(Ordering::Relaxed);
    if mode == 0 {
        return;
    }
    emit_enabled(mode, event);
}

#[cold]
fn emit_enabled(mode: u8, event: Event) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = origin().elapsed().as_nanos() as u64;
    // `try_with`: emissions during TLS teardown are silently dropped.
    let _ = LOCAL.try_with(|ring| {
        let words = TracedEvent {
            seq,
            thread: ring.thread,
            nanos,
            event,
        }
        .to_words();
        if mode & MODE_RINGS != 0 {
            ring.push(words);
        }
        if mode & MODE_FLIGHT != 0 {
            crate::flight::record(words);
        }
    });
}

/// Collects every currently-readable event from every thread's ring,
/// sorted by global sequence number. Non-destructive; slots being
/// overwritten concurrently are skipped.
pub fn snapshot() -> Vec<TracedEvent> {
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out: Vec<TracedEvent> = rings
        .iter()
        .flat_map(|ring| ring.slots.iter().filter_map(SeqSlot::read_event))
        .collect();
    out.sort_by_key(|t| t.seq);
    out
}

/// Events overwritten by ring wraparound since process start, summed over
/// every thread's per-ring `dropped` counter (each counter increments at the
/// instant a wrap reuses a published slot). A report that claims zero events
/// while this is non-zero lost its whole story to overwrites — `smc-bench`
/// records that combination as the failed check `trace_not_silently_empty`.
pub fn dropped() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|r| r.dropped.load(Ordering::Relaxed))
        .sum()
}

/// Per-thread view of [`dropped`]: `(tracer thread id, events overwritten)`
/// for every ring that has dropped at least one event. `smc-top` surfaces
/// this so a saturated producer thread is identifiable.
pub fn dropped_by_thread() -> Vec<(u64, u64)> {
    registry()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .filter_map(|r| {
            let d = r.dropped.load(Ordering::Relaxed);
            (d > 0).then_some((r.thread, d))
        })
        .collect()
}

/// Empties every ring. Intended for quiescent points (between benchmark
/// phases); events being written concurrently may survive the clear.
pub fn clear() {
    for ring in registry().lock().unwrap_or_else(|e| e.into_inner()).iter() {
        for slot in ring.slots.iter() {
            slot.tag.store(0, Ordering::Release);
        }
    }
}

/// The identity of one in-flight request, minted by the client side of the
/// `smc-serve` wire protocol and carried across threads (conn → SPSC ring →
/// shard → exec workers) so every [`Event::ReqStage`] on the request's path
/// names the same id. Zero is reserved as "untraced", so a `RequestId` is
/// always non-zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Wraps a raw wire id; `None` for the reserved untraced value `0`.
    pub fn new(raw: u64) -> Option<RequestId> {
        (raw != 0).then_some(RequestId(raw))
    }

    /// The raw non-zero id.
    pub fn get(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

thread_local! {
    /// The request the current thread is executing on behalf of (0 = none).
    static CURRENT_REQ: Cell<u64> = const { Cell::new(0) };
}

/// The request id the current thread is working under, if any. Worker pools
/// capture this before fanning out and re-enter it per worker with
/// [`RequestScope::enter`], so morsel-level stages inherit the id across the
/// broadcast boundary.
pub fn current_request() -> Option<RequestId> {
    CURRENT_REQ.with(|c| RequestId::new(c.get()))
}

/// RAII guard marking the current thread as executing `id`. Restores the
/// previous id (scopes nest) on drop. Entering a scope costs one TLS store
/// and emits nothing on its own — stages are emitted explicitly.
#[derive(Debug)]
pub struct RequestScope {
    prev: u64,
}

impl RequestScope {
    /// Enters `id` on the current thread until the guard drops.
    pub fn enter(id: RequestId) -> RequestScope {
        let prev = CURRENT_REQ.with(|c| c.replace(id.get()));
        RequestScope { prev }
    }
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        let prev = self.prev;
        CURRENT_REQ.with(|c| c.set(prev));
    }
}

/// Emits a [`ReqStage`](Event::ReqStage) span for `id`. `nanos` is the
/// stage's duration; the event's timestamp marks the stage's end, so the
/// Chrome exporter reconstructs the start as `ts - nanos`.
pub fn emit_stage(id: RequestId, stage: &str, nanos: u64) {
    emit(Event::ReqStage {
        req: id.get(),
        stage: Label::new(stage),
        nanos,
    });
}

/// An RAII span: measures its own lifetime, emits a
/// [`QuerySpan`](Event::QuerySpan) on drop, and optionally records the
/// duration into a [`Histogram`].
///
/// ```
/// use smc_obs::hist::Histogram;
/// use smc_obs::trace::Span;
///
/// static LATENCY: Histogram = Histogram::new();
/// {
///     let _span = Span::with_histogram("demo.q1", &LATENCY);
///     // ... the work being measured ...
/// }
/// assert_eq!(LATENCY.count(), 1);
/// ```
pub struct Span<'a> {
    label: Label,
    hist: Option<&'a Histogram>,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Starts a span that only emits a trace event.
    pub fn new(label: impl Into<Label>) -> Span<'static> {
        Span {
            label: label.into(),
            hist: None,
            start: Instant::now(),
        }
    }

    /// Starts a span that also records its duration into `hist`.
    pub fn with_histogram(label: impl Into<Label>, hist: &'a Histogram) -> Span<'a> {
        Span {
            label: label.into(),
            hist: Some(hist),
            start: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(hist) = self.hist {
            hist.record(nanos);
        }
        emit(Event::QuerySpan {
            label: self.label,
            nanos,
        });
    }
}

/// Tracer state is process-global; tests (here and in [`crate::flight`])
/// that toggle it serialize on this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_lock as lock;

    #[test]
    fn label_round_trip_and_truncation() {
        let l = Label::new("block-alloc");
        assert_eq!(l.as_str(), "block-alloc");
        let (a, b) = l.pack();
        assert_eq!(Label::unpack(a, b), l);
        let long = Label::new("a-very-long-label-name");
        assert_eq!(long.as_str().len(), 15);
        let multi = Label::new("éééééééé"); // 16 bytes of two-byte chars
        assert_eq!(multi.as_str(), "ééééééé");
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let _g = lock();
        disable();
        clear();
        for i in 0..100 {
            emit(Event::EpochAdvance { epoch: i });
        }
        assert!(
            !snapshot()
                .iter()
                .any(|t| matches!(t.event, Event::EpochAdvance { .. })),
            "disabled emit must not record"
        );
    }

    #[test]
    fn enabled_tracer_records_in_order() {
        let _g = lock();
        enable();
        clear();
        for i in 0..10u64 {
            emit(Event::MorselDispatch {
                worker: 42,
                morsel: i,
            });
        }
        let seen: Vec<u64> = snapshot()
            .iter()
            .filter_map(|t| match t.event {
                Event::MorselDispatch { worker: 42, morsel } => Some(morsel),
                _ => None,
            })
            .collect();
        disable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let _g = lock();
        enable();
        clear();
        let dropped_before = dropped();
        let total = RING_CAPACITY as u64 + 37;
        for i in 0..total {
            emit(Event::MorselDispatch {
                worker: 777,
                morsel: i,
            });
        }
        let seen: Vec<u64> = snapshot()
            .iter()
            .filter_map(|t| match t.event {
                Event::MorselDispatch {
                    worker: 777,
                    morsel,
                } => Some(morsel),
                _ => None,
            })
            .collect();
        disable();
        // The survivors are exactly the newest RING_CAPACITY events, still
        // in order; the overwritten prefix is accounted in dropped().
        assert_eq!(seen.len(), RING_CAPACITY);
        assert_eq!(seen[0], 37);
        assert_eq!(*seen.last().unwrap(), total - 1);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(dropped() >= dropped_before + 37);
    }

    #[test]
    fn snapshot_sees_other_threads() {
        let _g = lock();
        enable();
        clear();
        let t = std::thread::spawn(|| {
            emit(Event::RecoveryStep {
                attempt: 9,
                freed_blocks: 3,
                advanced: true,
            });
        });
        t.join().unwrap();
        let found = snapshot().iter().any(|t| {
            matches!(
                t.event,
                Event::RecoveryStep {
                    attempt: 9,
                    freed_blocks: 3,
                    advanced: true
                }
            )
        });
        disable();
        assert!(found, "event from a dead thread must survive in its ring");
    }

    #[test]
    fn all_event_kinds_round_trip() {
        let events = [
            Event::GcPauseBegin { major: true },
            Event::GcPauseEnd {
                major: false,
                nanos: 1,
                traced: 2,
                swept: 3,
            },
            Event::EpochAdvance { epoch: 4 },
            Event::CompactionSelect {
                context: 5,
                candidates: 6,
            },
            Event::CompactionRelocate {
                context: 7,
                moved: 8,
                bailed: 9,
                nanos: 10,
            },
            Event::CompactionRetire {
                context: 11,
                retired: 12,
            },
            Event::ObjectRelocated {
                src_slot: 13,
                dest_slot: 14,
            },
            Event::RelocationBailed { src_slot: 15 },
            Event::RecoveryStep {
                attempt: 16,
                freed_blocks: 17,
                advanced: false,
            },
            Event::FailpointTrip {
                site: Label::new("relocation"),
            },
            Event::MorselDispatch {
                worker: 18,
                morsel: 19,
            },
            Event::PoolBroadcast {
                threads: 20,
                nanos: 21,
            },
            Event::QuerySpan {
                label: Label::new("smc.q1"),
                nanos: 22,
            },
            Event::MaintPassStart {
                context: 23,
                reason: Label::new("frag"),
            },
            Event::MaintPassEnd {
                context: 24,
                moved: 25,
                bailed: 26,
                outcome: Label::new("cancel"),
            },
            Event::MaintDeferred {
                context: 27,
                p99_ns: 28,
                slo_ns: 29,
            },
            Event::MaintSloState {
                breached: true,
                p99_ns: 30,
            },
            Event::BlockSpilled {
                context: 31,
                block_id: 32,
            },
            Event::BlockFaulted {
                context: 33,
                block_id: 34,
                nanos: 35,
            },
            Event::SnapshotWritten {
                context: 36,
                pages: 37,
                bytes: 38,
                nanos: 39,
            },
            Event::RecoveryLoaded {
                context: 40,
                pages: 41,
                objects: 42,
                nanos: 43,
            },
            Event::ReqStage {
                req: 44,
                stage: Label::new("shard"),
                nanos: 45,
            },
        ];
        for e in events {
            let (kind, p) = e.encode();
            assert_eq!(Event::decode(kind, p), Some(e), "{}", e.kind());
            assert!(!e.kind().is_empty());
        }
        assert_eq!(Event::decode(999, [0; 4]), None);
    }

    #[test]
    fn span_emits_event_and_feeds_histogram() {
        let _g = lock();
        enable();
        clear();
        let hist = Histogram::new();
        {
            let _span = Span::with_histogram("test.span", &hist);
            std::hint::black_box(0);
        }
        let found = snapshot().iter().any(
            |t| matches!(t.event, Event::QuerySpan { label, .. } if label.as_str() == "test.span"),
        );
        disable();
        assert!(found);
        assert_eq!(hist.count(), 1);
    }

    #[test]
    fn request_scopes_nest_and_restore() {
        assert_eq!(current_request(), None);
        let outer = RequestId::new(7).unwrap();
        let inner = RequestId::new(9).unwrap();
        {
            let _o = RequestScope::enter(outer);
            assert_eq!(current_request(), Some(outer));
            {
                let _i = RequestScope::enter(inner);
                assert_eq!(current_request(), Some(inner));
            }
            assert_eq!(current_request(), Some(outer));
        }
        assert_eq!(current_request(), None);
        assert_eq!(RequestId::new(0), None, "zero is the untraced sentinel");
    }

    #[test]
    fn request_scope_does_not_leak_across_threads() {
        let _s = RequestScope::enter(RequestId::new(11).unwrap());
        let other = std::thread::spawn(current_request).join().unwrap();
        assert_eq!(other, None, "request context is thread-local");
    }

    #[test]
    fn emit_stage_records_the_request_id() {
        let _g = lock();
        enable();
        clear();
        let id = RequestId::new(0xdead_beef).unwrap();
        emit_stage(id, "conn", 1234);
        let found = snapshot().iter().any(|t| {
            matches!(
                t.event,
                Event::ReqStage { req, stage, nanos: 1234 }
                    if req == id.get() && stage.as_str() == "conn"
            )
        });
        disable();
        assert!(found);
    }
}
