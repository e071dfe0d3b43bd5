//! Lock-free, thread-local structured event tracing.
//!
//! Every subsystem of the workspace emits typed [`Event`]s through
//! [`emit`]: GC pauses, epoch advances, the compaction-group lifecycle
//! (select → relocate → retire), spills and fault-ins, failpoint trips,
//! and morsel dispatch. Tracing is **disabled by default** and the
//! disabled path is a single relaxed load and a predictable branch — no
//! allocation, no time-stamping, no TLS access — so instrumented hot paths
//! stay unperturbed (`tests/overhead.rs` asserts ≤ 2 ns/op in release).
//!
//! When [enabled](enable), each thread writes into its own fixed-size ring
//! buffer of [`RING_CAPACITY`] slots, taken on its first emit from the
//! rings of exited threads, or else made and registered globally so
//! [`snapshot`] can observe every thread. The owner is a ring's only
//! writer, so a write is plain stores; a concurrent [`snapshot`] validates
//! each slot with a seqlock-style tag and simply skips slots that are
//! mid-write. When a ring wraps, the oldest events are overwritten and
//! counted in [`dropped`] — tracing never blocks, and memory grows only
//! with the number of threads emitting at once. The rings are also the
//! [flight recorder](crate::flight): a dump writes what they hold.
//!
//! Events are POD ([`Copy`], no heap): textual payloads travel as fixed
//! 15-byte [`Label`]s or 7-byte [`ShortLabel`]s. The taxonomy is declared
//! once, as the rows of the `events!` table below. Each emitted event
//! carries a global sequence number (total order across threads) and
//! nanoseconds since the first [`enable`]/emission.
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

use std::cell::Cell;
use std::sync::atomic::Ordering;

use smc_util::mutation::{self, Mutation};
use smc_util::sync::{fence, AtomicBool, AtomicU64, Mutex, MutexGuard};

use crate::clock;
use crate::hist::Histogram;
use crate::report::JsonValue;

/// Events each per-thread ring can hold before overwriting the oldest.
#[cfg(not(smc_check))]
pub const RING_CAPACITY: usize = 1024;
/// Events each per-thread ring can hold before overwriting the oldest
/// (reduced under the model checker, so a scenario can wrap a ring).
#[cfg(smc_check)]
pub const RING_CAPACITY: usize = 4;

/// A fixed-size, copyable string of at most `N` bytes for event payloads
/// (site names, query labels, stage tokens). Longer strings are truncated
/// at a UTF-8 boundary on construction, so a label always holds valid text
/// and always fits the `(N + 1) / 8` payload words it is packed into. Use
/// it through its two widths, [`Label`] and [`ShortLabel`].
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct FixedLabel<const N: usize> {
    len: u8,
    bytes: [u8; N],
}

/// The 15-byte label: two payload words.
pub type Label = FixedLabel<15>;

/// The 7-byte label: one payload word, for the short tokens (`done`,
/// `shard`) of variants whose other fields leave a single word free.
pub type ShortLabel = FixedLabel<7>;

impl<const N: usize> FixedLabel<N> {
    /// The empty label.
    pub const EMPTY: Self = FixedLabel {
        len: 0,
        bytes: [0; N],
    };

    /// Builds a label from up to `N` bytes of `s` (truncating at a character
    /// boundary).
    pub fn new(s: &str) -> Self {
        let mut n = s.len().min(N);
        while !s.is_char_boundary(n) {
            n -= 1;
        }
        let mut bytes = [0u8; N];
        bytes[..n].copy_from_slice(&s.as_bytes()[..n]);
        FixedLabel {
            len: n as u8,
            bytes,
        }
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len as usize]).unwrap_or("")
    }
}

impl<const N: usize> From<&str> for FixedLabel<N> {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

impl<const N: usize> std::fmt::Display for FixedLabel<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl<const N: usize> std::fmt::Debug for FixedLabel<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// Cursor over the four payload words of a ring record.
struct Payload {
    words: [u64; 4],
    at: usize,
}

impl Payload {
    fn put(&mut self, word: u64) {
        self.words[self.at] = word;
        self.at += 1;
    }

    fn take(&mut self) -> u64 {
        self.at += 1;
        self.words[self.at - 1]
    }
}

/// How one event field travels: packed into `WORDS` payload words of the
/// ring record (and back, normalising whatever a torn record held), and
/// rendered as the JSON value of an export's `args`.
trait Field: Copy {
    const WORDS: usize;
    fn put(self, p: &mut Payload);
    fn take(p: &mut Payload) -> Self;
    fn json(self) -> JsonValue;
}

impl Field for u64 {
    const WORDS: usize = 1;
    fn put(self, p: &mut Payload) {
        p.put(self);
    }
    fn take(p: &mut Payload) -> u64 {
        p.take()
    }
    fn json(self) -> JsonValue {
        self.into()
    }
}

impl Field for bool {
    const WORDS: usize = 1;
    fn put(self, p: &mut Payload) {
        p.put(self as u64);
    }
    fn take(p: &mut Payload) -> bool {
        p.take() != 0
    }
    fn json(self) -> JsonValue {
        self.into()
    }
}

/// A label travels as its length byte followed by its `N` text bytes.
impl<const N: usize> Field for FixedLabel<N> {
    const WORDS: usize = {
        assert!(N == 7 || N == 15, "a label fills one or two words");
        (N + 1) / 8
    };
    fn put(self, p: &mut Payload) {
        let mut raw = [0u8; 16];
        raw[0] = self.len;
        raw[1..=N].copy_from_slice(&self.bytes);
        for k in 0..Self::WORDS {
            p.put(u64::from_le_bytes(std::array::from_fn(|i| raw[8 * k + i])));
        }
    }
    fn take(p: &mut Payload) -> Self {
        let mut raw = [0u8; 16];
        for k in 0..Self::WORDS {
            raw[8 * k..8 * k + 8].copy_from_slice(&p.take().to_le_bytes());
        }
        let len = (raw[0] as usize).min(N);
        let mut bytes = [0u8; N];
        bytes[..len].copy_from_slice(&raw[1..=len]);
        FixedLabel {
            len: len as u8,
            bytes,
        }
    }
    fn json(self) -> JsonValue {
        self.as_str().into()
    }
}

/// One row of the event table, as [`Event::KINDS`] lists it.
#[derive(Debug, Clone, Copy)]
pub struct EventKind {
    /// The ring record's kind word. Process-internal: rings are never
    /// persisted, so codes carry no format version.
    pub code: u64,
    /// The [`Event`] variant's name.
    pub variant: &'static str,
    /// What [`Event::kind`] returns for the variant.
    pub kind: &'static str,
    /// The variant's field names, in declaration order.
    pub fields: &'static [&'static str],
}

// One table — a row per variant: doc, ring code, `Variant`, "kind-name",
// `{ documented fields }` — is the `Event` enum, `Event::KINDS`, `kind()`,
// the ring encoding both ways and the export's `args()`. Fields pack into
// the four payload words in declaration order; a row that needs a fifth
// word fails to compile. A field named `nanos` is the duration of a span
// that ends at the event's timestamp: the Chrome exporter draws it.
macro_rules! events {
    ($($(#[$doc:meta])* $code:literal $variant:ident $kind:literal {
        $($(#[$fdoc:meta])* $field:ident: $ty:ty,)*
    })*) => {
        /// The typed event taxonomy (DESIGN.md §10). All variants are POD.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Event {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
        }

        $(const _: () = assert!(
            0 $(+ <$ty as Field>::WORDS)* <= 4,
            concat!(stringify!($variant), " does not fit the four payload words")
        );)*

        impl Event {
            /// Every row of the event table, in declaration order.
            pub const KINDS: &'static [EventKind] = &[$(EventKind {
                code: $code,
                variant: stringify!($variant),
                kind: $kind,
                fields: &[$(stringify!($field)),*],
            },)*];

            /// Short kind name, stable for log processing.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $kind,)*
                }
            }

            /// The event's fields as `(name, JSON value)`, in declaration
            /// order: the `args` of an exported record.
            pub fn args(&self) -> Vec<(&'static str, JsonValue)> {
                match *self {
                    $(Event::$variant { $($field),* } => {
                        vec![$((stringify!($field), $field.json())),*]
                    })*
                }
            }

            pub(crate) fn encode(&self) -> (u64, [u64; 4]) {
                let mut p = Payload { words: [0; 4], at: 0 };
                let code = match *self {
                    $(Event::$variant { $($field),* } => {
                        $($field.put(&mut p);)*
                        $code
                    })*
                };
                (code, p.words)
            }

            /// Defensive inverse of `encode`: an unknown code decodes to
            /// `None` and is skipped by [`snapshot`]; any payload words
            /// decode to *some* event of a known code.
            pub(crate) fn decode(code: u64, words: [u64; 4]) -> Option<Event> {
                let mut p = Payload { words, at: 0 };
                Some(match code {
                    $($code => Event::$variant { $($field: Field::take(&mut p)),* },)*
                    _ => return None,
                })
            }
        }
    };
}

events! {
    /// A stop-the-world GC pause is starting (`managed-heap` collector).
    1 GcPauseBegin "gc-pause-begin" {
        /// True for a major (full-heap) cycle.
        major: bool,
    }
    /// A stop-the-world GC pause ended.
    2 GcPauseEnd "gc-pause-end" {
        /// True for a major (full-heap) cycle.
        major: bool,
        /// Pause duration in nanoseconds.
        nanos: u64,
        /// Objects traced during the pause.
        traced: u64,
        /// Objects swept (0 for non-final incremental slices).
        swept: u64,
    }
    /// The global epoch advanced (§3.4).
    3 EpochAdvance "epoch-advance" {
        /// The new global epoch.
        epoch: u64,
    }
    /// A compaction pass selected its source candidates (§5.2 select).
    4 CompactionSelect "compaction-select" {
        /// Memory-context id running the pass.
        context: u64,
        /// Low-occupancy blocks chosen as relocation sources.
        candidates: u64,
    }
    /// A compaction pass finished its moving phase (§5.1 relocate).
    5 CompactionRelocate "compaction-relocate" {
        /// Memory-context id running the pass.
        context: u64,
        /// Objects moved to destination blocks.
        moved: u64,
        /// Relocations bailed out by readers (§5.1 case b).
        bailed: u64,
        /// Moving-phase duration in nanoseconds.
        nanos: u64,
    }
    /// A compaction pass retired its emptied source blocks (§5.2 retire).
    6 CompactionRetire "compaction-retire" {
        /// Memory-context id running the pass.
        context: u64,
        /// Fully-emptied source blocks retired to the graveyard path.
        retired: u64,
    }
    /// One object was relocated (by the compaction thread or a helping
    /// reader, §5.1 case c).
    7 ObjectRelocated "object-relocated" {
        /// Source slot within the source block.
        src_slot: u64,
        /// Destination slot within the group's destination block.
        dest_slot: u64,
    }
    /// A reader bailed a scheduled relocation out (§5.1 case b).
    8 RelocationBailed "relocation-bailed" {
        /// Source slot whose move was cancelled.
        src_slot: u64,
    }
    /// A seeded failpoint fired ([`FaultInjector`](../../smc_memory/fault)).
    10 FailpointTrip "failpoint-trip" {
        /// Site name (e.g. `block-alloc`, `relocation`).
        site: Label,
    }
    /// A parallel-scan worker claimed a morsel.
    11 MorselDispatch "morsel-dispatch" {
        /// Worker index within its pool.
        worker: u64,
        /// Index of the morsel within the scan's snapshot.
        morsel: u64,
    }
    /// A worker pool finished broadcasting one job to all workers.
    12 PoolBroadcast "pool-broadcast" {
        /// Worker count.
        threads: u64,
        /// Wall time of the broadcast in nanoseconds.
        nanos: u64,
    }
    /// A traced span (e.g. one TPC-H query execution) completed.
    13 QuerySpan "query-span" {
        /// Span label (e.g. `smc.q1`).
        label: Label,
        /// Span duration in nanoseconds.
        nanos: u64,
    }
    /// The maintenance coordinator dispatched a compaction pass.
    14 MaintPassStart "maint-pass-start" {
        /// Memory-context id the pass targets.
        context: u64,
        /// Why the pass was started: `sparse` (two or more blocks under the
        /// occupancy cutoff) or `nudge`.
        reason: Label,
    }
    /// A coordinator-driven compaction pass finished.
    15 MaintPassEnd "maint-pass-end" {
        /// Memory-context id the pass targeted.
        context: u64,
        /// Objects moved by the pass.
        moved: u64,
        /// Relocations rolled back through the bail path.
        bailed: u64,
        /// Outcome class (`done`, `retry`, `cancel`, `abort`).
        outcome: ShortLabel,
    }
    /// The coordinator deferred a due pass because the foreground scan SLO
    /// is breached (back-pressure).
    16 MaintDeferred "maint-deferred" {
        /// Memory-context id whose pass was deferred.
        context: u64,
        /// Observed foreground p99 scan latency in nanoseconds.
        p99_ns: u64,
        /// The configured SLO ceiling in nanoseconds.
        slo_ns: u64,
    }
    /// The coordinator's SLO state flipped (breached or recovered).
    17 MaintSloState "maint-slo-state" {
        /// True when entering the breached (back-pressure) state.
        breached: bool,
        /// Observed foreground p99 scan latency in nanoseconds.
        p99_ns: u64,
    }
    /// A block was evicted to the page store (the spill rung of a context's
    /// budget gate; persistence tier).
    18 BlockSpilled "block-spilled" {
        /// Memory-context id that spilled the block.
        context: u64,
        /// Id of the spilled block.
        block_id: u64,
    }
    /// A spilled page was brought back to residency (into a fresh block).
    19 BlockFaulted "block-faulted" {
        /// Memory-context id that faulted the page in.
        context: u64,
        /// Id of the originally-spilled block.
        block_id: u64,
        /// Fault-in duration in nanoseconds (store read through repoint).
        nanos: u64,
    }
    /// A crash-consistent snapshot generation was published (`smc-persist`).
    20 SnapshotWritten "snapshot-written" {
        /// Memory-context id that was snapshotted.
        context: u64,
        /// Pages written to the generation's page file.
        pages: u64,
        /// Total bytes written (pages plus manifest).
        bytes: u64,
        /// Snapshot duration in nanoseconds (walk through rename).
        nanos: u64,
    }
    /// A context was rebuilt from a snapshot directory (`smc-persist`).
    21 RecoveryLoaded "recovery-loaded" {
        /// Memory-context id of the rebuilt context.
        context: u64,
        /// Pages read and verified.
        pages: u64,
        /// Objects re-inserted.
        objects: u64,
        /// Recovery duration in nanoseconds (read through verify).
        nanos: u64,
    }
    /// One stage of a traced request finished on some thread (conn read,
    /// ring wait, shard execution, exec-worker slice). The Chrome exporter
    /// renders these as complete (`X`) spans named `req.<stage>` carrying
    /// the request id, so one request's flow is linkable across `tid`
    /// tracks ([`RequestId`], DESIGN.md §17).
    22 ReqStage "req-stage" {
        /// The originating [`RequestId`] (non-zero).
        req: u64,
        /// Stage name (`conn`, `ring`, `shard`, `exec`).
        stage: ShortLabel,
        /// Stage duration in nanoseconds.
        nanos: u64,
    }
}

/// One event as observed by [`snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TracedEvent {
    /// Global sequence number: a total order across all threads.
    pub seq: u64,
    /// Emitting thread's tracer id (dense, per-process, from 1).
    pub thread: u64,
    /// When the event was emitted, in [`clock::now`] nanoseconds.
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

/// Seqlock-tagged record of 8 atomic words. `tag == 0` means empty,
/// `tag == BUSY` means the owner is writing it, `tag == logical_position + 1`
/// means the words hold the complete record for that position. All accesses
/// are atomic (no UB); a reader validating the tag before and after its
/// word reads either sees a consistent record or skips the slot.
struct SeqSlot {
    tag: AtomicU64,
    words: [AtomicU64; 8],
}

/// The tag of a slot that is being written.
const BUSY: u64 = u64::MAX;

impl SeqSlot {
    /// Writes `words` as the record for logical position `pos`. Only the
    /// ring's owner writes, so plain stores do: mark the slot busy, fence
    /// so no new word is seen before the mark, write the record, then
    /// publish the new tag after every word.
    fn publish(&self, pos: u64, words: [u64; 8]) {
        let late = mutation::enabled(Mutation::BusyAfterWords);
        if !late {
            self.mark_busy();
        }
        for (slot, word) in self.words.iter().zip(words) {
            slot.store(word, Ordering::Relaxed);
        }
        if late {
            self.mark_busy();
        }
        self.tag.store(pos + 1, Ordering::Release);
    }

    fn mark_busy(&self) {
        self.tag.store(BUSY, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// The slot's record decoded, or `None` when it is empty, mid-write,
    /// was overwritten during the read, or holds an unknown event kind.
    fn read_event(&self) -> Option<TracedEvent> {
        let t1 = self.tag.load(Ordering::Acquire);
        if t1 == 0 || t1 == BUSY {
            return None;
        }
        let words = std::array::from_fn(|i| self.words[i].load(Ordering::Relaxed));
        fence(Ordering::SeqCst);
        (self.tag.load(Ordering::Relaxed) == t1)
            .then(|| TracedEvent::from_words(words))
            .flatten()
    }
}

/// One thread's ring of its [`RING_CAPACITY`] most recent records. Only
/// the owning thread pushes, so a push is a load and a store of the head
/// and the slot's stores; it never blocks and overwrites the record a
/// whole ring older.
struct Ring {
    /// Tracer id of the owning thread; a ring handed on to a new thread
    /// takes the new owner's id.
    thread: AtomicU64,
    /// Next logical write position (monotonic; wraps modulo capacity).
    head: AtomicU64,
    slots: Box<[SeqSlot]>,
}

impl Ring {
    fn new() -> Ring {
        let slot = || SeqSlot {
            tag: AtomicU64::new(0),
            words: [const { AtomicU64::new(0) }; 8],
        };
        Ring {
            thread: AtomicU64::new(0),
            head: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| slot()).collect(),
        }
    }

    fn push(&self, words: [u64; 8]) {
        let pos = self.head.load(Ordering::Relaxed);
        self.slots[pos as usize % RING_CAPACITY].publish(pos, words);
        self.head.store(pos + 1, Ordering::Relaxed);
    }

    /// Records lost to wraparound since the ring was made: every push past
    /// the first [`RING_CAPACITY`] overwrote one.
    fn dropped(&self) -> u64 {
        let head = self.head.load(Ordering::Relaxed);
        head.saturating_sub(RING_CAPACITY as u64)
    }
}

/// A standalone ring for the `smc-check` scenarios (checker builds only):
/// its owner pushes records, any thread reads its slots, exactly as the
/// tracer's per-thread rings and [`snapshot`] do.
#[cfg(smc_check)]
pub struct CheckRing(Ring);

#[cfg(smc_check)]
impl Default for CheckRing {
    /// An empty ring of [`RING_CAPACITY`] slots.
    fn default() -> CheckRing {
        CheckRing(Ring::new())
    }
}

#[cfg(smc_check)]
impl CheckRing {
    /// Pushes `record` (owner only), overwriting the record a whole ring
    /// older.
    pub fn push(&self, record: TracedEvent) {
        self.0.push(record.to_words());
    }

    /// The record in slot `i`, as a reader validates it; `None` when the
    /// slot is empty, mid-write or was overwritten during the read.
    pub fn read_slot(&self, i: usize) -> Option<TracedEvent> {
        self.0.slots[i].read_event()
    }
}

/// Whether [`emit`] records. Off means every [`emit`] is a single relaxed
/// load plus one predictable branch — the ≤ 2 ns/op budget the overhead
/// test holds.
static ENABLED: AtomicBool = AtomicBool::new(false);
static SEQ: AtomicU64 = AtomicU64::new(0);
/// Events numbered below this were emitted before the last [`clear`].
static CLEARED: AtomicU64 = AtomicU64::new(0);
/// Tracer thread ids start at 1, so an id of 0 names no tracer thread.
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Every per-thread ring ever made. Rings are never freed: a dump still
/// shows the records of a thread that has exited.
fn registry() -> MutexGuard<'static, Vec<&'static Ring>> {
    static REGISTRY: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());
    REGISTRY.lock()
}

/// Rings whose owning thread has exited, waiting for a new owner.
fn spares() -> MutexGuard<'static, Vec<&'static Ring>> {
    static SPARES: Mutex<Vec<&'static Ring>> = Mutex::new(Vec::new());
    SPARES.lock()
}

/// A thread's hold on its ring. A thread takes a spare ring before it makes
/// one, so the rings number the threads emitting at once, not every thread
/// that ever emitted. The hand-off goes through the spare list's lock,
/// which orders the old owner's last store before the new owner's first.
struct Owner(&'static Ring);

impl Owner {
    fn take() -> Owner {
        let spare = spares().pop();
        let ring = spare.unwrap_or_else(|| {
            let ring: &'static Ring = Box::leak(Box::new(Ring::new()));
            registry().push(ring);
            ring
        });
        let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
        ring.thread.store(thread, Ordering::Relaxed);
        Owner(ring)
    }
}

impl Drop for Owner {
    fn drop(&mut self) {
        spares().push(self.0);
    }
}

thread_local! {
    static LOCAL: Owner = Owner::take();
}

/// Turns tracing on. Emissions before this call were dropped at zero cost.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns tracing off; [`emit`] reverts to the ≤ 2 ns no-op path.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// True while tracing is on.
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Emits one event. When tracing is disabled this is one relaxed load and
/// a branch — no allocation, no clock read, no TLS access.
#[inline]
pub fn emit(event: Event) {
    if is_enabled() {
        emit_enabled(event);
    }
}

#[cold]
fn emit_enabled(event: Event) {
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let nanos = clock::now();
    // `try_with`: emissions during TLS teardown are silently dropped.
    let _ = LOCAL.try_with(|Owner(ring)| {
        let words = TracedEvent {
            seq,
            thread: ring.thread.load(Ordering::Relaxed),
            nanos,
            event,
        }
        .to_words();
        ring.push(words);
    });
}

/// Collects every currently-readable event from every thread's ring,
/// sorted by global sequence number. Non-destructive; slots being
/// overwritten concurrently are skipped, and so are events emitted before
/// the last [`clear`].
pub fn snapshot() -> Vec<TracedEvent> {
    let cleared = CLEARED.load(Ordering::Relaxed);
    let rings = registry().clone();
    let mut out: Vec<TracedEvent> = rings
        .iter()
        .flat_map(|ring| ring.slots.iter().filter_map(SeqSlot::read_event))
        .filter(|t| t.seq >= cleared)
        .collect();
    out.sort_by_key(|t| t.seq);
    out
}

/// Events overwritten by ring wraparound since process start, summed over
/// every ring. A report that claims zero events while this is non-zero
/// lost its whole story to overwrites — `smc-bench` records that
/// combination as the failed check `trace_not_silently_empty`.
pub fn dropped() -> u64 {
    registry().iter().map(|ring| ring.dropped()).sum()
}

/// Per-ring view of [`dropped`]: `(tracer thread id, events overwritten)`
/// for every ring that has dropped at least one event, named by the thread
/// that owns it now (or owned it last). `smc-top` surfaces this so a
/// saturated producer thread is identifiable.
pub fn dropped_by_thread() -> Vec<(u64, u64)> {
    registry()
        .iter()
        .map(|ring| (ring.thread.load(Ordering::Relaxed), ring.dropped()))
        .filter(|&(_, dropped)| dropped > 0)
        .collect()
}

/// Hides every event emitted before the call from later [`snapshot`]s.
/// Intended for quiescent points (between benchmark phases); the rings
/// and their drop counts are untouched, so the owner stays their only
/// writer.
pub fn clear() {
    CLEARED.store(SEQ.load(Ordering::Relaxed), Ordering::Relaxed);
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

/// Emits a [`ReqStage`](Event::ReqStage) span for `id`. `stage` is kept to
/// its first 7 bytes ([`ShortLabel`]). `nanos` is the stage's duration; the
/// event's timestamp marks the stage's end, so the Chrome exporter
/// reconstructs the start as `ts - nanos`.
pub fn emit_stage(id: RequestId, stage: &str, nanos: u64) {
    emit(Event::ReqStage {
        req: id.get(),
        stage: ShortLabel::new(stage),
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
    start: u64,
}

impl<'a> Span<'a> {
    /// Starts a span that only emits a trace event.
    pub fn new(label: impl Into<Label>) -> Span<'static> {
        Span {
            label: label.into(),
            hist: None,
            start: clock::now(),
        }
    }

    /// Starts a span that also records its duration into `hist`.
    pub fn with_histogram(label: impl Into<Label>, hist: &'a Histogram) -> Span<'a> {
        Span {
            label: label.into(),
            hist: Some(hist),
            start: clock::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = clock::now().saturating_sub(self.start);
        if let Some(hist) = self.hist {
            hist.record(nanos);
        }
        emit(Event::QuerySpan {
            label: self.label,
            nanos,
        });
    }
}

/// Tracer state is process-global; tests (here and in [`crate::chrome`])
/// that toggle it serialize on this lock.
#[cfg(test)]
pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_lock as lock;

    /// `f` through the payload words and back.
    fn round_trip<F: Field>(f: F) -> F {
        let mut p = Payload {
            words: [0; 4],
            at: 0,
        };
        f.put(&mut p);
        assert_eq!(p.at, F::WORDS);
        p.at = 0;
        F::take(&mut p)
    }

    #[test]
    fn label_round_trip_and_truncation() {
        let l = Label::new("block-alloc");
        assert_eq!(l.as_str(), "block-alloc");
        assert_eq!(round_trip(l), l);
        let long = Label::new("a-very-long-label-name");
        assert_eq!(long.as_str().len(), 15);
        let multi = Label::new("éééééééé"); // 16 bytes of two-byte chars
        assert_eq!(multi.as_str(), "ééééééé");
        assert_eq!(round_trip(multi), multi);
        let short = ShortLabel::new("exec-worker");
        assert_eq!(short.as_str(), "exec-wo");
        assert_eq!(round_trip(short), short);
        // 'é' is bytes 6..8: the cut falls back to the boundary before it.
        assert_eq!(ShortLabel::new("abcdefé").as_str(), "abcdef");
        assert_eq!(round_trip(ShortLabel::EMPTY).as_str(), "");
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
            emit(Event::CompactionSelect {
                context: 9,
                candidates: 3,
            });
        });
        t.join().unwrap();
        let found = snapshot().iter().any(|t| {
            matches!(
                t.event,
                Event::CompactionSelect {
                    context: 9,
                    candidates: 3
                }
            )
        });
        disable();
        assert!(found, "event from a dead thread must survive in its ring");
    }

    #[test]
    fn exited_threads_hand_their_rings_to_the_next_thread() {
        let _g = lock();
        enable();
        clear();
        let rings_before = registry().len();
        for i in 0..200u64 {
            let emit_once = move || {
                emit(Event::MorselDispatch {
                    worker: 0x5a4e,
                    morsel: i,
                })
            };
            std::thread::spawn(emit_once).join().unwrap();
        }
        let rings_made = registry().len() - rings_before;
        let mine: Vec<TracedEvent> = snapshot()
            .into_iter()
            .filter(|t| matches!(t.event, Event::MorselDispatch { worker: 0x5a4e, .. }))
            .collect();
        disable();
        assert!(
            rings_made <= 2,
            "200 threads in turn made {rings_made} rings"
        );
        assert_eq!(mine.len(), 200, "every record outlives its thread");
        let threads: std::collections::BTreeSet<u64> = mine.iter().map(|t| t.thread).collect();
        assert_eq!(threads.len(), 200, "each thread emitted under a fresh id");
    }

    #[test]
    fn every_table_row_round_trips() {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut arbitrary = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (i, row) in Event::KINDS.iter().enumerate() {
            assert!(
                Event::KINDS[..i]
                    .iter()
                    .all(|r| r.code != row.code && r.kind != row.kind && r.variant != row.variant),
                "{row:?} repeats an earlier row"
            );
            let mut payloads = vec![[0; 4], [u64::MAX; 4], [1, 2, 3, 4]];
            payloads.extend((0..32).map(|_| std::array::from_fn(|_| arbitrary())));
            for words in payloads {
                // Any words decode to an event of the row's variant, and
                // that event survives the ring unchanged: encoding only
                // normalises what a torn record could hold (a bool word
                // above 1, a label length past its bytes).
                let e = Event::decode(row.code, words).expect(row.variant);
                assert_eq!(e.kind(), row.kind);
                let names: Vec<&str> = e.args().iter().map(|&(name, _)| name).collect();
                assert_eq!(names, row.fields, "{}", row.variant);
                assert!(format!("{e:?}").starts_with(row.variant), "{e:?}");
                let (code, normal) = e.encode();
                assert_eq!(code, row.code);
                assert_eq!(Event::decode(code, normal), Some(e), "{words:x?}");
                assert_eq!(e.encode(), (code, normal));
            }
        }
        let unused = Event::KINDS.iter().map(|r| r.code).max().unwrap() + 1;
        // Code 9 belonged to a retired row and stays unassigned.
        for code in [0, 9, unused, 999, u64::MAX] {
            assert_eq!(Event::decode(code, [0; 4]), None);
        }
    }

    #[test]
    fn a_reader_racing_the_owner_sees_only_whole_records() {
        let ring = Ring::new();
        let (passes, done) = (AtomicU64::new(0), AtomicBool::new(false));
        let record = |i: u64| TracedEvent {
            seq: i,
            thread: i ^ 0x7e,
            nanos: !i,
            event: Event::GcPauseEnd {
                major: true,
                nanos: i << 1,
                traced: i << 2,
                swept: i << 3,
            },
        };
        let pushed = std::thread::scope(|s| {
            let reader = s.spawn(|| {
                while !done.load(Ordering::Relaxed) {
                    for t in ring.slots.iter().filter_map(SeqSlot::read_event) {
                        // All eight words of a record come from one push.
                        assert_eq!(t, record(t.seq), "a torn record");
                    }
                    passes.fetch_add(1, Ordering::Relaxed);
                }
            });
            // At least ten whole rings, and for as long as the reader
            // takes to sweep the ring a thousand times (or fails).
            let mut i = 0;
            while (i < 10 * RING_CAPACITY as u64 || passes.load(Ordering::Relaxed) < 1_000)
                && !reader.is_finished()
            {
                ring.push(record(i).to_words());
                i += 1;
            }
            done.store(true, Ordering::Relaxed);
            reader.join().unwrap();
            i
        });
        let oldest = pushed - RING_CAPACITY as u64;
        assert_eq!(ring.dropped(), oldest);
        let mut kept: Vec<u64> = ring
            .slots
            .iter()
            .filter_map(SeqSlot::read_event)
            .map(|t| t.seq)
            .collect();
        kept.sort_unstable();
        assert!(
            kept.into_iter().eq(oldest..pushed),
            "the newest ring of records"
        );
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

    #[test]
    fn long_stage_names_are_cut_at_a_char_boundary() {
        let _g = lock();
        enable();
        clear();
        let id = RequestId::new(0x57a6e).unwrap();
        emit_stage(id, "exec-worker!", 1); // 12 bytes
        emit_stage(id, "abcdefé-tail", 2); // 'é' straddles byte 7
        let events: Vec<TracedEvent> = snapshot()
            .into_iter()
            .filter(|t| matches!(t.event, Event::ReqStage { req, .. } if req == id.get()))
            .collect();
        disable();
        let stages: Vec<String> = events
            .iter()
            .map(|t| match t.event {
                Event::ReqStage { stage, .. } => stage.as_str().to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(stages, ["exec-wo", "abcdef"]);
        let mut export = crate::chrome::ChromeTrace::new();
        export.add_events(&events);
        let json = export.to_json_string();
        assert!(json.contains("\"req.exec-wo\"") && json.contains("\"req.abcdef\""));
        assert!(!json.contains("\\u0000"), "NUL-padded name: {json}");
    }
}
