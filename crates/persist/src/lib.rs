//! # smc-persist — crash-consistent snapshots and cold-start recovery
//!
//! The paper's collections are an in-memory story; this crate gives them a
//! disk one, page-granular and behind the indirection table, so the
//! in-memory layer keeps its §3 invariants untouched:
//!
//! * **Snapshot** ([`Persist::snapshot_to`]): walks a live collection under
//!   one epoch pin — tolerating concurrent compaction exactly the way
//!   enumeration does (§5.2 group protocol) — and writes its objects into a
//!   generation-numbered page file plus a small text manifest. Every page
//!   carries a [`checksum64`] trailer; the manifest is written to a temporary
//!   name, fsynced, and atomically renamed over the old one, so the rename
//!   is the commit point: a crash at any earlier instant leaves the
//!   previous snapshot fully intact.
//! * **Recovery** ([`Persist::recover_from`]): rebuilds a collection cold
//!   from the manifest + page file, checksum-verifying every page *before*
//!   materializing any of its objects, then reconciling the rebuilt heap
//!   against the manifest's object count and content digest and against
//!   `Smc::verify`. Torn or corrupted files fail closed with the offending
//!   page named — never a partially-populated heap, never a panic.
//! * **Heapfile spill store** ([`SpillFile`]): a
//!   [`PageStore`] over a single file with free-slot
//!   recycling, backing the larger-than-memory tier
//!   (`Smc::enable_spill`) with disk instead of the in-memory test store.
//!   Spill pages are transient working state — they are *not* fsynced and
//!   carry no durability promise; snapshots are the durability story.
//!
//! ## On-disk format
//!
//! `MANIFEST` (text, one `key value` pair per line after the schema line):
//!
//! ```text
//! smc-snapshot/v2
//! generation 3
//! type_id 17316155193394307635
//! obj_size 16
//! pages 12
//! objects 40960
//! digest 9876543210
//! page_file pages-3.dat
//! page_bytes 655744
//! ```
//!
//! `pages-<generation>.dat`: a sequence of pages, numbered from 0, in the
//! one page layout of the second tier — [`smc_memory::page`] defines it, and
//! a spilled block is written in it too. The digest is order-independent (a
//! wrapping sum of per-object [`checksum64`]s), so it can be compared
//! against any enumeration order of the rebuilt collection.
//!
//! The schema line versions the whole directory — manifest keys, page
//! magic and checksum together. A manifest with any other schema line is
//! refused by name ([`PersistError::Format`]), by recovery and by a
//! snapshot into the same directory alike: nothing is written next to a
//! generation this build cannot read.
//!
//! ## Crash matrix
//!
//! Failpoints ([`FaultSite::SnapshotPage`], [`FaultSite::SnapshotManifest`],
//! [`FaultSite::SnapshotRename`]) kill a snapshot at each distinct on-disk
//! state; `tests/recovery_torn.rs` drives all of them plus post-hoc file
//! truncation/corruption and asserts recovery either restores the previous
//! generation bit-exact or reports a clean, named error.

#![warn(missing_docs)]

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;

use smc::Smc;
use smc_memory::block::type_id_of;
use smc_memory::context::ContextConfig;
use smc_memory::fault::FaultSite;
use smc_memory::page::{self, checksum64, PageError, PageHeader, PageWriter, PAGE_HEADER};
use smc_memory::runtime::Runtime;
use smc_memory::spill::{PageStore, SpillIoError};
use smc_memory::sync::Mutex;
use smc_memory::tabular::Tabular;
use smc_obs::clock;

/// First line of every manifest; bumped on incompatible format changes.
const MANIFEST_SCHEMA: &str = "smc-snapshot/v2";
/// Target payload bytes per snapshot page.
const PAGE_TARGET_BYTES: usize = 256 * 1024;
/// Manifest file name inside a snapshot directory.
const MANIFEST: &str = "MANIFEST";

/// Errors from snapshotting, recovery, and the heapfile store.
///
/// Every variant is fail-closed: when one is returned, no partial state
/// escaped — a failed snapshot leaves the previous generation untouched,
/// and a failed recovery returns no collection at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// No manifest exists in the snapshot directory (nothing to recover).
    NoSnapshot,
    /// An I/O operation failed (includes injected snapshot failpoints).
    Io(String),
    /// The manifest or a page header is malformed; the message names the
    /// offending file, line, or page.
    Format(String),
    /// The snapshot stores a different object type or size than `T`.
    TypeMismatch {
        /// Type id recorded in the manifest.
        found: u64,
        /// Type id of the collection being recovered.
        expected: u64,
    },
    /// A page's checksum did not match its contents.
    PageChecksum {
        /// Zero-based index of the rejected page.
        page: u64,
    },
    /// The page file ended before a page was complete.
    PageTruncated {
        /// Zero-based index of the truncated page.
        page: u64,
        /// Bytes the page still needed.
        expected: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// The rebuilt collection's content digest or object count does not
    /// match the manifest.
    DigestMismatch {
        /// Digest recorded in the manifest.
        expected: u64,
        /// Digest recomputed from the rebuilt collection.
        got: u64,
    },
    /// The rebuilt heap failed `Smc::verify` (structural violations).
    Verify(Vec<String>),
    /// An allocation failed while materializing recovered objects.
    Alloc(smc_memory::MemError),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::NoSnapshot => write!(f, "no snapshot manifest found"),
            PersistError::Io(msg) => write!(f, "snapshot i/o failed: {msg}"),
            PersistError::Format(msg) => write!(f, "snapshot format error: {msg}"),
            PersistError::TypeMismatch { found, expected } => write!(
                f,
                "snapshot holds type_id {found} but the collection expects {expected}"
            ),
            PersistError::PageChecksum { page } => {
                write!(
                    f,
                    "page {page}: checksum mismatch (torn or corrupted write)"
                )
            }
            PersistError::PageTruncated {
                page,
                expected,
                got,
            } => write!(
                f,
                "page {page}: truncated ({got} of {expected} bytes present)"
            ),
            PersistError::DigestMismatch { expected, got } => write!(
                f,
                "content digest mismatch: manifest {expected:#x}, rebuilt {got:#x}"
            ),
            PersistError::Verify(violations) => {
                write!(f, "recovered heap failed verification: {violations:?}")
            }
            PersistError::Alloc(e) => write!(f, "allocation failed during recovery: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Outcome of a successful [`Persist::snapshot_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotReport {
    /// Generation number committed (monotonically increasing per directory).
    pub generation: u64,
    /// Pages written.
    pub pages: u64,
    /// Objects captured.
    pub objects: u64,
    /// Total page-file bytes.
    pub bytes: u64,
    /// Wall time of the snapshot walk + write + commit.
    pub nanos: u64,
}

/// Outcome of a successful [`Persist::recover_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Generation that was loaded.
    pub generation: u64,
    /// Pages read and verified.
    pub pages: u64,
    /// Objects materialized.
    pub objects: u64,
    /// Wall time of the load + verification.
    pub nanos: u64,
}

/// Options for [`Persist::recover_opts`]: context tunables plus an optional
/// page store, attached *before* any object is materialized so a recovery
/// into a budget smaller than the dataset rides the spill rung instead of
/// failing with `OutOfMemory`.
#[derive(Default)]
pub struct RecoverOptions {
    /// Context configuration for the rebuilt collection.
    pub config: ContextConfig,
    /// Spill store to attach before loading begins.
    pub store: Option<Arc<dyn PageStore>>,
}

/// Snapshot/recovery extension methods for [`Smc`]. Blanket-implemented;
/// bring the trait into scope and call the methods on any collection.
pub trait Persist<T: Tabular>: Sized {
    /// Writes a crash-consistent snapshot of the collection into `dir`.
    ///
    /// Safe to run live: the walk holds one epoch pin and follows the same
    /// §5.2 protocol as enumeration, so concurrent writers and compaction
    /// passes proceed unhindered (objects added or removed during the walk
    /// may or may not be included — the collection's documented isolation
    /// level). Spilled pages are captured without promoting them.
    ///
    /// The atomic-rename commit guarantees `dir` always holds exactly one
    /// loadable snapshot: the previous one until the instant of the rename,
    /// the new one after.
    ///
    /// ```
    /// use smc_persist::Persist;
    /// let dir = std::env::temp_dir().join(format!("smc-doc-snap-{}", std::process::id()));
    /// let rt = smc_memory::Runtime::new();
    /// let people: smc::Smc<[u64; 2]> = smc::Smc::new(&rt);
    /// for i in 0..100 {
    ///     people.add([i, i * i]);
    /// }
    /// let report = people.snapshot_to(&dir).unwrap();
    /// assert_eq!(report.objects, 100);
    /// assert_eq!(report.generation, 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    fn snapshot_to(&self, dir: impl AsRef<Path>) -> Result<SnapshotReport, PersistError>;

    /// Rebuilds a collection from the snapshot in `dir`, verifying every
    /// page checksum, the manifest's object count and content digest, and
    /// the rebuilt heap's structural invariants before returning it.
    ///
    /// ```
    /// use smc_persist::Persist;
    /// let dir = std::env::temp_dir().join(format!("smc-doc-rec-{}", std::process::id()));
    /// let rt = smc_memory::Runtime::new();
    /// let people: smc::Smc<[u64; 2]> = smc::Smc::new(&rt);
    /// for i in 0..100 {
    ///     people.add([i, i * i]);
    /// }
    /// people.snapshot_to(&dir).unwrap();
    ///
    /// // Cold start: a fresh runtime, nothing in memory.
    /// let rt2 = smc_memory::Runtime::new();
    /// let (recovered, report) = smc::Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap();
    /// assert_eq!(report.objects, 100);
    /// assert_eq!(recovered.len(), 100);
    /// let guard = rt2.pin();
    /// let mut sum = 0;
    /// recovered.for_each(&guard, |o| sum += o[1]);
    /// assert_eq!(sum, (0..100u64).map(|i| i * i).sum());
    /// # drop(guard);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    fn recover_from(
        runtime: &Arc<Runtime>,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), PersistError>;

    /// [`recover_from`](Self::recover_from) with explicit context tunables
    /// and an optional spill store (attached before loading, so recovery
    /// into a budget smaller than the dataset spills instead of failing).
    fn recover_opts(
        runtime: &Arc<Runtime>,
        opts: RecoverOptions,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), PersistError>;
}

impl<T: Tabular> Persist<T> for Smc<T> {
    fn snapshot_to(&self, dir: impl AsRef<Path>) -> Result<SnapshotReport, PersistError> {
        snapshot_impl(self, dir.as_ref())
    }

    fn recover_from(
        runtime: &Arc<Runtime>,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        recover_impl(runtime, RecoverOptions::default(), dir.as_ref())
    }

    fn recover_opts(
        runtime: &Arc<Runtime>,
        opts: RecoverOptions,
        dir: impl AsRef<Path>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        recover_impl(runtime, opts, dir.as_ref())
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

fn snapshot_impl<T: Tabular>(smc: &Smc<T>, dir: &Path) -> Result<SnapshotReport, PersistError> {
    let start = clock::now();
    let runtime = smc.runtime().clone();
    let faults = runtime.faults().clone();
    fs::create_dir_all(dir)?;
    // A manifest this build cannot read (another schema version, rot) still
    // rules the directory: numbering a generation from 1 beside it would
    // rename a new page file over the one it references before our own
    // manifest commits. Refuse by name instead, with nothing touched.
    let previous = match read_manifest(dir) {
        Ok(manifest) => Some(manifest),
        Err(PersistError::NoSnapshot) => None,
        Err(unreadable) => return Err(unreadable),
    };
    // Leftover temporaries from a killed snapshot are dead weight; the
    // committed generation never lives under a .tmp name.
    sweep_temporaries(dir);
    let generation = previous.as_ref().map_or(1, |m| m.generation + 1);
    let obj_size = std::mem::size_of::<T>();
    let per_page = (PAGE_TARGET_BYTES / obj_size.max(1)).max(1);

    let page_name = format!("pages-{generation}.dat");
    let tmp_path = dir.join(format!("{page_name}.tmp"));
    let mut file = File::create(&tmp_path)?;

    // One pinned walk over the live collection — resident blocks, in-flight
    // compaction groups, and spilled pages alike.
    let guard = runtime.pin();
    let mut page_buf = Vec::new();
    let mut page = PageWriter::begin(&mut page_buf, 0, obj_size, per_page);
    let mut pages = 0u64;
    let mut objects = 0u64;
    let mut bytes = 0u64;
    let mut digest = 0u64;
    // Seals the open page, writes it and opens the next.
    let mut flush = |page: &mut PageWriter<'_>| -> Result<(), PersistError> {
        let sealed = page.finish();
        if faults.should_fail(FaultSite::SnapshotPage) {
            // Simulated kill mid-page: write a torn prefix (what a real crash
            // leaves behind) and fail the snapshot.
            file.write_all(&sealed[..sealed.len() / 2])?;
            return Err(PersistError::Io("injected fault at snapshot-page".into()));
        }
        file.write_all(sealed)?;
        bytes += sealed.len() as u64;
        pages += 1;
        page.reopen(pages);
        Ok(())
    };
    let mut io_err: Option<PersistError> = None;
    smc.try_for_each(&guard, |obj| {
        if io_err.is_some() {
            return;
        }
        // SAFETY: `obj` is a live `&T` — `obj_size` readable bytes, plain
        // data by `T: Tabular` — for both the slice and the copy.
        let raw = unsafe { std::slice::from_raw_parts(obj as *const T as *const u8, obj_size) };
        unsafe { page.push(raw.as_ptr()) };
        digest = digest.wrapping_add(checksum64(raw));
        objects += 1;
        if page.records() == per_page {
            io_err = flush(&mut page).err();
        }
    })
    .map_err(PersistError::Alloc)?;
    drop(guard);
    if io_err.is_none() && page.records() > 0 {
        io_err = flush(&mut page).err();
    }
    if let Some(e) = io_err {
        fs::remove_file(&tmp_path).ok();
        return Err(e);
    }
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp_path, dir.join(&page_name))?;

    // Manifest: write-new, fsync, then atomically rename over the old one —
    // the rename is the snapshot's commit point.
    let manifest = Manifest {
        generation,
        type_id: type_id_of::<T>(),
        obj_size: obj_size as u64,
        pages,
        objects,
        digest,
        page_file: page_name.clone(),
        page_bytes: bytes,
    };
    let manifest_tmp = dir.join("MANIFEST.tmp");
    if faults.should_fail(FaultSite::SnapshotManifest) {
        // Simulated kill before the manifest hits disk: the new page file
        // exists but the old manifest still rules the directory.
        return Err(PersistError::Io(
            "injected fault at snapshot-manifest".into(),
        ));
    }
    let mut mf = File::create(&manifest_tmp)?;
    mf.write_all(manifest.render().as_bytes())?;
    mf.sync_all()?;
    drop(mf);
    if faults.should_fail(FaultSite::SnapshotRename) {
        // Simulated kill at the commit point, before the rename happens.
        return Err(PersistError::Io("injected fault at snapshot-rename".into()));
    }
    fs::rename(&manifest_tmp, dir.join(MANIFEST))?;
    sync_dir(dir);

    // The previous generation is superseded; reclaim its page file.
    if let Some(prev) = previous {
        if prev.page_file != manifest.page_file {
            fs::remove_file(dir.join(&prev.page_file)).ok();
        }
    }

    let nanos = clock::now().saturating_sub(start);
    smc_obs::trace::emit(smc_obs::Event::SnapshotWritten {
        context: smc.context().id(),
        pages,
        bytes,
        nanos,
    });
    Ok(SnapshotReport {
        generation,
        pages,
        objects,
        bytes,
        nanos,
    })
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

fn recover_impl<T: Tabular>(
    runtime: &Arc<Runtime>,
    opts: RecoverOptions,
    dir: &Path,
) -> Result<(Smc<T>, RecoveryReport), PersistError> {
    let start = clock::now();
    let manifest = read_manifest(dir)?;
    let expected_type = type_id_of::<T>();
    if manifest.type_id != expected_type {
        return Err(PersistError::TypeMismatch {
            found: manifest.type_id,
            expected: expected_type,
        });
    }
    let obj_size = std::mem::size_of::<T>() as u64;
    if manifest.obj_size != obj_size {
        return Err(PersistError::Format(format!(
            "manifest obj_size {} != size_of::<T>() {}",
            manifest.obj_size, obj_size
        )));
    }

    let path = dir.join(&manifest.page_file);
    let mut file =
        File::open(&path).map_err(|e| PersistError::Io(format!("{}: {e}", manifest.page_file)))?;
    let file_len = file.metadata()?.len();
    if file_len > manifest.page_bytes {
        return Err(PersistError::Format(format!(
            "{}: {} bytes beyond the {} the manifest committed",
            manifest.page_file,
            file_len - manifest.page_bytes,
            manifest.page_bytes
        )));
    }
    if file_len < manifest.page_bytes {
        // The whole-file length check catches truncation before any page is
        // even parsed; the page in which the cut falls is reported below.
        // Pages are near-uniform; walking headers would need the bytes we
        // may not have, so estimate from the average committed page size.
        let cut_page = manifest
            .page_bytes
            .checked_div(manifest.pages)
            .and_then(|avg| file_len.checked_div(avg))
            .map_or(0, |est| est.min(manifest.pages.saturating_sub(1)));
        return Err(PersistError::PageTruncated {
            page: cut_page,
            expected: manifest.page_bytes,
            got: file_len,
        });
    }

    let smc: Smc<T> = Smc::with_config(runtime, opts.config);
    if let Some(store) = opts.store {
        smc.enable_spill(store);
    }

    let mut pages = 0u64;
    let mut objects = 0u64;
    let mut digest = 0u64;
    // One buffer holds the page being read, header first; it grows to the
    // largest page and is never cleared.
    let mut buf = vec![0u8; PAGE_HEADER];
    for page in 0..manifest.pages {
        let refuse = |e: PageError| match e {
            PageError::BadMagic | PageError::Checksum => PersistError::PageChecksum { page },
            other => PersistError::Format(format!("page {page}: {other:?}")),
        };
        if let Err(e) = file.read_exact(&mut buf[..PAGE_HEADER]) {
            return Err(truncated(page, PAGE_HEADER as u64, &e));
        }
        let header = PageHeader::read(&buf[..PAGE_HEADER]).map_err(refuse)?;
        if header.id != page || header.obj_size != obj_size {
            return Err(PersistError::Format(format!(
                "page {page}: header claims index {}, obj_size {}",
                header.id, header.obj_size
            )));
        }
        let len = header
            .page_len()
            .filter(|&len| len as u64 <= manifest.page_bytes)
            .ok_or_else(|| {
                PersistError::Format(format!(
                    "page {page}: implausible object count {}",
                    header.count
                ))
            })?;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        if let Err(e) = file.read_exact(&mut buf[PAGE_HEADER..len]) {
            return Err(truncated(page, (len - PAGE_HEADER) as u64, &e));
        }
        // The checksum over the whole page is verified BEFORE a single
        // object out of it is trusted — fail closed on torn writes.
        for raw in page::decode(&buf[..len], page, obj_size).map_err(refuse)? {
            digest = digest.wrapping_add(checksum64(raw));
            // SAFETY: `raw` holds size_of::<T>() bytes written from a live
            // `T` by the snapshot; `T: Tabular` guarantees plain data.
            let value = unsafe { std::ptr::read_unaligned(raw.as_ptr() as *const T) };
            smc.try_add(value).map_err(PersistError::Alloc)?;
            objects += 1;
        }
        pages += 1;
    }

    if objects != manifest.objects || digest != manifest.digest {
        return Err(PersistError::DigestMismatch {
            expected: manifest.digest,
            got: digest,
        });
    }
    // Structural reconcile: the rebuilt heap must satisfy every §3
    // invariant, and the observatory must agree with the manifest count.
    smc.verify().map_err(PersistError::Verify)?;
    let snap = smc.heap_snapshot();
    let (valid, _, _, _) = snap.totals();
    let spilled: u64 = snap.collections.iter().map(|c| c.spilled_objects).sum();
    if valid + spilled != manifest.objects {
        return Err(PersistError::Verify(vec![format!(
            "heap snapshot counts {valid} resident + {spilled} spilled objects, \
             manifest says {}",
            manifest.objects
        )]));
    }

    let nanos = clock::now().saturating_sub(start);
    smc_obs::trace::emit(smc_obs::Event::RecoveryLoaded {
        context: smc.context().id(),
        pages,
        objects,
        nanos,
    });
    Ok((
        smc,
        RecoveryReport {
            generation: manifest.generation,
            pages,
            objects,
            nanos,
        },
    ))
}

fn truncated(page: u64, expected: u64, e: &std::io::Error) -> PersistError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        PersistError::PageTruncated {
            page,
            expected,
            got: 0,
        }
    } else {
        PersistError::Io(format!("page {page}: {e}"))
    }
}

// ---------------------------------------------------------------------
// Manifest
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Manifest {
    generation: u64,
    type_id: u64,
    obj_size: u64,
    pages: u64,
    objects: u64,
    digest: u64,
    page_file: String,
    page_bytes: u64,
}

impl Manifest {
    fn render(&self) -> String {
        format!(
            "{MANIFEST_SCHEMA}\n\
             generation {}\n\
             type_id {}\n\
             obj_size {}\n\
             pages {}\n\
             objects {}\n\
             digest {}\n\
             page_file {}\n\
             page_bytes {}\n",
            self.generation,
            self.type_id,
            self.obj_size,
            self.pages,
            self.objects,
            self.digest,
            self.page_file,
            self.page_bytes,
        )
    }
}

fn read_manifest(dir: &Path) -> Result<Manifest, PersistError> {
    let path = dir.join(MANIFEST);
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(PersistError::NoSnapshot),
        Err(e) => return Err(PersistError::Io(format!("{MANIFEST}: {e}"))),
    };
    let mut lines = text.lines();
    let schema = lines.next().unwrap_or("");
    if schema != MANIFEST_SCHEMA {
        return Err(PersistError::Format(format!(
            "{MANIFEST}: schema {schema:?} is not {MANIFEST_SCHEMA:?}, the one this build \
             reads and writes; take a fresh snapshot into an empty directory"
        )));
    }
    let mut m = Manifest {
        generation: 0,
        type_id: 0,
        obj_size: 0,
        pages: 0,
        objects: 0,
        digest: 0,
        page_file: String::new(),
        page_bytes: 0,
    };
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else {
            if line.trim().is_empty() {
                continue;
            }
            return Err(PersistError::Format(format!(
                "{MANIFEST}: malformed line {line:?}"
            )));
        };
        let num = || -> Result<u64, PersistError> {
            value
                .trim()
                .parse()
                .map_err(|_| PersistError::Format(format!("{MANIFEST}: bad value for {key}")))
        };
        match key {
            "generation" => m.generation = num()?,
            "type_id" => m.type_id = num()?,
            "obj_size" => m.obj_size = num()?,
            "pages" => m.pages = num()?,
            "objects" => m.objects = num()?,
            "digest" => m.digest = num()?,
            "page_file" => m.page_file = value.trim().to_string(),
            "page_bytes" => m.page_bytes = num()?,
            _ => {} // forward compatibility: ignore unknown keys
        }
    }
    if m.generation == 0 || m.page_file.is_empty() {
        return Err(PersistError::Format(format!(
            "{MANIFEST}: missing generation or page_file"
        )));
    }
    // Page files live next to the manifest; a path that escapes the
    // directory is corruption (or worse), not a snapshot.
    if m.page_file.contains('/') || m.page_file.contains("..") {
        return Err(PersistError::Format(format!(
            "{MANIFEST}: suspicious page_file {:?}",
            m.page_file
        )));
    }
    Ok(m)
}

fn sweep_temporaries(dir: &Path) {
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                fs::remove_file(entry.path()).ok();
            }
        }
    }
}

/// Best-effort directory fsync (makes the manifest rename durable on
/// filesystems that need it; ignored where directories can't be opened).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        d.sync_all().ok();
    }
}

// ---------------------------------------------------------------------
// Heapfile spill store
// ---------------------------------------------------------------------

/// A [`PageStore`] over one file, with free-slot recycling: discarded page
/// slots are reused by later stores of equal-or-smaller size, so a
/// steady-state spill working set does not grow the file without bound.
///
/// Spill pages are transient working state (they die with the process), so
/// writes are **not** fsynced — durability comes from snapshots, not spill.
#[derive(Debug)]
pub struct SpillFile {
    inner: Mutex<SpillFileInner>,
}

#[derive(Debug)]
struct SpillFileInner {
    file: File,
    /// End of the written region (next append offset).
    end: u64,
    /// All slots ever created; index = ticket.
    slots: Vec<SpillSlot>,
    /// Indices of slots available for reuse.
    free: Vec<usize>,
}

#[derive(Debug, Clone, Copy)]
struct SpillSlot {
    offset: u64,
    /// Capacity of the slot (bytes reserved in the file).
    cap: u64,
    /// Live bytes of the current page (0 when free).
    len: u64,
}

impl SpillFile {
    /// Creates (truncating) the heapfile at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<SpillFile> {
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(SpillFile {
            inner: Mutex::new(SpillFileInner {
                file,
                end: 0,
                slots: Vec::new(),
                free: Vec::new(),
            }),
        })
    }

    /// Pages currently stored.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock();
        inner.slots.len() - inner.free.len()
    }

    /// True when no pages are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of file capacity currently reserved (live + recyclable slots).
    pub fn file_bytes(&self) -> u64 {
        self.inner.lock().end
    }
}

impl PageStore for SpillFile {
    fn store_page(&self, _block_id: u64, bytes: &[u8]) -> Result<u64, SpillIoError> {
        let mut inner = self.inner.lock();
        let len = bytes.len() as u64;
        // First free slot large enough; spill pages of one context are
        // near-uniform so first-fit recycles almost perfectly.
        let reuse = inner
            .free
            .iter()
            .position(|&i| inner.slots[i].cap >= len)
            .map(|pos| inner.free.swap_remove(pos));
        let ticket = match reuse {
            Some(i) => {
                inner.slots[i].len = len;
                i
            }
            None => {
                let offset = inner.end;
                inner.end += len;
                inner.slots.push(SpillSlot {
                    offset,
                    cap: len,
                    len,
                });
                inner.slots.len() - 1
            }
        };
        let offset = inner.slots[ticket].offset;
        inner.file.write_all_at(bytes, offset).map_err(|e| {
            // The slot is poisoned-free again; the caller rolls back.
            inner.slots[ticket].len = 0;
            inner.free.push(ticket);
            SpillIoError(format!("spill write at {offset}: {e}"))
        })?;
        Ok(ticket as u64)
    }

    fn load_page(&self, ticket: u64, block_id: u64, out: &mut Vec<u8>) -> Result<(), SpillIoError> {
        let inner = self.inner.lock();
        let slot = *inner
            .slots
            .get(ticket as usize)
            .filter(|s| s.len > 0)
            .ok_or_else(|| {
                SpillIoError(format!("no page at ticket {ticket} (block {block_id})"))
            })?;
        // Not cleared first: the read overwrites every byte kept, so only
        // what the buffer grows by is zeroed.
        out.resize(slot.len as usize, 0);
        inner
            .file
            .read_exact_at(out, slot.offset)
            .map_err(|e| SpillIoError(format!("spill read at {}: {e}", slot.offset)))
    }

    fn discard_page(&self, ticket: u64) {
        let mut inner = self.inner.lock();
        if let Some(slot) = inner.slots.get_mut(ticket as usize) {
            if slot.len > 0 {
                slot.len = 0;
                inner.free.push(ticket as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "smc-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fill(smc: &Smc<[u64; 2]>, n: u64) {
        for i in 0..n {
            smc.add([i, i.wrapping_mul(31)]);
        }
    }

    fn content_sum(rt: &Arc<Runtime>, smc: &Smc<[u64; 2]>) -> (u64, u64) {
        let guard = rt.pin();
        let (mut a, mut b) = (0u64, 0u64);
        smc.for_each(&guard, |o| {
            a = a.wrapping_add(o[0]);
            b = b.wrapping_add(o[1]);
        });
        (a, b)
    }

    #[test]
    fn snapshot_recover_round_trip_bit_exact() {
        let dir = tmpdir("roundtrip");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 10_000);
        let rep = smc.snapshot_to(&dir).unwrap();
        assert_eq!(rep.objects, 10_000);
        assert_eq!(rep.generation, 1);
        assert!(rep.pages >= 1);

        let rt2 = Runtime::new();
        let (rec, rrep) = Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap();
        assert_eq!(rrep.objects, 10_000);
        assert_eq!(rrep.generation, 1);
        assert_eq!(rec.len(), 10_000);
        assert_eq!(content_sum(&rt, &smc), content_sum(&rt2, &rec));
        rec.verify().unwrap();
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_supersede_and_reclaim() {
        let dir = tmpdir("generations");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 100);
        assert_eq!(smc.snapshot_to(&dir).unwrap().generation, 1);
        fill(&smc, 50);
        assert_eq!(smc.snapshot_to(&dir).unwrap().generation, 2);
        // Only the committed generation's page file remains.
        let files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(files.contains(&"pages-2.dat".to_string()), "{files:?}");
        assert!(!files.contains(&"pages-1.dat".to_string()), "{files:?}");
        let rt2 = Runtime::new();
        let (rec, rep) = Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap();
        assert_eq!(rep.generation, 2);
        assert_eq!(rec.len(), 150);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_missing_dir_is_no_snapshot() {
        let rt = Runtime::new();
        let err =
            Smc::<[u64; 2]>::recover_from(&rt, "/nonexistent/smc-persist-nowhere").unwrap_err();
        assert_eq!(err, PersistError::NoSnapshot);
    }

    #[test]
    fn recover_rejects_wrong_type() {
        let dir = tmpdir("wrongtype");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 10);
        smc.snapshot_to(&dir).unwrap();
        let rt2 = Runtime::new();
        let err = Smc::<u64>::recover_from(&rt2, &dir).unwrap_err();
        assert!(matches!(err, PersistError::TypeMismatch { .. }), "{err:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_page_file_fails_closed_with_named_page() {
        let dir = tmpdir("truncate");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 20_000); // several pages
        let rep = smc.snapshot_to(&dir).unwrap();
        assert!(rep.pages >= 2);
        let page_path = dir.join(format!("pages-{}.dat", rep.generation));
        let full = fs::metadata(&page_path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&page_path).unwrap();
        f.set_len(full - 100).unwrap();
        drop(f);
        let rt2 = Runtime::new();
        let err = Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap_err();
        match err {
            PersistError::PageTruncated { expected, got, .. } => {
                assert_eq!(expected, full);
                assert_eq!(got, full - 100);
            }
            other => panic!("want PageTruncated, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn overlong_page_file_is_a_format_error_not_a_truncation() {
        let dir = tmpdir("overlong");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 20_000);
        let rep = smc.snapshot_to(&dir).unwrap();
        let page_path = dir.join(format!("pages-{}.dat", rep.generation));
        let mut f = OpenOptions::new().append(true).open(&page_path).unwrap();
        f.write_all(&[0xa5; 100]).unwrap();
        drop(f);
        // An `Err` carries no collection: nothing was materialized.
        match Smc::<[u64; 2]>::recover_from(&Runtime::new(), &dir).map(|_| ()) {
            Err(PersistError::Format(msg)) => {
                assert!(msg.contains("pages-1.dat: 100 bytes beyond"), "{msg}")
            }
            other => panic!("want Format naming the excess, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn first_page_of_a_page_file_is_the_pinned_layout() {
        // The same bytes `smc_memory::page`'s golden test holds its writer
        // to, here against what `snapshot_to` leaves on disk: four
        // little-endian header words, the objects, the sum of all of it.
        let dir = tmpdir("golden");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        let objs = [[1u64, 10], [2, 20], [3, 30]];
        for obj in objs {
            smc.add(obj);
        }
        smc.snapshot_to(&dir).unwrap();
        let mut want = b"SMCPERS2".to_vec();
        for word in [0u64, 3, 16].iter().chain(objs.iter().flatten()) {
            want.extend_from_slice(&word.to_le_bytes());
        }
        want.extend_from_slice(&checksum64(&want).to_le_bytes());
        assert_eq!(fs::read(dir.join("pages-1.dat")).unwrap(), want);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_sized_objects_round_trip_by_count() {
        let dir = tmpdir("zst");
        let rt = Runtime::new();
        let smc: Smc<[u64; 0]> = Smc::new(&rt);
        for _ in 0..1000 {
            smc.add([]);
        }
        assert_eq!(smc.snapshot_to(&dir).unwrap().objects, 1000);
        let (rec, rep) = Smc::<[u64; 0]>::recover_from(&Runtime::new(), &dir).unwrap();
        assert_eq!((rep.objects, rec.len()), (1000, 1000));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_page_fails_closed_with_named_page() {
        let dir = tmpdir("corrupt");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 20_000);
        let rep = smc.snapshot_to(&dir).unwrap();
        assert!(rep.pages >= 2);
        let page_path = dir.join(format!("pages-{}.dat", rep.generation));
        let mut bytes = fs::read(&page_path).unwrap();
        // Flip one payload byte near the end of the file — inside the last
        // page, clear of its trailing checksum word.
        let idx = bytes.len() - 100;
        bytes[idx] ^= 0xff;
        fs::write(&page_path, &bytes).unwrap();
        let rt2 = Runtime::new();
        let err = Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap_err();
        let last = rep.pages - 1;
        assert_eq!(
            err,
            PersistError::PageChecksum { page: last },
            "corruption in the last page must be named"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_directory_is_refused_by_name_and_left_untouched() {
        // A directory as the previous format left it: the v1 schema line
        // over a page file that happens to carry the name generation 1 of a
        // fresh numbering would pick.
        let dir = tmpdir("v1-refused");
        let v1_manifest = format!(
            "smc-snapshot/v1\ngeneration 1\ntype_id {}\nobj_size 16\npages 1\nobjects 1\n\
             digest 7\npage_file pages-1.dat\npage_bytes 56\n",
            type_id_of::<[u64; 2]>()
        );
        let v1_pages = b"SMCPERS1 and 48 more bytes this build must not overwrite".to_vec();
        fs::write(dir.join(MANIFEST), &v1_manifest).unwrap();
        fs::write(dir.join("pages-1.dat"), &v1_pages).unwrap();

        let named = |err: PersistError| match err {
            PersistError::Format(msg) => {
                assert!(msg.contains("\"smc-snapshot/v1\""), "{msg}");
                assert!(msg.contains(MANIFEST_SCHEMA), "{msg}");
            }
            other => panic!("want Format naming the schema, got {other:?}"),
        };
        let rt = Runtime::new();
        named(
            Smc::<[u64; 2]>::recover_from(&rt, &dir)
                .map(|_| ())
                .unwrap_err(),
        );
        // A snapshot into the same directory refuses the same way, before
        // it creates, renames or sweeps anything.
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 10);
        named(smc.snapshot_to(&dir).unwrap_err());
        assert_eq!(fs::read_to_string(dir.join(MANIFEST)).unwrap(), v1_manifest);
        assert_eq!(fs::read(dir.join("pages-1.dat")).unwrap(), v1_pages);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 2, "nothing was added");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn old_page_magic_under_a_current_manifest_is_a_page_checksum_error() {
        let dir = tmpdir("v1-magic");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 20_000);
        let rep = smc.snapshot_to(&dir).unwrap();
        let page_path = dir.join(format!("pages-{}.dat", rep.generation));
        let mut bytes = fs::read(&page_path).unwrap();
        assert_eq!(&bytes[..8], b"SMCPERS2");
        bytes[7] = b'1';
        fs::write(&page_path, &bytes).unwrap();
        let err = Smc::<[u64; 2]>::recover_from(&Runtime::new(), &dir).unwrap_err();
        assert_eq!(err, PersistError::PageChecksum { page: 0 });
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_captures_spilled_pages_without_promoting() {
        let dir = tmpdir("spilled");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::with_config(
            &rt,
            ContextConfig {
                budget_bytes: Some(smc_memory::BLOCK_SIZE as u64),
                ..ContextConfig::default()
            },
        );
        let store = Arc::new(smc_memory::MemoryPageStore::new());
        assert!(smc.enable_spill(store));
        fill(&smc, 12_000); // several blocks under a one-block budget
        let spilled_before = smc.spilled_blocks();
        assert!(spilled_before >= 2, "dataset must exceed the budget");
        let rep = smc.snapshot_to(&dir).unwrap();
        assert_eq!(rep.objects, 12_000);
        assert_eq!(
            smc.spilled_blocks(),
            spilled_before,
            "snapshot must not promote spilled pages"
        );
        let rt2 = Runtime::new();
        let (rec, _) = Smc::<[u64; 2]>::recover_from(&rt2, &dir).unwrap();
        assert_eq!(rec.len(), 12_000);
        assert_eq!(content_sum(&rt, &smc), content_sum(&rt2, &rec));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_under_budget_spills_into_store() {
        let dir = tmpdir("budgeted");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::new(&rt);
        fill(&smc, 12_000);
        smc.snapshot_to(&dir).unwrap();
        let rt2 = Runtime::new();
        let (rec, rep) = Smc::<[u64; 2]>::recover_opts(
            &rt2,
            RecoverOptions {
                config: ContextConfig {
                    budget_bytes: Some(smc_memory::BLOCK_SIZE as u64),
                    ..ContextConfig::default()
                },
                store: Some(Arc::new(smc_memory::MemoryPageStore::new())),
            },
            &dir,
        )
        .unwrap();
        assert_eq!(rep.objects, 12_000);
        assert!(rec.spilled_blocks() >= 2, "budgeted recovery must spill");
        assert_eq!(content_sum(&rt, &smc), content_sum(&rt2, &rec));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_store_round_trips_and_recycles() {
        let dir = tmpdir("heapfile");
        let sf = SpillFile::create(dir.join("spill.dat")).unwrap();
        let a = sf.store_page(1, b"first page").unwrap();
        let b = sf.store_page(2, b"second one").unwrap();
        assert_eq!(sf.len(), 2);
        let mut out = Vec::new();
        sf.load_page(a, 1, &mut out).unwrap();
        assert_eq!(out, b"first page");
        sf.discard_page(a);
        assert_eq!(sf.len(), 1);
        let end = sf.file_bytes();
        // Same-size store reuses the freed slot: no file growth.
        let c = sf.store_page(3, b"third page").unwrap();
        assert_eq!(sf.file_bytes(), end);
        sf.load_page(c, 3, &mut out).unwrap();
        assert_eq!(out, b"third page");
        sf.load_page(b, 2, &mut out).unwrap();
        assert_eq!(out, b"second one");
        assert!(sf.load_page(99, 9, &mut out).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn spill_file_backs_a_live_collection() {
        let dir = tmpdir("heapfile-live");
        let rt = Runtime::new();
        let smc: Smc<[u64; 2]> = Smc::with_config(
            &rt,
            ContextConfig {
                budget_bytes: Some(smc_memory::BLOCK_SIZE as u64),
                ..ContextConfig::default()
            },
        );
        let sf = Arc::new(SpillFile::create(dir.join("spill.dat")).unwrap());
        assert!(smc.enable_spill(sf.clone()));
        fill(&smc, 12_000);
        assert!(smc.spilled_blocks() >= 2);
        assert!(sf.len() >= 2);
        // Full scan sees every object, spilled ones straight off the file.
        let guard = rt.pin();
        let mut n = 0u64;
        let mut sum = 0u64;
        smc.for_each(&guard, |o| {
            n += 1;
            sum = sum.wrapping_add(o[0]);
        });
        drop(guard);
        assert_eq!(n, 12_000);
        assert_eq!(sum, (0..12_000u64).sum::<u64>());
        smc.verify().unwrap();
        fs::remove_dir_all(&dir).ok();
    }
}
