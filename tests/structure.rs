//! The structure guards. Each test pins a design decision that made one
//! implementation the only one (ROADMAP aim 2) by what the tree must or must
//! not contain, one test per guard, named after it.
//!
//! The helpers fail closed: a path, a file or a range start that is missing
//! panics and names it, so a guard cannot pass because what it reads moved.
//! A pattern is `|`-separated substrings; [`bounded`] adds grep's `\b` edges.

use std::fmt::Display;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");
const CI: &str = ".github/workflows/ci.yml";
/// Spells out every pattern the guards forbid, so no walk reads it.
const THIS_FILE: &str = "tests/structure.rs";

fn read(path: &str) -> String {
    let bytes = std::fs::read(Path::new(ROOT).join(path));
    String::from_utf8_lossy(&bytes.unwrap_or_else(|e| panic!("{path}: {e}"))).into_owned()
}

/// Every file under the repo-relative `roots` (a root may be a file itself),
/// sorted; `*.rs` only when `rs_only`. Skips `target/` and `.git/`, symbolic
/// links below a root, and this file.
fn walk<S: AsRef<str>>(roots: &[S], rs_only: bool) -> Vec<String> {
    fn visit(path: String, rs_only: bool, files: &mut Vec<String>) {
        let full = Path::new(ROOT).join(&path);
        if !full.is_dir() {
            if (!rs_only || path.ends_with(".rs")) && path != THIS_FILE {
                files.push(path);
            }
            return;
        }
        for entry in std::fs::read_dir(&full).unwrap_or_else(|e| panic!("{path}: {e}")) {
            let entry = entry.unwrap_or_else(|e| panic!("{path}: {e}"));
            let name = entry.file_name().to_string_lossy().into_owned();
            let kind = entry.file_type().unwrap_or_else(|e| panic!("{path}: {e}"));
            if kind.is_file() || kind.is_dir() && name != "target" && name != ".git" {
                let child = format!("{path}/{name}");
                visit(child.trim_start_matches("./").into(), rs_only, files);
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        let root = root.as_ref().trim_end_matches('/');
        assert!(Path::new(ROOT).join(root).exists(), "{root}: no such path");
        visit(root.to_string(), rs_only, &mut files);
    }
    files.sort();
    files
}

/// `crates/*/`, as the shell expands it.
fn crate_dirs() -> Vec<String> {
    let entries = std::fs::read_dir(Path::new(ROOT).join("crates")).expect("crates/");
    let mut dirs: Vec<_> = (entries.map(|e| e.expect("crates/").file_name()))
        .map(|name| format!("crates/{}/", name.to_string_lossy()))
        .filter(|dir| Path::new(ROOT).join(dir).is_dir())
        .collect();
    assert!(!dirs.is_empty(), "crates/ holds no crate");
    dirs.sort();
    dirs
}

/// `crates/*/src`, as the shell expands it.
fn crate_srcs() -> Vec<String> {
    let srcs = crate_dirs().into_iter().map(|dir| dir + "src");
    srcs.filter(|src| Path::new(ROOT).join(src).is_dir())
        .collect()
}

/// `ls dir/head*tail`.
fn ls(dir: &str, head: &str, tail: &str) -> Vec<String> {
    let mut files = walk(&[dir], false);
    files.retain(|f| {
        let name = &f[dir.len() + 1..];
        name.starts_with(head) && name.ends_with(tail) && !name.contains('/')
    });
    files
}

/// `path:line:text` for every line of `files` that `hit` accepts, as
/// `grep -n` prints it.
fn grep<S: AsRef<str>>(files: &[S], hit: impl Fn(&str) -> bool) -> Vec<String> {
    let mut hits = Vec::new();
    for file in files.iter().map(AsRef::as_ref) {
        for (i, line) in read(file).lines().enumerate().filter(|(_, l)| hit(l)) {
            hits.push(format!("{file}:{}:{line}", i + 1));
        }
    }
    hits
}

/// `grep -rn pattern roots`.
fn grep_r<S: AsRef<str>>(pattern: &str, roots: &[S]) -> Vec<String> {
    grep(&walk(roots, false), any_of(pattern))
}

/// Whether a line holds one of `pattern`'s `|`-separated substrings.
fn any_of(pattern: &str) -> impl Fn(&str) -> bool + '_ {
    move |line| pattern.split('|').any(|needle| line.contains(needle))
}

fn word(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whether `needle` occurs in `line` within grep's `\b` edges: where the
/// needle starts (ends) with a word character, the character before (after)
/// it is not one.
fn bounded(line: &str, needle: &str) -> bool {
    let open = |edge: Option<char>, side: Option<char>| {
        !(edge.is_some_and(word) && side.is_some_and(word))
    };
    line.match_indices(needle).any(|(at, _)| {
        let after = line[at + needle.len()..].chars().next();
        open(needle.chars().next(), line[..at].chars().next_back())
            && open(needle.chars().next_back(), after)
    })
}

/// The lines `sed -n '/start/,/end/p' path` prints: from each line holding
/// `start` through the next later line holding `end`. Panics if no line
/// holds `start`, or if a range never closes (sed would print to the end).
fn range(path: &str, start: &str, end: &str) -> Vec<String> {
    sed_range(&read(path), start, end).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn sed_range(text: &str, start: &str, end: &str) -> Result<Vec<String>, String> {
    let (mut lines, mut open) = (Vec::new(), false);
    for line in text.lines() {
        if open || line.contains(start) {
            open = !(open && line.contains(end));
            lines.push(line.to_string());
        }
    }
    match (lines.is_empty(), open) {
        (true, _) => Err(format!("no line holds {start:?}")),
        (_, true) => Err(format!("the range from {start:?} never reaches {end:?}")),
        _ => Ok(lines),
    }
}

/// Fails on every line under `roots` that holds a substring of `pattern`.
#[track_caller]
fn forbid<S: AsRef<str>>(pattern: &str, roots: &[S]) {
    none(grep_r(pattern, roots));
}

#[track_caller]
fn none<S: Display>(hits: impl IntoIterator<Item = S>) {
    let hits: Vec<String> = hits.into_iter().map(|h| h.to_string()).collect();
    assert!(hits.is_empty(), "forbidden:\n{}", hits.join("\n"));
}

/// One benchmark stack: correctness oracles are `cargo test`, measurement is
/// benchmark/, and a report binary's own exit code is its gate, so no report
/// baselines or report gate sit beside benchmark/.
#[test]
fn one_benchmark_stack() {
    none(ls("examples", "BENCH_", ".json"));
    // scripts/ is gone: look for it in the whole tree.
    let script = |f: &&String| f.starts_with("scripts/bench_") && f.ends_with(".py");
    none(walk(&["."], false).iter().filter(script));
}

/// One gate language: every gate is Rust that `cargo test` or a binary's exit
/// code runs. The trace gate is smc_obs::chrome::validate, the doc-drift gate
/// is tests/doc_drift.rs: no second language re-derives what Rust declares.
/// This fails if a script or an interpreter call returns.
#[test]
fn one_gate_language() {
    none(walk(&["."], false).iter().filter(|f| f.ends_with(".py")));
    let version = |l: &str, at: usize| l[at + 6..].starts_with(|c: char| c.is_ascii_digit());
    let python = |l: &str| l.match_indices("python").any(|(at, _)| version(l, at));
    none(grep(&[CI], python));
}

/// One figure harness: Figs 6-13 are rows of FIGURES behind the `figures`
/// binary.
#[test]
fn one_figure_harness() {
    let mut bins = ls("crates/bench/src/bin", "fig", ".rs");
    bins.retain(|f| f["crates/bench/src/bin/fig".len()..].starts_with(char::is_numeric));
    none(bins);
}

/// One page codec, one failure registry: a spilled page and a snapshot page
/// are the same bytes behind crates/memory/src/page.rs, and every injected
/// failure is a FaultSite. This fails if either grows a twin again: a second
/// checksum, magic, page writer or store switch.
#[test]
fn one_page_codec() {
    let srcs = crate_srcs();
    assert_eq!(grep_r("fn checksum64(", &srcs).len(), 1);
    assert_eq!(grep_r("const PAGE_MAGIC", &srcs).len(), 1);
    let twins = "begin_page|flush_page|fail_next_store|set_fail_loads";
    forbid(twins, &srcs);
}

/// One event table: the `events!` table in crates/obs/src/trace.rs is the
/// only place an event variant is spelled out, and `trace::Ring` the only
/// ring. This fails if a code constant, a per-variant argument list, the
/// flight recorder's twin ring or the marker that forced `unsafe impl
/// Send/Sync` comes back.
#[test]
fn one_event_table() {
    forbid("const K_", &["crates/obs/src/trace.rs"]);
    forbid("fn instant_args|struct FlightRing", &crate_srcs());
    forbid("unsafe impl", &["crates/obs/src/trace.rs"]);
}

/// One block source: every block is a member of a batch mapped by
/// `block::raw_alloc_blocks` and goes back through `block::raw_dealloc_block`.
/// This fails if a second way to get or return block memory appears: the
/// three libc symbols or a `std::alloc` call anywhere else in the crates, or
/// a second `alloc_zeroed` beside the non-Linux/Miri fallback's.
#[test]
fn one_block_source() {
    const BLOCK: &str = "crates/memory/src/block.rs";
    let sources = walk(&[crate_srcs(), vec!["src".into()]].concat(), true);
    let needles = ["mmap", "munmap", "madvise", "alloc_zeroed", "dealloc("];
    let mut hits = grep(&sources, |l| needles.iter().any(|n| bounded(l, n)));
    hits.retain(|h| !h.starts_with(&format!("{BLOCK}:")));
    none(hits);
    assert_eq!(grep_r("alloc_zeroed(", &[BLOCK]).len(), 1);
    assert_eq!(grep_r("fn mmap(|fn munmap(|fn madvise(", &[BLOCK]).len(), 3);
}

/// One entry path: `IndirectionTable::allocate(slot)` pops the calling thread
/// slot's magazine and there is no locked per-entry path beside it, so `add`
/// takes no lock. This fails if `allocate` takes a shard hint again, or if a
/// lock shows up in the body of `MemoryContext::alloc_with` or `wire_slot`
/// (the range below; the line count proves the range still matches).
#[test]
fn one_entry_path() {
    const TABLE: &str = "crates/memory/src/indirection.rs";
    const CONTEXT: &str = "crates/memory/src/context.rs";
    let allocate = "pub fn allocate(&self, slot: Slot<'_>)";
    assert_eq!(grep_r(allocate, &[TABLE]).len(), 1);
    let hint = |l: &str| {
        l.split_once("fn allocate(")
            .is_some_and(|(_, r)| r.contains("shard_hint"))
    };
    none(grep(&[TABLE], hint));
    let add = range(CONTEXT, "pub fn alloc_with", "fn current_thread_block");
    assert!(add.iter().any(|l| l.contains("fn wire_slot")), "{add:#?}");
    assert!(add.len() > 60, "{} lines", add.len());
    none(add.iter().filter(|l| l.contains(".lock()")));
}

/// One thread-slot handle: every per-thread structure of the memory system
/// (an entry magazine, a block cache, a hot-counter cell, a context's
/// allocation block) is reached through the `epoch::Slot` token the
/// registry hands out, never a raw index. This fails if a function outside
/// `epoch.rs` takes a raw `tid` or `idx` again, if `alloc.rs` declares an
/// `unsafe fn` (the block cache's contract is the token and the owned
/// `RawBlock`), or if the runtime's epoch manager or entry table is a
/// public field again.
#[test]
fn one_thread_slot_handle() {
    let memory = walk(&["crates/memory/src"], true);
    assert!(
        memory.iter().any(|f| f.ends_with("/epoch.rs")),
        "{memory:#?}"
    );
    let others: Vec<&String> = (memory.iter())
        .filter(|f| !f.ends_with("/epoch.rs"))
        .collect();
    none(grep(
        &others,
        any_of("tid: usize|idx: usize|tid: Option<usize>"),
    ));
    none(grep(&["crates/memory/src/alloc.rs"], any_of("unsafe fn")));
    let runtime = ["crates/memory/src/runtime.rs"];
    let fields = "pub(crate) epochs: |pub(crate) indirection: ";
    assert_eq!(grep(&runtime, any_of(fields)).len(), 2, "the fields moved");
    none(grep(&runtime, any_of("pub epochs|pub indirection")));
}

/// One dereference: §5.1's `dereference_object` (the fast path, the spill
/// fault-in retry and cases a–c) and the §6 direct-pointer walk live in
/// `smc-memory`'s `reloc.rs`, and `Ref` and `DirectRef` are typed wrappers
/// of them. This fails if a crate other than `smc-memory` and the checker
/// names a relocation or spill primitive, an incarnation mask or the block
/// mask again, if `refs.rs` imports from `reloc`, `spill` or `incarnation`
/// or names `BlockRef`, or if `reloc` is a public module outside
/// `cfg(smc_check)`.
#[test]
fn one_dereference() {
    let others: Vec<String> = (crate_srcs().into_iter())
        .filter(|src| !["crates/memory/src", "crates/check/src"].contains(&src.as_str()))
        .collect();
    assert!(
        others.contains(&"crates/core/src".to_string()),
        "{others:#?}"
    );
    let internals = "try_move_object|bail_out_relocation|fault_in_tagged|is_spill_tagged\
                     |reloc_list|FLAG_FORWARD|INC_MASK|from_interior_ptr";
    forbid(internals, &others);
    let refs = ["crates/core/src/refs.rs"];
    none(grep(
        &refs,
        any_of("reloc::|spill::|incarnation::|BlockRef"),
    ));
    let lib = read("crates/memory/src/lib.rs");
    let lines: Vec<&str> = lib.lines().collect();
    let public = (1..lines.len()).filter(|&i| lines[i] == "pub mod reloc;");
    let ungated = public.filter(|&i| lines[i - 1] != "#[cfg(smc_check)]");
    none(ungated.map(|i| format!("crates/memory/src/lib.rs:{}:{}", i + 1, lines[i])));
    assert!(
        lines.contains(&"mod reloc;"),
        "reloc is not a private module"
    );
}

/// One spill claim: a spill claims its victim once, marks the claim
/// `SPILLING`, and tags each live entry with plain stores; a free of an
/// object in a block being spilled steps aside. This fails if the per-entry
/// `swing` comes back, or if an entry lock or a read-modify-write counter
/// bump shows up in the body of `try_spill_one_locked` (the range below; the
/// line count proves the range still matches).
#[test]
fn one_spill_claim() {
    forbid("fn swing", &["crates/memory/src"]);
    let file = "crates/memory/src/spill.rs";
    let spill = range(file, "fn try_spill_one_locked", "pub fn fault_in_block");
    assert!(spill.iter().any(|l| l.contains("SPILLING")), "{spill:#?}");
    assert!(spill.len() > 100, "{} lines", spill.len());
    let rmw = any_of("fn swing|.inc().lock(|bump_unlocked");
    none(spill.iter().filter(|l| rmw(l)));
}

/// One spilled-scan path: a scan lists the page directory and snapshots
/// membership under the spill mutex, then walks its list with no lock held,
/// so a `visit` that faults a page in, frees, spills or scans again takes
/// the ordinary path. This fails if the thread-local re-entrancy flag that
/// switched those to other behaviour, or its guard, comes back.
#[test]
fn one_scan_path() {
    forbid("in_spill_scan|SpillScanGuard", &["crates"]);
    let spill = ["crates/memory/src/spill.rs"];
    none(grep(&spill, any_of("thread_local!")));
}

/// One maintenance configuration: `MaintConfig` is the SLO gauge; its
/// ceiling is a constant. One thread starts at most one pass per period, for
/// a context with two blocks the pass would claim; it compacts, and eviction
/// happens on the allocation path only. This fails if a settable pacer,
/// planner period, worker count, pass floor, SLO ceiling, watchdog, second
/// "due" rule or second eviction trigger comes back.
#[test]
fn one_maintenance_configuration() {
    let roots = ["crates", "src", "tests"];
    let settable = "spill_budget_ratio|PassReason::Spill|poll_interval|pacer_capacity";
    forbid(&format!("{settable}|max_concurrent_passes"), &roots);
    let pacer = "TokenBucket|min_interval|p99_ceiling|WATCHDOG_DEADLINE|planner_loop";
    let ceilings = "FRAG_RATIO_CEILING|LIMBO_BYTES_CEILING|SLO_BACKOFF";
    forbid(&format!("{pacer}|{ceilings}"), &roots);
}

/// One maintenance schedule: the coordinator's 125 ms period is the only
/// thing that starts a pass or runs one again, and a context is due exactly
/// when the pass's own packing would form a group. This fails if a nudge, a
/// cancel, a settable SLO ceiling or a pass reason comes back; or the
/// in-pass retry loop's backoff, or a failpoint that fails a planning step
/// or a pass before it starts; or the snapshot counters they fed.
#[test]
fn one_maintenance_schedule() {
    let controls = "fn nudge|set_slo_ceiling|request_compaction_cancel|PassReason";
    let retries = "smc_util::Backoff|struct Backoff|MaintPlan|FaultSite::MaintPass";
    let counters = "passes_retried|passes_cancelled|plan_faults";
    let roots = ["crates", "src", "tests", "examples"];
    forbid(&format!("{controls}|{retries}|{counters}"), &roots);
}

/// One clock: `smc_obs::clock::now` is the one time origin of library code,
/// and a test can hold it still. The two exceptions are the waiter's spin
/// budget (CPU time burnt, documented in util/src/waiter.rs) and the bench
/// binaries' measurements. This fails if a direct clock read or a second
/// origin comes back anywhere else under crates/*/src.
#[test]
fn one_clock() {
    let reads = "Instant::now|SystemTime::now|OnceLock<Instant>|OnceLock<std::time::Instant>";
    let exempt = "crates/obs/src/clock.rs|crates/util/src/waiter.rs|crates/bench/";
    let mut hits = grep(&walk(&crate_srcs(), true), any_of(reads));
    hits.retain(|h| !exempt.split('|').any(|e| h.starts_with(e)));
    none(hits);
}

/// One wire format: a traced frame is `[op | 0x80, id x 8 LE, tenant LE,
/// body]` and an untraced one the same without the flag and the id. This
/// fails if a versioned trace header or the client's negotiation probe comes
/// back.
#[test]
fn one_wire_format() {
    let header = "TRACE_HEADER_VERSION|TRACE_HEADER_LEN|negotiate_tracing|trace_supported";
    forbid(header, &["crates", "src", "tests"]);
}

/// One introspection op: the shard and tenant counters have one encoding,
/// the scrape document's `stats` section, and one server process serves
/// (`smc-serve`, which verifies its own drain). This fails if a binary stats
/// op or its codec comes back, or if smc-loadgen starts a server of its own
/// again.
#[test]
fn one_introspection_op() {
    let ops = "Request::Stats|Op::Stats|StatsBody::encode|StatsBody::decode|fn stats(&mut self";
    forbid(ops, &["crates", "src", "tests"]);
    forbid("Server::start", &["crates/bench/src/bin/smc_loadgen.rs"]);
}

/// One graveyard: memory unlinked at epoch `e` is reusable at `e + 2`
/// (§3.4-3.5). The runtime's graveyard holds every kind of it under one
/// lock, and one drain releases every ripe record. This fails if a second
/// graveyard for stubs, the indirection table's own deferred queue and its
/// drain, or a cap on how much one drain releases comes back.
#[test]
fn one_graveyard() {
    let twins = "stub_graveyard|fn drain_deferred|fn release_at|take(256)";
    forbid(twins, &["crates/memory/src"]);
}

/// One retirement: every block that leaves a context — a pass's emptied
/// source or unused destination, a spill's victim, a dropped context's
/// blocks — goes through `MemoryContext::retire`, which runs the §6 fix-up
/// of every linked holder before it buries them. This fails if the caller
/// protocol (a queue of retired blocks released by hand, the report's list
/// of their bases, a caller-side fix-up scan) comes back, or if a block is
/// buried anywhere but in `retire` and the graveyard itself.
#[test]
fn one_retirement() {
    let roots = ["crates", "src", "tests", "examples"];
    let protocol = "release_retired|pending_retired|retired_bases|fix_direct_refs";
    forbid(protocol, &roots);
    let context = "crates/memory/src/context.rs";
    let text = read(context);
    let at = |needle: &str| {
        let line = text.lines().position(|l| l.contains(needle));
        line.unwrap_or_else(|| panic!("{context}: no line holds {needle:?}")) + 1
    };
    let retire = at("fn retire(")..at("fn fix_links(");
    let graveyard = "crates/memory/src/runtime.rs:";
    let in_retire = |hit: &str| {
        let line = hit
            .strip_prefix(context)
            .and_then(|h| h[1..].split(':').next());
        line.and_then(|l| l.parse().ok())
            .is_some_and(|l: usize| retire.contains(&l))
    };
    let burials = grep_r("Grave::Block|bury_block", &roots);
    assert!(burials.iter().any(|h| in_retire(h)), "{burials:#?}");
    none(
        burials
            .iter()
            .filter(|h| !h.starts_with(graveyard) && !in_retire(h)),
    );
}

/// One locator per object: an indirection entry's payload is the address of
/// the object's slot-header incarnation cell in both layouts, so one header
/// stride maps a slot to its payload and back, and a §6 direct pointer
/// checks the word it points at. This fails if a layout branch comes back
/// into `BlockRef`'s locator helpers, if the rows-only twins come back, or
/// if `DirectPtr::resolve` or `EntryRef::to_direct` locates a slot (comment
/// lines are not code; the line counts prove the ranges still match).
#[test]
fn one_locator() {
    forbid(
        "fn slot_inc(|fn slot_of_obj_ptr(",
        &["crates", "src", "tests"],
    );
    let code = |l: &&String| !l.trim_start().starts_with("//");
    let block = "crates/memory/src/block.rs";
    for helper in [
        "fn payload(",
        "fn locate(",
        "fn slot_of_payload(",
        "fn payload_inc(",
    ] {
        let body = range(block, helper, "fn ");
        assert!(body.len() > 2, "{helper}: {body:#?}");
        none(
            body.iter()
                .filter(code)
                .filter(|l| l.contains("is_columnar")),
        );
    }
    let reloc = "crates/memory/src/reloc.rs";
    for fast_path in ["pub unsafe fn resolve(&self, guard", "pub fn to_direct("] {
        let body = range(reloc, fast_path, "fn ");
        assert!(body.len() > 4, "{fast_path}: {body:#?}");
        none(body.iter().filter(code).filter(|l| l.contains("locate(")));
    }
}

/// One epoch gate: a compaction pass pins at `e` for its whole life, so the
/// §3.4 advance condition already refuses every other advancer once the
/// global epoch reaches `e + 1`, which is §5.1's "no other but the
/// compaction thread can increment the global epoch". This fails if an
/// advance reservation comes back, if the lazy advance
/// (`Runtime::advance_and_drain`) tests the relocation epoch again (the
/// line count proves the range still matches), or if a type other than the
/// epoch manager grows a forwarder of the §5.1 relocation flags.
#[test]
fn one_epoch_gate() {
    let memory = ["crates/memory/src"];
    forbid("reserved_by|reserve_advance|release_advance", &memory);
    let runtime = "crates/memory/src/runtime.rs";
    let drain = range(runtime, "fn advance_and_drain(", "fn ");
    assert!(drain.len() > 4, "{drain:#?}");
    none(drain.iter().filter(|l| l.contains("relocation_epoch")));
    let others: Vec<String> = (walk(&memory, true).into_iter())
        .filter(|f| !f.ends_with("/epoch.rs"))
        .collect();
    assert!(others.iter().any(|f| f == runtime), "{others:#?}");
    let flags = "fn next_relocation_epoch(|fn in_moving_phase(\
                 |fn set_relocation_epoch(|fn set_moving_phase(";
    none(grep(&others, any_of(flags)));
}

/// One trace sink: the tracer has one switch and one kind of ring, one per
/// emitting thread, written only by its owner; a flight dump writes what the
/// rings hold. This fails if the flight recorder's own ring, its capacity,
/// its mode bit or its switch and snapshot come back.
#[test]
fn one_trace_sink() {
    let flight = "FLIGHT_CAPACITY|MODE_FLIGHT|set_flight_mode|flight::enable|flight::snapshot";
    forbid(flight, &["crates/", "src/", "tests/"]);
}

/// One way out of a compaction pass: every block a pass keeps — a published
/// destination or a source it only partly emptied — re-enters slot-level
/// allocation through `unclaim`, its moved-out slots counted limbo, and a
/// slot's incarnation is reset by the fill that reuses it, not by a walk of
/// the object store when its block is recycled. This fails if a claim is
/// lifted anywhere but in `unclaim`, or if `reuse_at` touches an
/// incarnation word again.
#[test]
fn one_way_out_of_a_pass() {
    let context = "crates/memory/src/context.rs";
    let unclaim = range(context, "fn unclaim(", "fn ");
    let lifts = grep_r("compacting.store(0", &["crates/memory/src"]);
    let in_unclaim = |hit: &String| {
        hit.starts_with(context) && unclaim.iter().any(|l| hit.ends_with(l.as_str()))
    };
    assert!(lifts.iter().any(in_unclaim), "{lifts:#?}");
    none(lifts.iter().filter(|hit| !in_unclaim(hit)));
    let block = "crates/memory/src/block.rs";
    let reuse = range(block, "unsafe fn reuse_at(", "unsafe fn retire(");
    assert!(reuse.len() > 5, "{reuse:#?}");
    none(
        reuse
            .iter()
            .filter(|l| any_of("slot_inc(|payload_inc(|INC_MASK")(l)),
    );
}

/// One budget: a context's `budget_bytes` is the memory system's only
/// budget, and its `acquire_block` the only ladder. This fails if the
/// runtime-wide budget, its setter, its unbudgeted allocation twin, its
/// recovery ladder or the allocator's forced reservation comes back.
#[test]
fn one_budget() {
    let runtime_budget = "with_budget|set_memory_budget|allocate_block_unbudgeted|recover_memory|MAX_ALLOC_ATTEMPTS|force_reserve";
    forbid(runtime_budget, &["crates/", "src/", "tests/", "examples/"]);
}

/// One sync shim: `smc_util::sync` is the workspace's only synchronisation
/// layer (one `Mutex`, one `RwLock`, one hook), and the three protocols
/// outside `smc-memory` — the SPSC rings, the waiter and the trace ring — go
/// through it, so the checker sees them. This fails if one of the three
/// takes a `std` atomic, fence, parker or mutex again (`Ordering` stays
/// allowed; comment lines, doc examples included, are not code), or if
/// `smc-memory`'s old layer, its mutation switchboard or the hook installer
/// named after it comes back.
#[test]
fn one_sync_shim() {
    let protocols = [
        "crates/util/src/spsc.rs",
        "crates/util/src/waiter.rs",
        "crates/obs/src/trace.rs",
    ];
    let direct = |line: &str| {
        let code = !line.trim_start().starts_with("//");
        let atomic =
            (line.replace("std::sync::atomic::Ordering", "")).contains("std::sync::atomic");
        let braced = line.contains("std::sync::{") && any_of("atomic|Mutex")(line);
        let parker_or_mutex = any_of("std::thread::park|std::sync::Mutex")(line);
        code && (atomic || braced || parker_or_mutex)
    };
    none(grep(&protocols, direct));
    let old_layer = "smc_memory::sync|smc_memory::mutation|install_memory_hook";
    forbid(old_layer, &["crates", "src", "tests"]);
    let locks = grep_r("pub struct Mutex<|pub struct RwLock<", &crate_srcs());
    assert_eq!(locks.len(), 2, "{locks:#?}");
}

/// One block cache per thread slot: a freed block stays with the thread that
/// frees it, on a free list that only the slot's holder writes, so its pop
/// and push are plain loads and stores. This fails if the remote return
/// queue, its drain, the tick that ran it, its counter or its mutation comes
/// back, or if a compare-exchange or swap appears in the non-test part of
/// `alloc.rs` (the shared `budgeted` gauge keeps its `fetch_add` and
/// `fetch_sub` on the mapping path).
#[test]
fn one_block_cache() {
    let queue = "push_remote|drain_remote|alloc_maintenance|remote_frees_drained|DropRemoteDrain";
    forbid(queue, &["crates", "src", "tests"]);
    let path = "crates/memory/src/alloc.rs";
    let text = read(path);
    let (shipped, _) =
        (text.split_once("#[cfg(test)]")).unwrap_or_else(|| panic!("{path}: no tests"));
    let rmw = shipped.lines().enumerate();
    let rmw = rmw.filter(|(_, line)| any_of("compare_exchange|swap(")(line));
    none(rmw.map(|(i, line)| format!("{path}:{}:{line}", i + 1)));
}

/// One churn harness: seeded churn under failpoints is tests/seeded_churn.rs,
/// whose configurations replaced the `stress` binary and smc-maint's soak
/// test. This fails if either comes back, as a file or as a declared bin.
#[test]
fn one_churn_driver() {
    assert!(read("tests/seeded_churn.rs").contains("fn churn<"));
    for gone in [
        "crates/bench/src/bin/stress.rs",
        "crates/maint/tests/soak.rs",
    ] {
        assert!(!Path::new(ROOT).join(gone).exists(), "{gone} is back");
    }
    let bins = read("crates/bench/Cargo.toml");
    none(bins.lines().filter(|l| l.trim() == "name = \"stress\""));
}

/// One collection type: the columnar layout (§4.1) is `Smc<T, Columns>`,
/// not a second collection, and the column geometry is computed in one
/// place, the memory layer's `BlockLayout::columnar`, which relocation reads
/// to move a columnar object's cells.
#[test]
fn one_collection() {
    forbid("struct ColumnarSmc", &["crates", "src", "tests"]);
    let geometry = grep_r("fn column_offsets", &["crates", "src", "tests"]);
    assert!(!geometry.is_empty(), "no column geometry at all");
    none(
        geometry
            .iter()
            .filter(|hit| !hit.starts_with("crates/memory/src/block.rs:")),
    );
}

/// Every `pub fn` (`const` and `unsafe` ones too) above the first
/// `#[cfg(test)]` of each of `files`, as `file: pub fn name`.
fn pub_fns(files: &[String]) -> Vec<(String, String)> {
    let mut fns = Vec::new();
    for file in files {
        let text = read(file);
        let code = text.split("#[cfg(test)]").next().unwrap_or_default();
        for keyword in ["pub fn ", "pub const fn ", "pub unsafe fn "] {
            for (at, _) in code.match_indices(keyword) {
                let name = code[at + keyword.len()..].chars().take_while(|&c| word(c));
                fns.push((file.clone(), name.collect()));
            }
        }
    }
    fns
}

/// No dead public surface: a `pub fn` is named in some other source file
/// (a caller, a re-export, a test). The scan is by name, over the code above
/// each file's first `#[cfg(test)]`. The survivors are listed with the
/// reason each stays; this fails if another appears (make it private or
/// `#[cfg(test)]`, or delete it with its test) or if a survivor gains a
/// consumer or goes (drop it from the list).
#[test]
fn no_single_file_pub_fn() {
    const SURVIVORS: [(&str, &str, &str); 1] = [(
        "crates/util/src/sync.rs",
        "fetch_and",
        "the instrumented atomics mirror std's API, so code compiles unchanged in both cfgs",
    )];
    let defining = walk(&["crates", "src", "tests", "examples"], true);
    let naming = walk(
        &["crates", "src", "tests", "examples", "benchmark/src"],
        true,
    );
    let names: Vec<(String, std::collections::HashSet<String>)> = (naming.into_iter())
        .map(|f| {
            let text = read(&f);
            let words = text.split(|c| !word(c)).filter(|w| !w.is_empty());
            let words = words.map(String::from).collect();
            (f, words)
        })
        .collect();
    let named_elsewhere = |(file, name): &(String, String)| {
        (names.iter()).any(|(other, words)| other != file && words.contains(name))
    };
    let mut lonely: Vec<String> = (pub_fns(&defining).iter())
        .filter(|f| !named_elsewhere(f))
        .map(|(file, name)| format!("{file}: pub fn {name}"))
        .collect();
    lonely.sort();
    let listed = SURVIVORS.map(|(file, name, _)| format!("{file}: pub fn {name}"));
    assert_eq!(lonely, listed, "pub fns named in no other file");
}

/// Structure guards have one home, this file: ci.yml grows no "One …" step.
#[test]
fn no_structure_guard_in_ci() {
    let ci = read(CI);
    let names = ci.lines().map(|l| l.trim_start().trim_start_matches("- "));
    let steps: Vec<&str> = names
        .filter_map(|l| Some(l.strip_prefix("name:")?.trim()))
        .collect();
    assert!(steps.len() > 10, "{CI}: only {} named steps", steps.len());
    none(steps.iter().filter(|s| s.starts_with("One ")));
}

/// Every `cargo … test` command of ci.yml, its continuation lines joined, as
/// words; comment lines are skipped.
fn ci_test_commands() -> Vec<Vec<String>> {
    let (mut commands, mut joined) = (Vec::new(), String::new());
    let ci = read(CI);
    for line in ci.lines().map(str::trim).filter(|l| !l.starts_with('#')) {
        joined = joined + line.trim_end_matches('\\') + " ";
        if line.ends_with('\\') {
            continue;
        }
        let words: Vec<String> = joined.split_whitespace().map(String::from).collect();
        joined.clear();
        if let Some(at) = words.iter().position(|w| w == "cargo") {
            let cargo_args = words[at..].split(|w| w == "--").next().unwrap_or_default();
            if cargo_args.iter().any(|w| w == "test") {
                commands.push(words[at..].to_vec());
            }
        }
    }
    commands
}

/// The directory of the workspace package `name`, "" for the root package.
fn package_dir(name: &str) -> String {
    let line = format!("name = \"{name}\"");
    let declares = |dir: &String| read(&format!("{dir}Cargo.toml")).lines().any(|l| l == line);
    let mut dirs = crate_dirs().into_iter().chain([String::new()]);
    let dir = dirs.find(declares);
    dir.unwrap_or_else(|| panic!("no package {name}"))
}

/// The name after every `fn` keyword in `text`.
fn fn_names(text: &str) -> Vec<String> {
    let words: Vec<&str> = text.split(|c| !word(c)).filter(|w| !w.is_empty()).collect();
    let names = words.windows(2).filter(|w| w[0] == "fn");
    names.map(|w| w[1].to_string()).collect()
}

/// A CI test filter that matches no test runs nothing, and the step passes.
/// Every name filter (`--skip` values included) of a ci.yml `cargo test`
/// must be part of some `fn` name in the target it filters: the `--test`
/// file, or the package's `src/` for `--lib`.
#[test]
fn ci_test_filters_name_tests() {
    let (mut checked, mut missing) = (0, Vec::new());
    for command in ci_test_commands() {
        let mut parts = command.split(|w| w == "--");
        let cargo_args = parts.next().unwrap_or_default();
        let (mut filters, mut test_args) = (Vec::new(), parts.flatten());
        while let Some(arg) = test_args.next() {
            if arg == "--skip" {
                filters.extend(test_args.next());
            } else if !arg.starts_with('-') {
                filters.push(arg);
            }
        }
        if filters.is_empty() {
            continue;
        }
        let value = |flag: &str| cargo_args.get(cargo_args.iter().position(|w| w == flag)? + 1);
        let dir = value("-p").map_or_else(String::new, |p| package_dir(p));
        let target = match value("--test") {
            Some(test) => format!("{dir}tests/{test}.rs"),
            None if cargo_args.iter().any(|w| w == "--lib") => format!("{dir}src"),
            None => panic!("cannot tell which target {command:?} filters"),
        };
        let files = walk(&[&target], true);
        let names: Vec<String> = files.iter().flat_map(|f| fn_names(&read(f))).collect();
        for filter in filters {
            checked += 1;
            if !names.iter().any(|n| n.contains(filter.as_str())) {
                missing.push(format!("{filter:?} names no test in {target}"));
            }
        }
    }
    assert!(checked > 0, "{CI}: no test filter found");
    none(missing);
}

#[test]
fn bounded_keeps_grep_word_edges() {
    assert!(!bounded("block::raw_dealloc_block(ptr)", "dealloc("));
    assert!(!bounded("raw_dealloc(ptr)", "dealloc("));
    assert!(bounded("unsafe { std::alloc::dealloc(p, l) }", "dealloc("));
    assert!(bounded("let p = mmap(null, len);", "mmap"));
    assert!(!bounded("fn raw_mmap_batch()", "mmap"));
    assert!(!bounded("mmapped", "mmap"));
    assert!(bounded("mmap", "mmap"));
}

#[test]
fn sed_range_repeats_and_fails_closed() {
    let text = "a\nstart end\nx\nend\nb\nstart\nend\nc\n";
    let ranges = sed_range(text, "start", "end");
    assert_eq!(ranges.unwrap(), ["start end", "x", "end", "start", "end"]);
    let error = |start, end| sed_range(text, start, end).unwrap_err();
    assert_eq!(error("nowhere", "end"), "no line holds \"nowhere\"");
    assert!(error("x", "nowhere").contains("never reaches \"nowhere\""));
}

#[test]
#[should_panic(expected = "no_such_dir: no such path")]
fn a_missing_path_fails_closed() {
    walk(&["crates", "no_such_dir"], false);
}

#[test]
#[should_panic(expected = "no_such_file.rs")]
fn a_missing_file_fails_closed() {
    grep(&["crates/memory/src/no_such_file.rs"], |_| true);
}

#[test]
#[should_panic(expected = "crates/memory/src/spill.rs: no line holds \"fn no_such_fn\"")]
fn a_missing_range_start_fails_closed() {
    range("crates/memory/src/spill.rs", "fn no_such_fn", "}");
}
