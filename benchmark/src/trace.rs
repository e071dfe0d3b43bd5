//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span is opened by the benchmark around one public call (or one batch
//! of identical calls, with the batch size as its `items`), kept in a
//! per-thread buffer, and written out when the run ends: as a Chrome trace
//! and as per-name totals from which the ladder is computed. Nothing inside
//! `crates/` is instrumented. Self time is a span's duration minus the part
//! its child spans cover.
//!
//! Per-name totals count every span; the Chrome trace keeps only the first
//! [`KEEP_PER_THREAD`] spans of a thread so a run of millions of ops stays
//! in memory.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans of one thread kept verbatim for the Chrome trace.
pub const KEEP_PER_THREAD: usize = 100_000;

const NO_PARENT: u32 = u32::MAX;

// A statistic-like flag: it publishes no other data, spans race with a
// toggle harmlessly (one span more or less is traced).
static ENABLED: AtomicBool = AtomicBool::new(false);
static FLUSHED: Mutex<Vec<ThreadSpans>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<ThreadSpans> = RefCell::new(ThreadSpans::default());
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in this thread's buffer.
    parent: u32,
    items: u32,
}

/// Totals of every span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Total {
    pub spans: u64,
    pub items: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Total {
    /// Mean nanoseconds per item.
    pub fn ns_per_item(&self) -> f64 {
        self.total_ns as f64 / self.items.max(1) as f64
    }

    /// Million items per second of span time.
    pub fn mitems_per_s(&self) -> f64 {
        self.items as f64 / 1e6 / (self.total_ns.max(1) as f64 / 1e9)
    }
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    /// Where the finished span will sit in `spans`, if it is kept.
    slot: u32,
}

#[derive(Default)]
struct ThreadSpans {
    thread: String,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, Total>,
    dropped: u64,
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Closes its span when dropped.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    active: bool,
    items: u32,
}

/// Opens a span around one call.
pub fn span(name: &'static str) -> SpanGuard {
    span_items(name, 1)
}

/// Opens a span around `items` identical calls.
pub fn span_items(name: &'static str, items: u32) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            active: false,
            items,
        };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        // Reserve the slot now so children can name their parent.
        let slot = if l.spans.len() < KEEP_PER_THREAD {
            l.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: NO_PARENT,
                items,
            });
            (l.spans.len() - 1) as u32
        } else {
            l.dropped += 1;
            NO_PARENT
        };
        l.open.push(Open {
            name,
            start_ns: now_ns(),
            child_ns: 0,
            slot,
        });
    });
    SpanGuard {
        active: true,
        items,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.open.pop() else { return };
            let dur = end_ns.saturating_sub(open.start_ns);
            let parent = l.open.last_mut().map_or(NO_PARENT, |p| {
                p.child_ns += dur;
                p.slot
            });
            if open.slot != NO_PARENT {
                l.spans[open.slot as usize] = Span {
                    name: open.name,
                    start_ns: open.start_ns,
                    end_ns,
                    parent,
                    items: self.items,
                };
            }
            let t = l.totals.entry(open.name).or_default();
            t.spans += 1;
            t.items += u64::from(self.items);
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(open.child_ns);
        });
    }
}

/// Hands the calling thread's spans to the collector. Every thread that
/// opened spans calls this before it ends.
pub fn flush_thread() {
    let mut mine = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    if mine.spans.is_empty() && mine.totals.is_empty() {
        return;
    }
    mine.thread = std::thread::current()
        .name()
        .unwrap_or("unnamed")
        .to_string();
    FLUSHED
        .lock()
        .expect("no thread panics while flushing spans")
        .push(mine);
}

/// Everything recorded by the threads flushed so far.
pub struct Collected {
    threads: Vec<ThreadSpans>,
}

/// Takes what has been flushed (the caller's own spans included).
pub fn collect() -> Collected {
    flush_thread();
    let threads = std::mem::take(
        &mut *FLUSHED
            .lock()
            .expect("no thread panics while flushing spans"),
    );
    Collected { threads }
}

impl Collected {
    /// Per-name totals over all threads.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for t in &self.threads {
            for (name, tot) in &t.totals {
                let o = out.entry(name).or_default();
                o.spans += tot.spans;
                o.items += tot.items;
                o.total_ns += tot.total_ns;
                o.self_ns += tot.self_ns;
            }
        }
        out
    }

    #[cfg(test)]
    pub fn total(&self, name: &str) -> Total {
        self.totals().get(name).copied().unwrap_or_default()
    }

    /// Spans left out of the Chrome trace (they still count in the totals).
    pub fn dropped(&self) -> u64 {
        self.threads.iter().map(|t| t.dropped).sum()
    }

    /// Writes the kept spans in Chrome's Trace Event Format: one track per
    /// thread, complete (`X`) events in start order, parents before their
    /// children.
    pub fn write_chrome(
        &self,
        path: &Path,
        workload: usize,
        workload_name: &str,
    ) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"traceEvents\":[\n{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"smc-benchmark {workload_name}\"}}}}"
        )?;
        for (i, t) in self.threads.iter().enumerate() {
            let tid = i + 1;
            write!(
                out,
                ",\n{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.thread.replace(['"', '\\'], "_")
            )?;
            let mut order: Vec<usize> = (0..t.spans.len())
                .filter(|&i| t.spans[i].end_ns != 0)
                .collect();
            order.sort_by_key(|&i| (t.spans[i].start_ns, std::cmp::Reverse(t.spans[i].end_ns)));
            for i in order {
                let s = &t.spans[i];
                write!(
                    out,
                    ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"id\":{i},\"parent\":{},\"items\":{},\"workload\":{workload}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    (s.end_ns - s.start_ns) as f64 / 1e3,
                    if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                    s.items,
                )?;
            }
        }
        writeln!(out, "\n],\"displayTimeUnit\":\"ns\"}}")?;
        out.flush()
    }
}

/// Tests that record or collect spans hold this: the recorder is one per
/// process.
#[cfg(test)]
pub static SERIAL: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the enable flag and the collector are process-wide.
    #[test]
    fn spans_nest_total_and_export() {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _off = span("ignored");
        }
        assert!(collect().totals().is_empty());

        set_enabled(true);
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            for _ in 0..3 {
                let _inner = span_items("inner", 10);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let worker = std::thread::Builder::new()
            .name("worker".into())
            .spawn(|| {
                {
                    let _s = span("inner");
                }
                flush_thread();
            })
            .unwrap();
        worker.join().unwrap();
        set_enabled(false);

        let got = collect();
        let outer = got.total("outer");
        let inner = got.total("inner");
        assert_eq!((outer.spans, outer.items), (1, 1));
        assert_eq!((inner.spans, inner.items), (4, 31));
        assert!(outer.total_ns >= 5_000_000);
        // Self time excludes the three children.
        assert!(outer.self_ns >= 2_000_000 && outer.self_ns < outer.total_ns - 2_900_000);
        assert_eq!(inner.total_ns, inner.self_ns);
        assert_eq!(got.dropped(), 0);

        let dir =
            std::env::temp_dir().join(format!("smc-benchmark-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        got.write_chrome(&path, 2, "embed_churn").unwrap();
        let doc = smc_obs::JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 5);
        // The parent comes before its children on its track, and they point
        // at it. (The worker's track was flushed first.)
        let name =
            |e: &smc_obs::JsonValue| e.get("name").and_then(|n| n.as_str()).map(String::from);
        let arg = |e: &smc_obs::JsonValue, k: &str| e.get("args").unwrap().get(k).unwrap().as_f64();
        let at = xs
            .iter()
            .position(|e| name(e).as_deref() == Some("outer"))
            .unwrap();
        assert_eq!(at, 1);
        assert_eq!(arg(xs[at], "parent"), Some(-1.0));
        for child in &xs[at + 1..] {
            assert_eq!(name(child).as_deref(), Some("inner"));
            assert_eq!(arg(child, "parent"), arg(xs[at], "id"));
            assert_eq!(arg(child, "workload"), Some(2.0));
            assert!(child.get("ts").unwrap().as_f64() > xs[at].get("ts").unwrap().as_f64());
        }
    }
}
