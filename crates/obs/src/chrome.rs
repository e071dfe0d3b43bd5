//! Chrome `trace_event` export for the seqlock trace rings.
//!
//! [`ChromeTrace`] converts a [`trace::snapshot`] into the Chrome tracing
//! JSON object format (the `{"traceEvents": [...]}` envelope understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev)): paired
//! begin/end events become `B`/`E` duration slices, events that carry their
//! own duration become `X` complete slices, epoch advances become a `C`
//! counter track, and everything else becomes a thread-scoped instant.
//! Each tracer thread maps to its own `tid` track (named via `M` metadata
//! records), timestamps are microseconds with sub-microsecond fractions so
//! nanosecond resolution survives, and the emitted array is sorted by
//! timestamp, ties in the order the records were staged.
//!
//! ## Pairing discipline
//!
//! The rings overwrite their oldest records on wrap, so a `GcPauseEnd` can
//! survive while its `GcPauseBegin` was lost (and vice versa). The exporter
//! therefore re-balances while converting: a matched begin/end pair emits
//! `B` then `E` on the pair's track; an orphaned end synthesizes its `B`
//! from the duration the end event carries; an orphaned begin (a pause
//! still open at snapshot time) is dropped. The output always passes
//! [`validate`], wrapped rings included (a seeded test holds it to that).
//!
//! ```
//! use smc_obs::chrome::ChromeTrace;
//! use smc_obs::trace::{self, Event};
//!
//! trace::enable();
//! trace::emit(Event::EpochAdvance { epoch: 3 });
//! let export = ChromeTrace::from_ring_snapshot();
//! trace::disable();
//! assert!(export.to_json_string().contains("\"traceEvents\""));
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::report::JsonValue;
use crate::trace::{self, Event, TracedEvent};

/// Synthetic process id used for every track (one process per export).
const PID: u64 = 1;

/// The phases the exporter writes, and the only ones [`validate`] accepts.
const PHASES: [&str; 6] = ["M", "B", "E", "X", "i", "C"];

/// What [`validate`] measured in a well-formed trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceShape {
    /// Records on the timeline: every phase but `M` metadata.
    pub timeline: usize,
    /// Distinct `(pid, tid)` tracks the timeline touches.
    pub tracks: usize,
    /// The most tracks one request id's `req.*` spans touch.
    pub widest_flow: usize,
}

/// Checks the structural contract of a Chrome trace document: the
/// `{"traceEvents": [...]}` form; a string `ph` and `name` and integer
/// `pid`/`tid` on every record, and a numeric `ts` on all but `M`; known
/// phases only; non-decreasing `ts` per `(pid, tid)` track; same-name
/// `B`/`E` brackets balanced per track with none left open; a numeric
/// `dur` on every `X`; and every `req.*` record an `X` carrying a positive
/// integer `args.req`, so one request's flow is linkable across tracks.
pub fn validate(doc: &JsonValue) -> Result<TraceShape, String> {
    let records = doc.get("traceEvents").and_then(JsonValue::as_arr);
    let records = records.ok_or("not a trace: no `traceEvents` array")?;
    // (pid, tid) -> (last ts, names of the open `B`s); request id -> tracks
    let mut tracks: BTreeMap<(u64, u64), (f64, Vec<&str>)> = BTreeMap::new();
    let mut flows: BTreeMap<u64, BTreeSet<(u64, u64)>> = BTreeMap::new();
    let mut timeline = 0;
    for (i, r) in records.iter().enumerate() {
        let text = |key| r.get(key)?.as_str().filter(|s| !s.is_empty());
        let (num, int) = (|key| r.get(key)?.as_f64(), |key| r.get(key)?.as_u64());
        let head = (text("ph").filter(|ph| PHASES.contains(ph)), text("name"));
        let ((Some(ph), Some(name)), Some(pid), Some(tid)) = (head, int("pid"), int("tid")) else {
            return Err(format!(
                "record #{i} lacks a known `ph`, `name`, `pid` or `tid`"
            ));
        };
        if ph == "M" {
            continue;
        }
        let bad = |what: &str| format!("record #{i} ({ph} {name:?} on track {pid}/{tid}) {what}");
        let ts = num("ts").ok_or_else(|| bad("has no numeric `ts`"))?;
        timeline += 1;
        let (last, open) = tracks.entry((pid, tid)).or_insert((f64::MIN, Vec::new()));
        if ts < std::mem::replace(last, ts) {
            return Err(bad("goes back in time"));
        }
        match ph {
            "B" => open.push(name),
            "E" if open.pop() != Some(name) => return Err(bad("closes no open same-name `B`")),
            "X" if num("dur").is_none() => return Err(bad("has no numeric `dur`")),
            _ => {}
        }
        if name.starts_with("req.") {
            let req = r.get("args").and_then(|args| args.get("req")?.as_u64());
            let req = req.filter(|&req| req > 0 && ph == "X");
            let req = req.ok_or_else(|| bad("is not an `X` with `args.req` > 0"))?;
            flows.entry(req).or_default().insert((pid, tid));
        }
    }
    if let Some(((pid, tid), (_, open))) = tracks.iter().find(|(_, (_, open))| !open.is_empty()) {
        return Err(format!("track {pid}/{tid} ends with {open:?} still open"));
    }
    let widest_flow = flows.values().map(BTreeSet::len).max().unwrap_or(0);
    Ok(TraceShape {
        timeline,
        tracks: tracks.len(),
        widest_flow,
    })
}

impl TraceShape {
    /// The further rule for a trace another process wrote: a non-empty
    /// timeline, and one request whose spans touch `min_flow` tracks.
    pub fn require(self, min_flow: usize) -> Result<TraceShape, String> {
        if self.timeline == 0 {
            Err("the timeline is empty: the tracer recorded nothing".into())
        } else if self.widest_flow < min_flow {
            Err(format!("no request touches {min_flow} tracks: {self:?}"))
        } else {
            Ok(self)
        }
    }
}

/// One pending output record (pre-serialization, so the builder can sort).
struct Record {
    ts_nanos: u64,
    ph: &'static str,
    name: String,
    tid: u64,
    dur_nanos: Option<u64>,
    args: Vec<(&'static str, JsonValue)>,
}

impl Record {
    fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::obj();
        obj.set("name", self.name.clone());
        obj.set("ph", self.ph);
        obj.set("ts", self.ts_nanos as f64 / 1000.0);
        if let Some(dur) = self.dur_nanos {
            obj.set("dur", dur as f64 / 1000.0);
        }
        obj.set("pid", PID);
        obj.set("tid", self.tid);
        if self.ph == "i" {
            obj.set("s", "t"); // thread-scoped instant
        }
        if !self.args.is_empty() {
            let mut args = JsonValue::obj();
            for (k, v) in &self.args {
                args.set(*k, v.clone());
            }
            obj.set("args", args);
        }
        obj
    }
}

/// Builder for one Chrome tracing JSON document.
#[derive(Default)]
pub struct ChromeTrace {
    records: Vec<Record>,
    tids: Vec<u64>,
    /// Extra top-level document fields (e.g. the flight recorder's
    /// `flightTrigger`), appended after `displayTimeUnit`.
    top_level: Vec<(String, JsonValue)>,
}

impl Default for Record {
    fn default() -> Record {
        Record {
            ts_nanos: 0,
            ph: "i",
            name: String::new(),
            tid: 0,
            dur_nanos: None,
            args: Vec::new(),
        }
    }
}

impl ChromeTrace {
    /// An empty export.
    pub fn new() -> ChromeTrace {
        ChromeTrace::default()
    }

    /// Drains the current [`trace::snapshot`] into a new export, itemizing
    /// any per-ring drop counts as `M` metadata records.
    pub fn from_ring_snapshot() -> ChromeTrace {
        let mut out = ChromeTrace::new();
        out.add_events(&trace::snapshot());
        out.note_dropped(&trace::dropped_by_thread());
        out
    }

    /// Converts already-captured ring events (sorted by `seq`, as
    /// [`trace::snapshot`] returns them) into trace records. A record's
    /// name is the event's kind and its `args` are the event's
    /// [fields](Event::args); an event carrying a `nanos` duration becomes
    /// an `X` span ending at its timestamp, any other an instant. Only the
    /// arms below differ in kind: the GC begin/end pair, the `epoch`
    /// counter, and the two spans named after a label.
    pub fn add_events(&mut self, events: &[TracedEvent]) {
        // `B` records waiting for their end (GC pauses never nest per
        // thread; keep a stack anyway so a torn ring cannot wedge the
        // exporter).
        let mut open: Vec<Record> = Vec::new();
        for t in events {
            self.note_tid(t.thread);
            let mut record = Record {
                ts_nanos: t.nanos,
                name: t.event.kind().to_string(),
                tid: t.thread,
                args: t.event.args(),
                ..Record::default()
            };
            let dur = record
                .args
                .iter()
                .position(|(name, _)| *name == "nanos")
                .and_then(|i| record.args.remove(i).1.as_u64());
            match t.event {
                Event::GcPauseBegin { .. } => {
                    open.push(record);
                    continue;
                }
                Event::GcPauseEnd { major, .. } => {
                    record.ph = "E";
                    record.name = if major {
                        "gc-pause-major".to_string()
                    } else {
                        "gc-pause-minor".to_string()
                    };
                    let mut begin = match open.iter().rposition(|b| b.tid == t.thread) {
                        Some(i) => open.remove(i),
                        // Orphaned end: its begin was overwritten by ring
                        // wrap — synthesize it from the carried duration.
                        None => Record {
                            ts_nanos: t.nanos.saturating_sub(dur.unwrap_or(0)),
                            tid: t.thread,
                            ..Record::default()
                        },
                    };
                    begin.ph = "B";
                    begin.name.clone_from(&record.name);
                    begin.ts_nanos = begin.ts_nanos.min(t.nanos);
                    self.records.push(begin);
                }
                Event::EpochAdvance { .. } => {
                    record.ph = "C";
                    record.name = "epoch".to_string();
                }
                // An unlabelled span keeps its kind as its name.
                Event::QuerySpan { label, .. } if !label.as_str().is_empty() => {
                    record.name = label.as_str().to_string()
                }
                Event::ReqStage { stage, .. } => record.name = format!("req.{stage}"),
                _ => {}
            }
            if let (Some(dur), "i") = (dur, record.ph) {
                record.ph = "X";
                record.ts_nanos = t.nanos.saturating_sub(dur);
                record.dur_nanos = Some(dur);
            }
            self.records.push(record);
        }
        // Orphaned begins (pauses still open at snapshot time) are dropped:
        // emitting an unmatched `B` would fail the balance gate.
    }

    /// Itemizes per-ring drop counts as `M` metadata records (one per
    /// producer thread that lost events to wraparound, named
    /// `trace_events_dropped` on that thread's `tid` track), so a drop
    /// storm names the saturated producer instead of hiding inside one
    /// aggregate counter. Pass [`trace::dropped_by_thread`].
    fn note_dropped(&mut self, per_ring: &[(u64, u64)]) {
        for &(tid, dropped) in per_ring {
            self.note_tid(tid);
            self.records.push(Record {
                ts_nanos: 0,
                ph: "M",
                name: "trace_events_dropped".to_string(),
                tid,
                args: vec![("dropped", JsonValue::from(dropped))],
                ..Record::default()
            });
        }
    }

    /// Sets an extra top-level field on the exported document (e.g. the
    /// flight recorder's dump trigger). Perfetto ignores unknown top-level
    /// keys; the trace gate reads them.
    pub fn set_top_level(&mut self, key: &str, value: JsonValue) {
        if let Some(slot) = self.top_level.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.top_level.push((key.to_string(), value));
        }
    }

    /// Number of records staged for export: the timeline plus the `M`
    /// records of the per-ring drop counts, but not the
    /// `thread_name` records [`to_json`](Self::to_json) adds. The timeline
    /// alone is [`validate`]'s [`TraceShape::timeline`].
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn note_tid(&mut self, tid: u64) {
        if !self.tids.contains(&tid) {
            self.tids.push(tid);
        }
    }

    /// Serializes to the Chrome tracing JSON object format.
    pub fn to_json(&self) -> JsonValue {
        let mut events: Vec<JsonValue> = Vec::with_capacity(self.records.len() + self.tids.len());
        // Thread-name metadata first.
        let mut tids = self.tids.clone();
        tids.sort_unstable();
        for tid in tids {
            let mut meta = JsonValue::obj();
            meta.set("name", "thread_name");
            meta.set("ph", "M");
            meta.set("pid", PID);
            meta.set("tid", tid);
            let mut args = JsonValue::obj();
            args.set("name", format!("tracer-{tid}"));
            meta.set("args", args);
            events.push(meta);
        }
        // Ties keep staging order, where a pause's `B` directly precedes its
        // `E`: so a pause that ends as the next begins closes first.
        let mut order: Vec<usize> = (0..self.records.len()).collect();
        order.sort_by_key(|&i| (self.records[i].ts_nanos, i));
        for i in order {
            events.push(self.records[i].to_json());
        }
        let mut doc = JsonValue::obj();
        doc.set("traceEvents", JsonValue::Arr(events));
        doc.set("displayTimeUnit", "ms");
        for (k, v) in &self.top_level {
            doc.set(k, v.clone());
        }
        doc
    }

    /// Serializes to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_json()
    }

    /// Writes the JSON document to `path`, creating parent directories.
    pub fn write(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Label, ShortLabel};

    fn ev(seq: u64, thread: u64, nanos: u64, event: Event) -> TracedEvent {
        TracedEvent {
            seq,
            thread,
            nanos,
            event,
        }
    }

    #[test]
    fn matched_pause_becomes_balanced_pair() {
        let mut t = ChromeTrace::new();
        t.add_events(&[
            ev(0, 7, 1_000, Event::GcPauseBegin { major: true }),
            ev(
                1,
                7,
                5_000,
                Event::GcPauseEnd {
                    major: true,
                    nanos: 4_000,
                    traced: 10,
                    swept: 3,
                },
            ),
        ]);
        let s = t.to_json_string();
        let b = s.find("\"ph\":\"B\"").expect("has B");
        let e = s.find("\"ph\":\"E\"").expect("has E");
        assert!(b < e, "B sorts before E");
        assert!(s.contains("gc-pause-major"));
    }

    #[test]
    fn orphaned_end_synthesizes_begin() {
        let mut t = ChromeTrace::new();
        t.add_events(&[ev(
            0,
            2,
            9_000,
            Event::GcPauseEnd {
                major: false,
                nanos: 2_500,
                traced: 1,
                swept: 1,
            },
        )]);
        let s = t.to_json_string();
        assert_eq!(s.matches("\"ph\":\"B\"").count(), 1);
        assert_eq!(s.matches("\"ph\":\"E\"").count(), 1);
        assert!(s.contains("\"ts\":6.5"), "begin = end - dur: {s}");
    }

    #[test]
    fn orphaned_begin_is_dropped() {
        let mut t = ChromeTrace::new();
        t.add_events(&[ev(0, 2, 100, Event::GcPauseBegin { major: false })]);
        let s = t.to_json_string();
        assert!(!s.contains("\"ph\":\"B\""), "unmatched B suppressed: {s}");
    }

    #[test]
    fn spans_and_counters_map_to_x_and_c() {
        let mut t = ChromeTrace::new();
        t.add_events(&[
            ev(0, 1, 4_000, Event::EpochAdvance { epoch: 2 }),
            ev(
                1,
                1,
                9_000,
                Event::QuerySpan {
                    label: Label::new("smc.q1"),
                    nanos: 3_000,
                },
            ),
        ]);
        let s = t.to_json_string();
        assert!(s.contains("\"ph\":\"X\"") && s.contains("\"dur\":3"));
        assert!(s.contains("\"ph\":\"C\"") && s.contains("\"epoch\""));
        assert!(s.contains("\"thread_name\""));
    }

    #[test]
    fn req_stage_becomes_x_span_with_request_arg() {
        let mut t = ChromeTrace::new();
        t.add_events(&[ev(
            0,
            3,
            8_000,
            Event::ReqStage {
                req: 0x99,
                stage: ShortLabel::new("shard"),
                nanos: 2_000,
            },
        )]);
        let s = t.to_json_string();
        assert!(s.contains("\"req.shard\""), "{s}");
        assert!(s.contains("\"ph\":\"X\""), "{s}");
        assert!(s.contains("\"req\":153"), "args carry the id: {s}");
        assert!(s.contains("\"ts\":6"), "start = end - dur: {s}");
    }

    #[test]
    fn every_variant_exports_its_declared_fields() {
        for row in Event::KINDS {
            let event = Event::decode(row.code, [7; 4]).expect(row.variant);
            let mut t = ChromeTrace::new();
            t.add_events(&[ev(0, 5, 10_000, event)]);
            if t.is_empty() {
                // A pause's begin is exported once its end arrives.
                let end = Event::GcPauseEnd {
                    major: true,
                    nanos: 1_000,
                    traced: 0,
                    swept: 0,
                };
                t.add_events(&[ev(0, 5, 10_000, event), ev(1, 5, 11_000, end)]);
            }
            // The event's own record is the first with args (a pause end
            // is preceded by its synthesized, argument-less begin).
            let record = t.records.iter().find(|r| !r.args.is_empty());
            let record = record.unwrap_or_else(|| panic!("{} exports no args", row.variant));
            let exported: Vec<&str> = record.args.iter().map(|&(name, _)| name).collect();
            let declared: Vec<&str> = row
                .fields
                .iter()
                .copied()
                .filter(|&f| f != "nanos")
                .collect();
            assert_eq!(exported, declared, "{}", row.variant);
            let is_span = row.fields.contains(&"nanos") && row.variant != "GcPauseEnd";
            assert_eq!(
                record.ph == "X",
                is_span,
                "{} is {}",
                row.variant,
                record.ph
            );
            assert_eq!(record.dur_nanos, is_span.then_some(7), "{}", row.variant);
        }
    }

    #[test]
    fn dropped_counts_become_per_ring_metadata() {
        let mut t = ChromeTrace::new();
        t.note_dropped(&[(4, 17), (9, 2)]);
        let s = t.to_json_string();
        assert_eq!(s.matches("\"trace_events_dropped\"").count(), 2, "{s}");
        assert!(s.contains("\"dropped\":17"), "{s}");
        assert!(s.contains("\"dropped\":2"), "{s}");
    }

    #[test]
    fn top_level_fields_survive_serialization() {
        let mut t = ChromeTrace::new();
        t.set_top_level("flightTrigger", JsonValue::from("sigusr1"));
        t.set_top_level("flightTrigger", JsonValue::from("panic"));
        let s = t.to_json_string();
        assert!(s.contains("\"flightTrigger\":\"panic\""), "{s}");
        assert!(!s.contains("sigusr1"), "replaced, not duplicated: {s}");
    }

    /// A trace in the exporter's shape: nested `B`/`E` pairs, an `X`, an
    /// instant, a counter, and request 77 across three tracks.
    const SAMPLE: &str = r#"{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":0},
{"ph":"B","name":"compact","pid":1,"tid":1,"ts":10},
{"ph":"B","name":"relocate_group","pid":1,"tid":1,"ts":12},
{"ph":"E","name":"relocate_group","pid":1,"tid":1,"ts":20},
{"ph":"E","name":"compact","pid":1,"tid":1,"ts":25},
{"ph":"X","name":"scan_block","pid":1,"tid":2,"ts":11,"dur":5},
{"ph":"i","name":"epoch_advance","pid":1,"tid":2,"ts":30},
{"ph":"C","name":"blocks_live","pid":1,"tid":2,"ts":31,"args":{"value":7}},
{"ph":"X","name":"req.ring","pid":1,"tid":1,"ts":26,"dur":2,"args":{"req":77}},
{"ph":"X","name":"req.shard","pid":1,"tid":1,"ts":28,"dur":4,"args":{"req":77}},
{"ph":"X","name":"req.exec","pid":1,"tid":2,"ts":32,"dur":3,"args":{"req":77}},
{"ph":"X","name":"req.conn","pid":1,"tid":3,"ts":36,"dur":9,"args":{"req":77}}]}"#;

    /// A doctored `SAMPLE` a row: what is wrong | text whose first match (or,
    /// empty, the sample) | becomes this | flow required | the error says.
    const DOCTORED: &str = r#"unclosed B|{"ph":"E","name":"compact","pid":1,"tid":1,"ts":25},||0|still open
B/E names differ|"E","name":"relocate_group"|"E","name":"compact"|0|same-name
E opens nothing|{"ph":"B"|{"ph":"E","name":"compact","pid":1,"tid":1,"ts":5},{"ph":"B"|0|same-name
time travel|"ts":20|"ts":1|0|back in time
unknown phase|"ph":"B"|"ph":"Q"|0|lacks
missing ts|,"ts":10}|}|0|`ts`
non-integer tid|"tid":1,"ts":10|"tid":"worker-1","ts":10|0|lacks
empty name|scan_block||0|lacks
X without dur|,"dur":5||0|`dur`
metadata only||{"traceEvents":[{"ph":"M","name":"thread_name","pid":1,"tid":0}]}|0|empty
no container||{"events":[]}|0|traceEvents
request span not an X|"X","name":"req.|"i","name":"req.|0|`args.req`
request span without args.req|,"args":{"req":77}||0|`args.req`
string args.req|77|"0xbeef"|0|`args.req`
untraced request id 0|77|0|0|`args.req`
flow narrower than required|||4|touches 4 tracks
flow on two tracks|"tid":3|"tid":1|3|touches 3 tracks"#;

    #[test]
    fn the_gate_passes_the_sample_and_rejects_each_doctored_copy() {
        // What `smc-top --check-trace` runs.
        let gate = |text: &str, flow| validate(&JsonValue::parse(text)?)?.require(flow);
        let shape = gate(SAMPLE, 3).expect("the sample passes");
        assert_eq!((shape.timeline, shape.tracks), (11, 3));
        for row in DOCTORED.lines() {
            let [what, from, to, flow, says] = row.split('|').collect::<Vec<_>>()[..] else {
                panic!("{row}")
            };
            let text = match (from, to) {
                ("", "") => SAMPLE.to_string(),
                ("", whole) => whole.to_string(),
                _ => SAMPLE.replacen(from, to, 1),
            };
            let err = gate(&text, flow.parse().unwrap()).expect_err(what);
            assert!(err.contains(says), "{what}: {err}");
        }
    }

    /// A seeded run on tracer threads 1..=3 shaped like a real one: every
    /// `Event::KINDS` row, runs of equal timestamps, and GC pauses that
    /// never nest per thread, an end carrying the time since its begin.
    fn seeded_run(seed: u64, len: u64) -> Vec<TracedEvent> {
        let mut rng = smc_util::Pcg32::seed_from_u64(seed);
        let (mut nanos, mut paused) = (1_000, [None; 4]);
        (0..len)
            .map(|seq| {
                let thread = rng.gen_range(1..4u64);
                nanos += rng.gen_range(0..500u64) * u64::from(rng.gen_bool(0.2));
                let row = &Event::KINDS[rng.gen_range(0..Event::KINDS.len())];
                let mut event = Event::decode(row.code, [(); 4].map(|_| rng.next_u64())).unwrap();
                let gc = matches!(event, Event::GcPauseBegin { .. } | Event::GcPauseEnd { .. });
                if gc || rng.gen_bool(0.25) {
                    let (major, open) = (rng.gen_bool(0.5), &mut paused[thread as usize]);
                    event = match open.take() {
                        Some(begin) => Event::GcPauseEnd {
                            major,
                            nanos: nanos - begin,
                            traced: 0,
                            swept: 0,
                        },
                        None => Event::GcPauseBegin { major },
                    };
                    if let Event::GcPauseBegin { .. } = event {
                        *open = Some(nanos);
                    }
                }
                ev(seq, thread, nanos, event)
            })
            .collect()
    }

    #[test]
    fn every_export_of_a_seeded_run_passes_validate() {
        for seed in 0..16 {
            // A wrapped ring keeps its thread's newest records: cut each
            // thread's oldest ones and note the cut as its drops.
            let cut: [u64; 4] = std::array::from_fn(|t| seed * 97 * t as u64 % 1_500);
            let mut window = seeded_run(seed, 3_000);
            window.retain(|t| t.seq >= cut[t.thread as usize]);
            let mut export = ChromeTrace::new();
            export.add_events(&window);
            export.note_dropped(&[(1, cut[1]), (2, cut[2]), (3, cut[3])]);
            let shape = validate(&export.to_json()).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(shape.tracks, 3, "seed {seed}");
        }
        // Live rings: three threads each wrap their own, about three
        // times over, and the export of what they kept is well formed.
        // Each holds its ring until all three are done: a thread that
        // exits hands its ring to the next one to emit.
        let _g = trace::test_lock();
        trace::enable();
        trace::clear();
        let (dropped, done) = (trace::dropped(), std::sync::Barrier::new(3));
        std::thread::scope(|s| {
            for thread in 1..4 {
                let run = seeded_run(99, 3 * 3 * trace::RING_CAPACITY as u64);
                let mine = run.into_iter().filter(move |t| t.thread == thread);
                let done = &done;
                s.spawn(move || {
                    mine.for_each(|t| trace::emit(t.event));
                    done.wait();
                });
            }
        });
        trace::disable();
        assert!(trace::dropped() > dropped + 3 * trace::RING_CAPACITY as u64);
        let shape = validate(&ChromeTrace::from_ring_snapshot().to_json())
            .expect("the export of wrapped rings is well formed");
        assert_eq!(shape.tracks, 3);
    }

    #[test]
    fn timestamps_are_sorted_in_output() {
        let mut t = ChromeTrace::new();
        // Emitted out of order; the span's start (7000-3000=4000) must be
        // resorted before the 5000 instant.
        t.add_events(&[
            ev(0, 1, 5_000, Event::RelocationBailed { src_slot: 1 }),
            ev(
                1,
                1,
                7_000,
                Event::QuerySpan {
                    label: Label::new("q"),
                    nanos: 3_000,
                },
            ),
        ]);
        let s = t.to_json_string();
        assert!(s.find("\"ph\":\"X\"").unwrap() < s.find("\"ph\":\"i\"").unwrap());
    }
}
