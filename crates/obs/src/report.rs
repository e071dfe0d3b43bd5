//! Machine-readable benchmark reports (`BENCH_fig<N>.json`).
//!
//! The `figures` binary (one report per paper figure) and `smc-loadgen`
//! route their results through a [`Report`]: the human-readable CSV keeps
//! printing to stdout, while the same rows — plus histogram summaries,
//! counters, and passed / failed / unmeasured checks — are serialized to
//! `BENCH_fig<N>.json` so EXPERIMENTS.md tables are regenerable and
//! diffable across PRs. The schema is documented in the
//! EXPERIMENTS.md preamble.
//!
//! The emitter is dependency-free: [`JsonValue`] is a minimal JSON document
//! model with a canonical serializer (sorted object keys are the caller's
//! responsibility; insertion order is preserved).

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::hist::Histogram;

/// A minimal JSON document model (no external deps).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number. Non-finite values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object (keys are appended with [`set`](JsonValue::set)).
    pub fn obj() -> JsonValue {
        JsonValue::Obj(Vec::new())
    }

    /// Sets `key` on an object, replacing an existing entry in place or
    /// appending otherwise. Panics when `self` is not an object (a
    /// document-building programming error).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) {
        let key = key.into();
        let value = value.into();
        match self {
            JsonValue::Obj(fields) => {
                if let Some(f) = fields.iter_mut().find(|(k, _)| *k == key) {
                    f.1 = value;
                } else {
                    fields.push((key, value));
                }
            }
            other => panic!("JsonValue::set on non-object {other:?}"),
        }
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    /// Parses a JSON document (the inverse of [`to_json`](Self::to_json)).
    /// Dependency-free recursive descent over the full grammar (objects,
    /// arrays, strings with `\uXXXX` escapes, numbers, literals); trailing
    /// non-whitespace or any syntax error yields `Err` with a byte offset.
    /// `smc-serve`'s `Scrape` responses travel as JSON, so the client side
    /// needs a reader as well as a writer.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field access (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_json_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Recursive-descent state for [`JsonValue::parse`].
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at offset {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(JsonValue::Str(self.string()?)),
            b't' => self.lit("true", JsonValue::Bool(true)),
            b'f' => self.lit("false", JsonValue::Bool(false)),
            b'n' => self.lit("null", JsonValue::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(self.err("unexpected byte")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unexpected end"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("unexpected end"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("bad hex"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad hex"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        s.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| self.err("bad number"))
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Num(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::Num(v as f64)
    }
}

/// One named data series (mirrors one CSV table the binary prints).
#[derive(Debug, Clone)]
pub struct Series {
    name: String,
    columns: Vec<String>,
    rows: Vec<Vec<JsonValue>>,
}

/// A parity or sanity check recorded by a bench binary: passed, failed, or
/// (`passed: None`) unmeasured — the run could not observe it either way.
#[derive(Debug, Clone)]
pub struct Check {
    name: String,
    passed: Option<bool>,
    detail: String,
}

/// The accumulating report behind one `BENCH_fig<N>.json` file.
///
/// ```
/// use smc_obs::report::Report;
///
/// let mut report = Report::new("fig99", "doctest example");
/// report.param("threads", 4u64);
/// let s = report.series("throughput", &["threads", "mrows_per_s"]);
/// report.push_row(s, vec![1u64.into(), 95.5f64.into()]);
/// report.check("parity", true, "seq == par");
/// let json = report.to_json();
/// assert!(json.contains("\"figure\":\"fig99\""));
/// assert!(report.all_checks_passed());
/// ```
#[derive(Debug, Clone)]
pub struct Report {
    figure: String,
    title: String,
    params: Vec<(String, JsonValue)>,
    series: Vec<Series>,
    histograms: Vec<(String, JsonValue)>,
    counters: Vec<(String, u64)>,
    checks: Vec<Check>,
}

/// Index of a series within a [`Report`] (returned by [`Report::series`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

impl Report {
    /// Starts an empty report for `figure` (e.g. `"fig10"`).
    pub fn new(figure: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            figure: figure.into(),
            title: title.into(),
            params: Vec::new(),
            series: Vec::new(),
            histograms: Vec::new(),
            counters: Vec::new(),
            checks: Vec::new(),
        }
    }

    /// Records one run parameter (scale factor, thread count, seed, …).
    pub fn param(&mut self, name: impl Into<String>, value: impl Into<JsonValue>) {
        self.params.push((name.into(), value.into()));
    }

    /// Opens a named series with the given column names; rows are appended
    /// with [`push_row`](Report::push_row).
    pub fn series(&mut self, name: impl Into<String>, columns: &[&str]) -> SeriesId {
        self.series.push(Series {
            name: name.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        });
        SeriesId(self.series.len() - 1)
    }

    /// Appends one row to a series. Panics if the arity mismatches the
    /// series' columns (a bench-binary programming error).
    pub fn push_row(&mut self, id: SeriesId, row: Vec<JsonValue>) {
        let s = &mut self.series[id.0];
        assert_eq!(
            row.len(),
            s.columns.len(),
            "row arity mismatch in series {:?}",
            s.name
        );
        s.rows.push(row);
    }

    /// Records a [`Histogram`]'s full summary (count/min/max/mean and
    /// p50/p95/p99, all in nanoseconds) under `name`.
    pub fn histogram(&mut self, name: impl Into<String>, hist: &Histogram) {
        let s = hist.summary();
        self.histograms.push((
            name.into(),
            JsonValue::Obj(vec![
                ("count".into(), s.count.into()),
                ("sum_ns".into(), s.sum.into()),
                ("min_ns".into(), s.min.into()),
                ("max_ns".into(), s.max.into()),
                ("mean_ns".into(), s.mean.into()),
                ("p50_ns".into(), s.p50.into()),
                ("p95_ns".into(), s.p95.into()),
                ("p99_ns".into(), s.p99.into()),
            ]),
        ));
    }

    /// Records a pre-built histogram summary object under `name` — same
    /// shape as [`histogram`](Report::histogram), for summaries that were
    /// scraped over the wire from a live server rather than measured in
    /// this process (e.g. the tail-latency attribution in `SCRAPE`).
    pub fn histogram_json(&mut self, name: impl Into<String>, summary: JsonValue) {
        self.histograms.push((name.into(), summary));
    }

    /// Records a named scalar counter (e.g. a `MemoryStats` field).
    pub fn counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push((name.into(), value));
    }

    /// Records a pass/fail check. Failed checks make
    /// [`all_checks_passed`](Report::all_checks_passed) false; bench
    /// binaries exit non-zero in that case *after* writing the report.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed: Some(passed),
            detail: detail.into(),
        });
    }

    /// Records a check this run could not observe either way (too few cores
    /// for the comparison, a server the harness cannot see inside, …). It
    /// serializes as `"passed": null` with `why` as its detail and counts
    /// neither for nor against [`all_checks_passed`](Report::all_checks_passed)
    /// — the name stays in the report, the claim does not.
    pub fn unmeasured(&mut self, name: impl Into<String>, why: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            passed: None,
            detail: why.into(),
        });
    }

    /// True when no recorded check failed.
    pub fn all_checks_passed(&self) -> bool {
        self.failed_checks().is_empty()
    }

    /// Names and details of failed checks (for the human-readable summary).
    pub fn failed_checks(&self) -> Vec<(String, String)> {
        self.checks_in_state(Some(false))
    }

    /// Names and reasons of [`unmeasured`](Report::unmeasured) checks.
    pub fn unmeasured_checks(&self) -> Vec<(String, String)> {
        self.checks_in_state(None)
    }

    fn checks_in_state(&self, state: Option<bool>) -> Vec<(String, String)> {
        self.checks
            .iter()
            .filter(|c| c.passed == state)
            .map(|c| (c.name.clone(), c.detail.clone()))
            .collect()
    }

    /// Serializes the report to its JSON document (schema in
    /// EXPERIMENTS.md).
    pub fn to_json(&self) -> String {
        self.document().to_json()
    }

    /// The report as the document [`to_json`](Report::to_json) serializes —
    /// the one read view of a report, for a renderer or a test that must
    /// see the series and checks recorded so far.
    pub fn document(&self) -> JsonValue {
        let series = self
            .series
            .iter()
            .map(|s| {
                JsonValue::Obj(vec![
                    ("name".into(), s.name.as_str().into()),
                    (
                        "columns".into(),
                        JsonValue::Arr(s.columns.iter().map(|c| c.as_str().into()).collect()),
                    ),
                    (
                        "rows".into(),
                        JsonValue::Arr(s.rows.iter().map(|r| JsonValue::Arr(r.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                JsonValue::Obj(vec![
                    ("name".into(), c.name.as_str().into()),
                    (
                        "passed".into(),
                        c.passed.map_or(JsonValue::Null, Into::into),
                    ),
                    ("detail".into(), c.detail.as_str().into()),
                ])
            })
            .collect();
        JsonValue::Obj(vec![
            ("schema".into(), "smc-bench-report/v1".into()),
            ("figure".into(), self.figure.as_str().into()),
            ("title".into(), self.title.as_str().into()),
            ("params".into(), JsonValue::Obj(self.params.clone())),
            ("series".into(), JsonValue::Arr(series)),
            ("histograms".into(), JsonValue::Obj(self.histograms.clone())),
            (
                "counters".into(),
                JsonValue::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), (*v).into()))
                        .collect(),
                ),
            ),
            ("checks".into(), JsonValue::Arr(checks)),
            ("all_checks_passed".into(), self.all_checks_passed().into()),
        ])
    }

    /// The output path: `$SMC_BENCH_DIR/BENCH_<figure>.json`, or the
    /// current directory when the variable is unset.
    pub fn path(&self) -> PathBuf {
        let dir = std::env::var_os("SMC_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        dir.join(format!("BENCH_{}.json", self.figure))
    }

    /// Writes the JSON document to [`path`](Report::path), returning the
    /// path written.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_primitives() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::Bool(true).to_json(), "true");
        assert_eq!(JsonValue::Num(1.5).to_json(), "1.5");
        assert_eq!(JsonValue::Num(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).to_json(), "null");
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd\u{1}".into()).to_json(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
        assert_eq!(
            JsonValue::Arr(vec![1u64.into(), "x".into()]).to_json(),
            r#"[1,"x"]"#
        );
    }

    #[test]
    fn parse_round_trips_a_report_document() {
        let mut r = Report::new("fig00", "round trip");
        r.param("sf", 0.01f64);
        let s = r.series("main", &["n", "ms"]);
        r.push_row(s, vec![10u64.into(), 1.25f64.into()]);
        r.check("parity", true, "ok");
        let json = r.to_json();
        let doc = JsonValue::parse(&json).expect("own output parses");
        assert_eq!(doc.to_json(), json, "parse ∘ serialize is the identity");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("smc-bench-report/v1")
        );
        assert_eq!(
            doc.get("all_checks_passed").and_then(|v| v.as_bool()),
            Some(true)
        );
    }

    #[test]
    fn parse_handles_escapes_nesting_and_rejects_garbage() {
        let v = JsonValue::parse(r#"{"a":[1,-2.5,3e2],"s":"q\"\nA😀","n":null}"#).unwrap();
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("q\"\nA😀"));
        let arr = v.get("a").and_then(|a| a.as_arr()).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(300.0));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::parse("  true  ").unwrap(), JsonValue::Bool(true));
        for bad in ["", "{", "[1,", "\"unterminated", "{\"a\":}", "12 34", "nul"] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(JsonValue::Num(1.5).as_u64(), None, "non-integers reject");
    }

    #[test]
    fn report_document_shape() {
        let mut r = Report::new("fig00", "test figure");
        r.param("sf", 0.01f64);
        let s = r.series("main", &["n", "ms"]);
        r.push_row(s, vec![10u64.into(), 1.25f64.into()]);
        r.push_row(s, vec![20u64.into(), 2.5f64.into()]);
        let hist = Histogram::new();
        hist.record(1000);
        hist.record(2000);
        r.histogram("gc_pause_ns", &hist);
        r.counter("blocks_scanned", 42);
        r.check("parity", true, "ok");
        let json = r.to_json();
        assert!(json.starts_with(r#"{"schema":"smc-bench-report/v1""#));
        assert!(json.contains(r#""figure":"fig00""#));
        assert!(json.contains(r#""columns":["n","ms"]"#));
        assert!(json.contains(r#""rows":[[10,1.25],[20,2.5]]"#));
        assert!(json.contains(r#""gc_pause_ns":{"count":2"#));
        assert!(json.contains(r#""blocks_scanned":42"#));
        assert!(json.contains(r#""all_checks_passed":true"#));
    }

    #[test]
    fn failed_checks_flip_the_flag() {
        let mut r = Report::new("fig00", "t");
        r.check("a", true, "fine");
        r.check("b", false, "seq=3 par=4");
        assert!(!r.all_checks_passed());
        assert_eq!(r.failed_checks(), vec![("b".into(), "seq=3 par=4".into())]);
        assert!(r.to_json().contains(r#""all_checks_passed":false"#));
    }

    #[test]
    fn unmeasured_is_neither_passed_nor_failed() {
        let mut r = Report::new("fig00", "t");
        r.check("a", true, "fine");
        r.unmeasured("b", "3 threads on 2 hardware threads");
        assert!(r.all_checks_passed());
        assert!(r.failed_checks().is_empty());
        let why = "3 threads on 2 hardware threads".to_string();
        assert_eq!(r.unmeasured_checks(), vec![("b".into(), why)]);
        let doc = JsonValue::parse(&r.to_json()).unwrap();
        let b = &doc.get("checks").and_then(|c| c.as_arr()).unwrap()[1];
        assert_eq!(b.get("passed"), Some(&JsonValue::Null));
        assert_eq!(
            b.get("detail").and_then(|d| d.as_str()),
            Some("3 threads on 2 hardware threads")
        );
        // Unmeasured does not mask a real failure beside it.
        r.check("c", false, "seq=3 par=4");
        assert!(!r.all_checks_passed());
    }

    #[test]
    fn path_honours_bench_dir_layout() {
        let r = Report::new("fig10", "t");
        let p = r.path();
        assert!(p.ends_with("BENCH_fig10.json"), "{p:?}");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut r = Report::new("fig00", "t");
        let s = r.series("main", &["a", "b"]);
        r.push_row(s, vec![1u64.into()]);
    }
}
