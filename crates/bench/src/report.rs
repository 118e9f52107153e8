//! Machine-readable bench trajectory: `BENCH_<harness>.json`.
//!
//! Every figure harness feeds a [`BenchReport`] alongside its printed
//! tables and writes it out on exit, so CI leaves one JSON file per
//! harness behind (uploaded as an artifact) instead of only proving the
//! harness runs. The `bench_check` binary diffs a run against the
//! committed `bench/baseline/` snapshot and fails on large regressions —
//! a perf regression becomes a red CI job, not something discovered by
//! rerunning a figure by hand.
//!
//! Design constraints:
//!
//! * **Serde-free, network-free.** The build environment has no crates.io
//!   access, so the JSON writer and the (schema-limited) parser are
//!   hand-rolled below. The schema is flat and versioned
//!   ([`SCHEMA_VERSION`]).
//! * **Keyed by scale and SHA.** Numbers are only comparable at the same
//!   `IMP_BENCH_SCALE`; [`compare`] skips baseline files recorded at a
//!   different scale instead of producing nonsense diffs. The git SHA is
//!   informational (which commit produced the trajectory point).
//! * **Deterministic output.** Records and metrics are emitted sorted by
//!   key, so the byte output is independent of harness-internal insertion
//!   order and two runs of the same code diff cleanly.
//! * **Gated vs. trajectory metrics.** A [`Metric`] with `gated: true`
//!   is lower-is-better and regression-checked (wall-clock, heap bytes,
//!   backend round trips, recaptures). Higher-is-better numbers (memo
//!   rates, round trips *saved*, speedups) are recorded for the
//!   trajectory but never gated — their regressions show up indirectly
//!   through the costs they fail to save.
//!
//! The regression rule (see [`compare`]): a gated metric regresses when
//! `current > factor · baseline + floor(unit)`, with `factor` 2.0 by
//! default (`IMP_BENCH_GATE_FACTOR` overrides) and a small per-unit
//! absolute floor so sub-millisecond timing noise at smoke scale and
//! ±a-few-counts jitter cannot flake CI, while genuine 2× regressions on
//! anything that matters still fail.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Version tag written into every file; bump on schema changes.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression factor: fail when current > 2× baseline (+floor).
pub const DEFAULT_GATE_FACTOR: f64 = 2.0;

/// Measurement unit of a [`Metric`] — selects the absolute gate floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Nanoseconds of wall-clock time.
    Ns,
    /// Heap bytes.
    Bytes,
    /// Dimensionless counter (rows, round trips, recaptures, …).
    Count,
    /// Dimensionless ratio (rates, speedups).
    Ratio,
}

impl Unit {
    /// Serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Ns => "ns",
            Unit::Bytes => "bytes",
            Unit::Count => "count",
            Unit::Ratio => "ratio",
        }
    }

    /// Parse a serialized name.
    pub fn parse(s: &str) -> Option<Unit> {
        Some(match s {
            "ns" => Unit::Ns,
            "bytes" => Unit::Bytes,
            "count" => Unit::Count,
            "ratio" => Unit::Ratio,
            _ => return None,
        })
    }

    /// Absolute slack added on top of `factor · baseline` before a gated
    /// metric counts as regressed. Keeps smoke-scale noise (sub-ms
    /// timings, ±a few counter ticks, allocator page rounding) from
    /// flaking CI without masking real regressions at measurable sizes.
    pub fn gate_floor(self) -> f64 {
        match self {
            Unit::Ns => 5e6,       // 5 ms
            Unit::Bytes => 4096.0, // one page
            Unit::Count => 8.0,
            Unit::Ratio => 0.25,
        }
    }
}

/// One named measurement inside a [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, unique within its record (e.g. `imp_ns_median`).
    pub name: String,
    /// The value. Non-finite inputs are recorded as `0` (JSON has no
    /// NaN/∞ and a poisoned trajectory point is worse than a zero).
    pub value: f64,
    /// Unit, for display and the gate floor.
    pub unit: Unit,
    /// Lower-is-better and regression-checked by [`compare`].
    pub gated: bool,
}

/// One experiment data point: an (experiment, config) key plus metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Experiment family within the harness (e.g. `mixed`, `index`).
    pub experiment: String,
    /// Configuration label within the experiment (e.g. `1U5Q/d200`).
    pub config: String,
    /// The measurements.
    pub metrics: Vec<Metric>,
}

impl Record {
    /// New empty record for `(experiment, config)`.
    pub fn new(experiment: impl Into<String>, config: impl Into<String>) -> Record {
        Record {
            experiment: experiment.into(),
            config: config.into(),
            metrics: Vec::new(),
        }
    }

    /// Add one metric (builder-style).
    pub fn metric(
        mut self,
        name: impl Into<String>,
        value: f64,
        unit: Unit,
        gated: bool,
    ) -> Record {
        self.metrics.push(Metric {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            gated,
        });
        self
    }

    /// Gated wall-clock metric from a [`Duration`].
    pub fn time(self, name: impl Into<String>, d: Duration) -> Record {
        self.metric(name, d.as_nanos() as f64, Unit::Ns, true)
    }

    /// Gated wall-clock metric from milliseconds.
    pub fn time_ms(self, name: impl Into<String>, ms: f64) -> Record {
        self.metric(name, ms * 1e6, Unit::Ns, true)
    }

    /// Gated heap metric.
    pub fn heap(self, name: impl Into<String>, bytes: u64) -> Record {
        self.metric(name, bytes as f64, Unit::Bytes, true)
    }

    /// Counter metric; pass `gated: true` for lower-is-better counters
    /// (round trips, recaptures), `false` for trajectory-only ones.
    pub fn count(self, name: impl Into<String>, n: u64, gated: bool) -> Record {
        self.metric(name, n as f64, Unit::Count, gated)
    }

    /// Ungated ratio metric (rates, speedups — higher is better).
    pub fn ratio(self, name: impl Into<String>, r: f64) -> Record {
        self.metric(name, r, Unit::Ratio, false)
    }

    /// Mean/median/stddev wall-clock metrics (`<prefix>_ns_{mean,median,
    /// stddev}`) from the criterion-shim statistics of a sample set; the
    /// median is gated, mean and stddev ride along ungated (they are too
    /// noisy to gate but chart the distribution).
    pub fn time_stats(self, prefix: &str, stats: &criterion::SampleStats) -> Record {
        self.metric(
            format!("{prefix}_ns_median"),
            stats.median.as_nanos() as f64,
            Unit::Ns,
            true,
        )
        .metric(
            format!("{prefix}_ns_mean"),
            stats.mean.as_nanos() as f64,
            Unit::Ns,
            false,
        )
        .metric(
            format!("{prefix}_ns_stddev"),
            stats.stddev.as_nanos() as f64,
            Unit::Ns,
            false,
        )
    }
}

/// The per-harness trajectory file: metadata + records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Harness name (`fig08_mixed`, …); names the output file.
    pub harness: String,
    /// `IMP_BENCH_SCALE` the run was recorded at.
    pub scale: f64,
    /// `IMP_BENCH_REPS` the run was recorded at.
    pub reps: usize,
    /// Git SHA of the producing tree (informational).
    pub git_sha: String,
    /// The data points.
    pub records: Vec<Record>,
}

impl BenchReport {
    /// New report for `harness`, keyed by the ambient `IMP_BENCH_SCALE` /
    /// `IMP_BENCH_REPS` and the current git SHA.
    pub fn new(harness: impl Into<String>) -> BenchReport {
        BenchReport {
            harness: harness.into(),
            scale: crate::scale(),
            reps: crate::reps(),
            git_sha: git_sha(),
            records: Vec::new(),
        }
    }

    /// Add one record.
    pub fn add(&mut self, record: Record) {
        self.records.push(record);
    }

    /// Serialize, records sorted by `(experiment, config)` and metrics by
    /// name — output bytes are independent of insertion order.
    pub fn to_json(&self) -> String {
        let mut records = self.records.clone();
        records.sort_by(|a, b| {
            (a.experiment.as_str(), a.config.as_str())
                .cmp(&(b.experiment.as_str(), b.config.as_str()))
        });
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"harness\": {},", json_str(&self.harness));
        let _ = writeln!(out, "  \"scale\": {},", json_num(self.scale));
        let _ = writeln!(out, "  \"reps\": {},", self.reps);
        let _ = writeln!(out, "  \"git_sha\": {},", json_str(&self.git_sha));
        out.push_str("  \"records\": [");
        for (i, rec) in records.iter().enumerate() {
            let mut metrics = rec.metrics.clone();
            metrics.sort_by(|a, b| a.name.cmp(&b.name));
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"experiment\": {},", json_str(&rec.experiment));
            let _ = writeln!(out, "      \"config\": {},", json_str(&rec.config));
            out.push_str("      \"metrics\": [");
            for (j, m) in metrics.iter().enumerate() {
                out.push_str(if j == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    out,
                    "        {{\"name\": {}, \"value\": {}, \"unit\": {}, \"gated\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit.as_str()),
                    m.gated
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a report previously produced by [`BenchReport::to_json`].
    pub fn from_json(s: &str) -> Result<BenchReport, String> {
        let value = json::parse(s)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let version = json::get_num(obj, "schema_version")? as u64;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        let mut report = BenchReport {
            harness: json::get_str(obj, "harness")?,
            scale: json::get_num(obj, "scale")?,
            reps: json::get_num(obj, "reps")? as usize,
            git_sha: json::get_str(obj, "git_sha")?,
            records: Vec::new(),
        };
        for rec in json::get_array(obj, "records")? {
            let rec = rec.as_object().ok_or("record must be an object")?;
            let mut record = Record::new(
                json::get_str(rec, "experiment")?,
                json::get_str(rec, "config")?,
            );
            for m in json::get_array(rec, "metrics")? {
                let m = m.as_object().ok_or("metric must be an object")?;
                let unit_name = json::get_str(m, "unit")?;
                record.metrics.push(Metric {
                    name: json::get_str(m, "name")?,
                    value: json::get_num(m, "value")?,
                    unit: Unit::parse(&unit_name)
                        .ok_or_else(|| format!("unknown unit {unit_name:?}"))?,
                    gated: json::get_bool(m, "gated")?,
                });
            }
            report.records.push(record);
        }
        Ok(report)
    }

    /// File name this report writes to.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.harness)
    }

    /// Write into `dir` as `BENCH_<harness>.json`.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        let path = dir.join(self.file_name());
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Write into the directory named by `IMP_BENCH_OUT` (default `.`),
    /// creating it if needed; prints the destination. Panics on IO errors
    /// — a harness that silently loses its trajectory point defeats the
    /// purpose.
    pub fn finish(&self) {
        let dir = PathBuf::from(std::env::var("IMP_BENCH_OUT").unwrap_or_else(|_| ".".into()));
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create IMP_BENCH_OUT dir {dir:?}: {e}"));
        let path = self
            .write_to(&dir)
            .unwrap_or_else(|e| panic!("cannot write {:?}: {e}", self.file_name()));
        println!(
            "\nwrote {} ({} records, scale {}, sha {})",
            path.display(),
            self.records.len(),
            self.scale,
            self.git_sha
        );
    }
}

/// One gated metric that exceeded the regression threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Harness the metric came from.
    pub harness: String,
    /// Record key.
    pub experiment: String,
    /// Record key.
    pub config: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// `current / baseline` (∞ when the baseline was 0).
    pub factor: f64,
}

/// Outcome of diffing one current report against its baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CompareOutcome {
    /// Gated metrics compared.
    pub compared: usize,
    /// Metrics that regressed past the threshold.
    pub regressions: Vec<Regression>,
    /// Baseline records with no counterpart in the current run.
    pub missing_records: usize,
    /// Human-readable notes (scale skips, missing metrics, …).
    pub notes: Vec<String>,
}

/// Diff `current` against `baseline`: every gated metric present in both
/// (matched by record `(experiment, config)` + metric name) regresses
/// when `current > factor · baseline + unit_floor`. Reports recorded at
/// different scales are skipped wholesale — cross-scale numbers are not
/// comparable.
pub fn compare(baseline: &BenchReport, current: &BenchReport, factor: f64) -> CompareOutcome {
    let mut out = CompareOutcome::default();
    if (baseline.scale - current.scale).abs() > f64::EPSILON * baseline.scale.abs().max(1.0) {
        out.notes.push(format!(
            "{}: scale mismatch (baseline {}, current {}) — skipped",
            baseline.harness, baseline.scale, current.scale
        ));
        return out;
    }
    for brec in &baseline.records {
        let Some(crec) = current
            .records
            .iter()
            .find(|r| r.experiment == brec.experiment && r.config == brec.config)
        else {
            out.missing_records += 1;
            out.notes.push(format!(
                "{}: record {}/{} missing from current run",
                baseline.harness, brec.experiment, brec.config
            ));
            continue;
        };
        for bm in brec.metrics.iter().filter(|m| m.gated) {
            let Some(cm) = crec.metrics.iter().find(|m| m.name == bm.name) else {
                out.notes.push(format!(
                    "{}: metric {}/{}/{} missing from current run",
                    baseline.harness, brec.experiment, brec.config, bm.name
                ));
                continue;
            };
            out.compared += 1;
            if cm.value > factor * bm.value + bm.unit.gate_floor() {
                out.regressions.push(Regression {
                    harness: baseline.harness.clone(),
                    experiment: brec.experiment.clone(),
                    config: brec.config.clone(),
                    metric: bm.name.clone(),
                    baseline: bm.value,
                    current: cm.value,
                    factor: if bm.value > 0.0 {
                        cm.value / bm.value
                    } else {
                        f64::INFINITY
                    },
                });
            }
        }
    }
    out
}

/// One compact JSONL trajectory line for `report`: the run key (git SHA,
/// harness, scale, reps) plus every **gated** metric flattened to
/// `"experiment/config/name": value`. Appended to `bench/history.jsonl`
/// by `bench_check --history`, one line per harness per run, so the
/// gated trajectory accumulates across commits in a grep- and
/// jq-friendly shape without re-parsing full `BENCH_*.json` files.
pub fn history_line(report: &BenchReport) -> String {
    let mut entries: Vec<(String, f64)> = report
        .records
        .iter()
        .flat_map(|rec| {
            rec.metrics.iter().filter(|m| m.gated).map(|m| {
                (
                    format!("{}/{}/{}", rec.experiment, rec.config, m.name),
                    m.value,
                )
            })
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"sha\": {}, \"harness\": {}, \"scale\": {}, \"reps\": {}, \"gated\": {{",
        json_str(&report.git_sha),
        json_str(&report.harness),
        json_num(report.scale),
        report.reps
    );
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_str(key), json_num(*value));
    }
    out.push_str("}}");
    out
}

/// The gate factor: `IMP_BENCH_GATE_FACTOR` (default 2.0). Panics on an
/// unparseable value, same contract as [`crate::scale`].
pub fn gate_factor() -> f64 {
    match std::env::var("IMP_BENCH_GATE_FACTOR") {
        Ok(s) => {
            let f: f64 = crate::parse_env("IMP_BENCH_GATE_FACTOR", &s);
            assert!(
                f.is_finite() && f >= 1.0,
                "IMP_BENCH_GATE_FACTOR must be a finite number ≥ 1, got {s:?}"
            );
            f
        }
        Err(_) => DEFAULT_GATE_FACTOR,
    }
}

/// Current git SHA: `GITHUB_SHA` / `GIT_SHA` env when set (CI), else
/// `git rev-parse HEAD`, else `"unknown"`.
pub fn git_sha() -> String {
    for var in ["GITHUB_SHA", "GIT_SHA"] {
        if let Ok(sha) = std::env::var(var) {
            if !sha.trim().is_empty() {
                return sha.trim().to_string();
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// JSON string literal with escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// JSON number: shortest round-trip decimal; non-finite clamps to 0.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    // `{}` on f64 prints the shortest representation that parses back to
    // the same bits — exactly what a round-tripping format needs.
    format!("{v}")
}

/// Minimal recursive-descent JSON parser — just enough for the schema
/// this module writes (objects, arrays, strings, numbers, booleans,
/// null). Not a general-purpose parser: surrogate-pair `\u` escapes are
/// rejected rather than combined, and numbers use Rust's f64 grammar.
///
/// Public so `bench_check` can validate the other JSON artifacts of a
/// bench run against the same grammar: `history.jsonl` trend lines
/// (`--trend`) and the `IMP_OBS=1` trace/metrics exports
/// (`--check-obs`).
pub mod json {
    use std::collections::BTreeMap;

    /// Parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any number (always f64).
        Num(f64),
        /// String.
        Str(String),
        /// Array.
        Array(Vec<Value>),
        /// Object (sorted map; duplicate keys: last wins).
        Object(BTreeMap<String, Value>),
    }

    impl Value {
        /// Borrow as object.
        pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
            match self {
                Value::Object(m) => Some(m),
                _ => None,
            }
        }
    }

    /// Fetch a string field.
    pub fn get_str(obj: &BTreeMap<String, Value>, key: &str) -> Result<String, String> {
        match obj.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            other => Err(format!("field {key:?}: expected string, got {other:?}")),
        }
    }

    /// Fetch a numeric field.
    pub fn get_num(obj: &BTreeMap<String, Value>, key: &str) -> Result<f64, String> {
        match obj.get(key) {
            Some(Value::Num(n)) => Ok(*n),
            other => Err(format!("field {key:?}: expected number, got {other:?}")),
        }
    }

    /// Fetch a boolean field.
    pub fn get_bool(obj: &BTreeMap<String, Value>, key: &str) -> Result<bool, String> {
        match obj.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            other => Err(format!("field {key:?}: expected bool, got {other:?}")),
        }
    }

    /// Fetch an array field.
    pub fn get_array<'a>(
        obj: &'a BTreeMap<String, Value>,
        key: &str,
    ) -> Result<&'a [Value], String> {
        match obj.get(key) {
            Some(Value::Array(a)) => Ok(a),
            other => Err(format!("field {key:?}: expected array, got {other:?}")),
        }
    }

    /// Parse one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(s: &str) -> Result<Value, String> {
        let bytes = s.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                c as char,
                *pos,
                b.get(*pos).map(|&x| x as char)
            ))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
            other => Err(format!("unexpected {other:?} at byte {pos}", pos = *pos)),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}", pos = *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number {text:?}: {e}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        loop {
            match b.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or(format!("invalid \\u{code:04x} escape"))?,
                            );
                            *pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so byte
                    // boundaries are valid).
                    let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(out));
                }
                other => return Err(format!("expected , or ] in array, got {other:?}")),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut out = BTreeMap::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            out.insert(key, value);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(out));
                }
                other => return Err(format!("expected , or }} in object, got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_round_trip() {
        let r = BenchReport {
            harness: "t".into(),
            scale: 1.0,
            reps: 1,
            git_sha: "quote\" back\\slash\nnewline\ttab\u{1}ctl".into(),
            records: vec![Record::new("e", "c").metric("m", 1.5, Unit::Ns, true)],
        };
        let parsed = BenchReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn unit_floors_are_positive() {
        for u in [Unit::Ns, Unit::Bytes, Unit::Count, Unit::Ratio] {
            assert!(u.gate_floor() > 0.0);
            assert_eq!(Unit::parse(u.as_str()), Some(u));
        }
    }

    #[test]
    fn history_line_is_one_json_object_of_gated_metrics() {
        let r = BenchReport {
            harness: "fig_x".into(),
            scale: 0.01,
            reps: 1,
            git_sha: "abc123".into(),
            records: vec![Record::new("exp", "cfg")
                .metric("slow_ns", 5e6, Unit::Ns, true)
                .ratio("rate", 0.5)],
        };
        let line = history_line(&r);
        assert!(!line.contains('\n'), "must be a single JSONL line");
        // The line is well-formed JSON and holds only the gated metric.
        json::parse(&line).expect("history line must parse as JSON");
        assert!(line.contains("\"sha\": \"abc123\""));
        assert!(line.contains("\"exp/cfg/slow_ns\": 5000000"));
        assert!(!line.contains("rate"), "ungated metrics excluded");
    }

    #[test]
    fn non_finite_values_are_clamped() {
        let rec = Record::new("e", "c").metric("m", f64::INFINITY, Unit::Ratio, false);
        assert_eq!(rec.metrics[0].value, 0.0);
        assert_eq!(json_num(f64::NAN), "0");
    }
}
