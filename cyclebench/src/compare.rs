//! `--compare A B`: do two run sets agree?
//!
//! A run set is a file of `--out` records (one JSON object per line), any
//! number of runs per workload. For every (workload, end-to-end metric) the
//! two medians are compared against the bound `BENCHMARK.json` fixes; where
//! the run-to-run quartile spread of either side is wider than the bound
//! the pair is *unresolved*, not *same*. Counts of in-line workloads must
//! be identical between runs of the same seed.

use crate::stats::{median, spread};
use imp_bench::report::json::{self, Value};
use std::collections::BTreeMap;

/// One end-to-end metric's regression bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

/// Read the `end_to_end` bounds out of `BENCHMARK.json`'s text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    let obj = doc.as_object().ok_or("BENCHMARK.json: not an object")?;
    json::get_array(obj, "end_to_end")?
        .iter()
        .map(|m| {
            let m = m.as_object().ok_or("end_to_end entry: not an object")?;
            Ok(Bound {
                name: json::get_str(m, "name")?,
                lower_is_better: match json::get_str(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("better: {other:?}")),
                },
                bound: json::get_num(m, "bound")?,
            })
        })
        .collect()
}

/// One `--out` record, as far as the comparison needs it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    /// `seed/seconds/trace`: runs with equal keys ran the same op stream.
    pub stream_key: String,
    pub exact_counts: bool,
    pub failed: u64,
    pub truncated: bool,
    pub metrics: BTreeMap<String, f64>,
    pub counts: BTreeMap<String, u64>,
}

/// Parse a run-set file.
pub fn records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let doc = json::parse(line)?;
            let obj = doc.as_object().ok_or("record: not an object")?;
            let object = |key: &str| match obj.get(key) {
                Some(Value::Object(m)) => Ok(m),
                other => Err(format!("field {key:?}: expected object, got {other:?}")),
            };
            let mut metrics = BTreeMap::new();
            for (name, m) in object("metrics")? {
                let m = m.as_object().ok_or("metric: not an object")?;
                metrics.insert(name.clone(), json::get_num(m, "value")?);
            }
            let counts = object("counts")?
                .iter()
                .map(|(name, v)| match v {
                    Value::Num(n) => Ok((name.clone(), *n as u64)),
                    other => Err(format!("count {name:?}: expected number, got {other:?}")),
                })
                .collect::<Result<_, String>>()?;
            Ok(Record {
                workload: json::get_str(obj, "workload")?,
                stream_key: format!(
                    "{}/{}/{}",
                    json::get_num(obj, "seed")?,
                    json::get_num(obj, "seconds")?,
                    json::get_num(obj, "trace")?
                ),
                exact_counts: json::get_bool(obj, "exact_counts")?,
                failed: json::get_num(obj, "failed")? as u64,
                truncated: json::get_bool(obj, "truncated")?,
                metrics,
                counts,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// Run-to-run spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One (workload, metric) row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// Change of B against A as a share of A, positive = worse.
    pub worse_by: f64,
    /// Wider of the two sides' quartile spreads; `None` with one run each.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Failed ops, truncated runs, count mismatches, missing workloads.
    pub problems: Vec<String>,
}

impl Comparison {
    pub fn ok(&self) -> bool {
        self.problems.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Worse)
    }

    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<18} {:<14} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
            "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<18} {:<14} {:>12.4} {:>12.4} {:>8.1}% {:>8} {:>5.0}%  {}\n",
                r.workload,
                r.metric,
                r.a,
                r.b,
                r.worse_by * 100.0,
                r.spread
                    .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
                r.bound * 100.0,
                r.verdict.label()
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("PROBLEM: {p}\n"));
        }
        out
    }
}

/// Compare run set `b` against baseline run set `a`.
pub fn compare(a: &[Record], b: &[Record], bounds: &[Bound]) -> Comparison {
    let mut out = Comparison::default();
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();

    for (side, set) in [("A", a), ("B", b)] {
        for r in set {
            if r.failed > 0 {
                out.problems.push(format!(
                    "{side}: {} run {} has {} failed ops",
                    r.workload, r.stream_key, r.failed
                ));
            }
            if r.truncated {
                out.problems.push(format!(
                    "{side}: {} run {} was truncated at its deadline",
                    r.workload, r.stream_key
                ));
            }
        }
    }

    for w in workloads {
        let of = |set: &[Record], metric: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == w)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for bound in bounds {
            let (va, vb) = (of(a, &bound.name), of(b, &bound.name));
            if va.is_empty() || vb.is_empty() {
                out.problems
                    .push(format!("{w}/{}: missing on one side", bound.name));
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = (mb - ma) / ma.abs();
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let spread = match (spread(&va), spread(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = if spread.is_some_and(|s| s > bound.bound) {
                Verdict::Unresolved
            } else if worse_by > bound.bound {
                Verdict::Worse
            } else if worse_by < -bound.bound {
                Verdict::Better
            } else {
                Verdict::Same
            };
            out.rows.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                a: ma,
                b: mb,
                worse_by,
                spread,
                bound: bound.bound,
                verdict,
            });
        }

        // Exact counts: every run of the same stream, on either side, must
        // report the same value for every count it shares with the first.
        let mut first: BTreeMap<&str, &Record> = BTreeMap::new();
        for r in a
            .iter()
            .chain(b)
            .filter(|r| r.workload == w && r.exact_counts)
        {
            let base = *first.entry(&r.stream_key).or_insert(r);
            for (name, v) in &r.counts {
                if base.counts.get(name).is_some_and(|bv| bv != v) {
                    out.problems.push(format!(
                        "{w} run {}: count {name} differs ({} vs {v})",
                        r.stream_key, base.counts[name]
                    ));
                }
            }
        }
    }
    out
}
