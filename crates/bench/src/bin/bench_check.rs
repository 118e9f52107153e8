//! CI regression gate over the `BENCH_*.json` trajectory.
//!
//! Diffs the current run's reports against the committed
//! `bench/baseline/` snapshot and exits non-zero when any gated metric
//! exceeds `factor × baseline + unit floor` (factor 2.0 by default,
//! `IMP_BENCH_GATE_FACTOR` or `--factor` overrides; see
//! `imp_bench::report` for the gating rules and floors).
//!
//! ```text
//! bench_check [--baseline DIR] [--current DIR] [--factor F]
//!             [--history FILE] [--trend FILE] [--check-obs DIR]
//!             [--self-test]
//! ```
//!
//! * `--baseline` — committed snapshot directory (default `bench/baseline`).
//! * `--current`  — directory holding this run's `BENCH_*.json` (default `.`).
//! * `--factor`   — regression factor override.
//! * `--history`  — append one JSONL line per current harness (git SHA +
//!   every gated metric, see `imp_bench::report::history_line`) to FILE
//!   before gating, so CI accumulates the gated trajectory across
//!   commits even on runs the gate fails.
//! * `--trend` — standalone mode: read an accumulated `history.jsonl`
//!   and print one markdown table per harness — gated metrics down the
//!   rows, one column per recorded run (short SHA) — so the cross-commit
//!   trajectory is readable without any plotting tooling.
//! * `--check-obs` — standalone mode: validate the `IMP_OBS=1`
//!   observability artifacts in DIR — every `TRACE_*.json` parses as
//!   Chrome trace-event JSON with at least one complete-event span,
//!   every `METRICS_*.json` parses as a registry snapshot whose metric
//!   names all appear in the paired `METRICS_*.prom` text exposition,
//!   and every exposition line carries a numeric value.
//! * `--check-obsd` — standalone mode: validate the obsd endpoint
//!   artifacts in DIR (written by `fig_obsd` or curled from a live
//!   endpoint) — at least one `*.prom` scrape, and every exposition
//!   line parses as `name{labels} value`.
//! * `--self-test` — no files: build an in-memory baseline, inject a
//!   synthetic 2× regression, and verify the gate catches it (and that a
//!   clean run passes). Run in CI before the real gate so a silently
//!   broken comparator can't wave regressions through.
//!
//! Baseline files recorded at a different `IMP_BENCH_SCALE` than the
//! current run are skipped (numbers across scales are incomparable), so
//! a local full-scale run next to the scale-0.01 baseline is a no-op
//! rather than a wall of false regressions.

use imp_bench::report::{compare, gate_factor, history_line, BenchReport, Regression};
use imp_bench::{print_table, Record, Unit};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut baseline_dir = PathBuf::from("bench/baseline");
    let mut current_dir = PathBuf::from(".");
    let mut factor = gate_factor();
    let mut history: Option<PathBuf> = None;
    let mut trend: Option<PathBuf> = None;
    let mut check_obs: Option<PathBuf> = None;
    let mut check_obsd: Option<PathBuf> = None;
    let mut self_test = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_dir = required(&mut args, "--baseline").into(),
            "--current" => current_dir = required(&mut args, "--current").into(),
            "--factor" => {
                factor = imp_bench::parse_env("--factor", &required(&mut args, "--factor"))
            }
            "--history" => history = Some(required(&mut args, "--history").into()),
            "--trend" => trend = Some(required(&mut args, "--trend").into()),
            "--check-obs" => check_obs = Some(required(&mut args, "--check-obs").into()),
            "--check-obsd" => check_obsd = Some(required(&mut args, "--check-obsd").into()),
            "--self-test" => self_test = true,
            "--help" | "-h" => {
                println!(
                    "bench_check [--baseline DIR] [--current DIR] [--factor F] \
                     [--history FILE] [--trend FILE] [--check-obs DIR] \
                     [--check-obsd DIR] [--self-test]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("bench_check: unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    if self_test {
        return run_self_test(factor);
    }
    if let Some(path) = trend {
        return run_trend(&path);
    }
    if let Some(dir) = check_obs {
        return run_check_obs(&dir);
    }
    if let Some(dir) = check_obsd {
        return run_check_obsd(&dir);
    }
    run_gate(&baseline_dir, &current_dir, factor, history.as_deref())
}

/// Append one JSONL line per current report to `path` (created if
/// absent). Runs before the gate verdict so failing runs still land on
/// the trajectory. IO failure fails the job — a silently lost trajectory
/// point defeats the purpose.
fn append_history(path: &Path, currents: &[(String, BenchReport)]) {
    use std::io::Write as _;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("bench_check: cannot create {}: {e}", dir.display()));
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("bench_check: cannot open {}: {e}", path.display()));
    for (_, report) in currents {
        writeln!(file, "{}", history_line(report))
            .unwrap_or_else(|e| panic!("bench_check: cannot append to {}: {e}", path.display()));
    }
    println!(
        "appended {} history line(s) to {}",
        currents.len(),
        path.display()
    );
}

fn required(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| panic!("bench_check: {flag} needs a value"))
}

/// Load every `BENCH_*.json` in `dir`, sorted by file name.
fn load_reports(dir: &Path) -> Vec<(String, BenchReport)> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", dir.display());
            return out;
        }
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = match std::fs::read_to_string(entry.path()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_check: cannot read {name}: {e}");
                continue;
            }
        };
        match BenchReport::from_json(&text) {
            Ok(report) => out.push((name, report)),
            Err(e) => eprintln!("bench_check: {name} is not a valid report: {e}"),
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

fn run_gate(
    baseline_dir: &Path,
    current_dir: &Path,
    factor: f64,
    history: Option<&Path>,
) -> ExitCode {
    let baselines = load_reports(baseline_dir);
    if baselines.is_empty() {
        eprintln!(
            "bench_check: no BENCH_*.json baselines under {} — nothing to gate",
            baseline_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let currents = load_reports(current_dir);
    if let Some(path) = history {
        append_history(path, &currents);
    }

    let mut compared = 0usize;
    let mut missing_files = 0usize;
    let mut all_regressions: Vec<Regression> = Vec::new();
    for (name, baseline) in &baselines {
        let Some((_, current)) = currents.iter().find(|(n, _)| n == name) else {
            println!(
                "{name}: missing from current run ({})",
                current_dir.display()
            );
            missing_files += 1;
            continue;
        };
        let outcome = compare(baseline, current, factor);
        for note in &outcome.notes {
            println!("note: {note}");
        }
        println!(
            "{name}: {} gated metrics compared, {} regression(s)",
            outcome.compared,
            outcome.regressions.len()
        );
        compared += outcome.compared;
        all_regressions.extend(outcome.regressions);
    }

    if !all_regressions.is_empty() {
        let rows: Vec<Vec<String>> = all_regressions
            .iter()
            .map(|r| {
                vec![
                    r.harness.clone(),
                    r.experiment.clone(),
                    r.config.clone(),
                    r.metric.clone(),
                    format!("{:.0}", r.baseline),
                    format!("{:.0}", r.current),
                    if r.factor.is_finite() {
                        format!("{:.2}x", r.factor)
                    } else {
                        "inf".into()
                    },
                ]
            })
            .collect();
        print_table(
            &format!("REGRESSIONS (current > {factor}x baseline + floor)"),
            &[
                "harness",
                "experiment",
                "config",
                "metric",
                "baseline",
                "current",
                "ratio",
            ],
            &rows,
        );
        eprintln!(
            "\nbench_check: FAIL — {} regression(s) across {} compared metrics. \
             If intentional, refresh bench/baseline/ (see README \"Benchmark trajectory\").",
            all_regressions.len(),
            compared
        );
        return ExitCode::FAILURE;
    }
    if missing_files > 0 {
        eprintln!(
            "\nbench_check: FAIL — {missing_files} baseline harness file(s) absent from the \
             current run; every baselined harness must emit its report"
        );
        return ExitCode::FAILURE;
    }
    println!("\nbench_check: OK — {compared} gated metrics within {factor}x of baseline");
    ExitCode::SUCCESS
}

/// `--trend`: render an accumulated `history.jsonl` as one markdown
/// table per harness — gated metrics down the rows, one column per
/// recorded run (short SHA, file order = commit order).
fn run_trend(path: &Path) -> ExitCode {
    use imp_bench::report::json;
    use std::collections::BTreeMap;

    struct Trend {
        columns: Vec<String>,
        metrics: BTreeMap<String, Vec<Option<f64>>>,
    }
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut harnesses: Vec<(String, Trend)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fail = |msg: String| -> ExitCode {
            eprintln!("bench_check: {} line {}: {msg}", path.display(), i + 1);
            ExitCode::FAILURE
        };
        let parsed = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let Some(obj) = parsed.as_object() else {
            return fail("not a JSON object".into());
        };
        let (sha, harness) = match (json::get_str(obj, "sha"), json::get_str(obj, "harness")) {
            (Ok(s), Ok(h)) => (s, h),
            (Err(e), _) | (_, Err(e)) => return fail(e),
        };
        let Some(json::Value::Object(gated)) = obj.get("gated") else {
            return fail("field \"gated\": expected object".into());
        };
        let trend = match harnesses.iter_mut().find(|(h, _)| *h == harness) {
            Some((_, t)) => t,
            None => {
                harnesses.push((
                    harness,
                    Trend {
                        columns: Vec::new(),
                        metrics: BTreeMap::new(),
                    },
                ));
                &mut harnesses.last_mut().unwrap().1
            }
        };
        let col = trend.columns.len();
        trend.columns.push(sha.chars().take(9).collect());
        for (key, value) in gated {
            let json::Value::Num(n) = value else {
                return fail(format!("gated metric {key:?} is not a number"));
            };
            trend
                .metrics
                .entry(key.clone())
                .or_insert_with(|| vec![None; col])
                .push(Some(*n));
        }
        // Metrics a run didn't emit stay visible as gaps, not shifts.
        for vals in trend.metrics.values_mut() {
            vals.resize(col + 1, None);
        }
    }
    if harnesses.is_empty() {
        eprintln!(
            "bench_check: {} holds no trend lines — run with --history first",
            path.display()
        );
        return ExitCode::FAILURE;
    }
    for (harness, trend) in &harnesses {
        println!("\n### {harness} ({} run(s))\n", trend.columns.len());
        println!("| metric | {} |", trend.columns.join(" | "));
        println!("|---|{}", "---:|".repeat(trend.columns.len()));
        for (metric, vals) in &trend.metrics {
            let cells: Vec<String> = vals
                .iter()
                .map(|v| v.map_or_else(|| "-".into(), trend_num))
                .collect();
            println!("| {metric} | {} |", cells.join(" | "));
        }
    }
    ExitCode::SUCCESS
}

/// Compact cell format for trend tables.
fn trend_num(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// `--check-obs`: validate the `IMP_OBS=1` artifacts in `dir` (see the
/// module docs). Any malformed or missing artifact fails the job — a CI
/// smoke run that silently produced empty traces would let the
/// instrumentation rot.
fn run_check_obs(dir: &Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();

    let mut traces = 0usize;
    let mut metrics = 0usize;
    let mut problems: Vec<String> = Vec::new();
    for name in &names {
        let path = dir.join(name);
        if name.starts_with("TRACE_") && name.ends_with(".json") {
            traces += 1;
            match check_trace_file(&path) {
                Ok(events) => println!("{name}: {events} trace event(s) OK"),
                Err(e) => problems.push(format!("{name}: {e}")),
            }
        } else if name.starts_with("METRICS_") && name.ends_with(".json") {
            metrics += 1;
            match check_metrics_file(&path) {
                Ok(count) => println!("{name}: {count} metric(s) OK, matches .prom"),
                Err(e) => problems.push(format!("{name}: {e}")),
            }
        }
    }
    if traces == 0 {
        problems.push(format!("no TRACE_*.json artifacts under {}", dir.display()));
    }
    if metrics == 0 {
        problems.push(format!(
            "no METRICS_*.json artifacts under {}",
            dir.display()
        ));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("bench_check: {p}");
        }
        eprintln!(
            "\nbench_check: FAIL — {} obs artifact problem(s)",
            problems.len()
        );
        return ExitCode::FAILURE;
    }
    println!("\nbench_check: OK — {traces} trace + {metrics} metrics artifact(s) valid");
    ExitCode::SUCCESS
}

/// One `TRACE_*.json`: Chrome trace-event JSON whose `traceEvents` array
/// holds at least one complete (`ph:"X"`) event with the fields the
/// viewers require. Returns the event count.
fn check_trace_file(path: &Path) -> Result<usize, String> {
    use imp_bench::report::json;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let parsed = json::parse(&text)?;
    let obj = parsed.as_object().ok_or("not a JSON object")?;
    let events = json::get_array(obj, "traceEvents")?;
    if events.is_empty() {
        return Err("traceEvents is empty — no spans were recorded".into());
    }
    for (i, event) in events.iter().enumerate() {
        let e = event
            .as_object()
            .ok_or(format!("event {i} is not an object"))?;
        json::get_str(e, "name").map_err(|msg| format!("event {i}: {msg}"))?;
        let ph = json::get_str(e, "ph").map_err(|msg| format!("event {i}: {msg}"))?;
        if ph != "X" {
            return Err(format!(
                "event {i}: expected complete event ph \"X\", got {ph:?}"
            ));
        }
        for field in ["ts", "dur", "pid", "tid"] {
            json::get_num(e, field).map_err(|msg| format!("event {i}: {msg}"))?;
        }
    }
    Ok(events.len())
}

/// One `METRICS_*.json`: a non-empty registry snapshot whose every
/// metric name also appears in the paired `.prom` exposition, each
/// exposition line carrying a parseable numeric value. Returns the
/// metric count.
fn check_metrics_file(path: &Path) -> Result<usize, String> {
    use imp_bench::report::json;
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let parsed = json::parse(&text)?;
    let obj = parsed.as_object().ok_or("not a JSON object")?;
    let list = json::get_array(obj, "metrics")?;
    if list.is_empty() {
        return Err("metrics array is empty — nothing was registered".into());
    }
    let prom_path = path.with_extension("prom");
    let prom = std::fs::read_to_string(&prom_path)
        .map_err(|e| format!("paired exposition {}: {e}", prom_path.display()))?;
    for (i, metric) in list.iter().enumerate() {
        let m = metric
            .as_object()
            .ok_or(format!("metric {i} is not an object"))?;
        let name = json::get_str(m, "name").map_err(|e| format!("metric {i}: {e}"))?;
        let kind = json::get_str(m, "kind").map_err(|e| format!("metric {i}: {e}"))?;
        let fields: &[&str] = match kind.as_str() {
            "counter" | "gauge" => &["value"],
            "histogram" => &["count", "sum", "max", "p50", "p90", "p99"],
            other => return Err(format!("metric {i} ({name}): unknown kind {other:?}")),
        };
        for field in fields {
            json::get_num(m, field).map_err(|msg| format!("metric {i} ({name}): {msg}"))?;
        }
        if !prom.contains(&name) {
            return Err(format!(
                "metric {name:?} missing from {}",
                prom_path.display()
            ));
        }
    }
    for (i, line) in prom.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let value = line
            .rsplit_once(' ')
            .map(|(_, v)| v)
            .ok_or(format!("exposition line {}: no value", i + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("exposition line {}: value {value:?} is not numeric", i + 1))?;
    }
    Ok(list.len())
}

/// `--check-obsd`: validate obsd endpoint artifacts in `dir` (see the
/// module docs). The CI smoke job curls a live endpoint and `fig_obsd`
/// writes its own captures; either way a missing or malformed artifact
/// fails the job so the telemetry plane can't silently regress to
/// serving garbage.
fn run_check_obsd(dir: &Path) -> ExitCode {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("bench_check: cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    let mut names: Vec<String> = entries
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();

    let mut scrapes = 0usize;
    let mut problems: Vec<String> = Vec::new();
    for name in &names {
        if !name.ends_with(".prom") || name.starts_with("METRICS_") {
            continue; // METRICS_* pairs belong to --check-obs
        }
        scrapes += 1;
        match check_prom_scrape(&dir.join(name)) {
            Ok(series) => println!("{name}: {series} exposition series OK"),
            Err(e) => problems.push(format!("{name}: {e}")),
        }
    }
    if scrapes == 0 {
        problems.push(format!(
            "no *.prom endpoint scrapes under {}",
            dir.display()
        ));
    }
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("bench_check: {p}");
        }
        eprintln!(
            "\nbench_check: FAIL — {} obsd artifact problem(s)",
            problems.len()
        );
        return ExitCode::FAILURE;
    }
    println!("\nbench_check: OK — {scrapes} scrape(s) valid");
    ExitCode::SUCCESS
}

/// One `/metrics` scrape: every non-comment line must be
/// `name{labels} value` with a numeric value and a sane metric-name
/// charset, and at least one series must be present. Returns the series
/// count.
fn check_prom_scrape(path: &Path) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut series = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {}: no value", i + 1))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {}: value {value:?} is not numeric", i + 1))?;
        let name = name_part.split('{').next().unwrap_or_default();
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(format!("line {}: bad metric name in {line:?}", i + 1));
        }
        series += 1;
    }
    if series == 0 {
        return Err("empty exposition — the endpoint served no series".into());
    }
    Ok(series)
}

/// Prove the gate actually gates: a clean pair passes, an injected 2×
/// regression (above the unit floor) fails, sub-floor noise passes, and
/// ungated metrics are ignored however bad they look.
fn run_self_test(factor: f64) -> ExitCode {
    let report_with = |maintain_ns: f64, heap: u64, rate: f64| {
        let mut r = BenchReport::new("self_test");
        r.add(
            Record::new("exp", "cfg")
                .metric("maintain_ns_median", maintain_ns, Unit::Ns, true)
                .heap("state_bytes", heap)
                .ratio("memo_rate", rate),
        );
        r
    };
    // 50 ms baseline: far above the 5 ms Ns floor so the factor governs.
    let baseline = report_with(50e6, 1 << 20, 0.9);

    let clean = compare(&baseline, &report_with(55e6, 1 << 20, 0.9), factor);
    assert!(
        clean.regressions.is_empty() && clean.compared == 2,
        "self-test: clean run flagged: {clean:?}"
    );

    let slow = report_with(50e6 * factor + 6e6, 1 << 20, 0.9);
    let caught = compare(&baseline, &slow, factor);
    assert_eq!(
        caught.regressions.len(),
        1,
        "self-test: injected {factor}x timing regression not caught: {caught:?}"
    );
    assert_eq!(caught.regressions[0].metric, "maintain_ns_median");

    let bloated = report_with(50e6, (3 << 20) + 8192, 0.9);
    let caught_heap = compare(&baseline, &bloated, factor);
    assert_eq!(
        caught_heap.regressions.len(),
        1,
        "self-test: injected heap regression not caught: {caught_heap:?}"
    );

    // A collapsed memo rate is ungated — trajectory-only.
    let rate_drop = compare(&baseline, &report_with(50e6, 1 << 20, 0.0), factor);
    assert!(
        rate_drop.regressions.is_empty(),
        "self-test: ungated metric gated: {rate_drop:?}"
    );

    // Scale mismatch skips instead of comparing.
    let mut rescaled = report_with(500e6, 1 << 30, 0.9);
    rescaled.scale *= 10.0;
    let skipped = compare(&baseline, &rescaled, factor);
    assert!(
        skipped.compared == 0 && skipped.regressions.is_empty(),
        "self-test: cross-scale reports were compared: {skipped:?}"
    );

    println!("bench_check: self-test OK (factor {factor})");
    ExitCode::SUCCESS
}
