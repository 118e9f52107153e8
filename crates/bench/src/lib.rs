//! # imp-bench
//!
//! Benchmark harness regenerating every table and figure of the IMP
//! paper's evaluation (§8). One binary per figure (see `src/bin/`); each
//! prints the same series the paper plots, as aligned text tables.
//! `fig_advisor` plots the sketch advisor's budgeted vs. keep-everything
//! stores. The benchmark of record for one update→query cycle, layer by
//! layer and through the scheduler, is `bench_cycle` (`cyclebench/`);
//! that maintenance cost follows |Δ| and not the base size is a tier-1
//! count test (`heap_oracle`), not a harness.
//!
//! Scale: the paper runs on a 12-core/128 GB server with 1–10 GB datasets;
//! these harnesses default to laptop-scale sizes. Set `IMP_BENCH_SCALE`
//! (float, default 1.0) to scale row counts up or down — the *shapes*
//! (who wins, slopes in delta size, break-even crossovers as a fraction of
//! the table) are scale-free.
//!
//! Every harness additionally writes its machine-readable trajectory
//! point as `BENCH_<harness>.json` (see [`report`]), and the `bench_check`
//! binary gates CI on regressions against the committed `bench/baseline/`
//! snapshot.

pub mod harness;
pub mod report;

pub use harness::*;
pub use report::{BenchReport, Record, Unit};
