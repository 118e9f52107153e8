//! Skew stress: Zipfian update routing against the sharded scheduler.
//!
//! Real update streams are not uniform: the Chicago-crimes beats follow a
//! Zipf law, and a handful of hot tables absorb most of the write
//! traffic. This harness reuses `imp_data::crimes::ZipfSampler`
//! (exponent 2.0 — hot table gets ~2/3 of all batches) to draw the
//! target table of every update batch, so one template-hash shard's
//! queue grows far deeper than the rest.
//!
//! The contract under test: the shard pool keeps draining under skew.
//! The harness **panics** when any shard queue is non-empty after
//! `drain()`, when the skewed pools' final sketch states differ from the
//! zero-worker store, when the stream was not actually skewed (hot table
//! short of a majority of the batches), or when a steal is misattributed
//! (per-victim counts must sum to the steal count, and every victim must
//! have had backlog). How many steals happen depends on thread timing —
//! `drain()` claims on the calling thread too — so their count is
//! reported, not asserted; that a steal happens and is attributed is
//! pinned without a clock by the `an_idle_worker_steals_a_backlog` unit
//! test of `imp_core::sched`. The config forces per-batch claims
//! (coalesce budget = batch size) and a tiny staging queue (inline
//! drains push the backlog into inboxes while paused), so the hot shard
//! holds many small claims for thieves to take.

use imp_bench::*;
use imp_core::middleware::{Imp, ImpConfig};
use imp_data::crimes::ZipfSampler;
use imp_data::queries;
use imp_data::synthetic::{load, SyntheticConfig};
use imp_data::workload::{insert_stream, WorkloadOp};
use imp_engine::Database;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const TABLES: usize = 6;

fn table_names() -> Vec<String> {
    (0..TABLES).map(|i| format!("z{i}")).collect()
}

fn build_imp(workers: usize, rows: usize, groups: i64, delta: usize) -> Imp {
    let mut db = Database::new();
    for name in table_names() {
        load(
            &mut db,
            &SyntheticConfig {
                name,
                rows,
                groups,
                ..Default::default()
            },
        )
        .unwrap();
    }
    let mut imp = Imp::new(
        db,
        ImpConfig {
            fragments: 50,
            columnar_min: columnar_min(),
            sched_workers: workers,
            // Budget = one update batch: every claim takes a single
            // batch, so the hot backlog drains across many claims and
            // idle workers find work to steal.
            coalesce_budget: delta,
            // Near-zero staging: paused-phase routing overflows inline
            // every third update, pushing (mostly hot) batches into the
            // inboxes one by one instead of letting collection merge the
            // whole backlog into one batch per table.
            ingest_queue_cap: 2,
            work_stealing: true,
            ..Default::default()
        },
    );
    for name in table_names() {
        imp.execute(&queries::q_groups(&name, 1_600)).unwrap();
    }
    assert_eq!(imp.sketch_count(), TABLES, "every query must capture");
    imp
}

fn main() {
    let rows = scaled(20_000, 400);
    let groups = 200i64;
    let delta = scaled(500, 20);
    let batches = scaled(96, 24);

    // Zipfian table choice per batch: with exponent 2.0 over 6 tables the
    // head table draws ~67% of the stream, so its template-hash shard
    // queues a majority of all batches while the tail shards idle.
    let zipf = ZipfSampler::new(TABLES, 2.0);
    let mut rng = StdRng::seed_from_u64(42);
    let names = table_names();
    let mut per_table = [0usize; TABLES];
    let updates: Vec<String> = (0..batches)
        .map(|i| {
            let t = zipf.sample(&mut rng);
            per_table[t] += 1;
            let ops = insert_stream(&names[t], 1, delta, groups, rows * 4 + i * delta, i as u64);
            let WorkloadOp::Update { sql, .. } = ops[0].clone() else {
                unreachable!()
            };
            sql
        })
        .collect();
    let hot_share = *per_table.iter().max().unwrap() as f64 / batches as f64;
    println!(
        "skew: {batches} batches x {delta} rows over {TABLES} tables, \
         hot table share {:.0}%",
        hot_share * 100.0
    );
    assert!(
        hot_share > 0.5,
        "stream not skewed (hot share {hot_share:.2}) — the experiment would not stress one shard"
    );

    // Sequential ground truth.
    let mut seq = build_imp(0, rows, groups, delta);
    for sql in &updates {
        seq.execute(sql).unwrap();
    }
    seq.maintain_all_stale().unwrap();
    let truth = seq.sketch_states();

    let mut report = BenchReport::new("fig_skew");
    report.add(Record::new("skew", "stream".to_string()).ratio("hot_share", hot_share));
    let mut out = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut imp = build_imp(workers, rows, groups, delta);

        // Phase 1 — paused routing: queues fill deterministically, the hot
        // shard's high-water mark shows the skew landing on one queue.
        let paused = imp.scheduler().unwrap().pause();
        for sql in &updates {
            imp.execute(sql).unwrap();
        }
        let queued = imp.scheduler().unwrap().stats();
        let max_depth = queued
            .per_shard
            .iter()
            .map(|s| s.max_depth)
            .max()
            .unwrap_or(0);
        let t0 = Instant::now();
        paused.resume();
        imp.scheduler().unwrap().drain();
        let drained = t0.elapsed();

        let stats = imp.scheduler().unwrap().stats();
        for (i, shard) in stats.per_shard.iter().enumerate() {
            assert_eq!(
                shard.depth, 0,
                "shard {i} still holds {} message(s) after drain with {workers} worker(s)",
                shard.depth
            );
        }
        assert_eq!(
            imp.sketch_states(),
            truth,
            "{workers}-worker pool diverged from the sequential store under skew"
        );
        // Steal-aware placement invariants. The victim-selection gauges
        // are deliberately racy (a stale pick costs one miss), so the
        // hottest-by-high-water shard is not *always* the top victim;
        // what must hold exactly: every steal is attributed to exactly
        // one victim, and every victim actually had backlog to steal.
        let hot_stolen = if workers >= 2 && stats.steals >= 1 {
            assert_eq!(
                stats.stolen_from.iter().sum::<u64>(),
                stats.steals,
                "per-victim steal accounting must sum to the steal count: {stats:?}"
            );
            for (i, (stolen, shard)) in stats.stolen_from.iter().zip(&stats.per_shard).enumerate() {
                assert!(
                    *stolen == 0 || shard.max_depth > 0,
                    "shard {i} was stolen from {stolen} time(s) but its inbox \
                     high-water is zero — thieves must target backlogged shards \
                     (stolen_from {:?}, per-shard high-water {:?})",
                    stats.stolen_from,
                    stats
                        .per_shard
                        .iter()
                        .map(|s| s.max_depth)
                        .collect::<Vec<_>>()
                );
            }
            let hottest = stats
                .per_shard
                .iter()
                .enumerate()
                .max_by_key(|(_, s)| s.max_depth)
                .map(|(i, _)| i)
                .unwrap();
            stats.stolen_from[hottest]
        } else {
            0
        };

        report.add(
            Record::new("skew", format!("w{workers}"))
                .time("drain", drained)
                .count("routed_batches", stats.routed_batches, true)
                .count("maintain_runs", stats.maintain_runs, false)
                .count("coalesced_batches", stats.coalesced_batches, false)
                .count("backpressure_stalls", stats.backpressure_stalls, false)
                .count("staged_updates", stats.staged_updates, false)
                .count("steals", stats.steals, false)
                .count("stolen_batches", stats.stolen_batches, false)
                .count("hot_shard_stolen_from", hot_stolen, false)
                .count("max_queue_depth", max_depth, false),
        );
        out.push(vec![
            workers.to_string(),
            ms(drained.as_secs_f64() * 1e3),
            stats.maintain_runs.to_string(),
            stats.routed_batches.to_string(),
            stats.coalesced_batches.to_string(),
            stats.backpressure_stalls.to_string(),
            stats.steals.to_string(),
            stats.stolen_batches.to_string(),
            max_depth.to_string(),
        ]);
    }

    print_table(
        "skew: Zipfian stream through 1/2/4-worker pools",
        &[
            "workers",
            "drain",
            "runs",
            "routed",
            "coalesced",
            "stalls",
            "steals",
            "stolen",
            "max q",
        ],
        &out,
    );
    println!(
        "\nall pools drained and byte-identical to the sequential store under skew ✓ \
         (steals are counted, and each is attributed to a backlogged victim)"
    );
    report.finish();
}
