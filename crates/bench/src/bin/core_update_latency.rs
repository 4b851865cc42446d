//! Core per-point update latency of OneShotSTL (the paper's ">20,000
//! points/sec per series" claim, PAPER.md §5) of the library default
//! configuration across period lengths, plus
//! the anomaly path under both §3.4 shift-search policies: the default
//! pruned pipeline (top-k proxy candidates) and the exhaustive search
//! (`2H + 1` full trials per flagged point).
//!
//! Emits `BENCH_core.json` in the working directory — the repo's hot-path
//! latency trajectory seed, regenerated by the CI bench-smoke step in
//! `--quick` mode — and a markdown report under `target/experiments/`.
//! The steady-state path is zero-allocation (pinned by
//! `crates/core/tests/zero_alloc.rs`), so these numbers are pure compute
//! + cache behaviour.

use benchkit::{Cli, Experiment};
use decomp::traits::OnlineDecomposer;
use oneshotstl::{OneShotStl, OneShotStlConfig, ShiftPolicy, ShiftSearchConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct Run {
    period: usize,
    updates: u64,
    ns_per_update: f64,
    /// Anomaly-path latency, default pruned search under the one-flag
    /// trigger: (nearly) every measured point triggers the NSigma verdict
    /// and a top-k candidate pipeline.
    ns_per_shift_update: f64,
    /// Anomaly-path latency, exhaustive search (all `2H + 1` trials).
    ns_per_full_shift_update: f64,
}

fn stream(n: usize, t: usize) -> Vec<f64> {
    (0..n).map(|i| 2.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()).collect()
}

fn main() {
    let cli = Cli::parse();
    let periods: &[usize] = if cli.quick { &[50, 400] } else { &[50, 200, 1000, 4000] };
    let updates: u64 = if cli.quick { 20_000 } else { 200_000 };
    let shift_updates: u64 = if cli.quick { 200 } else { 2_000 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut runs = Vec::new();
    let mut report = Experiment::new("core_update_latency", "OneShotSTL per-point update cost");
    for &t in periods {
        let warm = 4 * t;
        let y = stream(warm + (updates as usize).max(4 * t), t);

        // steady state: in-phase stream, no anomalies
        let mut m = OneShotStl::default();
        m.init(&y[..warm], t).unwrap();
        for &v in &y[warm..warm + 1_000.min(y.len() - warm)] {
            std::hint::black_box(m.update(v));
        }
        let start = Instant::now();
        for i in 0..updates as usize {
            let v = y[warm + (i % (y.len() - warm))];
            std::hint::black_box(m.update(v));
        }
        let ns = start.elapsed().as_nanos() as f64 / updates as f64;

        // anomaly path: a +100 level jump forces the §3.4 search on
        // (nearly) every measured point — once pruned (default top-k
        // pipeline), once exhaustive (2H+1 = 41 retry trials with paper
        // defaults). The one-flag paper trigger keeps the search running:
        // under the default two-flag trigger the trend absorbs the jump
        // and the search stops after ~10 points, so the rows would time
        // plain updates
        let mut shift_ns = [0.0f64; 2];
        for (slot, search) in
            [ShiftSearchConfig::default(), ShiftSearchConfig::exhaustive()].iter().enumerate()
        {
            let mut m2 = OneShotStl::new(OneShotStlConfig {
                shift_search: *search,
                shift_policy: ShiftPolicy::Cumulative,
                ..Default::default()
            });
            m2.init(&y[..warm], t).unwrap();
            for &v in &y[warm..warm + 1_000.min(y.len() - warm)] {
                std::hint::black_box(m2.update(v));
            }
            let start = Instant::now();
            for i in 0..shift_updates as usize {
                let v = y[warm + (i % (y.len() - warm))] + 100.0;
                std::hint::black_box(m2.update(v));
            }
            shift_ns[slot] = start.elapsed().as_nanos() as f64 / shift_updates as f64;
        }

        eprintln!(
            "[core_update_latency] period {t}: {ns:.0} ns/update, \
             {:.0} ns/update with pruned shift search, {:.0} with full",
            shift_ns[0], shift_ns[1]
        );
        runs.push(Run {
            period: t,
            updates,
            ns_per_update: ns,
            ns_per_shift_update: shift_ns[0],
            ns_per_full_shift_update: shift_ns[1],
        });
    }

    // BENCH_core.json — hand-rolled (the workspace is dependency-free)
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"core_update_latency\",");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"quick\": {},", cli.quick);
    let _ = writeln!(json, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 == runs.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"period\": {}, \"updates\": {}, \"ns_per_update\": {:.1}, \
             \"ns_per_shift_update\": {:.1}, \"ns_per_full_shift_update\": {:.1}}}{comma}",
            r.period,
            r.updates,
            r.ns_per_update,
            r.ns_per_shift_update,
            r.ns_per_full_shift_update
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_core.json", &json).expect("writing BENCH_core.json");
    eprintln!("[core_update_latency] wrote BENCH_core.json");

    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.period.to_string(),
                format!("{:.0}", r.ns_per_update),
                format!("{:.0}", r.ns_per_shift_update),
                format!("{:.0}", r.ns_per_full_shift_update),
                format!("{:.0}", 1e9 / r.ns_per_update),
            ]
        })
        .collect();
    report.table(
        "Per-point update latency (single series, hot cache)",
        &[
            "period T",
            "ns/update",
            "ns/update (pruned shift)",
            "ns/update (full shift)",
            "pts/sec",
        ],
        &rows,
    );
    report.para(&format!(
        "host cores: {cores}; OneShotSTL updates are O(1) in T, so the \
         ns/update column should be flat"
    ));
    report.finish();
}
