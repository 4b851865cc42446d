//! Quality/cost ablation of the two-stage §3.4 shift search, plus the
//! `iters` accuracy/footprint ablation.
//!
//! The pruned search is behavior-changing, so its default `k` must be
//! chosen by data: this binary sweeps `k` on the paper's
//! shifted-seasonality workloads (Syn2-style streams whose phase
//! permanently drifts mid-stream, at several noise levels) and records,
//! per policy:
//!
//! - decomposition MAE against the known clean signal, and the MAE gap
//!   vs the exhaustive (`prune: Off`) search,
//! - full IRLS trials per flagged point (the cost the pruning bounds),
//! - wall time per update.
//!
//! A second sweep runs `iters` ∈ {2, 3, 4, 5, 6, 8} (accuracy vs
//! per-update cost and per-series state footprint; the record behind the
//! default `iters: 5`, see `docs/ARCHITECTURE.md`, "IRLS iterations").
//!
//! A third part prices the search *trigger*: the default two-flag
//! [`ShiftPolicy::Confirmed`] against the paper's one-flag
//! [`ShiftPolicy::Cumulative`], on a spiky stationary-phase fixture
//! (searches per kpt, per 1000-point block) and on the shifted fixtures
//! (MAE).
//!
//! Modes: the default run emits `BENCH_shift_ablation.json` plus a
//! markdown report under `target/experiments/`; `--smoke` is the CI
//! gate — a reduced sweep that **fails the process** when the default
//! pruned policy regresses (MAE gap vs full search > 1%, or more than
//! `k + 1` trials per flagged point), or when the default trigger runs
//! more than 5 searches per kpt on the spiky fixture, searches more in
//! its last block than in its first, or loses more than 5% MAE to the
//! one-flag trigger on the shifted fixtures.

use benchkit::{Cli, Experiment};
use decomp::traits::OnlineDecomposer;
use oneshotstl::{
    OneShotStl, OneShotStlConfig, OneShotStlState, ShiftPolicy, ShiftSearchConfig, SolverState,
    DEFAULT_SHIFT_TOP_K,
};
use std::fmt::Write as _;
use std::time::Instant;

const PERIOD: usize = 50;
const INIT_CYCLES: usize = 4;

/// Deterministic noise in [-1, 1): splitmix-style hash of (seed, i), so
/// every policy sees the identical stream.
fn noise_unit(seed: u64, i: usize) -> f64 {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d);
    s ^= s >> 30;
    s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    s ^= s >> 27;
    (s >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// One shifted-seasonality fixture: `(values, clean)` where `clean` is
/// the noise-free seasonal + trend signal the decomposition should
/// recover. The phase permanently shifts by +6 a third of the way in and
/// by a further −4 at two thirds — the paper's Syn2 scenario, twice.
fn fixture(seed: u64, noise_amp: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
    let (s1, s2) = (n / 3, 2 * n / 3);
    let mut values = Vec::with_capacity(n);
    let mut clean = Vec::with_capacity(n);
    for i in 0..n {
        let delta = if i >= s2 {
            2usize // +6 then −4, cumulative
        } else if i >= s1 {
            6
        } else {
            0
        };
        let phase = (i + PERIOD - delta) % PERIOD;
        let c = 3.0 * (2.0 * std::f64::consts::PI * phase as f64 / PERIOD as f64).sin()
            + 0.002 * i as f64;
        clean.push(c);
        values.push(c + noise_amp * noise_unit(seed, i));
    }
    (values, clean)
}

/// Online points of a spiky fixture series, in `SPIKY_BLOCKS` blocks of
/// 1000.
const SPIKY_BLOCKS: usize = 4;

/// One spiky stationary-phase series: season (amplitude 1–2, random
/// phase) + a gentle trend + ±0.05 noise, with isolated +1.5 spikes on
/// 0.2% of points and no phase change — the `Normal` series shape of the
/// repo benchmark. Every search on it is a false one.
fn spiky_fixture(seed: u64, n: usize) -> Vec<f64> {
    let phase = (noise_unit(seed, usize::MAX) + 1.0) / 2.0;
    let amp = 1.5 + noise_unit(seed, usize::MAX - 1) / 2.0;
    let slope = 0.0005 * (seed % 5) as f64;
    (0..n)
        .map(|i| {
            let x = i as f64 / PERIOD as f64 + phase;
            let spike = if noise_unit(seed ^ 0x5b1e, i) < -0.996 { 1.5 } else { 0.0 };
            amp * (2.0 * std::f64::consts::PI * x).sin()
                + slope * i as f64
                + 0.05 * noise_unit(seed, i)
                + spike
        })
        .collect()
}

/// Shift searches per 1000-point block of a spiky fixture series.
fn spiky_blocks(values: &[f64], cfg: OneShotStlConfig) -> [u64; SPIKY_BLOCKS] {
    let init = INIT_CYCLES * PERIOD;
    let mut m = OneShotStl::new(cfg);
    m.init(&values[..init], PERIOD).unwrap();
    let mut blocks = [0u64; SPIKY_BLOCKS];
    for (i, &v) in values[init..].iter().enumerate() {
        let before = m.shift_search_stats().0;
        m.update(v);
        blocks[i / 1000] += m.shift_search_stats().0 - before;
    }
    blocks
}

struct RunOut {
    /// MAE of `τ̂ + ŝ` against the clean signal, post-first-shift region.
    mae: f64,
    /// Flagged points (shift searches run).
    searches: u64,
    /// Full IRLS trials those searches ran (incl. the Δt = 0 baseline).
    trials: u64,
    /// Nanoseconds per online update.
    ns_per_update: f64,
    /// Per-series state footprint (serialized f64/u64 payload words × 8).
    state_bytes: usize,
}

/// Streams one fixture through a model and scores it.
fn run(values: &[f64], clean: &[f64], cfg: OneShotStlConfig) -> RunOut {
    let init = INIT_CYCLES * PERIOD;
    let mut m = OneShotStl::new(cfg);
    m.init(&values[..init], PERIOD).unwrap();
    let t0 = Instant::now();
    let mut abs_err = 0.0;
    let mut scored = 0usize;
    let first_shift = values.len() / 3;
    for (i, &v) in values[init..].iter().enumerate() {
        let p = m.update(v);
        // score where it is hard: from the first phase shift onward
        if init + i >= first_shift {
            abs_err += (p.trend + p.seasonal - clean[init + i]).abs();
            scored += 1;
        }
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    let (searches, trials) = m.shift_search_stats();
    RunOut {
        mae: abs_err / scored as f64,
        searches,
        trials,
        ns_per_update: elapsed / (values.len() - init) as f64,
        state_bytes: state_bytes(&m.to_state()),
    }
}

/// Serialized size of the per-series numeric state (the footprint the
/// `iters` ablation trades against accuracy): 8 bytes per f64/u64 word.
fn state_bytes(st: &OneShotStlState) -> usize {
    let mut words = st.v.len() + 2 + 2; // v, y_hist, u_hist
    for it in &st.iters {
        words += 6; // pw/qw/tau histories
        words += match &it.solver {
            SolverState::Warmup { y, u, pw, qw } => y.len() + u.len() + pw.len() + qw.len(),
            SolverState::Steady { lo, dd, zo, .. } => 1 + lo.len() + dd.len() + zo.len(),
        };
    }
    (words + 4) * 8 // + NSigma running stats
}

struct PolicyRow {
    label: String,
    k: Option<usize>,
    mae: f64,
    mae_gap_pct: f64,
    trials_per_search: f64,
    ns_per_update: f64,
}

fn main() {
    let cli = Cli::parse();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let quick = cli.quick || smoke;
    let n: usize = if quick { 1_800 } else { 6_000 };
    let fixtures: Vec<(u64, f64)> = if quick {
        vec![(1, 0.02), (2, 0.1)]
    } else {
        vec![(1, 0.02), (2, 0.05), (3, 0.1), (4, 0.2), (5, 0.05), (6, 0.1)]
    };
    let streams: Vec<(Vec<f64>, Vec<f64>)> =
        fixtures.iter().map(|&(seed, amp)| fixture(seed, amp, n)).collect();

    let h = OneShotStlConfig::default().shift_window; // 20 → 41-offset search
    let ks: Vec<usize> =
        if quick { vec![1, DEFAULT_SHIFT_TOP_K, 16] } else { vec![1, 2, 4, 8, 16] };

    // ── sweep 1: pruning policy ─────────────────────────────────────────
    let policies: Vec<(String, Option<usize>, ShiftSearchConfig)> =
        std::iter::once(("full (Off)".to_string(), None, ShiftSearchConfig::exhaustive()))
            .chain(
                ks.iter()
                    .map(|&k| (format!("TopK({k})"), Some(k), ShiftSearchConfig::top_k(k))),
            )
            .collect();
    let mut rows: Vec<PolicyRow> = Vec::new();
    let mut full_mae = 0.0;
    for (label, k, search) in &policies {
        let mut mae = 0.0;
        let mut searches = 0u64;
        let mut trials = 0u64;
        let mut ns = 0.0;
        for (values, clean) in &streams {
            let out = run(
                values,
                clean,
                OneShotStlConfig { shift_search: *search, ..Default::default() },
            );
            mae += out.mae;
            searches += out.searches;
            trials += out.trials;
            ns += out.ns_per_update;
        }
        mae /= streams.len() as f64;
        ns /= streams.len() as f64;
        if k.is_none() {
            full_mae = mae;
        }
        let row = PolicyRow {
            label: label.clone(),
            k: *k,
            mae,
            mae_gap_pct: 100.0 * (mae - full_mae) / full_mae,
            trials_per_search: if searches > 0 { trials as f64 / searches as f64 } else { 0.0 },
            ns_per_update: ns,
        };
        eprintln!(
            "[shift_ablation] {:<12} mae {:.5} (gap {:+.2}%), {:.1} trials/flagged, {:.0} ns/update",
            row.label, row.mae, row.mae_gap_pct, row.trials_per_search, row.ns_per_update
        );
        rows.push(row);
    }

    // ── sweep 2: IRLS iterations (accuracy vs cost and footprint) ───────
    struct ItersRow {
        iters: usize,
        mae: f64,
        state_bytes: usize,
        ns_per_update: f64,
    }
    let mut iters_rows: Vec<ItersRow> = Vec::new();
    for iters in [2usize, 3, 4, 5, 6, 8] {
        let mut mae = 0.0;
        let mut ns = 0.0;
        let mut bytes = 0usize;
        for (values, clean) in &streams {
            let out = run(values, clean, OneShotStlConfig { iters, ..Default::default() });
            mae += out.mae;
            ns += out.ns_per_update;
            bytes = out.state_bytes;
        }
        mae /= streams.len() as f64;
        ns /= streams.len() as f64;
        eprintln!(
            "[shift_ablation] iters={iters}: mae {mae:.5}, {bytes} B/series state, \
             {ns:.0} ns/update"
        );
        iters_rows.push(ItersRow { iters, mae, state_bytes: bytes, ns_per_update: ns });
    }

    // ── sweep 3: search trigger (two-flag default vs one-flag paper) ───
    struct TriggerRow {
        label: &'static str,
        /// Searches per 1000-point block, summed over the spiky series.
        blocks: [u64; SPIKY_BLOCKS],
        /// Searches per kpt over the whole spiky fixture.
        per_kpt: f64,
        /// MAE on the shifted fixtures.
        shifted_mae: f64,
    }
    let spiky_series: usize = if quick { 4 } else { 16 };
    let spiky: Vec<Vec<f64>> = (0..spiky_series as u64)
        .map(|s| spiky_fixture(100 + s, INIT_CYCLES * PERIOD + 1000 * SPIKY_BLOCKS))
        .collect();
    let mut trigger_rows: Vec<TriggerRow> = Vec::new();
    for (label, policy) in [
        ("Confirmed (default)", ShiftPolicy::default()),
        ("Cumulative (paper)", ShiftPolicy::Cumulative),
    ] {
        let cfg = OneShotStlConfig { shift_policy: policy, ..Default::default() };
        let mut blocks = [0u64; SPIKY_BLOCKS];
        for values in &spiky {
            for (b, n) in blocks.iter_mut().zip(spiky_blocks(values, cfg.clone())) {
                *b += n;
            }
        }
        let per_kpt = blocks.iter().sum::<u64>() as f64 / (spiky_series * SPIKY_BLOCKS) as f64;
        let shifted_mae = streams
            .iter()
            .map(|(values, clean)| run(values, clean, cfg.clone()).mae)
            .sum::<f64>()
            / streams.len() as f64;
        eprintln!(
            "[shift_ablation] trigger {label}: spiky {per_kpt:.2} searches/kpt \
             (per block {blocks:?}), shifted mae {shifted_mae:.5}"
        );
        trigger_rows.push(TriggerRow { label, blocks, per_kpt, shifted_mae });
    }
    let (confirmed, one_flag) = (&trigger_rows[0], &trigger_rows[1]);
    let trigger_gap_pct =
        100.0 * (confirmed.shifted_mae - one_flag.shifted_mae) / one_flag.shifted_mae;

    // ── the CI gate: the shipped default must hold its quality bar ──────
    let default_row = rows
        .iter()
        .find(|r| r.k == Some(DEFAULT_SHIFT_TOP_K))
        .expect("sweep covers the default k");
    let mut failures: Vec<String> = Vec::new();
    // NaN-safe gates: a NaN metric must fail, not pass
    if default_row.mae_gap_pct.is_nan() || default_row.mae_gap_pct > 1.0 {
        failures.push(format!(
            "default TopK({DEFAULT_SHIFT_TOP_K}) MAE gap vs full search is \
             {:+.2}% (> +1%)",
            default_row.mae_gap_pct
        ));
    }
    let bound = (DEFAULT_SHIFT_TOP_K + 1) as f64;
    if default_row.trials_per_search.is_nan() || default_row.trials_per_search > bound + 1e-9 {
        failures.push(format!(
            "default TopK({DEFAULT_SHIFT_TOP_K}) ran {:.2} full trials per flagged point \
             (bound: {bound})",
            default_row.trials_per_search
        ));
    }

    if confirmed.per_kpt.is_nan() || confirmed.per_kpt > 5.0 {
        failures.push(format!(
            "default trigger ran {:.2} shift searches per kpt on the spiky fixture (> 5)",
            confirmed.per_kpt
        ));
    }
    if confirmed.blocks[SPIKY_BLOCKS - 1] > confirmed.blocks[0] {
        failures.push(format!(
            "default trigger's search rate grows with stream age on the spiky fixture \
             (per block {:?})",
            confirmed.blocks
        ));
    }
    if trigger_gap_pct.is_nan() || trigger_gap_pct > 5.0 {
        failures.push(format!(
            "default trigger MAE on the shifted fixtures is {trigger_gap_pct:+.2}% vs the \
             one-flag trigger (> +5%)"
        ));
    }

    // ── reports ─────────────────────────────────────────────────────────
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"shift_ablation\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"shift_window\": {h},");
    let _ = writeln!(json, "  \"default_top_k\": {DEFAULT_SHIFT_TOP_K},");
    let _ = writeln!(json, "  \"policies\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"k\": {}, \"mae\": {:.6}, \"mae_gap_pct\": {:.3}, \
             \"trials_per_flagged\": {:.2}, \"ns_per_update\": {:.0}}}{comma}",
            r.label,
            r.k.map_or("null".to_string(), |k| k.to_string()),
            r.mae,
            r.mae_gap_pct,
            r.trials_per_search,
            r.ns_per_update
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"iters_ablation\": [");
    for (i, r) in iters_rows.iter().enumerate() {
        let comma = if i + 1 == iters_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"iters\": {}, \"mae\": {:.6}, \"state_bytes\": {}, \
             \"ns_per_update\": {:.0}}}{comma}",
            r.iters, r.mae, r.state_bytes, r.ns_per_update
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"spiky_series\": {spiky_series},");
    let _ = writeln!(json, "  \"trigger_mae_gap_pct\": {trigger_gap_pct:.3},");
    let _ = writeln!(json, "  \"trigger\": [");
    for (i, r) in trigger_rows.iter().enumerate() {
        let comma = if i + 1 == trigger_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"policy\": \"{}\", \"spiky_searches_per_kpt\": {:.3}, \
             \"spiky_searches_per_block\": {:?}, \"shifted_mae\": {:.6}}}{comma}",
            r.label, r.per_kpt, r.blocks, r.shifted_mae
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    std::fs::write("BENCH_shift_ablation.json", &json)
        .expect("writing BENCH_shift_ablation.json");
    eprintln!("[shift_ablation] wrote BENCH_shift_ablation.json");

    let mut report = Experiment::new("shift_ablation", "Two-stage shift search ablation");
    report.table(
        "Pruning policy vs quality/cost",
        &["policy", "MAE", "gap vs full %", "trials/flagged", "ns/update"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.label.clone(),
                    format!("{:.5}", r.mae),
                    format!("{:+.2}", r.mae_gap_pct),
                    format!("{:.1}", r.trials_per_search),
                    format!("{:.0}", r.ns_per_update),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.table(
        "IRLS iterations vs accuracy/footprint",
        &["iters", "MAE", "state bytes/series", "ns/update"],
        &iters_rows
            .iter()
            .map(|r| {
                vec![
                    r.iters.to_string(),
                    format!("{:.5}", r.mae),
                    r.state_bytes.to_string(),
                    format!("{:.0}", r.ns_per_update),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.table(
        "Search trigger: spiky stationary-phase fixture and shifted fixtures",
        &["trigger", "spiky searches/kpt", "searches per 1000-pt block", "shifted MAE"],
        &trigger_rows
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.2}", r.per_kpt),
                    format!("{:?}", r.blocks),
                    format!("{:.5}", r.shifted_mae),
                ]
            })
            .collect::<Vec<_>>(),
    );
    report.para(&format!(
        "{} fixtures × {n} points, period {PERIOD}, shift window H = {h} \
         (full search = {} trials/flagged). MAE is |τ̂+ŝ − clean| from the \
         first phase shift onward.",
        streams.len(),
        2 * h + 1
    ));
    report.finish();

    if failures.is_empty() {
        eprintln!(
            "[shift_ablation] OK: default TopK({DEFAULT_SHIFT_TOP_K}) holds the quality bar \
             (gap {:+.2}% ≤ +1%, {:.1} ≤ {bound} trials/flagged); default trigger \
             {:.2} ≤ 5 spiky searches/kpt, shifted MAE {trigger_gap_pct:+.2}% ≤ +5% vs \
             one-flag",
            default_row.mae_gap_pct, default_row.trials_per_search, confirmed.per_kpt
        );
    } else {
        for f in &failures {
            eprintln!("[shift_ablation] FAIL: {f}");
        }
        std::process::exit(1);
    }
}
