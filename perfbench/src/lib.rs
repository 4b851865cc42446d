//! Benchmark of the OneShotSTL fleet from socket to solver.
//!
//! Three workloads (see `README.md` beside this crate) drive the system
//! only through its public APIs — `oneshotstl`, `fleet::engine`,
//! `fleet::net`, `fleet::persist`, `fleet::codec` and the fleet stats — and
//! time each layer from outside by wrapping the calls into it. A run with
//! tracing off reports the end-to-end metrics; a traced run reports the
//! per-layer ones.

pub mod closed;
pub mod durable;
pub mod gen;
pub mod hot;
pub mod openloop;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod twins;
pub mod wire;

use fleet::{FleetEngine, FleetStats};

use crate::closed::Phase;
use crate::report::Report;
use crate::stats::Samples;
use crate::trace::{now_ns, Span, Tracer};
use crate::twins::Twins;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub trace: bool,
    /// Only time one set-up and print it (see [`setup_median`]).
    pub setup_only: bool,
    /// Only time one `DurableFleet::open` of this directory and print it
    /// (see `durable-churn`).
    pub recover_dir: Option<std::path::PathBuf>,
}

/// Names of the workloads.
pub const WORKLOADS: [&str; 3] = ["hot-ingest", "wire-mixed", "durable-churn"];

/// Times each workload's set-up is made; `setup_s` is the median. All but
/// the last run in processes of their own (see [`setup_median`]).
pub const SETUPS: usize = 3;

/// Times `durable-churn`'s recovery is repeated; `recover_s` is the median.
pub const RECOVERIES: usize = 15;

/// Restores from a snapshot image that `hot-ingest` and `wire-mixed` time
/// for `recover_s` (the median). They are spread evenly over the measured
/// phase (see [`Cadence`]), so that the median samples the whole run rather
/// than one moment of the host.
pub const RESTORES: usize = 40;

/// Points at the start of the first measured phase over which
/// `core.anomaly_pct` is counted: the inputs there depend only on the seed,
/// so the count repeats exactly.
pub const ANOMALY_WINDOW: u64 = 1 << 16;

/// Runs one workload.
pub fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "hot-ingest" => hot::run(args),
        "wire-mixed" => wire::run(args),
        "durable-churn" => durable::run(args),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Times one set-up of the workload, for [`setup_median`]'s child
/// processes.
pub fn setup_only(args: &Args) -> Result<f64, String> {
    match args.workload.as_str() {
        "hot-ingest" => hot::setup_s(args.seed),
        "wire-mixed" => wire::setup_s(args.seed),
        "durable-churn" => durable::setup_s(args.seed),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// Seconds `setup` takes; its result is dropped untimed.
pub fn time_setup<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
    let t0 = now_ns();
    let st = setup()?;
    let secs = (now_ns() - t0) as f64 / 1e9;
    drop(st);
    Ok(secs)
}

/// Times [`SETUPS`] set-ups and returns the last one's result with the
/// median time in seconds. The others run first, each in a child process
/// (this program with `--setup-only 1`) that is waited for, so that what
/// they allocate leaves no trace in this process's resident set.
pub fn setup_median<T>(
    args: &Args,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Samples::new();
    for _ in 1..SETUPS {
        times.push(setup_in_child(args)?);
    }
    let t0 = now_ns();
    let kept = setup()?;
    times.push((now_ns() - t0) as f64 / 1e9);
    Ok((kept, times.p50()))
}

/// Runs one timed set-up in a child process and waits for it.
fn setup_in_child(args: &Args) -> Result<f64, String> {
    let line = child(args, &["--setup-only", "1"])?;
    line.strip_prefix("setup_s ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up process printed {line:?}"))
}

/// Runs this program again for `args.workload` and `args.seed` with the
/// extra flags `extra`, waits for it, and returns the last line it printed.
pub fn child(args: &Args, extra: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let seed = args.seed.to_string();
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &seed])
        .args(extra)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process {extra:?} failed ({})", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(text.lines().last().unwrap_or_default().to_string())
}

/// Evenly spaced due times: the `i`-th of `n` over `[start, end)` falls at
/// `start + (i + 1/2) * (end - start) / n`.
#[derive(Debug, Clone)]
pub struct Cadence {
    start: u64,
    gap: u64,
    n: u64,
    taken: u64,
}

impl Cadence {
    /// `n` due times over `[start, start + span_ns)`.
    pub fn new(start: u64, span_ns: u64, n: u64) -> Self {
        Self { start, gap: span_ns / n.max(1), n, taken: 0 }
    }

    /// True when the next due time has come at `now` (and not all `n`
    /// were taken).
    pub fn due(&self, now: u64) -> bool {
        self.taken < self.n && now >= self.start + self.taken * self.gap + self.gap / 2
    }

    /// Marks the current due time taken.
    pub fn take(&mut self) {
        self.taken += 1;
    }

    /// Due times not taken yet.
    pub fn left(&self) -> u64 {
        self.n - self.taken
    }
}

/// Timings of restores from a snapshot image: decode, restore, and both.
#[derive(Debug, Default)]
pub struct Restores {
    /// `codec::decode` of the image, s.
    pub decode: Samples,
    /// `FleetEngine::restore` of the decoded snapshot, s.
    pub restore: Samples,
    /// Decode + restore, s.
    pub total: Samples,
}

impl Restores {
    /// Decodes `image` and restores an engine from it, timing both.
    pub fn sample(&mut self, image: &[u8]) -> Result<FleetEngine, String> {
        let t0 = now_ns();
        let snap = fleet::codec::decode(image).map_err(|e| e.to_string())?;
        let t1 = now_ns();
        let engine = FleetEngine::restore(snap).map_err(|e| e.to_string())?;
        let t2 = now_ns();
        self.decode.push((t1 - t0) as f64 / 1e9);
        self.restore.push((t2 - t1) as f64 / 1e9);
        self.total.push((t2 - t0) as f64 / 1e9);
        Ok(engine)
    }

    /// Records `recover_s` (median decode + restore) and the codec's
    /// `codec.decode_s` and `codec.restore_s` medians.
    pub fn report(&mut self, rep: &mut Report) {
        rep.set("recover_s", self.total.p50());
        rep.set("codec.decode_s", self.decode.p50());
        rep.set("codec.restore_s", self.restore.p50());
        rep.note(format!(
            "decode + restore: {} samples, median {:.3} ms",
            self.total.len(),
            self.total.p50() * 1e3
        ));
    }
}

/// Records the per-layer percentiles that come straight from span
/// durations, and the twins' initialisation times (taken in set-up, where
/// the admissions of the in-process workloads happen). `batch_points` is
/// the size of an ingest batch, the base of `engine.route_ns_per_pt`.
pub fn layer_spans(rep: &mut Report, spans: &[Span], twins: &Twins, batch_points: u64) {
    let mut upd = trace::durations(spans, "core.update", 1.0);
    rep.set("core.update_ns_p50", upd.p50());
    rep.set("core.update_ns_p99", upd.p99());
    rep.set("samples.update", upd.len() as f64);
    let mut init = twins.init_us.clone();
    rep.set("core.init_us_p50", init.p50());
    rep.set("core.init_us_p99", init.p99());
    let mut sub = trace::durations(spans, "engine.submit", 1e3);
    rep.set("engine.submit_us_p50", sub.p50());
    rep.set("engine.submit_us_p99", sub.p99());
    // the median submit: routing plus the hand-off to the shard, without
    // the snapshot and sweep work some submissions also carry
    rep.set("engine.route_ns_per_pt", sub.p50() * 1e3 / batch_points as f64);
    let mut fc = trace::durations(spans, "engine.forecast", 1e3);
    rep.set("engine.forecast_us_p50", fc.p50());
    rep.set("engine.forecast_us_p90", fc.percentile(90_000));
    let mut col = trace::durations(spans, "engine.next_batch", 1e3);
    rep.set("engine.collect_us_p50", col.p50());
    rep.set("engine.collect_us_p99", col.p99());
    rep.note(format!("core.update (twin) ns: {}", upd.describe("ns")));
    rep.note(format!("core.init (twin, all phases) us: {}", init.describe("us")));
    rep.note(format!("engine.submit us: {}", sub.describe("us")));
    rep.note(format!("engine.next_batch us: {}", col.describe("us")));
}

/// Records the self-time table and the share of the traced time that no
/// span covers (`traced_ns`: wall time spent recording), and writes the
/// spans to `.bench_out/`.
pub fn layer_trace_summary(rep: &mut Report, args: &Args, spans: &[Span], traced_ns: u64) {
    let wall = traced_ns.max(1);
    let gap = wall.saturating_sub(trace::covered(spans));
    rep.set("trace.uncovered_pct", 100.0 * gap as f64 / wall as f64);
    rep.note(format!(
        "traced time {:.3} s, {} spans, not covered by any span {:.3} s",
        wall as f64 / 1e9,
        spans.len(),
        gap as f64 / 1e9
    ));
    rep.note("self time by span (name calls total_ms self_ms share_of_traced_time):".into());
    for (name, calls, total, own) in trace::by_name(spans) {
        rep.note(format!(
            "  {name:<24} {calls:>9} {:>10.2} {:>10.2} {:>6.1}%",
            total as f64 / 1e6,
            own as f64 / 1e6,
            100.0 * own as f64 / wall as f64
        ));
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.tsv", args.workload, args.seed));
    match std::fs::create_dir_all(dir).and_then(|()| trace::write_tsv(spans, &path)) {
        Ok(()) => rep.note(format!("spans written to {}", path.display())),
        Err(e) => rep.note(format!("spans not written: {e}")),
    }
}

/// Records the solver counters from two stats readings around `points`.
pub fn layer_core_counts(
    rep: &mut Report,
    before: &FleetStats,
    after: &FleetStats,
    points: u64,
) {
    // the counters are summed over the series in the hot registry, and a
    // series that spills or is evicted takes its counts along: under churn
    // the deltas are lower bounds
    let searches = after.shift_searches.saturating_sub(before.shift_searches);
    let trials = after.shift_trials.saturating_sub(before.shift_trials);
    rep.set("base.points", points as f64);
    rep.set("base.shift_searches", searches as f64);
    rep.set("core.shift_trials_per_kpt", trials as f64 / (points.max(1) as f64 / 1e3));
    rep.set(
        "core.trials_per_search",
        if searches == 0 { 0.0 } else { trials as f64 / searches as f64 },
    );
    rep.note(format!(
        "core: {trials} shift trials in {searches} searches over {points} points; \
         alarms z={} cusum={} forecast={}",
        after.z_alarms.saturating_sub(before.z_alarms),
        after.cusum_alarms.saturating_sub(before.cusum_alarms),
        after.forecast_alarms.saturating_sub(before.forecast_alarms),
    ));
}

/// Median of 16 timed `FleetEngine::stats` calls, µs.
pub fn stats_us(engine: &FleetEngine) -> Result<f64, String> {
    let mut s = Samples::new();
    for _ in 0..16 {
        let t0 = now_ns();
        engine.stats().map_err(|e| e.to_string())?;
        s.push((now_ns() - t0) as f64 / 1e3);
    }
    Ok(s.p50())
}

/// Records the metrics of a closed-loop phase; in a traced run also the
/// per-layer ones.
pub fn closed_metrics(
    rep: &mut Report,
    args: &Args,
    ph: &mut Phase,
    tracer: &Tracer,
    twins: &Twins,
    stats: (&FleetStats, &FleetStats),
    batch_points: u64,
) {
    rep.attempted += ph.attempted;
    rep.failed += ph.failed;
    rep.set(
        "core.anomaly_pct",
        100.0 * ph.window_anomalies as f64 / ph.window_points.max(1) as f64,
    );
    rep.note(format!(
        "anomalies in the first {ANOMALY_WINDOW} points: {} of {}",
        ph.window_anomalies, ph.window_points
    ));
    e2e_closed(rep, ph);
    if !args.trace {
        return;
    }
    let spans = tracer.spans();
    layer_spans(rep, spans, twins, batch_points);
    layer_core_counts(rep, stats.0, stats.1, ph.points);
    layer_trace_summary(rep, args, spans, ph.blocks.time_ns[1]);
    rep.set("engine.queue_depth_max", ph.queue_depth_max as f64);
    rep.set("base.batches", ph.batches as f64);
    rep.set("samples.batch", ph.batch_us.len() as f64);
    rep.set("samples.read", ph.read_us.len() as f64);
    let overhead = ph.blocks.overhead_pct();
    rep.set("trace.overhead_pct", overhead);
    rep.note(format!(
        "tracing overhead {overhead:.2}%: median block {:.0} pts/s traced ({:.3} s), \
         {:.0} pts/s untraced ({:.3} s)",
        ph.blocks.rates[1].p50(),
        ph.blocks.time_ns[1] as f64 / 1e9,
        ph.blocks.rates[0].p50(),
        ph.blocks.time_ns[0] as f64 / 1e9
    ));
}

/// Records the latency and throughput metrics of a closed-loop phase (the
/// end-to-end set, and `batch_p99_us`).
fn e2e_closed(rep: &mut Report, ph: &mut Phase) {
    rep.set("throughput_pts_s", ph.throughput());
    rep.set("batch_p50_us", ph.batch_us.p50());
    rep.set("batch_p99_us", ph.batch_us.p99());
    rep.set("read_p50_us", ph.read_us.p50());
    rep.note(format!(
        "closed loop: {} points in {} batches over {:.3} s (mean {:.0} pts/s, median over \
         {}-batch windows {:.0} pts/s)",
        ph.points,
        ph.batches,
        ph.elapsed_s(),
        ph.points as f64 / ph.elapsed_s(),
        closed::RATE_WINDOW,
        ph.throughput()
    ));
    rep.note(format!("batch latency us: {}", ph.batch_us.describe("us")));
    rep.note(format!("read latency us: {}", ph.read_us.describe("us")));
}
