//! `durable-churn`: a [`DurableFleet`] with default durability (WAL fsync on
//! every batch) except a lowered `snapshot_every`, a cold tier, TTL, and a
//! key universe four times the active window, fed a closed loop of
//! 2048-record batches with 2 in flight.
//!
//! A window of 1024 slots slides over 4096; every key in it gets two points
//! per batch. Keys that leave the window go idle, spill to the cold tier
//! and rehydrate when the window comes back. On one visit in eight a slot
//! gets a brand-new key, which warms up and is admitted (about two
//! admissions per batch); the retired key ages out through TTL. One slot in
//! twenty is an incident: noise-free (the shift search runs) or
//! level-shifted (CUSUM alarms). At the end the fleet is dropped without
//! `close()` (a crash) and [`DurableFleet::open`] is timed.
//!
//! This is the only workload that exercises the WAL, snapshot collection,
//! the cold tier, admission and the anomaly path.

use std::path::{Path, PathBuf};

use fleet::codec;
use fleet::wal::parse_segment_name;
use fleet::{
    DurabilityConfig, DurableFleet, FleetConfig, FleetEngine, FleetStats, Record, SeriesKey,
};

use crate::closed::{self, Batch, Flow, Phase};
use crate::gen::{self, Shape, PERIOD};
use crate::report::Report;
use crate::stats::Samples;
use crate::sys;
use crate::trace::{now_ns, Tracer};
use crate::twins::{Probe, Twins};
use crate::{closed_metrics, setup_median, stats_us, Args};

const SLOTS: u64 = 4096;
const WINDOW_KEYS: u64 = 1024;
const POINTS_PER_KEY: u64 = 2;
/// Slots the window moves on every other batch.
const ADVANCE: u64 = 32;
/// A slot gets a new key on one visit in this many.
const RENEW_EVERY: u64 = 8;
const SPILL_AFTER: u64 = 48;
const TTL: u64 = 256;
const SNAPSHOT_EVERY: u64 = 40;
/// The engine's idle-sweep cadence (every 64th submission).
const SWEEP_EVERY: u64 = 64;
const IN_FLIGHT: usize = 2;
const READ_EVERY: u64 = 4;
const READ_KEYS: u64 = 64;
/// Batches between the forced checkpoint and the crash: the WAL tail that
/// recovery replays, the same on every run.
const CRASH_TAIL: u64 = 20;
/// Batches run on the recovered fleet, checked against the twins.
const AFTER_RECOVERY: u64 = 64;
/// Batch tag: the batch carries keys returning from the cold tier.
const RETURNING: u8 = 1;
const NO_TWIN: u32 = u32::MAX;

fn config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        spill_after: Some(SPILL_AFTER),
        ttl: Some(TTL),
        ..FleetConfig::fixed_period(PERIOD)
    }
}

fn shape(slot: u64) -> Shape {
    match slot % 40 {
        0 => Shape::Flat,
        20 => Shape::LevelShift,
        _ => Shape::Normal,
    }
}

fn key(slot: u64, generation: u64) -> SeriesKey {
    SeriesKey::new(format!("churn/{slot:04}/{generation}"))
}

struct Slot {
    key: SeriesKey,
    generation: u64,
    /// Points sent to the current key.
    n: u64,
    /// Visit of the window the slot is in (or was last in).
    visit: u64,
    twin: u32,
}

/// The sliding-window generator. Batch `b` covers the unwrapped positions
/// `[lo, lo + WINDOW_KEYS)` with `lo = (b / 2) * ADVANCE`; position `u` is
/// slot `u % SLOTS` on its visit `u / SLOTS`.
struct Churn {
    seed: u64,
    slots: Vec<Slot>,
    b: u64,
    reads: bool,
}

impl Churn {
    fn new(seed: u64, twins: &mut Twins) -> Self {
        let slots = (0..SLOTS)
            .map(|s| {
                let key = key(s, 0);
                let twin =
                    if s % 64 == 0 || s % 320 == 20 { twins.add(key.clone()) } else { NO_TWIN };
                Slot { key, generation: 0, n: 0, visit: 0, twin }
            })
            .collect();
        Churn { seed, slots, b: 0, reads: false }
    }

    fn batch(&mut self) -> Batch {
        let lo = (self.b / 2) * ADVANCE;
        let t = self.b;
        let mut records = Vec::with_capacity((WINDOW_KEYS * POINTS_PER_KEY) as usize);
        let mut probes = Vec::new();
        let mut renew = Vec::new();
        let mut tag = 0;
        for u in lo..lo + WINDOW_KEYS {
            let (s, visit) = (u % SLOTS, u / SLOTS);
            let slot = &mut self.slots[s as usize];
            if visit != slot.visit {
                slot.visit = visit;
                if (s + visit).is_multiple_of(RENEW_EVERY) {
                    slot.generation += 1;
                    slot.n = 0;
                    slot.key = key(s, slot.generation);
                    if slot.twin != NO_TWIN {
                        renew.push((slot.twin, slot.key.clone()));
                    }
                } else {
                    tag |= RETURNING;
                }
            }
            let id = s * 1_000_003 + slot.generation;
            for _ in 0..POINTS_PER_KEY {
                let value = gen::value(self.seed, id, slot.n, shape(s));
                slot.n += 1;
                if slot.twin != NO_TWIN {
                    probes.push(Probe { idx: records.len() as u32, slot: slot.twin, value });
                }
                records.push(Record { key: slot.key.clone(), t, value });
            }
        }
        self.b += 1;
        // the trailing edge has been in the window longest: live even when
        // its key was renewed on entry
        let read = (self.reads && self.b.is_multiple_of(READ_EVERY)).then(|| {
            (lo..lo + READ_KEYS).map(|u| self.slots[(u % SLOTS) as usize].key.clone()).collect()
        });
        Batch { records, probes, tag, read, renew }
    }
}

struct State {
    fleet: Option<DurableFleet>,
    dir: PathBuf,
    churn: Churn,
    twins: Twins,
}

impl Drop for State {
    fn drop(&mut self) {
        if let Some(f) = self.fleet.take() {
            let _ = f.close();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn dcfg(dir: &Path) -> DurabilityConfig {
    DurabilityConfig { snapshot_every: SNAPSHOT_EVERY, ..DurabilityConfig::new(dir) }
}

/// Runs `batches` untimed batches.
fn pump(fleet: &mut DurableFleet, churn: &mut Churn, twins: &mut Twins, batches: u64) -> Phase {
    closed::run(
        fleet,
        &mut || churn.batch(),
        IN_FLIGHT,
        twins,
        &mut Tracer::new(false),
        &mut |submitted, _| Flow::stop_if(submitted >= batches),
    )
}

/// A fresh durable fleet that has run one full lap of the window: every
/// slot admitted once, the early ones spilled, the next batch the first to
/// bring keys back from the cold tier.
fn setup(seed: u64, round: &mut u32) -> Result<State, String> {
    *round += 1;
    let dir =
        PathBuf::from(".bench_out").join(format!("durable-{}-{round}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = config();
    let fleet = DurableFleet::create(cfg.clone(), dcfg(&dir)).map_err(|e| e.to_string())?;
    let mut twins = Twins::new(&cfg);
    let churn = Churn::new(seed, &mut twins);
    let mut st = State { fleet: Some(fleet), dir, churn, twins };
    let State { fleet, churn, twins, .. } = &mut st;
    let fleet = fleet.as_mut().expect("just created");
    let ph = pump(fleet, churn, twins, 2 * SLOTS / ADVANCE);
    let stats = fleet.engine().stats().map_err(|e| e.to_string())?;
    if ph.failed > 0 || stats.spills == 0 {
        return Err(format!("set-up: {} failed batches, {} spills", ph.failed, stats.spills));
    }
    churn.reads = true;
    Ok(st)
}

/// Latency p50 of the batches `keep` selects.
fn p50_of(ph: &Phase, keep: impl Fn(u64, u8) -> bool) -> (f64, usize) {
    let mut s = Samples::new();
    for &(seq, tag, lat) in &ph.per_batch {
        if keep(seq, tag) {
            s.push(lat);
        }
    }
    (s.p50(), s.len())
}

fn is_snapshot(seq: u64) -> bool {
    seq.is_multiple_of(SNAPSHOT_EVERY)
}

fn is_sweep(seq: u64) -> bool {
    seq.is_multiple_of(SWEEP_EVERY)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Per-layer metrics of the durability and cold-tier layers over a traced
/// phase.
fn layer_durable(
    rep: &mut Report,
    ph: &Phase,
    before: &FleetStats,
    after: &FleetStats,
    fsyncs: u64,
    dir: &Path,
    batches_now: u64,
) {
    let kpt = ph.points.max(1) as f64 / 1e3;
    let spills = after.spills.saturating_sub(before.spills);
    let rehyd = after.rehydrations.saturating_sub(before.rehydrations);
    rep.set("base.spills", spills as f64);
    rep.set("cold.spills_per_kpt", spills as f64 / kpt);
    rep.set("cold.rehydrations_per_kpt", rehyd as f64 / kpt);
    rep.set(
        "cold.rehydrate_per_spill",
        if spills == 0 { 0.0 } else { rehyd as f64 / spills as f64 },
    );
    rep.set("cold.errors", after.cold_errors.saturating_sub(before.cold_errors) as f64);
    rep.set("wal.fsyncs_per_batch", fsyncs as f64 / ph.batches.max(1) as f64);
    let (snap, n_snap) = p50_of(ph, |seq, _| is_snapshot(seq));
    let (ord, n_ord) = p50_of(ph, |seq, tag| !is_snapshot(seq) && !is_sweep(seq) && tag == 0);
    let (ret, n_ret) =
        p50_of(ph, |seq, tag| !is_snapshot(seq) && !is_sweep(seq) && tag & RETURNING != 0);
    let (swp, n_swp) = p50_of(ph, |seq, _| is_sweep(seq) && !is_snapshot(seq));
    let mut slowest = ph.per_batch.clone();
    slowest.sort_by(|a, b| b.2.total_cmp(&a.2));
    let slowest: Vec<String> = slowest
        .iter()
        .take(8)
        .map(|&(seq, _, lat)| format!("{seq} (+{}) {:.0}", seq % SNAPSHOT_EVERY, lat / 1e3))
        .collect();
    rep.note(format!(
        "slowest batches: seq (+batches since the snapshot cadence) ms: {}",
        slowest.join(", ")
    ));
    rep.set("persist.snapshot_batch_us_p50", snap);
    rep.set("persist.ordinary_batch_us_p50", ord);
    rep.set("cold.rehydrate_batch_us_p50", ret);
    rep.note(format!(
        "batch p50 us: snapshot-cadence {snap:.0} (n={n_snap}), sweep {swp:.0} (n={n_swp}), \
         returning keys {ret:.0} (n={n_ret}), ordinary {ord:.0} (n={n_ord})"
    ));
    rep.note(format!(
        "cold tier: {spills} spills, {rehyd} rehydrations over {} points; \
         admitted {}, evicted {}, cold resident {}",
        ph.points,
        after.admitted.saturating_sub(before.admitted),
        after.evicted.saturating_sub(before.evicted),
        after.cold_resident
    ));
    rep.set("cold.file_mib", mib(sys::dir_bytes(&dir.join("cold"))));
    rep.set("persist.disk_mib", mib(sys::dir_bytes(dir)));
    // WAL bytes over the batches the live segments cover (every batch
    // carries the same number of points)
    let mut wal_bytes = 0;
    let mut oldest = batches_now;
    for e in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Some((start, _)) = parse_segment_name(&e.file_name().to_string_lossy()) {
            wal_bytes += e.metadata().map_or(0, |m| m.len());
            oldest = oldest.min(start);
        }
    }
    let covered = (batches_now - oldest) * WINDOW_KEYS * POINTS_PER_KEY;
    rep.set("wal.bytes_per_pt", wal_bytes as f64 / covered.max(1) as f64);
}

/// Times one set-up.
pub fn setup_s(seed: u64) -> Result<f64, String> {
    crate::time_setup(|| setup(seed, &mut 0))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut round = 0;
    let (mut st, setup_s) = setup_median(args, || setup(args.seed, &mut round))?;
    rep.set("setup_s", setup_s);
    let rss0 = sys::rss_mib();
    rep.set("mem.rss_after_setup_mib", rss0);
    let mut tracer = Tracer::new(args.trace);
    let State { fleet, churn, twins, dir } = &mut st;
    let fleet = fleet.as_mut().expect("fleet is up until the crash");
    let before = fleet.engine().stats().map_err(|e| e.to_string())?;
    let fsync0 = fleet.wal_fsync_count();
    let end = now_ns() + (args.seconds * 1e9) as u64;
    let mut ph = closed::run(
        fleet,
        &mut || churn.batch(),
        IN_FLIGHT,
        twins,
        &mut tracer,
        &mut |_, _| Flow::stop_if(now_ns() >= end),
    );
    let after = fleet.engine().stats().map_err(|e| e.to_string())?;
    let batch_points = WINDOW_KEYS * POINTS_PER_KEY;
    closed_metrics(&mut rep, args, &mut ph, &tracer, twins, (&before, &after), batch_points);
    if args.trace {
        let fsyncs = fleet.wal_fsync_count() - fsync0;
        layer_durable(&mut rep, &ph, &before, &after, fsyncs, dir, fleet.engine().batches());
        rep.set("engine.stats_us", stats_us(fleet.engine())?);
    }
    // the peak of the serving process: set-up and the measured phase. The
    // recovery below runs on top of what the crashed fleet's allocator
    // kept, where a real restart would be a new process
    rep.set("rss_peak_mib", sys::rss_peak_mib());
    crash_and_recover(args, &mut st, &mut rep)?;
    rep.set("mem.rss_growth_mib", sys::rss_mib() - rss0);
    codec_costs(&mut st, &mut rep)?;
    if st.twins.mismatches > 0 {
        rep.wrong.push(format!("reference check: {:?}", st.twins.first));
    }
    rep.note(format!(
        "reference check: {} points compared, {} mismatches (including after recovery)",
        st.twins.checked, st.twins.mismatches
    ));
    Ok(rep)
}

/// Times one `DurableFleet::open` of `dir` and returns the seconds and the
/// batches it recovered. The fleet is dropped without `close()`.
pub fn recover_once(dir: &Path) -> Result<(f64, u64), String> {
    let t0 = now_ns();
    let fleet = DurableFleet::open(dcfg(dir)).map_err(|e| e.to_string())?;
    let secs = (now_ns() - t0) as f64 / 1e9;
    Ok((secs, fleet.engine().batches()))
}

/// Forces a full checkpoint, runs [`CRASH_TAIL`] more batches, drops the
/// fleet without `close()` and times `DurableFleet::open`
/// [`crate::RECOVERIES`] times: all but the last in child processes, as a
/// restart after a crash would, so that repeated recoveries leave nothing
/// in this process's memory. Every recovered fleet must hold every
/// acknowledged batch, and the last must continue every twin's stream bit
/// for bit over [`AFTER_RECOVERY`] more batches.
fn crash_and_recover(args: &Args, st: &mut State, rep: &mut Report) -> Result<(), String> {
    let State { fleet, churn, twins, dir } = st;
    let mut live = fleet.take().expect("fleet is up until the crash");
    churn.reads = false;
    live.checkpoint().map_err(|e| e.to_string())?;
    let tail = pump(&mut live, churn, twins, CRASH_TAIL);
    rep.attempted += tail.attempted;
    rep.failed += tail.failed;
    let acked = live.engine().batches();
    drop(live);
    // recovery writes no new image and replays the same WAL tail each time,
    // so crashing the recovered fleet again repeats the same work
    let mut opens = Samples::new();
    let dir_arg = dir.to_string_lossy().into_owned();
    for _ in 1..crate::RECOVERIES {
        let line = crate::child(args, &["--recover-dir", &dir_arg])?;
        let mut words = line.strip_prefix("recover_s ").unwrap_or_default().split(' ');
        let (Some(Ok(secs)), Some(Ok(recovered))) =
            (words.next().map(str::parse::<f64>), words.next().map(str::parse::<u64>))
        else {
            return Err(format!("recovery process printed {line:?}"));
        };
        opens.push(secs);
        if recovered != acked {
            rep.wrong
                .push(format!("recovery kept {recovered} of {acked} acknowledged batches"));
        }
    }
    let t0 = now_ns();
    let mut back = DurableFleet::open(dcfg(dir)).map_err(|e| e.to_string())?;
    opens.push((now_ns() - t0) as f64 / 1e9);
    if back.engine().batches() != acked {
        rep.wrong.push(format!(
            "recovery kept {} of {acked} acknowledged batches",
            back.engine().batches()
        ));
    }
    let replayed = back.engine().batches() - back.durable_snapshot();
    rep.set("recover_s", opens.p50());
    rep.set("persist.replayed_batches", replayed as f64);
    rep.note(format!(
        "crash at batch {acked}: open took {:.4} s (median of {}; p10 {:.4}, p90 {:.4}), \
         replayed {replayed} batches",
        opens.p50(),
        opens.len(),
        opens.percentile(10_000),
        opens.percentile(90_000)
    ));
    let after = pump(&mut back, churn, twins, AFTER_RECOVERY);
    rep.attempted += after.attempted;
    rep.failed += after.failed;
    *fleet = Some(back);
    Ok(())
}

/// Times the codec on the recovered fleet's state: encode, decode, and
/// restore of a second engine beside the fleet.
fn codec_costs(st: &mut State, rep: &mut Report) -> Result<(), String> {
    let back = st.fleet.as_mut().expect("the recovered fleet is up");
    let snap = back.engine_mut().snapshot().map_err(|e| e.to_string())?;
    let series = snap.series.len();
    let t0 = now_ns();
    let bytes = codec::encode(&snap);
    let t1 = now_ns();
    let image = codec::decode(&bytes).map_err(|e| e.to_string())?;
    let t2 = now_ns();
    let engine = FleetEngine::restore(image).map_err(|e| e.to_string())?;
    let t3 = now_ns();
    drop(engine);
    rep.set("codec.encode_s", (t1 - t0) as f64 / 1e9);
    rep.set("codec.decode_s", (t2 - t1) as f64 / 1e9);
    rep.set("codec.restore_s", (t3 - t2) as f64 / 1e9);
    rep.set("codec.snapshot_bytes_per_series", bytes.len() as f64 / series.max(1) as f64);
    Ok(())
}
