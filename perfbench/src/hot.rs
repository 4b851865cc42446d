//! `hot-ingest`: an in-process [`FleetEngine`] with 2500 live series and
//! one shard, fed a closed loop of 4096-record batches with 4 in flight.
//!
//! 2500 series rather than 10k: set-up admits every series and runs three
//! times, so 10k series made a run take ~50 s on the reference host, and in
//! one ten-run proof there its throughput and latency spread by 21-25%
//! between runs; 2500 series keep a run near 20 s.
//!
//! Nothing but the solver works here: no socket, no WAL, no cold tier, and
//! no admission once set-up has warmed every series. The inputs are noisy
//! season + trend with rare spikes, so well under 1% of points are flagged
//! and the §3.4 shift search rarely runs. A gain in `OneShotStl::update`
//! shows here first; a change to the net, WAL, cold-tier or admission
//! layers should not move it.

use fleet::codec;
use fleet::{FleetConfig, FleetEngine, Record, SeriesKey};

use crate::closed::{self, Batch, Flow};
use crate::gen::{self, Shape, PERIOD};
use crate::report::Report;
use crate::sys;
use crate::trace::{now_ns, Tracer};
use crate::twins::{Probe, Twins};
use crate::{closed_metrics, setup_median, stats_us, Args, Cadence, Restores};

const SERIES: u64 = 2500;
const BATCH: u64 = 4096;
const WINDOW: usize = 4;
const TWINS: u64 = 64;
const READ_EVERY: u64 = 4;
const READ_KEYS: u64 = 64;
const NO_TWIN: u32 = u32::MAX;

fn config() -> FleetConfig {
    FleetConfig { shards: 1, ..FleetConfig::fixed_period(PERIOD) }
}

/// Round-robin over every series: record `g` of the stream is point
/// `g / SERIES` of series `g % SERIES`.
struct Gen {
    seed: u64,
    keys: Vec<SeriesKey>,
    slot: Vec<u32>,
    cursor: u64,
    /// Forecast reads ride along every [`READ_EVERY`] batches once set.
    read_keys: Option<Vec<SeriesKey>>,
    batches: u64,
}

impl Gen {
    fn batch(&mut self) -> Batch {
        let mut records = Vec::with_capacity(BATCH as usize);
        let mut probes = Vec::new();
        for j in 0..BATCH {
            let g = self.cursor + j;
            let (n, s) = (g / SERIES, (g % SERIES) as usize);
            let value = gen::value(self.seed, s as u64, n, Shape::Normal);
            if self.slot[s] != NO_TWIN {
                probes.push(Probe { idx: j as u32, slot: self.slot[s], value });
            }
            records.push(Record { key: self.keys[s].clone(), t: n, value });
        }
        self.cursor += BATCH;
        self.batches += 1;
        let read = self
            .read_keys
            .as_ref()
            .filter(|_| self.batches.is_multiple_of(READ_EVERY))
            .cloned();
        Batch { records, probes, tag: 0, read, renew: Vec::new() }
    }
}

struct State {
    engine: FleetEngine,
    gen: Gen,
    twins: Twins,
}

/// A fresh engine with every series warmed up and live.
fn setup(seed: u64) -> Result<State, String> {
    let cfg = config();
    let mut engine = FleetEngine::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut twins = Twins::new(&cfg);
    let keys: Vec<SeriesKey> =
        (0..SERIES).map(|s| SeriesKey::new(format!("hot/{s:05}"))).collect();
    let slot = (0..SERIES)
        .map(|s| {
            if s % (SERIES / TWINS) == 0 {
                twins.add(keys[s as usize].clone())
            } else {
                NO_TWIN
            }
        })
        .collect();
    let mut gen = Gen { seed, keys, slot, cursor: 0, read_keys: None, batches: 0 };
    let warm = (SERIES * cfg.init_len(PERIOD) as u64).div_ceil(BATCH);
    let ph = closed::run(
        &mut engine,
        &mut || gen.batch(),
        WINDOW,
        &mut twins,
        &mut Tracer::new(false),
        &mut |submitted, _| Flow::stop_if(submitted >= warm),
    );
    let live = engine.stats().map_err(|e| e.to_string())?.live as u64;
    if ph.failed > 0 || live != SERIES {
        return Err(format!("warm-up: {} failed batches, {live} of {SERIES} live", ph.failed));
    }
    Ok(State { engine, gen, twins })
}

/// Times one set-up.
pub fn setup_s(seed: u64) -> Result<f64, String> {
    crate::time_setup(|| setup(seed))
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let mut rep = Report::default();
    let (mut st, setup_s) = setup_median(args, || setup(args.seed))?;
    rep.set("setup_s", setup_s);
    let rss0 = sys::rss_mib();
    rep.set("mem.rss_after_setup_mib", rss0);
    // the restart image: the warmed engine's snapshot
    let snap = st.engine.snapshot().map_err(|e| e.to_string())?;
    let t0 = now_ns();
    let image = codec::encode(&snap);
    rep.set("codec.encode_s", (now_ns() - t0) as f64 / 1e9);
    rep.set("codec.snapshot_bytes_per_series", image.len() as f64 / SERIES as f64);
    drop(snap);
    st.gen.read_keys = Some(
        (0..READ_KEYS)
            .map(|i| st.gen.keys[(i * (SERIES / READ_KEYS)) as usize].clone())
            .collect(),
    );
    let mut tracer = Tracer::new(args.trace);
    let before = st.engine.stats().map_err(|e| e.to_string())?;
    let span = (args.seconds * 1e9) as u64;
    let start = now_ns();
    let end = start + span;
    // restores from the image, spread over the phase: each waits for the
    // pipeline to drain, so no batch's latency holds one
    let mut restores = Restores::default();
    let mut cadence = Cadence::new(start, span, crate::RESTORES as u64);
    let mut failure = None;
    let State { engine, gen, twins } = &mut st;
    let mut ph = closed::run(
        engine,
        &mut || gen.batch(),
        WINDOW,
        twins,
        &mut tracer,
        &mut |_, in_flight| {
            let now = now_ns();
            if now >= end || failure.is_some() {
                return Flow::Stop;
            }
            if cadence.due(now) {
                if in_flight > 0 {
                    return Flow::Drain;
                }
                cadence.take();
                if let Err(e) = restores.sample(&image) {
                    failure = Some(e);
                }
            }
            Flow::Submit
        },
    );
    if let Some(e) = failure {
        return Err(format!("restore: {e}"));
    }
    let after = st.engine.stats().map_err(|e| e.to_string())?;
    closed_metrics(&mut rep, args, &mut ph, &tracer, &st.twins, (&before, &after), BATCH);
    if args.trace {
        rep.set("engine.stats_us", stats_us(&st.engine)?);
    }
    while cadence.left() > 0 {
        cadence.take();
        restores.sample(&image)?;
    }
    restores.report(&mut rep);
    drop(image);
    restart_check(&mut st, &mut rep)?;
    rep.set("mem.rss_growth_mib", sys::rss_mib() - rss0);
    rep.set("rss_peak_mib", sys::rss_peak_mib());
    if st.twins.mismatches > 0 {
        rep.wrong.push(format!("reference check: {:?}", st.twins.first));
    }
    rep.note(format!(
        "reference check: {} points compared, {} mismatches",
        st.twins.checked, st.twins.mismatches
    ));
    Ok(rep)
}

/// Restarts from a snapshot of the engine at the end of the run and scores
/// one more batch on the restored engine against the twins.
fn restart_check(st: &mut State, rep: &mut Report) -> Result<(), String> {
    let bytes = st.engine.snapshot_bytes().map_err(|e| e.to_string())?;
    let mut engine = FleetEngine::restore_bytes(&bytes).map_err(|e| e.to_string())?;
    // the restored engine must continue the scoring streams bit-identically
    let Batch { records, probes, .. } = st.gen.batch();
    let n = records.len();
    rep.attempted += 1;
    let reply = engine.ingest(records).map_err(|e| e.to_string())?;
    let mut off = Tracer::new(false);
    if !closed::check_reply(&reply, n, &probes, &mut st.twins, &mut off, 0) {
        rep.failed += 1;
    }
    Ok(())
}
