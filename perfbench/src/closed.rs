//! The closed-loop runner shared by the in-process workloads: one caller
//! thread keeps a fixed number of batches in flight through
//! `submit`/`next_batch`, checks every reply, and interleaves forecast reads.

use std::collections::VecDeque;

use fleet::{
    DurableFleet, FleetEngine, FleetError, PointOutput, Record, ScoredPoint, SeriesKey,
};

use crate::stats::{median_window_rate, Samples};
use crate::trace::{now_ns, Tracer};
use crate::twins::{Probe, Twins};
use crate::ANOMALY_WINDOW;

/// The pipelined ingest API of [`FleetEngine`] and [`DurableFleet`].
pub trait Pipeline {
    /// Submits one batch.
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError>;
    /// Collects the oldest in-flight batch.
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError>;
    /// The engine, for reads.
    fn engine(&self) -> &FleetEngine;
}

impl Pipeline for FleetEngine {
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        FleetEngine::submit(self, batch)
    }
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        FleetEngine::next_batch(self)
    }
    fn engine(&self) -> &FleetEngine {
        self
    }
}

impl Pipeline for DurableFleet {
    fn submit(&mut self, batch: Vec<Record>) -> Result<(), FleetError> {
        DurableFleet::submit(self, batch)
    }
    fn next_batch(&mut self) -> Result<Option<Vec<ScoredPoint>>, FleetError> {
        DurableFleet::next_batch(self)
    }
    fn engine(&self) -> &FleetEngine {
        DurableFleet::engine(self)
    }
}

/// One generated batch.
pub struct Batch {
    /// The records.
    pub records: Vec<Record>,
    /// The sampled records, checked against their twins.
    pub probes: Vec<Probe>,
    /// Workload-defined tag, kept with the batch's latency.
    pub tag: u8,
    /// Keys of a forecast read to send right after this batch is submitted.
    pub read: Option<Vec<SeriesKey>>,
    /// Twin slots whose key this batch replaces with a new one (applied
    /// before the batch's reply is checked).
    pub renew: Vec<(u32, SeriesKey)>,
}

/// Steps ahead of every forecast read.
pub const HORIZON: usize = 12;

/// What a phase measured.
#[derive(Default)]
pub struct Phase {
    /// Points scored.
    pub points: u64,
    /// Batches collected.
    pub batches: u64,
    /// Phase start and end, ns since the epoch.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Batch latency, submit to scored reply, µs.
    pub batch_us: Samples,
    /// Forecast read latency, µs.
    pub read_us: Samples,
    /// Per batch: completion time (ns) and points.
    pub done: Vec<(u64, u64)>,
    /// Per batch: engine batch seq, tag, latency in µs.
    pub per_batch: Vec<(u64, u8, f64)>,
    /// Operations attempted (batches and reads).
    pub attempted: u64,
    /// Operations that failed (errors, or unexpected quarantined/rejected
    /// points, or unanswered forecast keys).
    pub failed: u64,
    /// Largest sampled shard queue depth (traced runs only).
    pub queue_depth_max: usize,
    /// Time and throughput by recording block (traced runs).
    pub blocks: Blocks,
    /// Points and flagged points of the first [`ANOMALY_WINDOW`] points.
    pub window_points: u64,
    /// See `window_points`.
    pub window_anomalies: u64,
}

/// Batches per window of the throughput median.
pub const RATE_WINDOW: usize = 8;

/// Batches per block of a traced run's alternating recording (see
/// [`Tracer::select`]): `durable-churn`'s snapshot cadence, so that every
/// block carries one snapshot and its stall.
pub const TRACE_BLOCK: u64 = 40;

impl Phase {
    /// Elapsed seconds.
    pub fn elapsed_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Points per second: the median over windows of [`RATE_WINDOW`]
    /// batches (see [`median_window_rate`]).
    pub fn throughput(&self) -> f64 {
        median_window_rate(&self.done, RATE_WINDOW)
    }
}

/// Loop time and throughput of a traced run's alternating blocks, by
/// recording mode (`[0]` off, `[1]` on).
#[derive(Default)]
pub struct Blocks {
    cur: Option<(u64, usize)>,
    ns: u64,
    points: u64,
    /// Loop time by mode, ns.
    pub time_ns: [u64; 2],
    /// Points per second of each finished block, by mode.
    pub rates: [Samples; 2],
}

impl Blocks {
    /// Adds one loop iteration of block `block` in recording mode `mode`.
    pub fn add(&mut self, block: u64, mode: usize, ns: u64, points: u64) {
        if self.cur != Some((block, mode)) {
            self.flush();
            self.cur = Some((block, mode));
        }
        self.ns += ns;
        self.points += points;
        self.time_ns[mode] += ns;
    }

    fn flush(&mut self) {
        if let Some((_, mode)) = self.cur.take() {
            if self.ns > 0 && self.points > 0 {
                self.rates[mode].push(self.points as f64 * 1e9 / self.ns as f64);
            }
        }
        self.ns = 0;
        self.points = 0;
    }

    /// Tracing overhead, %: the median block throughput with recording on
    /// against off (medians, so that a stall landing in one mode's blocks
    /// does not read as overhead).
    pub fn overhead_pct(&mut self) -> f64 {
        self.flush();
        100.0 * (1.0 - self.rates[1].p50() / self.rates[0].p50())
    }
}

/// Checks one reply: its length, its points' verdicts and the sampled
/// points against their twins. Returns false when the batch failed.
pub fn check_reply(
    reply: &[ScoredPoint],
    n: usize,
    probes: &[Probe],
    twins: &mut Twins,
    tracer: &mut Tracer,
    req: u64,
) -> bool {
    let span = tracer.begin("check.reply", req);
    let unexpected = reply
        .iter()
        .any(|p| matches!(p.output, PointOutput::Quarantined | PointOutput::Rejected));
    twins.check_batch(probes, reply, tracer, req);
    tracer.end(span);
    reply.len() == n && !unexpected
}

/// What the closed loop does before its next submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Submit the next batch.
    Submit,
    /// Submit nothing yet: collect the oldest batch in flight. With nothing
    /// in flight this submits, so the loop always moves.
    Drain,
    /// Submit nothing more: collect what is in flight and return.
    Stop,
}

impl Flow {
    /// `Stop` when `done`, else `Submit`.
    pub fn stop_if(done: bool) -> Flow {
        if done {
            Flow::Stop
        } else {
            Flow::Submit
        }
    }
}

/// Runs batches from `next` with up to `window` in flight, asking
/// `flow(batches submitted, batches in flight)` before each submission,
/// until it says [`Flow::Stop`]; then drains. The callback may do work of
/// its own when it sees nothing in flight.
pub fn run<P: Pipeline>(
    fleet: &mut P,
    next: &mut dyn FnMut() -> Batch,
    window: usize,
    twins: &mut Twins,
    tracer: &mut Tracer,
    flow: &mut dyn FnMut(u64, usize) -> Flow,
) -> Phase {
    let mut ph = Phase { start_ns: now_ns(), ..Default::default() };
    // (req, submit start, points, the batch without its records)
    let mut in_flight: VecDeque<(u64, u64, usize, Batch)> = VecDeque::new();
    let mut submitted = 0u64;
    let mut stopping = false;
    loop {
        let it0 = now_ns();
        let (block, mode) =
            (submitted / TRACE_BLOCK, usize::from(tracer.select(submitted, TRACE_BLOCK)));
        let points0 = ph.points;
        while !stopping && in_flight.len() < window {
            match flow(submitted, in_flight.len()) {
                Flow::Stop => {
                    stopping = true;
                    break;
                }
                Flow::Drain if !in_flight.is_empty() => break,
                Flow::Submit | Flow::Drain => {}
            }
            let g = tracer.begin("gen.batch", submitted);
            let mut b = next();
            tracer.end(g);
            let n = b.records.len();
            let req = submitted;
            submitted += 1;
            ph.attempted += 1;
            let t0 = now_ns();
            let span = tracer.begin("engine.submit", req);
            let res = fleet.submit(std::mem::take(&mut b.records));
            tracer.end(span);
            if tracer.on() {
                ph.queue_depth_max = ph.queue_depth_max.max(fleet.engine().queue_depth(0));
            }
            if res.is_err() {
                ph.failed += 1;
                continue;
            }
            if let Some(keys) = &b.read {
                read(fleet.engine(), keys, &mut ph, tracer, req);
            }
            in_flight.push_back((req, t0, n, b));
        }
        let Some((req, t0, n, b)) = in_flight.pop_front() else { break };
        for (slot, key) in b.renew {
            twins.reset(slot, key);
        }
        let span = tracer.begin("engine.next_batch", req);
        let res = fleet.next_batch();
        tracer.end(span);
        let done = now_ns();
        let lat = (done - t0) as f64 / 1e3;
        let seq = fleet.engine().batches() - in_flight.len() as u64;
        match res {
            Ok(Some(reply)) => {
                ph.batch_us.push(lat);
                ph.per_batch.push((seq, b.tag, lat));
                ph.batches += 1;
                ph.points += reply.len() as u64;
                ph.done.push((done, reply.len() as u64));
                if ph.window_points < ANOMALY_WINDOW {
                    ph.window_points += reply.len() as u64;
                    ph.window_anomalies +=
                        reply.iter().filter(|p| p.is_anomaly()).count() as u64;
                }
                if !check_reply(&reply, n, &b.probes, twins, tracer, req) {
                    ph.failed += 1;
                }
            }
            _ => ph.failed += 1,
        }
        ph.blocks.add(block, mode, now_ns() - it0, ph.points - points0);
    }
    ph.end_ns = now_ns();
    ph
}

/// One timed forecast read; a key without a full horizon of finite values
/// fails it.
fn read(
    engine: &FleetEngine,
    keys: &[SeriesKey],
    ph: &mut Phase,
    tracer: &mut Tracer,
    req: u64,
) {
    ph.attempted += 1;
    let t0 = now_ns();
    let span = tracer.begin("engine.forecast", req);
    let res = engine.forecast(keys, HORIZON);
    tracer.end(span);
    ph.read_us.push((now_ns() - t0) as f64 / 1e3);
    let ok = res.is_ok_and(|slots| {
        slots.iter().all(|s| {
            s.as_ref().is_some_and(|f| f.len() == HORIZON && f.iter().all(|v| v.is_finite()))
        })
    });
    if !ok {
        ph.failed += 1;
    }
}
