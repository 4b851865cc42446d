//! `wire-mixed`: a [`NetServer`] on loopback serving 2k live series with
//! forecast heads on, driven by one [`NetClient`].
//!
//! In a traced run the client first sends 32-record ingest frames open loop
//! at a fixed rate ([`RATE`]); every 16th request is a forecast of 64 keys
//! at h = 12 and every 256th a stats call. Open-loop latency counts from
//! each request's due time. Per-frame costs dominate there (frame codec,
//! socket hop, thread wake-ups, engine routing and reassembly) and reads
//! share the shard with writes; the decomposition itself is a minority of
//! the time. On a host whose thread wake-ups slow down by orders of
//! magnitude for minutes at a time, those latencies swing with the host, so
//! they are reported per layer (`open.*`).
//!
//! The end-to-end metrics come from a closed loop on the same connection,
//! which an untraced run runs for all its time: [`BULK_FRAME`]-record
//! frames, one in flight, every 4th request a forecast of 64 keys at
//! h = 12 (timed from when it is issued, so including the collection of
//! the frame in flight) and every 256th a stats call.

use std::collections::VecDeque;
use std::time::Duration;

use fleet::codec;
use fleet::net::{decode_frame_exact, encode_frame_into, NetMessage};
use fleet::{
    FleetConfig, FleetEngine, ForecastOptions, NetClient, NetServer, Record, ScoredPoint,
    SeriesKey,
};

use crate::closed::{self, check_reply, Batch, Blocks, Flow};
use crate::gen::{self, Shape, PERIOD};
use crate::openloop::{OpenLoop, Schedule};
use crate::report::Report;
use crate::stats::{median_window_rate, Samples};
use crate::sys;
use crate::trace::{now_ns, Tracer};
use crate::twins::{Probe, Twins};
use crate::{
    layer_core_counts, layer_spans, layer_trace_summary, setup_median, Args, Cadence, Restores,
    ANOMALY_WINDOW,
};

const SERIES: u64 = 2000;
/// Records per ingest frame of the open loop (per-frame costs dominate).
const FRAME: u64 = 32;
/// Records per ingest frame of the closed loop, which gives the end-to-end
/// metrics: large enough that the solver, not the host's thread wake-ups,
/// sets the pace.
const BULK_FRAME: u64 = 4096;
const WARM_BATCH: u64 = 4096;
/// Frames in flight in the closed loop: one, so that the client, server and
/// shard threads take turns rather than contend for two cores.
const BULK_WINDOW: usize = 1;
const BULK_FORECAST_EVERY: u64 = 4;
const TWINS: u64 = 64;
const FORECAST_EVERY: u64 = 16;
const STATS_EVERY: u64 = 256;
const READ_KEYS: u64 = 64;
const HORIZON: u32 = 12;
/// The client's pipelining window (the same depth `NetClient::submit`
/// keeps).
const WINDOW: usize = 4;
/// Open-loop request rate, requests per second, frozen so that every
/// commit is offered the same load: about 40% of the closed-loop capacity
/// of the same request mix on the reference host (~6.7k requests/s on 2
/// vCPUs). At 60% the host's slow spells saturated the shard.
pub const RATE: f64 = 2600.0;
/// How long before a request's due time the generator stops sleeping and
/// starts yielding.
const WAKE_MARGIN_NS: u64 = 200_000;
/// Share of the measured seconds spent in the open-loop phase; the rest is
/// the closed-loop capacity phase.
const OPEN_SHARE: f64 = 0.5;
/// Open-loop ingest frames kept, in a traced run, for the codec and
/// in-process replays that split the round trip.
const KEEP_FRAMES: usize = 2048;
/// Frames per window of the throughput median.
const RATE_WINDOW: usize = 8;
/// Requests per block of a traced run's alternating recording, in the open
/// loop and in the closed loop (whose requests are fewer and longer).
const TRACE_BLOCK: u64 = 64;
const BULK_TRACE_BLOCK: u64 = 8;
const NO_TWIN: u32 = u32::MAX;

fn config() -> FleetConfig {
    FleetConfig {
        shards: 1,
        forecast: ForecastOptions::on(),
        ..FleetConfig::fixed_period(PERIOD)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest,
    Forecast,
    Stats,
}

fn kind(req: u64, forecast_every: u64) -> Kind {
    if (req + 1).is_multiple_of(STATS_EVERY) {
        Kind::Stats
    } else if (req + 1).is_multiple_of(forecast_every) {
        Kind::Forecast
    } else {
        Kind::Ingest
    }
}

struct Gen {
    seed: u64,
    keys: Vec<SeriesKey>,
    slot: Vec<u32>,
    cursor: u64,
}

impl Gen {
    fn batch(&mut self, size: u64) -> Batch {
        let mut records = Vec::with_capacity(size as usize);
        let mut probes = Vec::new();
        for j in 0..size {
            let g = self.cursor + j;
            let (n, s) = (g / SERIES, (g % SERIES) as usize);
            let value = gen::value(self.seed, s as u64, n, Shape::Normal);
            if self.slot[s] != NO_TWIN {
                probes.push(Probe { idx: j as u32, slot: self.slot[s], value });
            }
            records.push(Record { key: self.keys[s].clone(), t: n, value });
        }
        self.cursor += size;
        Batch { records, probes, tag: 0, read: None, renew: Vec::new() }
    }
}

struct State {
    server: NetServer,
    client: NetClient,
    gen: Gen,
    twins: Twins,
    read_keys: Vec<SeriesKey>,
    /// Snapshot of the warmed engine: the restart image.
    image: Vec<u8>,
    encode_s: f64,
    /// Restarts from `image`, taken through the closed loop.
    restores: Restores,
    /// Requests sent so far (picks each request's kind).
    req: u64,
}

fn setup(seed: u64) -> Result<State, String> {
    let cfg = config();
    let mut engine = FleetEngine::new(cfg.clone()).map_err(|e| e.to_string())?;
    let mut twins = Twins::new(&cfg);
    let keys: Vec<SeriesKey> =
        (0..SERIES).map(|s| SeriesKey::new(format!("wire/{s:04}"))).collect();
    let slot = (0..SERIES)
        .map(|s| {
            if s % (SERIES / TWINS) == 0 {
                twins.add(keys[s as usize].clone())
            } else {
                NO_TWIN
            }
        })
        .collect();
    let mut gen = Gen { seed, keys, slot, cursor: 0 };
    let warm = (SERIES * cfg.init_len(PERIOD) as u64).div_ceil(WARM_BATCH);
    let ph = closed::run(
        &mut engine,
        &mut || gen.batch(WARM_BATCH),
        4,
        &mut twins,
        &mut Tracer::new(false),
        &mut |submitted, _| Flow::stop_if(submitted >= warm),
    );
    let live = engine.stats().map_err(|e| e.to_string())?.live as u64;
    if ph.failed > 0 || live != SERIES {
        return Err(format!("warm-up: {} failed batches, {live} of {SERIES} live", ph.failed));
    }
    let snap = engine.snapshot().map_err(|e| e.to_string())?;
    let t0 = now_ns();
    let image = codec::encode(&snap);
    let encode_s = (now_ns() - t0) as f64 / 1e9;
    let server = NetServer::serve("127.0.0.1:0", engine).map_err(|e| e.to_string())?;
    let client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let read_keys =
        (0..READ_KEYS).map(|i| gen.keys[(i * (SERIES / READ_KEYS)) as usize].clone()).collect();
    let restores = Restores::default();
    Ok(State { server, client, gen, twins, read_keys, image, encode_s, restores, req: 0 })
}

/// What one phase measured.
#[derive(Default)]
struct WirePhase {
    points: u64,
    start_ns: u64,
    end_ns: u64,
    /// Open loop: due time to reply, µs, of ingest frames and forecasts.
    batch_us: Samples,
    /// Forecast reads, µs: in the open loop from their due time, in the
    /// closed loop from when they were issued (with a frame in flight,
    /// which the client must collect first).
    read_us: Samples,
    lag_us: Samples,
    /// Send to reply, µs, of ingest frames and forecasts.
    rtt_us: Samples,
    forecast_us: Samples,
    stats_us: Samples,
    attempted: u64,
    failed: u64,
    window_points: u64,
    window_anomalies: u64,
    /// Per frame: completion time (ns) and points.
    done: Vec<(u64, u64)>,
    /// Time and throughput by recording block (traced runs).
    blocks: Blocks,
    /// Traced runs: (records, reply, round trip ns) of the first ingest
    /// frames, up to `keep` of them.
    kept: Vec<(Vec<Record>, Vec<ScoredPoint>, u64)>,
    keep: usize,
}

impl WirePhase {
    /// Points per second: the median over windows of [`RATE_WINDOW`]
    /// frames (see [`median_window_rate`]).
    fn throughput(&self) -> f64 {
        median_window_rate(&self.done, RATE_WINDOW)
    }

    fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    /// Records the open-loop answer, at `done`, to the oldest outstanding
    /// request: an ingest frame or (`read`) a forecast.
    fn answered(&mut self, ol: &mut OpenLoop, done: u64, read: bool) {
        let lat = ol.answered(done).1 as f64 / 1e3;
        if read { &mut self.read_us } else { &mut self.batch_us }.push(lat);
    }

    /// Attributes one loop iteration of request block `block`, begun at
    /// `it0` with `points0` points scored, to recording mode `mode`.
    fn account(&mut self, block: u64, mode: usize, it0: u64, points0: u64) {
        self.blocks.add(block, mode, now_ns() - it0, self.points - points0);
    }
}

/// An ingest frame on the wire, awaiting its reply.
struct Pending {
    req: u64,
    sent_ns: u64,
    probes: Vec<Probe>,
    records: Option<Vec<Record>>,
    n: usize,
}

impl State {
    /// Checks one scored reply (or failure) for the oldest pending frame.
    fn settle(
        &mut self,
        p: Pending,
        reply: Result<Option<Vec<ScoredPoint>>, fleet::NetError>,
        ph: &mut WirePhase,
        tracer: &mut Tracer,
    ) {
        let rtt = now_ns() - p.sent_ns;
        ph.rtt_us.push(rtt as f64 / 1e3);
        let Ok(Some(reply)) = reply else {
            ph.failed += 1;
            return;
        };
        ph.points += reply.len() as u64;
        ph.done.push((now_ns(), reply.len() as u64));
        if ph.window_points < ANOMALY_WINDOW {
            ph.window_points += reply.len() as u64;
            ph.window_anomalies += reply.iter().filter(|q| q.is_anomaly()).count() as u64;
        }
        if !check_reply(&reply, p.n, &p.probes, &mut self.twins, tracer, p.req) {
            ph.failed += 1;
        }
        if let Some(records) = p.records {
            ph.kept.push((records, reply, rtt));
        }
    }

    /// Sends one ingest frame; returns it as pending. A send that fails has
    /// lost the connection, which ends the run.
    fn send_frame(
        &mut self,
        size: u64,
        ph: &mut WirePhase,
        tracer: &mut Tracer,
    ) -> Result<Pending, String> {
        let req = self.req;
        self.req += 1;
        ph.attempted += 1;
        let g = tracer.begin("gen.frame", req);
        let b = self.gen.batch(size);
        tracer.end(g);
        let keep = (tracer.on() && ph.kept.len() < ph.keep).then(|| b.records.clone());
        let n = b.records.len();
        let sent_ns = now_ns();
        let span = tracer.begin("net.submit", req);
        let res = self.client.submit(b.records);
        tracer.end(span);
        match res {
            Ok(None) => Ok(Pending { req, sent_ns, probes: b.probes, records: keep, n }),
            // the caller keeps fewer than the client's window in flight, so
            // a send never has to collect a reply first
            Ok(Some(_)) => Err("the client collected a reply while sending".into()),
            Err(e) => Err(format!("sending a frame: {e}")),
        }
    }

    /// Collects the oldest pending frame's reply.
    fn drain_one(&mut self, p: Pending, ph: &mut WirePhase, tracer: &mut Tracer) -> u64 {
        let span = tracer.begin("net.drain", p.req);
        let reply = self.client.drain();
        tracer.end(span);
        let done = now_ns();
        self.settle(p, reply, ph, tracer);
        done
    }

    /// Sends a forecast or stats request (the pipeline must be empty) and
    /// waits for the answer.
    fn read(&mut self, k: Kind, ph: &mut WirePhase, tracer: &mut Tracer) {
        let req = self.req;
        self.req += 1;
        ph.attempted += 1;
        let sent = now_ns();
        let ok = if k == Kind::Forecast {
            let span = tracer.begin("net.forecast", req);
            let res = self.client.forecast(&self.read_keys, HORIZON);
            tracer.end(span);
            ph.forecast_us.push((now_ns() - sent) as f64 / 1e3);
            res.is_ok_and(|slots| {
                slots.iter().all(|s| {
                    s.as_ref().is_some_and(|f| {
                        f.len() == HORIZON as usize && f.iter().all(|v| v.is_finite())
                    })
                })
            })
        } else {
            let span = tracer.begin("net.stats", req);
            let res = self.client.stats();
            tracer.end(span);
            ph.stats_us.push((now_ns() - sent) as f64 / 1e3);
            res.is_ok_and(|s| s.live as u64 == SERIES)
        };
        if !ok {
            ph.failed += 1;
        }
    }

    /// Open loop at [`RATE`] for `secs`.
    fn open_loop(&mut self, secs: f64, tracer: &mut Tracer) -> Result<WirePhase, String> {
        let start = now_ns();
        let end = start + (secs * 1e9) as u64;
        let mut ph = WirePhase { start_ns: start, keep: KEEP_FRAMES, ..Default::default() };
        let mut ol = OpenLoop::new(Schedule::new(start, RATE));
        let mut pending: VecDeque<Pending> = VecDeque::new();
        loop {
            let (it0, points0) = (now_ns(), ph.points);
            let (block, mode) =
                (self.req / TRACE_BLOCK, usize::from(tracer.select(self.req, TRACE_BLOCK)));
            let now = now_ns();
            let due = ol.next_due();
            if due < end && due <= now {
                let k = kind(self.req, FORECAST_EVERY);
                if k == Kind::Ingest {
                    if pending.len() >= WINDOW {
                        let p = pending.pop_front().expect("window is full");
                        let done = self.drain_one(p, &mut ph, tracer);
                        ph.answered(&mut ol, done, false);
                        ph.account(block, mode, it0, points0);
                        continue;
                    }
                    let (_, lag) = ol.sent(now_ns());
                    ph.lag_us.push(lag as f64 / 1e3);
                    pending.push_back(self.send_frame(FRAME, &mut ph, tracer)?);
                } else {
                    while let Some(p) = pending.pop_front() {
                        let done = self.drain_one(p, &mut ph, tracer);
                        ph.answered(&mut ol, done, false);
                    }
                    let (_, lag) = ol.sent(now_ns());
                    ph.lag_us.push(lag as f64 / 1e3);
                    self.read(k, &mut ph, tracer);
                    if k == Kind::Forecast {
                        ph.answered(&mut ol, now_ns(), true);
                    } else {
                        ol.answered(now_ns());
                    }
                }
            } else if let Some(p) = pending.pop_front() {
                let done = self.drain_one(p, &mut ph, tracer);
                ph.answered(&mut ol, done, false);
            } else if due >= end {
                break;
            } else {
                let span = tracer.begin("gen.wait", self.req);
                wait_until(due);
                tracer.end(span);
            }
            ph.account(block, mode, it0, points0);
        }
        ph.end_ns = now_ns();
        Ok(ph)
    }

    /// Closed loop of [`BULK_FRAME`]-record frames for `secs`: the capacity
    /// phase. [`crate::RESTORES`] restores from the set-up image are
    /// spread over it, each taken while nothing is in flight.
    fn closed_loop(&mut self, secs: f64, tracer: &mut Tracer) -> Result<WirePhase, String> {
        let start = now_ns();
        let span = (secs * 1e9) as u64;
        let end = start + span;
        let mut ph = WirePhase { start_ns: start, ..Default::default() };
        let mut pending: VecDeque<Pending> = VecDeque::new();
        let mut cadence = Cadence::new(start, span, crate::RESTORES as u64);
        while now_ns() < end {
            if pending.is_empty() && cadence.due(now_ns()) {
                cadence.take();
                self.restores.sample(&self.image)?;
            }
            let (it0, points0) = (now_ns(), ph.points);
            let (block, mode) = (
                self.req / BULK_TRACE_BLOCK,
                usize::from(tracer.select(self.req, BULK_TRACE_BLOCK)),
            );
            let k = kind(self.req, BULK_FORECAST_EVERY);
            if k == Kind::Ingest {
                if pending.len() >= BULK_WINDOW {
                    let p = pending.pop_front().expect("window is full");
                    self.drain_one(p, &mut ph, tracer);
                }
                pending.push_back(self.send_frame(BULK_FRAME, &mut ph, tracer)?);
            } else {
                let issued = now_ns();
                while let Some(p) = pending.pop_front() {
                    self.drain_one(p, &mut ph, tracer);
                }
                self.read(k, &mut ph, tracer);
                if k == Kind::Forecast {
                    ph.read_us.push((now_ns() - issued) as f64 / 1e3);
                }
            }
            ph.account(block, mode, it0, points0);
        }
        while let Some(p) = pending.pop_front() {
            self.drain_one(p, &mut ph, tracer);
        }
        ph.end_ns = now_ns();
        while cadence.left() > 0 {
            cadence.take();
            self.restores.sample(&self.image)?;
        }
        Ok(ph)
    }
}

/// Sleeps until shortly before `due`, then yields until it passes. A
/// sleep alone wakes late on a virtual machine (tens of µs and more), which
/// would read as the system's latency; a spin alone would take a core from
/// the server and the shard.
fn wait_until(due: u64) {
    let now = now_ns();
    if due > now + WAKE_MARGIN_NS {
        std::thread::sleep(Duration::from_nanos(due - now - WAKE_MARGIN_NS));
    }
    while now_ns() < due {
        std::thread::yield_now();
    }
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
    let mut tracer = Tracer::new(args.trace);
    let before = st.client.stats().map_err(|e| e.to_string())?;
    // the open loop only feeds per-layer metrics: an untraced run spends
    // all its time in the closed loop, which gives the end-to-end ones
    let open_s = if args.trace { args.seconds * OPEN_SHARE } else { 0.0 };
    let mut open = st.open_loop(open_s, &mut tracer)?;
    let mut closed = st.closed_loop(args.seconds - open_s, &mut tracer)?;
    let after = st.client.stats().map_err(|e| e.to_string())?;
    rep.attempted += open.attempted + closed.attempted;
    rep.failed += open.failed + closed.failed;
    rep.note(format!(
        "closed loop: {} points over {:.3} s, {:.0} req/s, mean {:.0} pts/s, median over \
         {RATE_WINDOW}-frame windows {:.0} pts/s",
        closed.points,
        closed.seconds(),
        closed.attempted as f64 / closed.seconds(),
        closed.points as f64 / closed.seconds(),
        closed.throughput()
    ));
    rep.note(format!("closed loop: frame latency us: {}", closed.rtt_us.describe("us")));
    rep.note(format!(
        "closed loop: forecast latency from issue (frame in flight collected first) us: {}",
        closed.read_us.describe("us")
    ));
    rep.note(format!(
        "closed loop: forecast round trip us: {}",
        closed.forecast_us.describe("us")
    ));
    rep.set("throughput_pts_s", closed.throughput());
    rep.set("batch_p50_us", closed.rtt_us.p50());
    rep.set("batch_p99_us", closed.rtt_us.p99());
    rep.set("read_p50_us", closed.read_us.p50());
    if args.trace {
        rep.set(
            "core.anomaly_pct",
            100.0 * open.window_anomalies as f64 / open.window_points.max(1) as f64,
        );
        rep.note(format!(
            "anomalies in the first {ANOMALY_WINDOW} points: {} of {}",
            open.window_anomalies, open.window_points
        ));
        rep.note(format!(
            "open loop at {RATE} req/s: {} points over {:.3} s",
            open.points,
            open.seconds()
        ));
        rep.note(format!(
            "open loop: frame latency from due time us: {}",
            open.batch_us.describe("us")
        ));
        rep.note(format!(
            "open loop: forecast latency from due time us: {}",
            open.read_us.describe("us")
        ));
        rep.note(format!("open loop: send lag us: {}", open.lag_us.describe("us")));
        let spans = tracer.spans();
        layer_spans(&mut rep, spans, &st.twins, FRAME);
        layer_core_counts(&mut rep, &before, &after, open.points + closed.points);
        let traced_ns = open.blocks.time_ns[1] + closed.blocks.time_ns[1];
        layer_trace_summary(&mut rep, args, spans, traced_ns);
        rep.set("net.rtt_us_p50", open.rtt_us.p50());
        rep.set("net.rtt_us_p99", open.rtt_us.p99());
        rep.set("net.forecast_us_p50", open.forecast_us.p50());
        rep.set("net.forecast_us_p99", open.forecast_us.p99());
        rep.set("engine.stats_us", open.stats_us.p50());
        rep.set("gen.send_lag_us_p99", open.lag_us.p99());
        rep.set("open.batch_us_p50", open.batch_us.p50());
        rep.set("open.batch_us_p99", open.batch_us.p99());
        rep.set("open.read_us_p50", open.read_us.p50());
        rep.set("open.read_us_p90", open.read_us.percentile(90_000));
        rep.set("base.batches", (open.batch_us.len() + closed.rtt_us.len()) as f64);
        rep.set("samples.batch", closed.rtt_us.len() as f64);
        rep.set("samples.read", closed.forecast_us.len() as f64);
        rep.note(format!("net round trip us: {}", open.rtt_us.describe("us")));
        rep.note(format!("net forecast us: {}", open.forecast_us.describe("us")));
        split_round_trip(&mut st, &mut open, &mut rep)?;
        let overhead = closed.blocks.overhead_pct();
        rep.set("trace.overhead_pct", overhead);
        rep.note(format!(
            "tracing overhead {overhead:.2}% (closed loop, traced against untraced blocks)"
        ));
    }
    let State { server, client, twins, image, encode_s, mut restores, .. } = st;
    drop(client);
    server.shutdown();
    restores.report(&mut rep);
    rep.attempted += 1;
    if !restart(&image)? {
        rep.failed += 1;
    }
    rep.set("codec.encode_s", encode_s);
    rep.set("codec.snapshot_bytes_per_series", image.len() as f64 / SERIES as f64);
    rep.set("mem.rss_growth_mib", sys::rss_mib() - rss0);
    rep.set("rss_peak_mib", sys::rss_peak_mib());
    if twins.mismatches > 0 {
        rep.wrong.push(format!("reference check: {:?}", twins.first));
    }
    rep.note(format!(
        "reference check: {} points compared, {} mismatches",
        twins.checked, twins.mismatches
    ));
    Ok(rep)
}

/// Splits the kept frames' round trips: frame codec (request and reply,
/// encode and decode, timed on the identical frames), an in-process replay
/// of the same batches, and what neither explains (socket hop, wake-ups).
fn split_round_trip(
    st: &mut State,
    ph: &mut WirePhase,
    rep: &mut Report,
) -> Result<(), String> {
    let mut engine = FleetEngine::restore_bytes(&st.image).map_err(|e| e.to_string())?;
    let (mut enc, mut dec, mut bytes, mut pts) = (0u64, 0u64, 0u64, 0u64);
    let (mut rest, mut codec_us, mut replay_us) =
        (Samples::new(), Samples::new(), Samples::new());
    let mut buf = Vec::new();
    for (records, reply, rtt) in ph.kept.drain(..) {
        let mut codec_ns = 0;
        for msg in [NetMessage::IngestBatch(records.clone()), NetMessage::Scored(reply)] {
            let t0 = now_ns();
            encode_frame_into(&mut buf, &msg);
            let t1 = now_ns();
            let back = decode_frame_exact(&buf).map_err(|e| e.to_string())?;
            let t2 = now_ns();
            if back != msg {
                rep.wrong.push("frame codec round trip changed a frame".into());
            }
            enc += t1 - t0;
            dec += t2 - t1;
            codec_ns += t2 - t0;
            bytes += buf.len() as u64;
        }
        pts += records.len() as u64;
        let t0 = now_ns();
        engine.ingest(records).map_err(|e| e.to_string())?;
        let replay = now_ns() - t0;
        rest.push((rtt as f64 - (codec_ns + replay) as f64) / 1e3);
        codec_us.push(codec_ns as f64 / 1e3);
        replay_us.push(replay as f64 / 1e3);
    }
    let pts = pts.max(1) as f64;
    rep.set("net.encode_ns_per_pt", enc as f64 / pts);
    rep.set("net.decode_ns_per_pt", dec as f64 / pts);
    rep.set("net.frame_bytes_per_pt", bytes as f64 / pts);
    rep.set("net.unattributed_us_p50", rest.p50());
    rep.note(format!("frame codec per round trip us: {}", codec_us.describe("us")));
    rep.note(format!("in-process replay of the same batch us: {}", replay_us.describe("us")));
    rep.note(format!(
        "round trip minus codec minus in-process replay, us: {}",
        rest.describe("us")
    ));
    Ok(())
}

/// Restarts the service from the set-up image (restore, serve, connect) and
/// returns whether it answers a stats call with every series live. The
/// restores timed for `recover_s` leave out serve and connect: the listener
/// polls for connections every 2 ms, a jitter that would swamp a 20 ms
/// restore.
fn restart(image: &[u8]) -> Result<bool, String> {
    let engine = FleetEngine::restore_bytes(image).map_err(|e| e.to_string())?;
    let server = NetServer::serve("127.0.0.1:0", engine).map_err(|e| e.to_string())?;
    let mut client = NetClient::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    drop(client);
    server.shutdown();
    Ok(stats.live as u64 == SERIES)
}
