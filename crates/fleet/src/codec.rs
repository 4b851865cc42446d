//! Versioned binary codec for [`FleetSnapshot`] and [`FleetDelta`].
//!
//! Layout: magic `b"OSSTLFLT"`, `u16` version, `u8` kind (0 = full image,
//! 1 = incremental delta), then the fields in a fixed order. All integers
//! are little-endian; `f64` round-trips via [`f64::to_bits`], so restored
//! values are **bit-identical** — the basis of the snapshot determinism
//! guarantee. The format is self-contained: per-series detector configs
//! are encoded with each series, so a snapshot survives engine-level
//! config changes between writer and reader.
//!
//! A delta (v3) additionally carries the batch seq of the image it chains
//! onto (`prev_batches`) and a tombstone list of keys removed since then;
//! folding it onto that image ([`FleetDelta::fold_into`]) reproduces the
//! full snapshot bit-exactly.
//!
//! v4 adds the §3.4 shift-search pipeline configuration to every encoded
//! detector config, and pending per-series [`AdmitOptions`] to every
//! warming-phase series. v3 images still decode (read-compat): their
//! detector configs get [`oneshotstl::ShiftPrune::Off`] — the exhaustive
//! search every v3 writer actually ran, so a restored v3 stream continues
//! bit-identically — and their warming series carry no overrides.
//!
//! v5 adds the persistence-aware residual scoring layer
//! ([`oneshotstl::score`]): the engine-wide [`ScoreConfig`], a full
//! [`ResidualScorerState`] (config + CUSUM accumulators + peak-hold) per
//! live series where v4 stored only the plain NSigma statistics, and an
//! optional per-series `score` override in [`AdmitOptions`]. v3/v4 images
//! still decode: their live series get a scorer with
//! [`oneshotstl::Fusion::Off`] wrapped around the decoded NSigma
//! statistics — bit-identical to the plain-NSigma scoring every v3/v4
//! writer ran — and their configs/overrides carry
//! [`ScoreConfig::off`]/no override.
//!
//! v6 adds the forecasting layer: the engine-wide
//! [`crate::ForecastOptions`], an optional per-series `forecast` override
//! in [`AdmitOptions`], and an optional forecast-head state (pending
//! one-step prediction + rolling error tracker rings) per live series.
//! v3–v5 images still decode: they get forecasting disabled — what every
//! pre-v6 writer actually ran — and their live series carry no head, so a
//! restored stream continues bit-identically.
//!
//! v7 adds the detection-backend layer ([`crate::backend`]): the
//! engine-wide [`BackendSelect`], an optional per-series `backend`
//! override in [`AdmitOptions`], and an optional backend state (streaming
//! DAMP window + distance normalizer, trend-innovation CUSUM, or the
//! ensemble of both) per live series. v3–v6 images still decode: they get
//! [`BackendSelect::Fused`] — the plain fused-scorer pipeline every
//! pre-v7 writer ran — and their live series carry no backend state, so a
//! restored stream continues bit-identically.
//!
//! v8 adds the robustness layer: three health counters in
//! [`CarriedTotals`] (WAL re-arm attempts, shard restarts, un-durable
//! batches) and the `Quarantined` series phase (cause + dropped count).
//! v3–v7 images still decode: their counters start at 0 and no pre-v8
//! writer ever quarantined a series.
//!
//! v9 adds the tiered-state layer: the engine-wide
//! [`StateCompression`] selection and `spill_after` cold-tier threshold
//! in the config, and a tag byte in front of every decomposer/solver
//! state vector — tag 0 is the exact `f64` layout, tag 1 the compact
//! delta-encoded form (first element as `f64` bits, every later element
//! as the `f32` delta from its reconstructed predecessor). Compact is
//! lossy at `f32`-delta precision but stable under re-encode, so
//! repeated snapshot cycles do not drift. v3–v8 images still decode:
//! their vectors are untagged plain `f64`s, compression comes back
//! [`StateCompression::Exact`], and no pre-v9 writer spilled.

use crate::backend::{
    BackendSelect, BackendSnapshot, DampBackendState, DampOptions, EnsembleFusion,
    EnsembleOptions, SeriesBackend,
};
use crate::config::{AdmitOptions, ForecastOptions, QueuePolicy, StateCompression};
use crate::engine::{CarriedTotals, FleetDelta, FleetSnapshot};
use crate::error::CodecError;
use crate::series::{ForecastSnapshot, PhaseSnapshot, QuarantineCause};
use crate::shard::SeriesSnapshot;
use crate::types::SeriesKey;
use crate::{FleetConfig, PeriodPolicy};
use oneshotstl::oneshot::InitMethod;
use oneshotstl::system::Lambdas;
use oneshotstl::{
    Fusion, IterSnapshot, NSigmaState, OneShotStlConfig, OneShotStlState, ResidualScorerState,
    ScoreConfig, ShiftPolicy, ShiftPrune, ShiftSearchConfig, SolverState,
};

const MAGIC: &[u8; 8] = b"OSSTLFLT";
// v2: FleetConfig gained queue_capacity + queue_policy (backpressure)
// v3: kind byte after the version; kind 1 = incremental delta snapshots
// v4: detector configs gained the shift-search pipeline config; warming
//     series gained pending per-series AdmitOptions
// v5: FleetConfig gained the residual ScoreConfig; live series store a
//     full ResidualScorerState (was: plain NSigma stats); AdmitOptions
//     gained an optional score override
// v6: FleetConfig gained ForecastOptions; AdmitOptions gained an optional
//     forecast override; live series gained an optional forecast-head
//     state (pending prediction + rolling error tracker)
// v7: FleetConfig gained the detection-backend selection; AdmitOptions
//     gained an optional backend override; live series gained an optional
//     backend state (streaming DAMP + normalizer, trend CUSUM, ensemble)
// v8: CarriedTotals gained the health counters (wal_retries,
//     shard_restarts, undurable_batches); series gained the Quarantined
//     phase (tag 3: cause + dropped count)
// v9: FleetConfig gained the StateCompression selection and the
//     spill_after cold-tier threshold; decomposer/solver state vectors
//     gained a layout tag (0 = exact f64, 1 = delta-encoded f32)
pub(crate) const VERSION: u16 = 9;
/// Oldest version this build still decodes.
const MIN_VERSION: u16 = 3;
const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Serializes a snapshot to the versioned binary format.
pub fn encode(snapshot: &FleetSnapshot) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(VERSION);
    w.u8(KIND_FULL);
    encode_config(&mut w, &snapshot.config);
    w.u64(snapshot.clock);
    w.u64(snapshot.batches);
    encode_totals(&mut w, &snapshot.totals);
    w.u64(snapshot.series.len() as u64);
    for s in &snapshot.series {
        encode_series(&mut w, s, snapshot.config.compression);
    }
    w.buf
}

/// Serializes an incremental delta to the versioned binary format.
pub fn encode_delta(delta: &FleetDelta) -> Vec<u8> {
    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u16(VERSION);
    w.u8(KIND_DELTA);
    encode_config(&mut w, &delta.config);
    w.u64(delta.prev_batches);
    w.u64(delta.clock);
    w.u64(delta.batches);
    encode_totals(&mut w, &delta.totals);
    w.u64(delta.series.len() as u64);
    for s in &delta.series {
        encode_series(&mut w, s, delta.config.compression);
    }
    w.u64(delta.tombstones.len() as u64);
    for key in &delta.tombstones {
        w.string(key.as_str());
    }
    w.buf
}

/// Checks magic, version, and kind; leaves the reader after the kind byte
/// and returns the (read-compatible) version found.
fn decode_header(r: &mut Reader<'_>, want_kind: u8) -> Result<u16, CodecError> {
    if r.take(8)? != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != want_kind {
        return Err(CodecError::Invalid("snapshot kind (full vs delta)"));
    }
    Ok(version)
}

/// Deserializes [`encode`] output (v4, or v3 for read-compat).
pub fn decode(bytes: &[u8]) -> Result<FleetSnapshot, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    let v = decode_header(&mut r, KIND_FULL)?;
    let config = decode_config(&mut r, v)?;
    let clock = r.u64()?;
    let batches = r.u64()?;
    let totals = decode_totals(&mut r, v)?;
    let n = r.u64()? as usize;
    let mut series = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        series.push(decode_series(&mut r, v)?);
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after snapshot"));
    }
    Ok(FleetSnapshot { config, clock, batches, totals, series })
}

/// Deserializes [`encode_delta`] output (v4, or v3 for read-compat).
pub fn decode_delta(bytes: &[u8]) -> Result<FleetDelta, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    let v = decode_header(&mut r, KIND_DELTA)?;
    let config = decode_config(&mut r, v)?;
    let prev_batches = r.u64()?;
    let clock = r.u64()?;
    let batches = r.u64()?;
    let totals = decode_totals(&mut r, v)?;
    let n = r.u64()? as usize;
    let mut series = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        series.push(decode_series(&mut r, v)?);
    }
    let n_dead = r.u64()? as usize;
    let mut tombstones = Vec::with_capacity(n_dead.min(1 << 20));
    for _ in 0..n_dead {
        tombstones.push(SeriesKey::new(r.string()?));
    }
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after delta"));
    }
    Ok(FleetDelta { config, prev_batches, clock, batches, totals, series, tombstones })
}

/// Serializes one series for the cold tier: `u16` codec version, then the
/// standard series encoding — always in the exact `f64` layout, because a
/// rehydrated series must continue **bit-identically** regardless of the
/// engine's [`StateCompression`] selection.
pub(crate) fn encode_series_blob(s: &SeriesSnapshot) -> Vec<u8> {
    let mut w = Writer::default();
    w.u16(VERSION);
    encode_series(&mut w, s, StateCompression::Exact);
    w.buf
}

/// Deserializes [`encode_series_blob`] output (any read-compatible
/// version, so a cold store written by an older build stays readable).
pub(crate) fn decode_series_blob(bytes: &[u8]) -> Result<SeriesSnapshot, CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    let version = r.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let s = decode_series(&mut r, version)?;
    if r.pos != r.data.len() {
        return Err(CodecError::Invalid("trailing bytes after series blob"));
    }
    Ok(s)
}

/// Reads just the chain header of a delta image — `(prev_batches,
/// batches)` — without decoding the series body. WAL-segment compaction
/// uses this to decide which on-disk deltas keep a recovery path alive
/// for each retained base snapshot.
pub(crate) fn decode_delta_chain(bytes: &[u8]) -> Result<(u64, u64), CodecError> {
    let mut r = Reader { data: bytes, pos: 0 };
    let v = decode_header(&mut r, KIND_DELTA)?;
    let _config = decode_config(&mut r, v)?;
    let prev_batches = r.u64()?;
    let _clock = r.u64()?;
    let batches = r.u64()?;
    Ok((prev_batches, batches))
}

fn encode_totals(w: &mut Writer, t: &CarriedTotals) {
    w.u64(t.evicted);
    w.u64(t.admitted);
    w.u64(t.points);
    w.u64(t.anomalies);
    w.u64(t.wal_retries);
    w.u64(t.shard_restarts);
    w.u64(t.undurable_batches);
}

fn decode_totals(r: &mut Reader<'_>, version: u16) -> Result<CarriedTotals, CodecError> {
    Ok(CarriedTotals {
        evicted: r.u64()?,
        admitted: r.u64()?,
        points: r.u64()?,
        anomalies: r.u64()?,
        // pre-v8 writers had no health counters: they start at 0
        wal_retries: if version >= 8 { r.u64()? } else { 0 },
        shard_restarts: if version >= 8 { r.u64()? } else { 0 },
        undurable_batches: if version >= 8 { r.u64()? } else { 0 },
    })
}

fn encode_config(w: &mut Writer, c: &FleetConfig) {
    w.u32(c.shards as u32);
    w.u32(c.init_cycles as u32);
    match &c.period {
        PeriodPolicy::Fixed(t) => {
            w.u8(0);
            w.u32(*t as u32);
        }
        PeriodPolicy::Detect { min_period, max_period, min_acf, fallback } => {
            w.u8(1);
            w.u32(*min_period as u32);
            w.u32(*max_period as u32);
            w.f64(*min_acf);
            w.opt_u32(fallback.map(|v| v as u32));
        }
    }
    w.opt_u32(c.max_warmup.map(|v| v as u32));
    w.f64(c.nsigma);
    w.opt_u64(c.ttl);
    w.opt_u64(c.max_clock_step);
    w.opt_u64(c.queue_capacity.map(|v| v as u64));
    w.u8(match c.queue_policy {
        QueuePolicy::Block => 0,
        QueuePolicy::Reject => 1,
    });
    encode_detector_config(w, &c.detector);
    encode_score_config(w, &c.score);
    encode_forecast_options(w, &c.forecast);
    encode_backend_select(w, &c.backend);
    w.u8(match c.compression {
        StateCompression::Exact => 0,
        StateCompression::Compact => 1,
    });
    w.opt_u64(c.spill_after);
}

fn decode_config(r: &mut Reader<'_>, version: u16) -> Result<FleetConfig, CodecError> {
    let shards = r.u32()? as usize;
    let init_cycles = r.u32()? as usize;
    let period = match r.u8()? {
        0 => PeriodPolicy::Fixed(r.u32()? as usize),
        1 => PeriodPolicy::Detect {
            min_period: r.u32()? as usize,
            max_period: r.u32()? as usize,
            min_acf: r.f64()?,
            fallback: r.opt_u32()?.map(|v| v as usize),
        },
        _ => return Err(CodecError::Invalid("period policy tag")),
    };
    let max_warmup = r.opt_u32()?.map(|v| v as usize);
    let nsigma = r.f64()?;
    let ttl = r.opt_u64()?;
    let max_clock_step = r.opt_u64()?;
    let queue_capacity = r.opt_u64()?.map(|v| v as usize);
    let queue_policy = match r.u8()? {
        0 => QueuePolicy::Block,
        1 => QueuePolicy::Reject,
        _ => return Err(CodecError::Invalid("queue policy tag")),
    };
    let detector = decode_detector_config(r, version)?;
    // a v3/v4 writer scored with the plain instantaneous z-score
    let score = if version >= 5 { decode_score_config(r)? } else { ScoreConfig::off() };
    // and no pre-v6 writer forecasted
    let forecast =
        if version >= 6 { decode_forecast_options(r)? } else { ForecastOptions::default() };
    // nor did any pre-v7 writer run a backend beyond the fused scorer
    let backend = if version >= 7 { decode_backend_select(r)? } else { BackendSelect::Fused };
    // and no pre-v9 writer compressed state or spilled to a cold tier
    let compression = if version >= 9 {
        match r.u8()? {
            0 => StateCompression::Exact,
            1 => StateCompression::Compact,
            _ => return Err(CodecError::Invalid("state compression tag")),
        }
    } else {
        StateCompression::Exact
    };
    let spill_after = if version >= 9 { r.opt_u64()? } else { None };
    // same smuggling stance as every other config field: no writer can
    // produce the degenerate thresholds the API boundary rejects
    if spill_after == Some(0) {
        return Err(CodecError::Invalid("spill_after"));
    }
    if let (Some(spill), Some(t)) = (spill_after, ttl) {
        if spill >= t {
            return Err(CodecError::Invalid("spill_after >= ttl"));
        }
    }
    Ok(FleetConfig {
        shards,
        init_cycles,
        period,
        max_warmup,
        nsigma,
        ttl,
        max_clock_step,
        queue_capacity,
        queue_policy,
        detector,
        score,
        forecast,
        backend,
        compression,
        spill_after,
    })
}

/// v7: `u8` variant tag, then the variant's options.
fn encode_backend_select(w: &mut Writer, b: &BackendSelect) {
    match b {
        BackendSelect::Fused => w.u8(0),
        BackendSelect::Damp(d) => {
            w.u8(1);
            encode_damp_options(w, d);
        }
        BackendSelect::TrendCusum(s) => {
            w.u8(2);
            encode_score_config(w, s);
        }
        BackendSelect::Ensemble(e) => {
            w.u8(3);
            encode_damp_options(w, &e.damp);
            encode_score_config(w, &e.trend);
            encode_ensemble_fusion(w, e.fusion);
            for &wt in &e.weights {
                w.f64(wt);
            }
        }
    }
}

fn decode_backend_select(r: &mut Reader<'_>) -> Result<BackendSelect, CodecError> {
    let select = match r.u8()? {
        0 => BackendSelect::Fused,
        1 => BackendSelect::Damp(decode_damp_options(r)?),
        2 => BackendSelect::TrendCusum(decode_score_config(r)?),
        3 => {
            let damp = decode_damp_options(r)?;
            let trend = decode_score_config(r)?;
            let fusion = decode_ensemble_fusion(r)?;
            let weights = [r.f64()?, r.f64()?, r.f64()?];
            BackendSelect::Ensemble(EnsembleOptions { damp, trend, fusion, weights })
        }
        _ => return Err(CodecError::Invalid("backend select tag")),
    };
    // same smuggling stance as every other config: a crafted image must
    // not restore a selection the API boundary rejects (a DAMP window too
    // small for its subsequence, all-zero ensemble weights, ...)
    if select.validate().is_err() {
        return Err(CodecError::Invalid("backend selection"));
    }
    Ok(select)
}

fn encode_damp_options(w: &mut Writer, d: &DampOptions) {
    w.u32(d.window);
    w.u32(d.subseq);
}

fn decode_damp_options(r: &mut Reader<'_>) -> Result<DampOptions, CodecError> {
    Ok(DampOptions { window: r.u32()?, subseq: r.u32()? })
}

fn encode_ensemble_fusion(w: &mut Writer, f: EnsembleFusion) {
    w.u8(match f {
        EnsembleFusion::Max => 0,
        EnsembleFusion::WeightedRank => 1,
    });
}

fn decode_ensemble_fusion(r: &mut Reader<'_>) -> Result<EnsembleFusion, CodecError> {
    Ok(match r.u8()? {
        0 => EnsembleFusion::Max,
        1 => EnsembleFusion::WeightedRank,
        _ => return Err(CodecError::Invalid("ensemble fusion tag")),
    })
}

/// v5: `u8` fusion tag, then `f64` k / h / hold-decay.
fn encode_score_config(w: &mut Writer, s: &ScoreConfig) {
    w.u8(match s.fusion {
        Fusion::Off => 0,
        Fusion::Cusum => 1,
        Fusion::Max => 2,
    });
    w.f64(s.cusum_k);
    w.f64(s.cusum_h);
    w.f64(s.hold_decay);
}

fn decode_score_config(r: &mut Reader<'_>) -> Result<ScoreConfig, CodecError> {
    let fusion = match r.u8()? {
        0 => Fusion::Off,
        1 => Fusion::Cusum,
        2 => Fusion::Max,
        _ => return Err(CodecError::Invalid("fusion tag")),
    };
    let config =
        ScoreConfig { cusum_k: r.f64()?, cusum_h: r.f64()?, hold_decay: r.f64()?, fusion };
    // a corrupted or externally-produced image must not smuggle in
    // degenerate values the API boundary rejects (non-finite k/h,
    // hold_decay >= 1, ...)
    if config.validate().is_err() {
        return Err(CodecError::Invalid("score config"));
    }
    Ok(config)
}

/// v6: `u8` enabled, `f64` damping, `u32` error window, `u8` fusion flag,
/// `f64` sMAPE alarm bar.
fn encode_forecast_options(w: &mut Writer, f: &ForecastOptions) {
    w.u8(f.enabled as u8);
    w.f64(f.damping);
    w.u32(f.error_window);
    w.u8(f.error_fusion as u8);
    w.f64(f.smape_alarm);
}

fn decode_forecast_options(r: &mut Reader<'_>) -> Result<ForecastOptions, CodecError> {
    let enabled = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast enabled flag")),
    };
    let damping = r.f64()?;
    let error_window = r.u32()?;
    let error_fusion = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast fusion flag")),
    };
    let options =
        ForecastOptions { enabled, damping, error_window, error_fusion, smape_alarm: r.f64()? };
    // same smuggling stance as the score config: a crafted image must not
    // restore values the API boundary rejects (φ outside [0, 1], a
    // zero-capacity error window, a non-positive alarm bar)
    if options.validate().is_err() {
        return Err(CodecError::Invalid("forecast options"));
    }
    Ok(options)
}

/// v6: the forecast-head state of a live series — its options, the
/// pending one-step prediction awaiting its truth, and the rolling error
/// tracker rings.
fn encode_forecast_state(w: &mut Writer, f: &ForecastSnapshot) {
    encode_forecast_options(w, &f.options);
    w.f64(f.pending);
    w.u8(f.has_pending as u8);
    w.vec_f64(&f.tracker.abs);
    w.vec_f64(&f.tracker.sm);
    w.u32(f.tracker.head);
    w.u32(f.tracker.len);
    w.f64(f.tracker.sum_abs);
    w.f64(f.tracker.sum_sm);
}

fn decode_forecast_state(r: &mut Reader<'_>) -> Result<ForecastSnapshot, CodecError> {
    let options = decode_forecast_options(r)?;
    let pending = r.f64()?;
    let has_pending = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("forecast pending flag")),
    };
    // a NaN pending prediction would poison the tracker at the next point
    if has_pending && !pending.is_finite() {
        return Err(CodecError::Invalid("forecast pending prediction"));
    }
    let tracker = forecast::RollingErrorState {
        abs: r.vec_f64()?,
        sm: r.vec_f64()?,
        head: r.u32()?,
        len: r.u32()?,
        sum_abs: r.f64()?,
        sum_sm: r.f64()?,
    };
    // the tracker's own validation rejects ragged rings, out-of-range
    // cursors, negative error terms, and non-finite sums — a NaN sum
    // would poison every sMAPE read after restore
    if forecast::RollingError::from_state(tracker.clone()).is_err() {
        return Err(CodecError::Invalid("forecast tracker state"));
    }
    Ok(ForecastSnapshot { options, pending, has_pending, tracker })
}

/// v7: the backend state of a live series — `u8` variant tag, then the
/// variant's members.
fn encode_backend_state(w: &mut Writer, s: &BackendSnapshot) {
    match s {
        BackendSnapshot::Damp(d) => {
            w.u8(0);
            encode_damp_backend_state(w, d);
        }
        BackendSnapshot::TrendCusum(t) => {
            w.u8(1);
            encode_trend_cusum_state(w, t);
        }
        BackendSnapshot::Ensemble { damp, trend, fusion, weights } => {
            w.u8(2);
            encode_damp_backend_state(w, damp);
            encode_trend_cusum_state(w, trend);
            encode_ensemble_fusion(w, *fusion);
            for &wt in weights {
                w.f64(wt);
            }
        }
    }
}

fn decode_backend_state(
    r: &mut Reader<'_>,
    version: u16,
) -> Result<BackendSnapshot, CodecError> {
    let snap = match r.u8()? {
        0 => BackendSnapshot::Damp(decode_damp_backend_state(r)?),
        1 => BackendSnapshot::TrendCusum(decode_trend_cusum_state(r, version)?),
        2 => {
            let damp = decode_damp_backend_state(r)?;
            let trend = decode_trend_cusum_state(r, version)?;
            let fusion = decode_ensemble_fusion(r)?;
            let weights = [r.f64()?, r.f64()?, r.f64()?];
            BackendSnapshot::Ensemble { damp, trend, fusion, weights }
        }
        _ => return Err(CodecError::Invalid("backend state tag")),
    };
    // the restore path's own validation is the single home of the range
    // checks (finite retained values, bsf >= 0, weights, ...) — running
    // it here keeps a crafted image from smuggling state the API
    // boundary rejects, without duplicating the rules
    if SeriesBackend::from_snapshot(snap.clone()).is_err() {
        return Err(CodecError::Invalid("backend state"));
    }
    Ok(snap)
}

fn encode_damp_backend_state(w: &mut Writer, s: &DampBackendState) {
    w.u64(s.damp.window as u64);
    w.u64(s.damp.m as u64);
    w.vec_f64(&s.damp.buf);
    w.f64(s.damp.bsf);
    encode_nsigma(w, &s.norm);
    w.u32(s.warmup_left);
}

fn decode_damp_backend_state(r: &mut Reader<'_>) -> Result<DampBackendState, CodecError> {
    let damp = anomaly::StreamingDampState {
        window: r.u64()? as usize,
        m: r.u64()? as usize,
        buf: r.vec_f64()?,
        bsf: r.f64()?,
    };
    Ok(DampBackendState { damp, norm: decode_nsigma(r)?, warmup_left: r.u32()? })
}

fn encode_trend_cusum_state(w: &mut Writer, s: &oneshotstl::TrendCusumState) {
    encode_scorer(w, &s.scorer);
    w.f64(s.prev);
    w.u8(s.has_prev as u8);
    w.u32(s.warmup_left);
}

fn decode_trend_cusum_state(
    r: &mut Reader<'_>,
    version: u16,
) -> Result<oneshotstl::TrendCusumState, CodecError> {
    let scorer = decode_scorer(r, version)?;
    let prev = r.f64()?;
    let has_prev = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("trend CUSUM prev flag")),
    };
    Ok(oneshotstl::TrendCusumState { scorer, prev, has_prev, warmup_left: r.u32()? })
}

fn encode_detector_config(w: &mut Writer, c: &OneShotStlConfig) {
    w.f64(c.lambdas.lambda1);
    w.f64(c.lambdas.lambda2);
    w.f64(c.lambdas.anchor);
    w.u32(c.iters as u32);
    w.u32(c.shift_window as u32);
    w.f64(c.nsigma);
    w.u8(match c.shift_policy {
        ShiftPolicy::Cumulative => 0,
        ShiftPolicy::Transient => 1,
        ShiftPolicy::Confirmed => 2,
    });
    w.f64(c.shift_accept_ratio);
    w.u8(match c.init {
        InitMethod::Stl => 0,
        InitMethod::JointStl => 1,
    });
    w.f64(c.eps);
    encode_shift_search(w, &c.shift_search);
}

/// v4: `u8` tag (0 = Off, 1 = TopK) then the `u32` k for TopK.
fn encode_shift_search(w: &mut Writer, s: &ShiftSearchConfig) {
    match s.prune {
        ShiftPrune::Off => w.u8(0),
        ShiftPrune::TopK(k) => {
            w.u8(1);
            w.u32(k as u32);
        }
    }
}

fn decode_shift_search(r: &mut Reader<'_>) -> Result<ShiftSearchConfig, CodecError> {
    Ok(match r.u8()? {
        0 => ShiftSearchConfig::exhaustive(),
        1 => {
            let k = r.u32()? as usize;
            // no fleet writer can produce TopK(0) (both the engine config
            // and per-series overrides reject it), so a decoded one is a
            // crafted/corrupted image smuggling in the degenerate
            // baseline-only search — refuse it on every path, including
            // live series' embedded detector configs
            if k == 0 {
                return Err(CodecError::Invalid("shift search TopK(0)"));
            }
            ShiftSearchConfig::top_k(k)
        }
        _ => return Err(CodecError::Invalid("shift search prune tag")),
    })
}

fn decode_detector_config(
    r: &mut Reader<'_>,
    version: u16,
) -> Result<OneShotStlConfig, CodecError> {
    let lambdas = Lambdas { lambda1: r.f64()?, lambda2: r.f64()?, anchor: r.f64()? };
    let iters = r.u32()? as usize;
    let shift_window = r.u32()? as usize;
    let nsigma = r.f64()?;
    let shift_policy = match r.u8()? {
        0 => ShiftPolicy::Cumulative,
        1 => ShiftPolicy::Transient,
        // every writer before the `Confirmed` default wrote 0 or 1, so a
        // restored series keeps the trigger it was written with
        2 => ShiftPolicy::Confirmed,
        _ => return Err(CodecError::Invalid("shift policy tag")),
    };
    let shift_accept_ratio = r.f64()?;
    let init = match r.u8()? {
        0 => InitMethod::Stl,
        1 => InitMethod::JointStl,
        _ => return Err(CodecError::Invalid("init method tag")),
    };
    let eps = r.f64()?;
    // a v3 writer ran the exhaustive search; restoring it as such keeps
    // the restored stream bit-identical to the writer's continuation
    let shift_search =
        if version >= 4 { decode_shift_search(r)? } else { ShiftSearchConfig::exhaustive() };
    Ok(OneShotStlConfig {
        lambdas,
        iters,
        shift_window,
        nsigma,
        shift_policy,
        shift_search,
        shift_accept_ratio,
        init,
        eps,
    })
}

/// v4: pending per-series admission overrides of a warming series.
/// v5 appends the optional residual-score override; v6 the optional
/// forecast override; v7 the optional backend override.
pub(crate) fn encode_admit_options(w: &mut Writer, o: &AdmitOptions) {
    w.opt_f64(o.lambda);
    w.opt_f64(o.nsigma);
    w.opt_u32(o.period.map(|v| v as u32));
    match &o.shift_search {
        None => w.u8(0),
        Some(ss) => {
            w.u8(1);
            encode_shift_search(w, ss);
        }
    }
    match &o.score {
        None => w.u8(0),
        Some(sc) => {
            w.u8(1);
            encode_score_config(w, sc);
        }
    }
    match &o.forecast {
        None => w.u8(0),
        Some(f) => {
            w.u8(1);
            encode_forecast_options(w, f);
        }
    }
    match &o.backend {
        None => w.u8(0),
        Some(b) => {
            w.u8(1);
            encode_backend_select(w, b);
        }
    }
}

pub(crate) fn decode_admit_options(
    r: &mut Reader<'_>,
    version: u16,
) -> Result<AdmitOptions, CodecError> {
    let lambda = r.opt_f64()?;
    let nsigma = r.opt_f64()?;
    let period = r.opt_u32()?.map(|v| v as usize);
    let shift_search = match r.u8()? {
        0 => None,
        1 => Some(decode_shift_search(r)?),
        _ => return Err(CodecError::Invalid("option tag")),
    };
    let score = if version >= 5 {
        match r.u8()? {
            0 => None,
            1 => Some(decode_score_config(r)?),
            _ => return Err(CodecError::Invalid("option tag")),
        }
    } else {
        None
    };
    let forecast = if version >= 6 {
        match r.u8()? {
            0 => None,
            1 => Some(decode_forecast_options(r)?),
            _ => return Err(CodecError::Invalid("option tag")),
        }
    } else {
        None
    };
    let backend = if version >= 7 {
        match r.u8()? {
            0 => None,
            1 => Some(decode_backend_select(r)?),
            _ => return Err(CodecError::Invalid("option tag")),
        }
    } else {
        None
    };
    let opts = AdmitOptions { lambda, nsigma, period, shift_search, score, forecast, backend };
    // a corrupted or externally-produced image must not smuggle in the
    // degenerate values the API boundary rejects (TopK(0), non-finite or
    // non-positive λ/nsigma, period < 2)
    if opts.validate().is_err() {
        return Err(CodecError::Invalid("admit options"));
    }
    Ok(opts)
}

fn encode_series(w: &mut Writer, s: &SeriesSnapshot, mode: StateCompression) {
    w.string(s.key.as_str());
    w.u64(s.last_seen);
    match &s.phase {
        PhaseSnapshot::Warming { values, period, last_attempt, overrides } => {
            w.u8(0);
            w.vec_f64(values);
            w.opt_u32(period.map(|v| v as u32));
            w.u64(*last_attempt as u64);
            encode_admit_options(w, overrides);
        }
        PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
            w.u8(1);
            encode_decomposer(w, decomposer, mode);
            encode_scorer(w, scorer);
            match forecast {
                None => w.u8(0),
                Some(f) => {
                    w.u8(1);
                    encode_forecast_state(w, f);
                }
            }
            match backend {
                None => w.u8(0),
                Some(b) => {
                    w.u8(1);
                    encode_backend_state(w, b);
                }
            }
        }
        PhaseSnapshot::Rejected => w.u8(2),
        PhaseSnapshot::Quarantined { cause, dropped } => {
            w.u8(3);
            w.u8(match cause {
                QuarantineCause::NonFinite => 0,
                QuarantineCause::Panic => 1,
            });
            w.u64(*dropped);
        }
    }
}

fn decode_series(r: &mut Reader<'_>, version: u16) -> Result<SeriesSnapshot, CodecError> {
    let key = SeriesKey::new(r.string()?);
    let last_seen = r.u64()?;
    let phase = match r.u8()? {
        0 => PhaseSnapshot::Warming {
            values: r.vec_f64()?,
            period: r.opt_u32()?.map(|v| v as usize),
            last_attempt: r.u64()? as usize,
            overrides: if version >= 4 {
                decode_admit_options(r, version)?
            } else {
                AdmitOptions::default()
            },
        },
        1 => PhaseSnapshot::Live {
            decomposer: decode_decomposer(r, version)?,
            scorer: decode_scorer(r, version)?,
            // no pre-v6 writer forecasted, so pre-v6 live series carry no
            // head — scoring continues bit-identically with forecasts off
            forecast: if version >= 6 {
                match r.u8()? {
                    0 => None,
                    1 => Some(decode_forecast_state(r)?),
                    _ => return Err(CodecError::Invalid("forecast state tag")),
                }
            } else {
                None
            },
            // no pre-v7 writer ran a backend, so pre-v7 live series carry
            // none — scoring continues bit-identically on the fused path
            backend: if version >= 7 {
                match r.u8()? {
                    0 => None,
                    1 => Some(decode_backend_state(r, version)?),
                    _ => return Err(CodecError::Invalid("backend presence tag")),
                }
            } else {
                None
            },
        },
        2 => PhaseSnapshot::Rejected,
        // no pre-v8 writer quarantined, so the tag is invalid there
        3 if version >= 8 => PhaseSnapshot::Quarantined {
            cause: match r.u8()? {
                0 => QuarantineCause::NonFinite,
                1 => QuarantineCause::Panic,
                _ => return Err(CodecError::Invalid("quarantine cause")),
            },
            dropped: r.u64()?,
        },
        _ => return Err(CodecError::Invalid("series phase tag")),
    };
    Ok(SeriesSnapshot { key, last_seen, phase })
}

fn encode_decomposer(w: &mut Writer, s: &OneShotStlState, mode: StateCompression) {
    encode_detector_config(w, &s.config);
    w.u64(s.period);
    w.u64(s.t);
    w.u64(s.m);
    w.i64(s.shift);
    packed_vec_f64(w, &s.v, mode);
    w.f64_pair(s.y_hist);
    w.f64_pair(s.u_hist);
    w.u32(s.iters.len() as u32);
    for it in &s.iters {
        encode_solver(w, &it.solver, mode);
        w.f64_pair(it.pw_hist);
        w.f64_pair(it.qw_hist);
        w.f64_pair(it.tau_hist);
    }
    encode_nsigma(w, &s.nsigma);
    w.u8(s.initialized as u8);
}

fn decode_decomposer(r: &mut Reader<'_>, version: u16) -> Result<OneShotStlState, CodecError> {
    let config = decode_detector_config(r, version)?;
    let period = r.u64()?;
    let t = r.u64()?;
    let m = r.u64()?;
    let shift = r.i64()?;
    let v = decode_packed_vec(r, version)?;
    let y_hist = r.f64_pair()?;
    let u_hist = r.f64_pair()?;
    let n_iters = r.u32()? as usize;
    let mut iters = Vec::with_capacity(n_iters.min(1 << 10));
    for _ in 0..n_iters {
        let solver = decode_solver(r, version)?;
        iters.push(IterSnapshot {
            solver,
            pw_hist: r.f64_pair()?,
            qw_hist: r.f64_pair()?,
            tau_hist: r.f64_pair()?,
        });
    }
    let nsigma = decode_nsigma(r)?;
    let initialized = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(CodecError::Invalid("initialized flag")),
    };
    Ok(OneShotStlState {
        config,
        period,
        t,
        m,
        shift,
        v,
        y_hist,
        u_hist,
        iters,
        nsigma,
        initialized,
    })
}

fn encode_solver(w: &mut Writer, s: &SolverState, mode: StateCompression) {
    match s {
        SolverState::Warmup { y, u, pw, qw } => {
            w.u8(0);
            packed_vec_f64(w, y, mode);
            packed_vec_f64(w, u, mode);
            packed_vec_f64(w, pw, mode);
            packed_vec_f64(w, qw, mode);
        }
        SolverState::Steady { m, lo, dd, zo } => {
            w.u8(1);
            w.u64(*m);
            packed_vec_f64(w, lo, mode);
            packed_vec_f64(w, dd, mode);
            packed_vec_f64(w, zo, mode);
        }
    }
}

fn decode_solver(r: &mut Reader<'_>, version: u16) -> Result<SolverState, CodecError> {
    match r.u8()? {
        0 => Ok(SolverState::Warmup {
            y: decode_packed_vec(r, version)?,
            u: decode_packed_vec(r, version)?,
            pw: decode_packed_vec(r, version)?,
            qw: decode_packed_vec(r, version)?,
        }),
        1 => Ok(SolverState::Steady {
            m: r.u64()?,
            lo: decode_packed_vec(r, version)?,
            dd: decode_packed_vec(r, version)?,
            zo: decode_packed_vec(r, version)?,
        }),
        _ => Err(CodecError::Invalid("solver state tag")),
    }
}

/// v9: `u8` layout tag, then the vector. Tag 0 is the exact `f64` layout
/// (`u64` length + bit-pattern elements); tag 1 is the compact form —
/// `u64` length, the first element as `f64` bits, then each later
/// element as the `f32` delta from its *reconstructed* predecessor.
/// Encoding against the reconstruction (not the original neighbor) keeps
/// the drift bounded at one `f32` rounding per element and makes the
/// encoding idempotent: re-encoding a decoded compact image reproduces
/// the exact same bytes, so repeated snapshot cycles are stable.
fn packed_vec_f64(w: &mut Writer, v: &[f64], mode: StateCompression) {
    match mode {
        StateCompression::Exact => {
            w.u8(0);
            w.vec_f64(v);
        }
        StateCompression::Compact => {
            w.u8(1);
            w.u64(v.len() as u64);
            if let Some((&first, rest)) = v.split_first() {
                w.f64(first);
                let mut prev = first;
                for &x in rest {
                    let d = (x - prev) as f32;
                    w.u32(d.to_bits());
                    prev += d as f64;
                }
            }
        }
    }
}

fn unpacked_vec_f64(r: &mut Reader<'_>) -> Result<Vec<f64>, CodecError> {
    match r.u8()? {
        0 => r.vec_f64(),
        1 => {
            let n = r.u64()? as usize;
            if n == 0 {
                return Ok(Vec::new());
            }
            // sanity-check the declared count against the bytes present
            // before allocating for it: 8 for the first, 4 per delta
            let need = 8usize
                .checked_add((n - 1).checked_mul(4).ok_or(CodecError::Truncated)?)
                .ok_or(CodecError::Truncated)?;
            if r.remaining() < need {
                return Err(CodecError::Truncated);
            }
            let mut out = Vec::with_capacity(n);
            let mut prev = r.f64()?;
            out.push(prev);
            for _ in 1..n {
                prev += f32::from_bits(r.u32()?) as f64;
                out.push(prev);
            }
            Ok(out)
        }
        _ => Err(CodecError::Invalid("packed vector tag")),
    }
}

/// Pre-v9 images carry untagged plain-`f64` vectors.
fn decode_packed_vec(r: &mut Reader<'_>, version: u16) -> Result<Vec<f64>, CodecError> {
    if version >= 9 {
        unpacked_vec_f64(r)
    } else {
        r.vec_f64()
    }
}

fn encode_nsigma(w: &mut Writer, s: &NSigmaState) {
    w.f64(s.n);
    w.u64(s.count);
    w.f64(s.sum);
    w.f64(s.sum_sq);
}

fn decode_nsigma(r: &mut Reader<'_>) -> Result<NSigmaState, CodecError> {
    Ok(NSigmaState { n: r.f64()?, count: r.u64()?, sum: r.f64()?, sum_sq: r.f64()? })
}

/// v5: the full task-level residual scorer of a live series.
fn encode_scorer(w: &mut Writer, s: &ResidualScorerState) {
    encode_score_config(w, &s.config);
    encode_nsigma(w, &s.nsigma);
    w.f64(s.s_pos);
    w.f64(s.s_neg);
    w.f64(s.hold);
}

/// v3/v4 live series stored only the NSigma statistics; wrapping them in
/// a `Fusion::Off` scorer reproduces the plain-NSigma scoring those
/// writers ran, bit-identically.
fn decode_scorer(r: &mut Reader<'_>, version: u16) -> Result<ResidualScorerState, CodecError> {
    if version >= 5 {
        let config = decode_score_config(r)?;
        let nsigma = decode_nsigma(r)?;
        let s_pos = r.f64()?;
        let s_neg = r.f64()?;
        let hold = r.f64()?;
        // mirror the config-level smuggling checks for the dynamic state:
        // a NaN accumulator would silently disable one CUSUM side forever
        // (f64::max(NaN, x) returns x), and no writer can produce values
        // outside the update loop's clamp ranges
        let bar = 2.0 * config.cusum_h;
        for s in [s_pos, s_neg] {
            if !(s.is_finite() && (0.0..=bar).contains(&s)) {
                return Err(CodecError::Invalid("scorer accumulator"));
            }
        }
        if !(hold.is_finite() && hold >= 0.0) {
            return Err(CodecError::Invalid("scorer hold"));
        }
        Ok(ResidualScorerState { config, nsigma, s_pos, s_neg, hold })
    } else {
        Ok(ResidualScorerState {
            config: ScoreConfig::off(),
            nsigma: decode_nsigma(r)?,
            s_pos: 0.0,
            s_neg: 0.0,
            hold: 0.0,
        })
    }
}

/// Little-endian byte sink. Shared with the WAL record format
/// ([`crate::wal`]), so both on-disk layouts follow one set of
/// conventions: LE integers, bit-pattern `f64`s, `u32`-length strings.
#[derive(Default)]
pub(crate) struct Writer {
    pub(crate) buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64_pair(&mut self, v: [f64; 2]) {
        self.f64(v[0]);
        self.f64(v[1]);
    }
    pub(crate) fn string(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
        }
    }
    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
        }
    }
    fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
}

/// Little-endian byte source with bounds checking (the [`Writer`]'s dual;
/// also shared with [`crate::wal`]).
pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    /// Bytes left to read — lets a decoder sanity-check a declared element
    /// count against the space it would need before allocating for it.
    pub(crate) fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    pub(crate) fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    pub(crate) fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f64_pair(&mut self) -> Result<[f64; 2], CodecError> {
        Ok([self.f64()?, self.f64()?])
    }
    fn opt_u32(&mut self) -> Result<Option<u32>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    fn opt_u64(&mut self) -> Result<Option<u64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    fn opt_f64(&mut self) -> Result<Option<f64>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            _ => Err(CodecError::Invalid("option tag")),
        }
    }
    pub(crate) fn string(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| CodecError::Invalid("utf-8 string"))
    }
    fn vec_f64(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.u64()? as usize;
        let raw = self.take(n.checked_mul(8).ok_or(CodecError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> FleetSnapshot {
        // a value with a messy bit pattern to catch any lossy encode
        let messy = std::f64::consts::PI * 1e-17;
        FleetSnapshot {
            config: FleetConfig {
                queue_capacity: Some(16),
                queue_policy: QueuePolicy::Reject,
                forecast: ForecastOptions {
                    enabled: true,
                    damping: 0.9,
                    error_window: 32,
                    error_fusion: true,
                    smape_alarm: 1.25,
                },
                backend: BackendSelect::Ensemble(EnsembleOptions {
                    damp: DampOptions { window: 64, subseq: 8 },
                    fusion: EnsembleFusion::WeightedRank,
                    weights: [2.0, 1.0, 0.5],
                    ..Default::default()
                }),
                ..FleetConfig::fixed_period(24)
            },
            clock: 99,
            batches: 7,
            totals: CarriedTotals {
                evicted: 1,
                admitted: 2,
                points: 300,
                anomalies: 4,
                wal_retries: 6,
                shard_restarts: 1,
                undurable_batches: 2,
            },
            series: vec![
                SeriesSnapshot {
                    key: SeriesKey::new("warm"),
                    last_seen: 42,
                    phase: PhaseSnapshot::Warming {
                        values: vec![1.0, -2.5, messy],
                        period: Some(24),
                        last_attempt: 3,
                        overrides: AdmitOptions {
                            lambda: Some(0.25),
                            nsigma: Some(4.0),
                            period: Some(24),
                            shift_search: Some(ShiftSearchConfig::top_k(7)),
                            score: Some(ScoreConfig {
                                cusum_k: 0.75,
                                cusum_h: 9.0,
                                hold_decay: 0.5,
                                fusion: Fusion::Cusum,
                            }),
                            forecast: Some(ForecastOptions {
                                enabled: true,
                                damping: 0.5,
                                error_window: 16,
                                error_fusion: false,
                                smape_alarm: 0.8,
                            }),
                            backend: Some(BackendSelect::Damp(DampOptions {
                                window: 128,
                                subseq: 0,
                            })),
                        },
                    },
                },
                SeriesSnapshot {
                    key: SeriesKey::new("dead"),
                    last_seen: 7,
                    phase: PhaseSnapshot::Rejected,
                },
            ],
        }
    }

    /// The pre-v9 byte layouts, kept verbatim for the hand-encoded
    /// version fixtures below: the v8 config ends after the backend
    /// selection (no compression/spill fields) and v8 state vectors are
    /// untagged plain `f64`s.
    fn encode_config_v8(w: &mut Writer, c: &FleetConfig) {
        w.u32(c.shards as u32);
        w.u32(c.init_cycles as u32);
        match &c.period {
            PeriodPolicy::Fixed(t) => {
                w.u8(0);
                w.u32(*t as u32);
            }
            PeriodPolicy::Detect { min_period, max_period, min_acf, fallback } => {
                w.u8(1);
                w.u32(*min_period as u32);
                w.u32(*max_period as u32);
                w.f64(*min_acf);
                w.opt_u32(fallback.map(|v| v as u32));
            }
        }
        w.opt_u32(c.max_warmup.map(|v| v as u32));
        w.f64(c.nsigma);
        w.opt_u64(c.ttl);
        w.opt_u64(c.max_clock_step);
        w.opt_u64(c.queue_capacity.map(|v| v as u64));
        w.u8(match c.queue_policy {
            QueuePolicy::Block => 0,
            QueuePolicy::Reject => 1,
        });
        encode_detector_config(w, &c.detector);
        encode_score_config(w, &c.score);
        encode_forecast_options(w, &c.forecast);
        encode_backend_select(w, &c.backend);
    }

    fn encode_solver_v8(w: &mut Writer, s: &SolverState) {
        match s {
            SolverState::Warmup { y, u, pw, qw } => {
                w.u8(0);
                w.vec_f64(y);
                w.vec_f64(u);
                w.vec_f64(pw);
                w.vec_f64(qw);
            }
            SolverState::Steady { m, lo, dd, zo } => {
                w.u8(1);
                w.u64(*m);
                w.vec_f64(lo);
                w.vec_f64(dd);
                w.vec_f64(zo);
            }
        }
    }

    fn encode_decomposer_v8(w: &mut Writer, s: &OneShotStlState) {
        encode_detector_config(w, &s.config);
        w.u64(s.period);
        w.u64(s.t);
        w.u64(s.m);
        w.i64(s.shift);
        w.vec_f64(&s.v);
        w.f64_pair(s.y_hist);
        w.f64_pair(s.u_hist);
        w.u32(s.iters.len() as u32);
        for it in &s.iters {
            encode_solver_v8(w, &it.solver);
            w.f64_pair(it.pw_hist);
            w.f64_pair(it.qw_hist);
            w.f64_pair(it.tau_hist);
        }
        encode_nsigma(w, &s.nsigma);
        w.u8(s.initialized as u8);
    }

    #[test]
    fn delta_roundtrip_and_fold_reproduce_the_full_image() {
        let base = sample_snapshot();
        // the delta updates "warm", removes "dead", and adds "new"
        let updated = SeriesSnapshot {
            key: SeriesKey::new("warm"),
            last_seen: 90,
            phase: PhaseSnapshot::Warming {
                values: vec![4.0, 5.0],
                period: Some(24),
                last_attempt: 5,
                overrides: AdmitOptions::default(),
            },
        };
        let added = SeriesSnapshot {
            key: SeriesKey::new("new"),
            last_seen: 91,
            phase: PhaseSnapshot::Rejected,
        };
        let delta = FleetDelta {
            config: base.config.clone(),
            prev_batches: base.batches,
            clock: 120,
            batches: 9,
            totals: CarriedTotals {
                evicted: 2,
                admitted: 3,
                points: 400,
                anomalies: 5,
                ..CarriedTotals::default()
            },
            series: vec![added.clone(), updated.clone()],
            tombstones: vec![SeriesKey::new("dead")],
        };
        let bytes = encode_delta(&delta);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, delta);
        // a delta must never decode as a full snapshot (and vice versa)
        assert!(decode(&bytes).is_err());
        assert!(decode_delta(&encode(&base)).is_err());
        // folding reproduces the expected full image
        let mut folded = base.clone();
        back.fold_into(&mut folded).unwrap();
        assert_eq!(folded.batches, 9);
        assert_eq!(folded.clock, 120);
        assert_eq!(folded.totals.points, 400);
        let keys: Vec<&str> = folded.series.iter().map(|s| s.key.as_str()).collect();
        assert_eq!(keys, ["new", "warm"], "tombstone removed, upserts sorted by key");
        assert_eq!(folded.series[1], updated);
        // a delta that does not chain onto the base is rejected
        let mut wrong = sample_snapshot();
        wrong.batches = 42;
        assert!(decode_delta(&bytes).unwrap().fold_into(&mut wrong).is_err());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.config, snap.config);
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.batches, snap.batches);
        assert_eq!(back.totals, snap.totals);
        assert_eq!(back.series.len(), 2);
        assert_eq!(back.series[0].key, snap.series[0].key);
        match (&back.series[0].phase, &snap.series[0].phase) {
            (
                PhaseSnapshot::Warming {
                    values: a,
                    period: pa,
                    last_attempt: la,
                    overrides: oa,
                },
                PhaseSnapshot::Warming {
                    values: b,
                    period: pb,
                    last_attempt: lb,
                    overrides: ob,
                },
            ) => {
                assert_eq!((pa, la), (pb, lb));
                assert_eq!(oa, ob, "per-series overrides must round-trip");
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bit-identical floats");
                }
            }
            _ => panic!("phase mismatch"),
        }
    }

    /// A crafted v5 image smuggling degenerate scorer *dynamic state*
    /// (NaN accumulators would silently disable one CUSUM side forever:
    /// `f64::max(NaN, x)` returns `x`) must fail to decode.
    #[test]
    fn degenerate_decoded_scorer_state_is_rejected() {
        let t = 12usize;
        let y: Vec<f64> = (0..6 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        let make = |s_pos: f64, s_neg: f64, hold: f64| {
            let mut snap = sample_snapshot();
            let mut scorer = det.scorer().to_state();
            scorer.s_pos = s_pos;
            scorer.s_neg = s_neg;
            scorer.hold = hold;
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 50,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer,
                    forecast: None,
                    backend: None,
                },
            });
            encode(&snap)
        };
        // in-range state decodes…
        decode(&make(1.0, 0.0, 3.0)).expect("valid scorer state decodes");
        // …NaN, negative, or beyond-clamp accumulators and NaN hold do not
        for (sp, sn, hold) in [
            (f64::NAN, 0.0, 0.0),
            (0.0, f64::NAN, 0.0),
            (-1.0, 0.0, 0.0),
            (1e9, 0.0, 0.0), // > 2h for the default h
            (0.0, 0.0, f64::NAN),
            (0.0, 0.0, -2.0),
        ] {
            assert!(
                decode(&make(sp, sn, hold)).is_err(),
                "scorer state ({sp}, {sn}, {hold}) must be rejected"
            );
        }
    }

    /// A crafted image carrying override values the API boundary rejects
    /// (here: `TopK(0)`) must fail to decode, not restore a degenerate
    /// series.
    #[test]
    fn degenerate_decoded_admit_options_are_rejected() {
        let mut snap = sample_snapshot();
        let PhaseSnapshot::Warming { overrides, .. } = &mut snap.series[0].phase else {
            unreachable!("sample series 0 is warming");
        };
        overrides.shift_search = Some(ShiftSearchConfig::top_k(0));
        assert_eq!(decode(&encode(&snap)), Err(CodecError::Invalid("shift search TopK(0)")));
        // a non-finite λ is caught by the options-level validation
        let mut snap = sample_snapshot();
        let PhaseSnapshot::Warming { overrides, .. } = &mut snap.series[0].phase else {
            unreachable!("sample series 0 is warming");
        };
        overrides.lambda = Some(f64::NAN);
        assert_eq!(decode(&encode(&snap)), Err(CodecError::Invalid("admit options")));
    }

    /// Every shift policy round-trips through its tag byte (2 is the
    /// two-flag `Confirmed` default); an unknown tag is refused.
    #[test]
    fn every_shift_policy_tag_roundtrips() {
        for (policy, tag) in [
            (ShiftPolicy::Cumulative, 0u8),
            (ShiftPolicy::Transient, 1),
            (ShiftPolicy::Confirmed, 2),
        ] {
            let config = OneShotStlConfig { shift_policy: policy, ..Default::default() };
            let mut w = Writer::default();
            encode_detector_config(&mut w, &config);
            // λ1, λ2, anchor, iters, shift_window, nsigma precede the tag
            let at = 3 * 8 + 2 * 4 + 8;
            assert_eq!(w.buf[at], tag, "{policy:?} tag");
            let mut r = Reader { data: &w.buf, pos: 0 };
            assert_eq!(decode_detector_config(&mut r, VERSION), Ok(config));
            w.buf[at] = 3;
            let mut r = Reader { data: &w.buf, pos: 0 };
            assert_eq!(
                decode_detector_config(&mut r, VERSION),
                Err(CodecError::Invalid("shift policy tag"))
            );
        }
    }

    /// Hand-encodes the v3 layout of [`sample_snapshot`] (no shift-search
    /// field in detector configs, no per-series overrides) and checks the
    /// v4 reader still restores it — with the exhaustive search the v3
    /// writer actually ran, and no overrides.
    #[test]
    fn v3_snapshots_still_decode() {
        let snap = sample_snapshot();
        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(3);
        w.u8(KIND_FULL);
        // config, v3 layout: everything but the detector's shift_search
        let c = &snap.config;
        w.u32(c.shards as u32);
        w.u32(c.init_cycles as u32);
        match &c.period {
            PeriodPolicy::Fixed(t) => {
                w.u8(0);
                w.u32(*t as u32);
            }
            PeriodPolicy::Detect { .. } => unreachable!("sample uses a fixed period"),
        }
        w.opt_u32(c.max_warmup.map(|v| v as u32));
        w.f64(c.nsigma);
        w.opt_u64(c.ttl);
        w.opt_u64(c.max_clock_step);
        w.opt_u64(c.queue_capacity.map(|v| v as u64));
        w.u8(1); // QueuePolicy::Reject
        let d = &c.detector;
        w.f64(d.lambdas.lambda1);
        w.f64(d.lambdas.lambda2);
        w.f64(d.lambdas.anchor);
        w.u32(d.iters as u32);
        w.u32(d.shift_window as u32);
        w.f64(d.nsigma);
        w.u8(0); // ShiftPolicy::Cumulative
        w.f64(d.shift_accept_ratio);
        w.u8(0); // InitMethod::Stl
        w.f64(d.eps);
        w.u64(snap.clock);
        w.u64(snap.batches);
        w.u64(snap.totals.evicted);
        w.u64(snap.totals.admitted);
        w.u64(snap.totals.points);
        w.u64(snap.totals.anomalies);
        // series, v3 layout: warming has no overrides
        w.u64(2);
        let PhaseSnapshot::Warming { values, period, last_attempt, .. } = &snap.series[0].phase
        else {
            unreachable!("sample series 0 is warming");
        };
        w.string("warm");
        w.u64(snap.series[0].last_seen);
        w.u8(0);
        w.vec_f64(values);
        w.opt_u32(period.map(|v| v as u32));
        w.u64(*last_attempt as u64);
        w.string("dead");
        w.u64(snap.series[1].last_seen);
        w.u8(2);
        let back = decode(&w.buf).expect("v3 must stay readable");
        assert_eq!(back.config.detector.shift_search, ShiftSearchConfig::exhaustive());
        assert_eq!(back.config.score, ScoreConfig::off(), "v3 writers scored z-only");
        match &back.series[0].phase {
            PhaseSnapshot::Warming { overrides, values: v, period: p, .. } => {
                assert!(overrides.is_default(), "v3 series carry no overrides");
                assert_eq!(v.len(), values.len());
                assert_eq!(p, period);
            }
            _ => panic!("phase mismatch"),
        }
        assert_eq!(back.clock, snap.clock);
        assert_eq!(back.batches, snap.batches);
        // ...and a v3 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        decode(&re).expect("upgraded image decodes");
    }

    /// Hand-encodes the v4 layout (shift-search in detector configs and
    /// per-series overrides, but **no** score configs and plain NSigma
    /// stats for live series) and checks the v5 reader restores it: the
    /// engine config and every live series get `Fusion::Off` — the plain
    /// z-scoring every v4 writer actually ran — so a restored v4 stream
    /// continues bit-identically.
    #[test]
    fn v4_snapshots_still_decode() {
        // a live series with real (initialized) decomposer + NSigma state
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::with_score(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            ScoreConfig::off(),
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update(v);
        }
        let live_dec = det.decomposer.to_state();
        let live_ns = det.scorer().to_state().nsigma;

        let config = FleetConfig {
            score: ScoreConfig::off(), // what a v4 writer effectively ran
            ..FleetConfig::fixed_period(t)
        };
        let warm_overrides = AdmitOptions {
            lambda: Some(2.0),
            nsigma: None,
            period: Some(t),
            shift_search: Some(ShiftSearchConfig::top_k(3)),
            score: None,    // v4 has no score override
            forecast: None, // nor a forecast one
            backend: None,  // nor a backend one
        };

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(4);
        w.u8(KIND_FULL);
        // config, v4 layout: detector config ends after shift_search (no
        // engine score config)
        let c = &config;
        w.u32(c.shards as u32);
        w.u32(c.init_cycles as u32);
        match &c.period {
            PeriodPolicy::Fixed(p) => {
                w.u8(0);
                w.u32(*p as u32);
            }
            PeriodPolicy::Detect { .. } => unreachable!("fixture uses a fixed period"),
        }
        w.opt_u32(c.max_warmup.map(|v| v as u32));
        w.f64(c.nsigma);
        w.opt_u64(c.ttl);
        w.opt_u64(c.max_clock_step);
        w.opt_u64(c.queue_capacity.map(|v| v as u64));
        w.u8(0); // QueuePolicy::Block
        encode_detector_config(&mut w, &c.detector);
        w.u64(7); // clock
        w.u64(3); // batches
        w.u64(0); // totals
        w.u64(1);
        w.u64(200);
        w.u64(2);
        w.u64(2); // series count
                  // series 0: warming with v4 overrides (no score field)
        w.string("warm");
        w.u64(5);
        w.u8(0);
        w.vec_f64(&[1.0, 2.0, 3.0]);
        w.opt_u32(Some(t as u32));
        w.u64(3);
        w.opt_f64(warm_overrides.lambda);
        w.opt_f64(warm_overrides.nsigma);
        w.opt_u32(warm_overrides.period.map(|v| v as u32));
        w.u8(1);
        encode_shift_search(&mut w, &warm_overrides.shift_search.unwrap());
        // series 1: live with v4 layout (decomposer + plain NSigma stats)
        w.string("live");
        w.u64(7);
        w.u8(1);
        encode_decomposer_v8(&mut w, &live_dec);
        encode_nsigma(&mut w, &live_ns);

        let back = decode(&w.buf).expect("v4 must stay readable");
        assert_eq!(back.config, config);
        assert_eq!(back.clock, 7);
        match &back.series[0].phase {
            PhaseSnapshot::Warming { overrides, .. } => {
                assert_eq!(overrides, &warm_overrides, "v4 overrides decode, score None");
            }
            _ => panic!("series 0 must be warming"),
        }
        match &back.series[1].phase {
            PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
                assert!(forecast.is_none(), "v4 live series carry no forecast head");
                assert!(backend.is_none(), "v4 live series carry no backend state");
                assert_eq!(decomposer, &live_dec, "decomposer state bit-identical");
                assert_eq!(
                    scorer,
                    &ResidualScorerState {
                        config: ScoreConfig::off(),
                        nsigma: live_ns.clone(),
                        s_pos: 0.0,
                        s_neg: 0.0,
                        hold: 0.0,
                    },
                    "v4 NSigma stats decode as a Fusion::Off scorer"
                );
            }
            _ => panic!("series 1 must be live"),
        }
        // the restored detector continues bit-identically to the v4
        // writer's uninterrupted continuation (plain NSigma scoring)
        let PhaseSnapshot::Live { decomposer, scorer, .. } = back.series[1].phase.clone()
        else {
            unreachable!();
        };
        let mut restored = oneshotstl::StdAnomalyDetector::from_parts(
            oneshotstl::OneShotStl::from_state(decomposer).unwrap(),
            oneshotstl::ResidualScorer::from_state(scorer),
        );
        for i in 0..3 * t {
            let x = 1.5
                + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                + if i == t { 4.0 } else { 0.0 };
            let (pa, va) = det.update_scored(x);
            let (pb, vb) = restored.update_scored(x);
            assert_eq!(pa.residual.to_bits(), pb.residual.to_bits());
            assert_eq!(va.score.to_bits(), vb.score.to_bits());
            assert_eq!(va.is_anomaly, vb.is_anomaly);
        }
        // ...and a v4 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        assert_eq!(decode(&re).unwrap(), back);
    }

    /// Hand-encodes the v5 layout (score configs and full scorer states,
    /// but **no** forecast fields anywhere) and checks the v6 reader
    /// restores it: forecasting comes back disabled — what every v5
    /// writer actually ran — no live series carries a head, and the
    /// restored detector stream continues bit-identically.
    #[test]
    fn v5_snapshots_still_decode() {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let score = ScoreConfig {
            cusum_k: 0.5,
            cusum_h: 6.0,
            hold_decay: 0.8,
            ..ScoreConfig::default()
        };
        let mut det = oneshotstl::StdAnomalyDetector::with_score(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            score,
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update_scored(v);
        }
        let live_dec = det.decomposer.to_state();
        let live_scorer = det.scorer().to_state();

        let config = FleetConfig { score, ..FleetConfig::fixed_period(t) };
        let warm_overrides = AdmitOptions {
            lambda: Some(2.0),
            nsigma: Some(4.0),
            period: Some(t),
            shift_search: Some(ShiftSearchConfig::top_k(3)),
            score: Some(score),
            forecast: None, // v5 has no forecast override
            backend: None,  // nor a backend one
        };

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(5);
        w.u8(KIND_FULL);
        // config, v5 layout: ends after the score config (no forecast)
        let c = &config;
        w.u32(c.shards as u32);
        w.u32(c.init_cycles as u32);
        match &c.period {
            PeriodPolicy::Fixed(p) => {
                w.u8(0);
                w.u32(*p as u32);
            }
            PeriodPolicy::Detect { .. } => unreachable!("fixture uses a fixed period"),
        }
        w.opt_u32(c.max_warmup.map(|v| v as u32));
        w.f64(c.nsigma);
        w.opt_u64(c.ttl);
        w.opt_u64(c.max_clock_step);
        w.opt_u64(c.queue_capacity.map(|v| v as u64));
        w.u8(0); // QueuePolicy::Block
        encode_detector_config(&mut w, &c.detector);
        encode_score_config(&mut w, &c.score);
        w.u64(7); // clock
        w.u64(3); // batches
        w.u64(0); // totals
        w.u64(1);
        w.u64(200);
        w.u64(2);
        w.u64(2); // series count
                  // series 0: warming with v5 overrides (no forecast tag)
        w.string("warm");
        w.u64(5);
        w.u8(0);
        w.vec_f64(&[1.0, 2.0, 3.0]);
        w.opt_u32(Some(t as u32));
        w.u64(3);
        w.opt_f64(warm_overrides.lambda);
        w.opt_f64(warm_overrides.nsigma);
        w.opt_u32(warm_overrides.period.map(|v| v as u32));
        w.u8(1);
        encode_shift_search(&mut w, warm_overrides.shift_search.as_ref().unwrap());
        w.u8(1);
        encode_score_config(&mut w, warm_overrides.score.as_ref().unwrap());
        // series 1: live with v5 layout (decomposer + scorer, no forecast)
        w.string("live");
        w.u64(7);
        w.u8(1);
        encode_decomposer_v8(&mut w, &live_dec);
        encode_scorer(&mut w, &live_scorer);

        let back = decode(&w.buf).expect("v5 must stay readable");
        assert_eq!(back.config, config, "forecast comes back disabled");
        assert_eq!(back.config.forecast, ForecastOptions::default());
        match &back.series[0].phase {
            PhaseSnapshot::Warming { overrides, .. } => {
                assert_eq!(overrides, &warm_overrides, "v5 overrides decode, forecast None");
            }
            _ => panic!("series 0 must be warming"),
        }
        match &back.series[1].phase {
            PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
                assert_eq!(decomposer, &live_dec, "decomposer state bit-identical");
                assert_eq!(scorer, &live_scorer, "full v5 scorer state bit-identical");
                assert!(forecast.is_none(), "v5 live series carry no forecast head");
                assert!(backend.is_none(), "v5 live series carry no backend state");
            }
            _ => panic!("series 1 must be live"),
        }
        // the restored detector continues bit-identically to the v5
        // writer's uninterrupted continuation
        let PhaseSnapshot::Live { decomposer, scorer, .. } = back.series[1].phase.clone()
        else {
            unreachable!();
        };
        let mut restored = oneshotstl::StdAnomalyDetector::from_parts(
            oneshotstl::OneShotStl::from_state(decomposer).unwrap(),
            oneshotstl::ResidualScorer::from_state(scorer),
        );
        for i in 0..3 * t {
            let x = 1.5
                + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                + if i == t { 4.0 } else { 0.0 };
            let (pa, va) = det.update_scored(x);
            let (pb, vb) = restored.update_scored(x);
            assert_eq!(pa.residual.to_bits(), pb.residual.to_bits());
            assert_eq!(va.score.to_bits(), vb.score.to_bits());
            assert_eq!(va.is_anomaly, vb.is_anomaly);
        }
        // ...and a v5 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        assert_eq!(decode(&re).unwrap(), back);
    }

    /// Hand-encodes the v6 layout (forecast options/overrides/state, but
    /// **no** backend fields anywhere) and checks the v7 reader restores
    /// it: the backend selection comes back [`BackendSelect::Fused`] —
    /// the plain fused-scorer pipeline every v6 writer actually ran — no
    /// live series carries backend state, and the restored detector
    /// stream continues bit-identically.
    #[test]
    fn v6_snapshots_still_decode() {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let score = ScoreConfig {
            cusum_k: 0.5,
            cusum_h: 6.0,
            hold_decay: 0.8,
            ..ScoreConfig::default()
        };
        let mut det = oneshotstl::StdAnomalyDetector::with_score(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            score,
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update_scored(v);
        }
        let live_dec = det.decomposer.to_state();
        let live_scorer = det.scorer().to_state();
        let mut tracker = forecast::RollingError::new(8);
        tracker.record(1.5, 1.4);
        tracker.record(1.6, 1.7);
        let live_forecast = ForecastSnapshot {
            options: ForecastOptions { damping: 0.9, ..ForecastOptions::on() },
            pending: 1.55,
            has_pending: true,
            tracker: tracker.to_state(),
        };

        let config = FleetConfig {
            score,
            forecast: ForecastOptions { error_window: 32, ..ForecastOptions::on() },
            ..FleetConfig::fixed_period(t)
        };
        let warm_overrides = AdmitOptions {
            lambda: Some(2.0),
            nsigma: Some(4.0),
            period: Some(t),
            shift_search: Some(ShiftSearchConfig::top_k(3)),
            score: Some(score),
            forecast: Some(ForecastOptions::on()),
            backend: None, // v6 has no backend override
        };

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(6);
        w.u8(KIND_FULL);
        // config, v6 layout: ends after the forecast options (no backend)
        let c = &config;
        w.u32(c.shards as u32);
        w.u32(c.init_cycles as u32);
        match &c.period {
            PeriodPolicy::Fixed(p) => {
                w.u8(0);
                w.u32(*p as u32);
            }
            PeriodPolicy::Detect { .. } => unreachable!("fixture uses a fixed period"),
        }
        w.opt_u32(c.max_warmup.map(|v| v as u32));
        w.f64(c.nsigma);
        w.opt_u64(c.ttl);
        w.opt_u64(c.max_clock_step);
        w.opt_u64(c.queue_capacity.map(|v| v as u64));
        w.u8(0); // QueuePolicy::Block
        encode_detector_config(&mut w, &c.detector);
        encode_score_config(&mut w, &c.score);
        encode_forecast_options(&mut w, &c.forecast);
        w.u64(7); // clock
        w.u64(3); // batches
        w.u64(0); // totals
        w.u64(1);
        w.u64(200);
        w.u64(2);
        w.u64(2); // series count
                  // series 0: warming with v6 overrides (no backend tag)
        w.string("warm");
        w.u64(5);
        w.u8(0);
        w.vec_f64(&[1.0, 2.0, 3.0]);
        w.opt_u32(Some(t as u32));
        w.u64(3);
        w.opt_f64(warm_overrides.lambda);
        w.opt_f64(warm_overrides.nsigma);
        w.opt_u32(warm_overrides.period.map(|v| v as u32));
        w.u8(1);
        encode_shift_search(&mut w, warm_overrides.shift_search.as_ref().unwrap());
        w.u8(1);
        encode_score_config(&mut w, warm_overrides.score.as_ref().unwrap());
        w.u8(1);
        encode_forecast_options(&mut w, warm_overrides.forecast.as_ref().unwrap());
        // series 1: live with v6 layout (decomposer + scorer + forecast,
        // no backend presence tag)
        w.string("live");
        w.u64(7);
        w.u8(1);
        encode_decomposer_v8(&mut w, &live_dec);
        encode_scorer(&mut w, &live_scorer);
        w.u8(1);
        encode_forecast_state(&mut w, &live_forecast);

        let back = decode(&w.buf).expect("v6 must stay readable");
        assert_eq!(back.config, config, "backend comes back Fused");
        assert_eq!(back.config.backend, BackendSelect::Fused);
        match &back.series[0].phase {
            PhaseSnapshot::Warming { overrides, .. } => {
                assert_eq!(overrides, &warm_overrides, "v6 overrides decode, backend None");
            }
            _ => panic!("series 0 must be warming"),
        }
        match &back.series[1].phase {
            PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
                assert_eq!(decomposer, &live_dec, "decomposer state bit-identical");
                assert_eq!(scorer, &live_scorer, "scorer state bit-identical");
                assert_eq!(forecast.as_ref(), Some(&live_forecast), "forecast decodes");
                assert!(backend.is_none(), "v6 live series carry no backend state");
            }
            _ => panic!("series 1 must be live"),
        }
        // the restored detector continues bit-identically to the v6
        // writer's uninterrupted continuation
        let PhaseSnapshot::Live { decomposer, scorer, .. } = back.series[1].phase.clone()
        else {
            unreachable!();
        };
        let mut restored = oneshotstl::StdAnomalyDetector::from_parts(
            oneshotstl::OneShotStl::from_state(decomposer).unwrap(),
            oneshotstl::ResidualScorer::from_state(scorer),
        );
        for i in 0..3 * t {
            let x = 1.5
                + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                + if i == t { 4.0 } else { 0.0 };
            let (pa, va) = det.update_scored(x);
            let (pb, vb) = restored.update_scored(x);
            assert_eq!(pa.residual.to_bits(), pb.residual.to_bits());
            assert_eq!(va.score.to_bits(), vb.score.to_bits());
            assert_eq!(va.is_anomaly, vb.is_anomaly);
        }
        // ...and a v6 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        assert_eq!(decode(&re).unwrap(), back);
    }

    /// A v8 reader must keep decoding hand-encoded v7 images: the health
    /// counters come back zero (no pre-v8 writer tracked them), the
    /// `Quarantined` phase tag is rejected as invalid in a v7 image (no
    /// pre-v8 writer emitted it), and re-encoding upgrades to v8.
    #[test]
    fn v7_snapshots_still_decode() {
        let t = 12usize;
        let config = FleetConfig {
            backend: BackendSelect::Damp(DampOptions { window: 64, subseq: 8 }),
            ..FleetConfig::fixed_period(t)
        };
        let warm_overrides = AdmitOptions {
            backend: Some(BackendSelect::TrendCusum(ScoreConfig::default())),
            ..AdmitOptions::default()
        };

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(7);
        w.u8(KIND_FULL);
        encode_config_v8(&mut w, &config); // v7 config layout == v8 (backend incl.)
        w.u64(7); // clock
        w.u64(3); // batches
        w.u64(0); // totals, v7 layout: four counters, no health counters
        w.u64(1);
        w.u64(200);
        w.u64(2);
        w.u64(1); // series count
        w.string("warm");
        w.u64(5);
        w.u8(0);
        w.vec_f64(&[1.0, 2.0, 3.0]);
        w.opt_u32(Some(t as u32));
        w.u64(3);
        encode_admit_options(&mut w, &warm_overrides); // v7 overrides incl. backend

        let back = decode(&w.buf).expect("v7 must stay readable");
        assert_eq!(back.config, config, "v7 config decodes with its backend");
        assert_eq!(
            back.totals,
            CarriedTotals {
                evicted: 0,
                admitted: 1,
                points: 200,
                anomalies: 2,
                ..Default::default()
            },
            "pre-v8 health counters start at 0"
        );
        match &back.series[0].phase {
            PhaseSnapshot::Warming { overrides, .. } => {
                assert_eq!(overrides, &warm_overrides, "v7 backend override decodes");
            }
            _ => panic!("series 0 must be warming"),
        }

        // a v7 image smuggling the v8-only Quarantined tag is rejected
        let mut bad = Writer::default();
        bad.bytes(MAGIC);
        bad.u16(7);
        bad.u8(KIND_FULL);
        encode_config_v8(&mut bad, &config);
        bad.u64(7);
        bad.u64(3);
        bad.u64(0);
        bad.u64(1);
        bad.u64(200);
        bad.u64(2);
        bad.u64(1);
        bad.string("q");
        bad.u64(5);
        bad.u8(3); // Quarantined phase tag: v8-only
        bad.u8(0);
        bad.u64(4);
        assert!(
            matches!(decode(&bad.buf), Err(CodecError::Invalid("series phase tag"))),
            "quarantine tag must not decode from a pre-v8 image"
        );

        // ...and a v7 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        assert_eq!(decode(&re).unwrap(), back);
    }

    /// A v9 reader must keep decoding hand-encoded v8 images: the config
    /// ends after the backend selection (compression comes back `Exact`,
    /// `spill_after` `None` — what every v8 writer ran), the state
    /// vectors are untagged plain `f64`s, the Quarantined phase decodes,
    /// and re-encoding upgrades to v9.
    #[test]
    fn v8_snapshots_still_decode() {
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.5 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::with_score(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
            ScoreConfig::default(),
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update_scored(v);
        }
        let live_dec = det.decomposer.to_state();
        let live_scorer = det.scorer().to_state();
        let config = FleetConfig::fixed_period(t);

        let mut w = Writer::default();
        w.bytes(MAGIC);
        w.u16(8);
        w.u8(KIND_FULL);
        encode_config_v8(&mut w, &config);
        w.u64(7); // clock
        w.u64(3); // batches
        w.u64(1); // totals, v8 layout: all seven counters
        w.u64(2);
        w.u64(300);
        w.u64(4);
        w.u64(5);
        w.u64(6);
        w.u64(7);
        w.u64(2); // series count
                  // series 0: live with v8 layout (untagged f64 vectors)
        w.string("live");
        w.u64(9);
        w.u8(1);
        encode_decomposer_v8(&mut w, &live_dec);
        encode_scorer(&mut w, &live_scorer);
        w.u8(0); // no forecast head
        w.u8(0); // no backend state
                 // series 1: quarantined (the v8 phase tag)
        w.string("q");
        w.u64(5);
        w.u8(3);
        w.u8(1); // QuarantineCause::Panic
        w.u64(11);

        let back = decode(&w.buf).expect("v8 must stay readable");
        assert_eq!(back.config.compression, StateCompression::Exact);
        assert_eq!(back.config.spill_after, None);
        assert_eq!(back.config, config);
        assert_eq!(
            back.totals,
            CarriedTotals {
                evicted: 1,
                admitted: 2,
                points: 300,
                anomalies: 4,
                wal_retries: 5,
                shard_restarts: 6,
                undurable_batches: 7,
            },
            "v8 health counters decode"
        );
        match &back.series[0].phase {
            PhaseSnapshot::Live { decomposer, scorer, forecast, backend } => {
                assert_eq!(decomposer, &live_dec, "decomposer state bit-identical");
                assert_eq!(scorer, &live_scorer, "scorer state bit-identical");
                assert!(forecast.is_none() && backend.is_none());
            }
            _ => panic!("series 0 must be live"),
        }
        assert_eq!(
            back.series[1].phase,
            PhaseSnapshot::Quarantined { cause: QuarantineCause::Panic, dropped: 11 }
        );
        // the restored detector continues bit-identically to the v8
        // writer's uninterrupted continuation
        let PhaseSnapshot::Live { decomposer, scorer, .. } = back.series[0].phase.clone()
        else {
            unreachable!();
        };
        let mut restored = oneshotstl::StdAnomalyDetector::from_parts(
            oneshotstl::OneShotStl::from_state(decomposer).unwrap(),
            oneshotstl::ResidualScorer::from_state(scorer),
        );
        for i in 0..3 * t {
            let x = 1.5
                + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin()
                + if i == t { 4.0 } else { 0.0 };
            let (pa, va) = det.update_scored(x);
            let (pb, vb) = restored.update_scored(x);
            assert_eq!(pa.residual.to_bits(), pb.residual.to_bits());
            assert_eq!(va.score.to_bits(), vb.score.to_bits());
            assert_eq!(va.is_anomaly, vb.is_anomaly);
        }
        // ...and a v8 image re-encodes as v9 (upgrade-on-rewrite)
        let re = encode(&back);
        assert_eq!(re[8], 9, "re-encoded version");
        assert_eq!(decode(&re).unwrap(), back);
    }

    /// Compact mode: state vectors land delta-encoded at `f32` precision
    /// — materially smaller, reconstructed within `f32`-delta tolerance,
    /// still restorable into a running detector, and **byte-stable under
    /// re-encode** so repeated snapshot cycles do not drift.
    #[test]
    fn compact_compression_shrinks_and_reencodes_stably() {
        let t = 24usize;
        let y: Vec<f64> = (0..10 * t)
            .map(|i| 50.0 + 8.0 * (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        for &v in &y[4 * t..] {
            det.update(v);
        }
        let live = SeriesSnapshot {
            key: SeriesKey::new("live"),
            last_seen: 60,
            phase: PhaseSnapshot::Live {
                decomposer: det.decomposer.to_state(),
                scorer: det.scorer().to_state(),
                forecast: None,
                backend: None,
            },
        };
        let mut snap = FleetSnapshot {
            config: FleetConfig {
                compression: StateCompression::Compact,
                ..FleetConfig::fixed_period(t)
            },
            clock: 99,
            batches: 7,
            totals: CarriedTotals::default(),
            series: vec![live],
        };
        let compact = encode(&snap);
        snap.config.compression = StateCompression::Exact;
        let exact = encode(&snap);
        assert!(
            compact.len() < exact.len() * 3 / 4,
            "compact must be materially smaller: {} vs {} bytes",
            compact.len(),
            exact.len()
        );
        let back = decode(&compact).expect("compact image decodes");
        assert_eq!(back.config.compression, StateCompression::Compact);
        let PhaseSnapshot::Live { decomposer, .. } = &back.series[0].phase else {
            unreachable!();
        };
        let orig = det.decomposer.to_state();
        assert_eq!(decomposer.v.len(), orig.v.len());
        for (a, b) in decomposer.v.iter().zip(&orig.v) {
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "f32-delta tolerance: {a} vs {b}"
            );
        }
        // the reconstruction restores into a working detector
        oneshotstl::OneShotStl::from_state(decomposer.clone())
            .expect("compact-restored state is structurally valid");
        // re-encode is byte-identical: encode∘decode is the identity on
        // compact images, so repeated snapshot cycles are stable
        assert_eq!(encode(&back), compact, "compact re-encode must not drift");
    }

    /// Cold-tier series blobs round-trip bit-identically — even when the
    /// engine snapshots compact, the cold store stays exact — and
    /// corrupted blobs are rejected with typed errors.
    #[test]
    fn series_blob_roundtrips_exactly() {
        let snap = sample_snapshot();
        for s in &snap.series {
            let blob = encode_series_blob(s);
            assert_eq!(&decode_series_blob(&blob).unwrap(), s);
            assert!(decode_series_blob(&blob[..blob.len() - 1]).is_err(), "truncated blob");
            let mut trailing = blob.clone();
            trailing.push(0);
            assert!(decode_series_blob(&trailing).is_err(), "trailing bytes");
        }
        let mut bad_version = encode_series_blob(&snap.series[0]);
        bad_version[0] = 0xEE;
        assert!(matches!(
            decode_series_blob(&bad_version),
            Err(CodecError::UnsupportedVersion(_))
        ));
    }

    /// The delta chain-header parser reads `(prev_batches, batches)`
    /// without touching the series body, and refuses full images.
    #[test]
    fn delta_chain_header_parses_without_the_body() {
        let delta = FleetDelta {
            config: FleetConfig::fixed_period(24),
            prev_batches: 90,
            clock: 300,
            batches: 130,
            totals: CarriedTotals::default(),
            series: vec![],
            tombstones: vec![SeriesKey::new("gone")],
        };
        assert_eq!(decode_delta_chain(&encode_delta(&delta)).unwrap(), (90, 130));
        assert!(decode_delta_chain(&encode(&sample_snapshot())).is_err());
    }

    /// Live backend state — every variant — round-trips through the v7
    /// codec bit-identically, and a crafted image smuggling degenerate
    /// backend state (NaN bsf, non-finite retained values, all-NaN
    /// ensemble weights) fails to decode with a typed error.
    #[test]
    fn backend_state_roundtrips_and_degenerate_state_is_rejected() {
        use crate::backend::BackendScore;
        let t = 12usize;
        let y: Vec<f64> = (0..8 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        // run real state into each backend variant
        let selects = [
            BackendSelect::Damp(DampOptions { window: 64, subseq: 8 }),
            BackendSelect::TrendCusum(ScoreConfig::default()),
            BackendSelect::Ensemble(EnsembleOptions::default()),
        ];
        let fused =
            oneshotstl::ScoreVerdict { score: 0.1, z: 0.1, cusum: 0.0, is_anomaly: false };
        for select in selects {
            let mut b = SeriesBackend::build(select, 5.0, t).unwrap();
            for i in 0..150 {
                let p = tskit::series::DecompPoint {
                    trend: 1.0 + 0.01 * i as f64,
                    seasonal: 0.0,
                    residual: 0.2 * (i as f64 / 3.0).sin(),
                };
                let _: BackendScore = b.observe(&p, &fused);
            }
            let mut snap = sample_snapshot();
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 60,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer: det.scorer().to_state(),
                    forecast: None,
                    backend: Some(b.to_snapshot()),
                },
            });
            let back = decode(&encode(&snap)).expect("backend-bearing image decodes");
            assert_eq!(back, snap, "{select:?} round-trips bit-identically");
        }
        // degenerate state must be rejected, never restored
        let mut b =
            SeriesBackend::build(BackendSelect::Ensemble(EnsembleOptions::default()), 5.0, t)
                .unwrap();
        for i in 0..120 {
            let p = tskit::series::DecompPoint {
                trend: 1.0,
                seasonal: 0.0,
                residual: 0.2 * (i as f64 / 3.0).sin(),
            };
            b.observe(&p, &fused);
        }
        let BackendSnapshot::Ensemble { damp, trend, fusion, weights } = b.to_snapshot() else {
            unreachable!()
        };
        let make = |bs: BackendSnapshot| {
            let mut snap = sample_snapshot();
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 60,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer: det.scorer().to_state(),
                    forecast: None,
                    backend: Some(bs),
                },
            });
            encode(&snap)
        };
        let mut bad_damp = damp.clone();
        bad_damp.damp.bsf = f64::NAN;
        assert_eq!(
            decode(&make(BackendSnapshot::Damp(bad_damp))),
            Err(CodecError::Invalid("backend state")),
            "NaN bsf"
        );
        let mut bad_buf = damp.clone();
        if let Some(v) = bad_buf.damp.buf.first_mut() {
            *v = f64::INFINITY;
        }
        assert!(decode(&make(BackendSnapshot::Damp(bad_buf))).is_err(), "non-finite value");
        let mut bad_trend = trend.clone();
        bad_trend.prev = f64::NAN;
        assert!(
            decode(&make(BackendSnapshot::TrendCusum(bad_trend))).is_err(),
            "NaN trend prev"
        );
        let bad_weights = BackendSnapshot::Ensemble {
            damp: damp.clone(),
            trend: trend.clone(),
            fusion,
            weights: [f64::NAN; 3],
        };
        assert!(decode(&make(bad_weights)).is_err(), "NaN ensemble weights");
        let _ = weights;
    }

    /// A crafted v6 image smuggling degenerate forecast state — a NaN
    /// pending prediction, NaN tracker sums, ragged rings — must fail to
    /// decode, not poison every sMAPE read after restore.
    #[test]
    fn degenerate_decoded_forecast_state_is_rejected() {
        let t = 12usize;
        let y: Vec<f64> = (0..6 * t)
            .map(|i| 1.0 + (2.0 * std::f64::consts::PI * i as f64 / t as f64).sin())
            .collect();
        let mut det = oneshotstl::StdAnomalyDetector::new(
            oneshotstl::OneShotStl::new(OneShotStlConfig::default()),
            5.0,
        );
        det.init(&y[..4 * t], t).unwrap();
        let make = |mutate: &dyn Fn(&mut ForecastSnapshot)| {
            let mut tracker = forecast::RollingError::new(8);
            tracker.record(1.0, 1.1);
            tracker.record(2.0, 1.9);
            let mut fc = ForecastSnapshot {
                options: ForecastOptions::on(),
                pending: 1.5,
                has_pending: true,
                tracker: tracker.to_state(),
            };
            mutate(&mut fc);
            let mut snap = sample_snapshot();
            snap.series.push(SeriesSnapshot {
                key: SeriesKey::new("live"),
                last_seen: 50,
                phase: PhaseSnapshot::Live {
                    decomposer: det.decomposer.to_state(),
                    scorer: det.scorer().to_state(),
                    forecast: Some(fc),
                    backend: None,
                },
            });
            encode(&snap)
        };
        // intact state decodes…
        decode(&make(&|_| {})).expect("valid forecast state decodes");
        // …corrupted state does not
        assert!(decode(&make(&|f| f.pending = f64::NAN)).is_err(), "NaN pending");
        assert!(decode(&make(&|f| f.tracker.sum_abs = f64::NAN)).is_err(), "NaN sum");
        assert!(decode(&make(&|f| f.tracker.abs[0] = -1.0)).is_err(), "negative term");
        assert!(
            decode(&make(&|f| {
                f.tracker.sm.pop();
            }))
            .is_err(),
            "ragged rings"
        );
        assert!(decode(&make(&|f| f.tracker.head = 99)).is_err(), "cursor out of range");
        assert!(decode(&make(&|f| f.options.damping = 1.5)).is_err(), "bad damping");
    }

    #[test]
    fn bad_inputs_are_rejected_not_panicked() {
        let snap = sample_snapshot();
        let bytes = encode(&snap);
        assert_eq!(decode(b"short"), Err(CodecError::Truncated));
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert_eq!(decode(&wrong_magic), Err(CodecError::BadMagic));
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0xEE;
        assert!(matches!(decode(&wrong_version), Err(CodecError::UnsupportedVersion(_))));
        // every truncation point fails cleanly
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} should not decode");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode(&trailing),
            Err(CodecError::Invalid("trailing bytes after snapshot"))
        );
    }
}
