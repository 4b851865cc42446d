//! Reference output check.
//!
//! For a fixed sample of keys, the benchmark feeds the same values to
//! standalone detectors built exactly as the fleet builds a live series
//! (`StdAnomalyDetector::with_score(OneShotStl::new(cfg.detector),
//! cfg.nsigma, cfg.score)`, initialised on the first `init_len` points) and
//! requires every point the fleet returns for those keys to match bit for
//! bit: same decomposition, same score, same verdict. The twins also time
//! the solver layer in a traced run (`core.update`, `core.init`).

use fleet::{FleetConfig, PointOutput, ScoredPoint, SeriesKey};
use oneshotstl::{OneShotStl, StdAnomalyDetector};

use crate::gen::PERIOD;
use crate::stats::Samples;
use crate::trace::{now_ns, Tracer};

type Detector = StdAnomalyDetector<OneShotStl>;

struct Twin {
    key: SeriesKey,
    warm: Vec<f64>,
    det: Option<Detector>,
}

/// The standalone twins of the sampled keys.
pub struct Twins {
    cfg: FleetConfig,
    init_len: usize,
    twins: Vec<Twin>,
    /// Points compared so far.
    pub checked: u64,
    /// Points that differed from the twin.
    pub mismatches: u64,
    /// The first few mismatches, described.
    pub first: Vec<String>,
    /// `init` time of every twin, µs (always recorded: a handful per run).
    pub init_us: Samples,
}

/// One sampled record of a batch: its index in the batch, its twin and the
/// value that was sent.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Index of the record in its batch.
    pub idx: u32,
    /// Twin slot.
    pub slot: u32,
    /// The value sent.
    pub value: f64,
}

impl Twins {
    /// No twins yet, for a fleet running `cfg` with the generator's period.
    pub fn new(cfg: &FleetConfig) -> Self {
        Twins {
            cfg: cfg.clone(),
            init_len: cfg.init_len(PERIOD),
            twins: Vec::new(),
            checked: 0,
            mismatches: 0,
            first: Vec::new(),
            init_us: Samples::new(),
        }
    }

    /// Starts a twin for a key the fleet has not seen; returns its slot.
    pub fn add(&mut self, key: SeriesKey) -> u32 {
        self.twins.push(Twin { key, warm: Vec::new(), det: None });
        (self.twins.len() - 1) as u32
    }

    /// Points `slot` at a new key the fleet has not seen (the old key is
    /// retired).
    pub fn reset(&mut self, slot: u32, key: SeriesKey) {
        self.twins[slot as usize] = Twin { key, warm: Vec::new(), det: None };
    }

    /// Checks every probe of a batch against the fleet's reply.
    pub fn check_batch(
        &mut self,
        probes: &[Probe],
        reply: &[ScoredPoint],
        tracer: &mut Tracer,
        req: u64,
    ) {
        for p in probes {
            match reply.get(p.idx as usize) {
                Some(point) => self.check(p.slot, p.value, point, tracer, req),
                None => {
                    self.fail(format!("reply of {} points has no index {}", reply.len(), p.idx))
                }
            }
        }
    }

    fn fail(&mut self, what: String) {
        self.mismatches += 1;
        if self.first.len() < 5 {
            self.first.push(what);
        }
    }

    /// Feeds `value` to twin `slot` and compares with the fleet's `point`.
    pub fn check(
        &mut self,
        slot: u32,
        value: f64,
        point: &ScoredPoint,
        tracer: &mut Tracer,
        req: u64,
    ) {
        self.checked += 1;
        let twin = &mut self.twins[slot as usize];
        if point.key != twin.key || point.value.to_bits() != value.to_bits() {
            let what = format!(
                "reply slot holds {}={} where {}={} was sent",
                point.key.as_str(),
                point.value,
                twin.key.as_str(),
                value
            );
            return self.fail(what);
        }
        let Some(det) = twin.det.as_mut() else {
            twin.warm.push(value);
            if twin.warm.len() == self.init_len {
                let mut det = StdAnomalyDetector::with_score(
                    OneShotStl::new(self.cfg.detector.clone()),
                    self.cfg.nsigma,
                    self.cfg.score,
                );
                let t0 = now_ns();
                let ok = det.init(&twin.warm, PERIOD).is_ok();
                let t1 = now_ns();
                self.init_us.push((t1 - t0) as f64 / 1e3);
                tracer.leaf("core.init", req, t0, t1);
                if !ok {
                    let what = format!("twin init failed for {}", twin.key.as_str());
                    return self.fail(what);
                }
                twin.det = Some(det);
            }
            if !matches!(point.output, PointOutput::Warming { .. }) {
                let what = format!(
                    "{} point {}: fleet answered {:?} while warming",
                    point.key.as_str(),
                    point.t,
                    point.output
                );
                self.fail(what);
            }
            return;
        };
        let t0 = if tracer.on() { now_ns() } else { 0 };
        let (dp, verdict) = det.update_scored(value);
        if tracer.on() {
            tracer.leaf("core.update", req, t0, now_ns());
        }
        let same = match &point.output {
            PointOutput::Scored { point: fp, score, is_anomaly } => {
                score.to_bits() == verdict.score.to_bits()
                    && *is_anomaly == verdict.is_anomaly
                    && fp.trend.to_bits() == dp.trend.to_bits()
                    && fp.seasonal.to_bits() == dp.seasonal.to_bits()
                    && fp.residual.to_bits() == dp.residual.to_bits()
            }
            _ => false,
        };
        if !same {
            let what = format!(
                "{} point {}: fleet {:?}, twin score {} anomaly {}",
                point.key.as_str(),
                point.t,
                point.output,
                verdict.score,
                verdict.is_anomaly
            );
            self.fail(what);
        }
    }
}
