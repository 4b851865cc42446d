//! Seeded input generation. Every value is a pure function of the seed, the
//! series id and the point's index within its series, so a seed always gives
//! the same inputs and the program sees only the generated records.

/// Season length of every generated series (hourly points, daily season).
pub const PERIOD: usize = 24;

/// splitmix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` from three words.
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = mix(mix(mix(seed) ^ a) ^ b);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// How a series behaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Season + trend + noise, with rare spikes (well under 1% of points).
    Normal,
    /// Season + trend with no noise: the residual spread collapses, so the
    /// scorer flags often and the §3.4 shift search runs.
    Flat,
    /// Normal, plus a level that steps up and down every 150 points: the
    /// CUSUM path fires.
    LevelShift,
}

const SALT_PHASE: u64 = 1;
const SALT_AMP: u64 = 2;
const SALT_NOISE: u64 = 3;
const SALT_SPIKE: u64 = 4;

/// Value of point `n` of series `id`.
pub fn value(seed: u64, id: u64, n: u64, shape: Shape) -> f64 {
    let phase = unit(seed, id, SALT_PHASE);
    let amp = 1.0 + unit(seed, id, SALT_AMP);
    let slope = 0.0005 * (id % 5) as f64;
    let x = n as f64 / PERIOD as f64 + phase;
    let base = amp * (2.0 * std::f64::consts::PI * x).sin() + slope * n as f64;
    if shape == Shape::Flat {
        return base;
    }
    let salt = id.rotate_left(17) ^ n;
    let noise = 0.05 * (2.0 * unit(seed, salt, SALT_NOISE) - 1.0);
    let spike = if unit(seed, salt, SALT_SPIKE) < 0.002 { 1.5 } else { 0.0 };
    let level = if shape == Shape::LevelShift && (n / 150) % 2 == 1 { 2.0 } else { 0.0 };
    base + noise + spike + level
}
