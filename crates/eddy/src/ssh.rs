//! Synthetic sea-surface-height data.
//!
//! The paper's dataset is satellite SSH split by latitude, longitude and
//! time (721 × 1440 × 954). We generate a substitute with the same
//! statistical features the algorithms depend on: a seasonal cycle, a
//! smooth spatial base field, white measurement noise ("inaccurate noisy
//! readings from the satellites"), the "restlessness of the ocean"
//! (small bumps), and — crucially — travelling Gaussian depressions that
//! produce exactly the trough-between-two-maxima time-series signature of
//! Fig 7 at every point an eddy passes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct SshParams {
    /// Latitude points.
    pub lat: usize,
    /// Longitude points.
    pub lon: usize,
    /// Time steps (weeks).
    pub time: usize,
    /// Number of eddies seeded into the field.
    pub eddies: usize,
    /// Eddy depression depth (positive; the surface is lowered by up to
    /// this much at the core).
    pub depth: f32,
    /// Eddy radius in grid cells.
    pub radius: f32,
    /// Standard deviation of the white measurement noise.
    pub noise: f32,
    /// RNG seed (the generator is deterministic per seed).
    pub seed: u64,
}

impl Default for SshParams {
    fn default() -> Self {
        SshParams {
            lat: 48,
            lon: 96,
            time: 120,
            eddies: 12,
            depth: 0.8,
            radius: 4.0,
            noise: 0.02,
            seed: 42,
        }
    }
}

impl SshParams {
    /// Extents of the generated cube: `[lat, lon, time]`.
    pub fn dims(&self) -> [usize; 3] {
        [self.lat, self.lon, self.time]
    }
}

struct Eddy {
    lat0: f32,
    lon0: f32,
    dlat: f32,
    dlon: f32,
    t_start: usize,
    t_end: usize,
    depth: f32,
    radius: f32,
}

/// Generate a `lat × lon × time` SSH cube ([`SshParams::dims`]), row-major
/// with time the last, contiguous axis.
pub fn synthetic_ssh(p: &SshParams) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let eddies: Vec<Eddy> = (0..p.eddies)
        .map(|_| {
            let t_start = rng.gen_range(0..p.time.max(2) / 2);
            let lifetime = rng.gen_range(p.time / 4..p.time.max(4) / 2 + 1);
            Eddy {
                lat0: rng.gen_range(0.0..p.lat as f32),
                lon0: rng.gen_range(0.0..p.lon as f32),
                // Westward drift, like real mesoscale eddies.
                dlat: rng.gen_range(-0.05..0.05),
                dlon: -rng.gen_range(0.05f32..0.25),
                t_start,
                t_end: (t_start + lifetime).min(p.time),
                depth: p.depth * rng.gen_range(0.6f32..1.4),
                radius: p.radius * rng.gen_range(0.7f32..1.3),
            }
        })
        .collect();

    // Smooth spatial base field (large-scale height variation).
    let base: Vec<f32> = (0..p.lat * p.lon)
        .map(|cell| {
            let i = (cell / p.lon) as f32;
            let j = (cell % p.lon) as f32;
            0.3 * (i / p.lat as f32 * std::f32::consts::TAU).sin()
                + 0.2 * (j / p.lon as f32 * 2.0 * std::f32::consts::TAU).cos()
        })
        .collect();

    let mut data = vec![0.0f32; p.lat * p.lon * p.time];
    for i in 0..p.lat {
        for j in 0..p.lon {
            for t in 0..p.time {
                // Seasonal cycle (annual ≈ 52 weekly steps).
                let season = 0.15 * (t as f32 / 52.0 * std::f32::consts::TAU).sin();
                let noise = if p.noise > 0.0 {
                    rng.gen_range(-p.noise..p.noise)
                } else {
                    0.0
                };
                let mut h = base[i * p.lon + j] + season + noise;
                for e in &eddies {
                    if t < e.t_start || t >= e.t_end {
                        continue;
                    }
                    let age = (t - e.t_start) as f32;
                    let clat = e.lat0 + e.dlat * age;
                    let clon = e.lon0 + e.dlon * age;
                    let d2 = (i as f32 - clat).powi(2) + (j as f32 - clon).powi(2);
                    let shape = (-d2 / (2.0 * e.radius * e.radius)).exp();
                    // Ramp the eddy in and out so troughs have flanks.
                    let life = (e.t_end - e.t_start) as f32;
                    let envelope = (std::f32::consts::PI * age / life).sin();
                    h -= e.depth * shape * envelope;
                }
                data[(i * p.lon + j) * p.time + t] = h;
            }
        }
    }
    data
}
