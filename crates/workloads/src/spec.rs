//! Workload specifications and interval generation.

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Upper end of the paper's data domain: "The bounding points of all
/// intervals lie in the domain of [0, 2^20 − 1]" (Section 6.1).
pub const DOMAIN_MAX: i64 = (1 << 20) - 1;

/// Starting-point distribution (Table 1, plus the skewed extension).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StartDist {
    /// Uniform over the domain.
    Uniform,
    /// Arrival times of a Poisson process spanning the domain: exponential
    /// inter-arrival times with mean `domain / n`, sorted by construction.
    Poisson,
    /// Zipf-skewed over `cells` equal domain slices (see [`ZipfCells`]):
    /// slice popularity follows rank^(-s), positions within a slice stay
    /// uniform.  Not part of the paper's Table 1 — added for the hot-tier
    /// experiment (`fig23_hot_tier`), where skew is the whole point.
    Zipf {
        /// Skew exponent; `0.0` degenerates to uniform-over-cells,
        /// `1.0` is classic Zipf.
        s: f64,
        /// Number of equal-width domain slices popularity is assigned
        /// to; must be a power of two.
        cells: u32,
    },
}

/// Duration distribution (Table 1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DurationDist {
    /// Uniform in `[lo, hi]`; Table 1 uses `[0, 2d]` (mean `d`), and the
    /// Figure 15 experiment restricts the range symmetrically.
    Uniform {
        /// Minimum duration.
        lo: i64,
        /// Maximum duration.
        hi: i64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// Mean duration.
        mean: f64,
    },
}

/// A fully parameterized interval workload.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Distribution family name for reports (e.g. `"D4"`).
    pub name: &'static str,
    /// Number of intervals.
    pub n: usize,
    /// Starting-point distribution.
    pub start: StartDist,
    /// Duration distribution.
    pub duration: DurationDist,
}

/// `D1(n, d)`: uniform starts, uniform durations in `[0, 2d]`.
pub fn d1(n: usize, d: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "D1",
        n,
        start: StartDist::Uniform,
        duration: DurationDist::Uniform { lo: 0, hi: 2 * d },
    }
}

/// `D2(n, d)`: uniform starts, exponential durations with mean `d`.
pub fn d2(n: usize, d: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "D2",
        n,
        start: StartDist::Uniform,
        duration: DurationDist::Exponential { mean: d as f64 },
    }
}

/// `D3(n, d)`: Poisson-process starts, uniform durations in `[0, 2d]`.
pub fn d3(n: usize, d: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "D3",
        n,
        start: StartDist::Poisson,
        duration: DurationDist::Uniform { lo: 0, hi: 2 * d },
    }
}

/// `D4(n, d)`: Poisson-process starts, exponential durations with mean `d`.
pub fn d4(n: usize, d: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "D4",
        n,
        start: StartDist::Poisson,
        duration: DurationDist::Exponential { mean: d as f64 },
    }
}

/// `Zipf(n, d, s)`: Zipf-skewed starts over 64 domain slices with
/// exponent `s`, uniform durations in `[0, 2d]` (the D1 durations).
///
/// 64 slices over the `2^20` domain gives 16384-wide hot spots — the
/// same granularity the hot tier's default blocks use, so a skewed
/// query stream exercises block-level locality rather than smearing
/// every slice across many cache blocks.
pub fn zipf(n: usize, d: i64, s: f64) -> WorkloadSpec {
    WorkloadSpec {
        name: "Zipf",
        n,
        start: StartDist::Zipf { s, cells: 64 },
        duration: DurationDist::Uniform { lo: 0, hi: 2 * d },
    }
}

/// The Figure 15 variant: `D3(n, 2k)` with the duration domain restricted
/// from `[0, 4k]` to `[min_len, 4k − min_len]`.
pub fn restricted_d3(n: usize, min_len: i64) -> WorkloadSpec {
    WorkloadSpec {
        name: "D3r",
        n,
        start: StartDist::Poisson,
        duration: DurationDist::Uniform { lo: min_len, hi: 4000 - min_len },
    }
}

impl WorkloadSpec {
    /// Mean interval duration of this specification.
    pub fn mean_duration(&self) -> f64 {
        match self.duration {
            DurationDist::Uniform { lo, hi } => (lo + hi) as f64 / 2.0,
            DurationDist::Exponential { mean } => mean,
        }
    }

    /// Generates the `(lower, upper)` pairs, deterministically from `seed`.
    ///
    /// Upper bounds are clamped to the domain so that all bounding points
    /// lie in `[0, 2^20 − 1]`.
    pub fn generate(&self, seed: u64) -> Vec<(i64, i64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let starts = self.generate_starts(&mut rng);
        starts
            .into_iter()
            .map(|s| {
                let len = sample_duration(&self.duration, &mut rng);
                (s, (s + len).min(DOMAIN_MAX))
            })
            .collect()
    }

    fn generate_starts(&self, rng: &mut StdRng) -> Vec<i64> {
        match self.start {
            StartDist::Uniform => (0..self.n).map(|_| rng.gen_range(0..=DOMAIN_MAX)).collect(),
            StartDist::Zipf { s, cells } => {
                let z = ZipfCells::new(s, cells);
                (0..self.n).map(|_| z.sample(rng)).collect()
            }
            StartDist::Poisson => {
                // Exponential inter-arrival times with mean chosen so the
                // expected n-th arrival lands at DOMAIN_MAX.
                let mean_gap = (DOMAIN_MAX as f64) / (self.n as f64);
                let exp = rand_distr_exp(mean_gap);
                let mut t = 0.0f64;
                let mut out = Vec::with_capacity(self.n);
                for _ in 0..self.n {
                    t += exp.sample(rng);
                    out.push((t as i64).min(DOMAIN_MAX));
                }
                out
            }
        }
    }

    /// A reusable sampler for this workload's start distribution — used
    /// to make query workloads "compatible" with the data.
    pub fn start_sampler(&self) -> StartSampler {
        match self.start {
            // For query generation both Uniform and Poisson starts are
            // effectively uniform over the domain (a Poisson process has
            // uniform arrival positions conditioned on the count).
            StartDist::Uniform | StartDist::Poisson => StartSampler::Uniform,
            StartDist::Zipf { s, cells } => StartSampler::Zipf(ZipfCells::new(s, cells)),
        }
    }
}

/// Reusable start-position sampler (see [`WorkloadSpec::start_sampler`]).
#[derive(Clone, Debug)]
pub enum StartSampler {
    /// Uniform over the domain.
    Uniform,
    /// Zipf-over-cells with a prebuilt popularity table.
    Zipf(ZipfCells),
}

impl StartSampler {
    /// Draws one start position in `[0, DOMAIN_MAX]`.
    pub fn sample(&self, rng: &mut StdRng) -> i64 {
        match self {
            StartSampler::Uniform => rng.gen_range(0..=DOMAIN_MAX),
            StartSampler::Zipf(z) => z.sample(rng),
        }
    }
}

/// Zipf-over-cells position sampler.
///
/// The domain splits into `cells` equal slices.  Popularity rank `r`
/// (0-based) carries weight `(r + 1)^(-s)`; ranks map to slice positions
/// through a fixed odd-multiplier bijection so the popular slices are
/// scattered across the domain instead of piling up at its low end
/// (spatial locality inside a slice, none between slices).  Within a
/// slice, positions are uniform.  Sampling is inverse-CDF over the
/// `cells`-entry table: O(cells) to build, O(log cells) per draw, fully
/// deterministic for a seeded `StdRng`.
#[derive(Clone, Debug)]
pub struct ZipfCells {
    /// Cumulative normalized weights by rank, last entry 1.0.
    cdf: Vec<f64>,
    cell_width: i64,
    mask: u64,
}

impl ZipfCells {
    /// Builds the popularity table for `cells` slices with exponent `s`.
    ///
    /// # Panics
    /// Panics unless `cells` is a power of two in `[2, 65536]` and
    /// `s >= 0`.
    pub fn new(s: f64, cells: u32) -> ZipfCells {
        assert!(
            cells.is_power_of_two() && (2..=65536).contains(&cells),
            "cells {cells} must be a power of two in [2, 65536]"
        );
        assert!(s >= 0.0, "negative skew exponent {s}");
        let weights: Vec<f64> = (0..cells).map(|r| (f64::from(r) + 1.0).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        *cdf.last_mut().unwrap() = 1.0; // absorb rounding
        ZipfCells {
            cdf,
            cell_width: (DOMAIN_MAX + 1) / i64::from(cells),
            mask: u64::from(cells) - 1,
        }
    }

    /// Draws one position in `[0, DOMAIN_MAX]`.
    pub fn sample(&self, rng: &mut StdRng) -> i64 {
        let u: f64 = rng.gen_range(0.0..1.0);
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        // Fixed odd multiplier: a bijection on the power-of-two cell
        // index space, scattering popular ranks across the domain.
        let cell = ((rank as u64).wrapping_mul(0x9E37_79B1) & self.mask) as i64;
        cell * self.cell_width + rng.gen_range(0..self.cell_width)
    }
}

pub(crate) fn sample_duration(d: &DurationDist, rng: &mut StdRng) -> i64 {
    match *d {
        DurationDist::Uniform { lo, hi } => rng.gen_range(lo..=hi),
        DurationDist::Exponential { mean } => {
            if mean <= 0.0 {
                0
            } else {
                rand_distr_exp(mean).sample(rng) as i64
            }
        }
    }
}

/// Exponential distribution with the given mean, via inverse transform.
/// (Avoids pulling in `rand_distr`; two lines suffice.)
pub(crate) struct ExpDist {
    mean: f64,
}

pub(crate) fn rand_distr_exp(mean: f64) -> ExpDist {
    ExpDist { mean }
}

impl Distribution<f64> for ExpDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        -self.mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = d1(1000, 2000);
        assert_eq!(spec.generate(42), spec.generate(42));
        assert_ne!(spec.generate(42), spec.generate(43));
    }

    #[test]
    fn bounds_stay_in_domain() {
        for spec in [d1(5000, 2000), d2(5000, 2000), d3(5000, 2000), d4(5000, 2000)] {
            for (l, u) in spec.generate(7) {
                assert!(l >= 0 && u <= DOMAIN_MAX && l <= u, "{}: ({l}, {u})", spec.name);
            }
        }
    }

    #[test]
    fn uniform_duration_mean_is_d() {
        let spec = d1(20_000, 2000);
        let data = spec.generate(1);
        let mean: f64 = data.iter().map(|(l, u)| (u - l) as f64).sum::<f64>() / data.len() as f64;
        assert!((mean - 2000.0).abs() < 100.0, "mean duration {mean} != ~2000");
    }

    #[test]
    fn exponential_duration_mean_is_d() {
        let spec = d2(40_000, 2000);
        let data = spec.generate(2);
        let mean: f64 = data.iter().map(|(l, u)| (u - l) as f64).sum::<f64>() / data.len() as f64;
        // Clamping at the domain edge biases slightly low.
        assert!((mean - 2000.0).abs() < 150.0, "mean duration {mean} != ~2000");
    }

    #[test]
    fn poisson_starts_are_sorted_and_span_domain() {
        let spec = d3(10_000, 2000);
        let data = spec.generate(3);
        let starts: Vec<i64> = data.iter().map(|&(l, _)| l).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "arrival order");
        assert!(*starts.last().unwrap() > DOMAIN_MAX / 2, "process spans the domain");
    }

    #[test]
    fn restricted_d3_respects_min_length() {
        for min_len in [0, 500, 1000, 1500] {
            let spec = restricted_d3(2000, min_len);
            let data = spec.generate(4);
            for (l, u) in &data {
                let len = u - l;
                // Clamping at the domain edge may shorten a handful.
                if *u < DOMAIN_MAX {
                    assert!(len >= min_len && len <= 4000 - min_len, "len {len}");
                }
            }
            assert!((spec.mean_duration() - 2000.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_generation_is_deterministic_and_in_domain() {
        let spec = zipf(5000, 2000, 1.0);
        assert_eq!(spec.generate(42), spec.generate(42));
        assert_ne!(spec.generate(42), spec.generate(43));
        for (l, u) in spec.generate(7) {
            assert!(l >= 0 && u <= DOMAIN_MAX && l <= u, "({l}, {u})");
        }
    }

    #[test]
    fn zipf_skew_concentrates_mass() {
        // Count draws per cell at increasing skew: the top cell's share
        // must grow monotonically, and s=0 must look uniform.
        let shares: Vec<f64> = [0.0, 0.5, 1.0, 1.5]
            .map(|s| {
                let z = ZipfCells::new(s, 64);
                let mut rng = StdRng::seed_from_u64(9);
                let mut counts = [0u32; 64];
                for _ in 0..20_000 {
                    counts[(z.sample(&mut rng) / z.cell_width) as usize] += 1;
                }
                f64::from(*counts.iter().max().unwrap()) / 20_000.0
            })
            .to_vec();
        assert!(shares.windows(2).all(|w| w[0] < w[1]), "shares {shares:?} must increase");
        assert!(shares[0] < 0.03, "s=0 top-cell share {} should be ~1/64", shares[0]);
        assert!(shares[2] > 0.15, "s=1 top-cell share {} should dominate", shares[2]);
    }

    #[test]
    fn zipf_hot_cell_matches_rank_mapping() {
        let z = ZipfCells::new(1.5, 64);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[(z.sample(&mut rng) / z.cell_width) as usize] += 1;
        }
        let hottest =
            counts.iter().enumerate().max_by_key(|&(_, c)| c).map(|(i, _)| i as u32).unwrap();
        assert_eq!(hottest, 0, "rank 0 scatters to cell 0, which must be the hottest");
    }

    #[test]
    fn points_occur_with_zero_min_duration() {
        // "each data distribution of Table 1 contains intervals with
        // length 0 (i.e. points)" — Section 6.1. P(len = 0) = 1/4001
        // per interval, so a 20,000-interval draw misses points with
        // probability ~e^-5 ≈ 0.7%; across 4 independent seeds the
        // chance all miss is ~(e^-5)^4 ≈ 2·10^-9.
        let points = (0..4).flat_map(|seed| d1(20_000, 2000).generate(seed)).any(|(l, u)| l == u);
        assert!(points, "no points generated across 4 seeds");
    }
}
