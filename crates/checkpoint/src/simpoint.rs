//! Basic-block-vector profiling and SimPoint-style clustering
//! (paper §III-D3: "we further adopt SimPoint to sample the instruction
//! fragments... it is easy to compute the Basic Block Vector in NEMU").

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Dimensionality after random projection (SimPoint uses 15; we keep a
/// little more headroom).
pub const PROJECTED_DIM: usize = 32;

/// Fixed seed of the random-projection matrix. Pinned so that the
/// projection — and therefore every BBV, cluster, and checkpoint
/// selection derived from it — is reproducible across runs, platforms,
/// and worker counts. Changing this constant is a compatibility break
/// for stored BBVs.
pub const PROJECTION_SEED: u64 = 0x5351_u64 << 32 | 0x1D07;

/// Collects basic-block execution counts for one interval.
///
/// Counts live in a `BTreeMap`, not a `HashMap`: `finish` accumulates
/// `f64` contributions per block, and float addition is not
/// associative — a hash-order iteration would make the projected
/// vector's low bits depend on insertion history and `RandomState`,
/// breaking bit-for-bit reproducibility of checkpoint selection.
#[derive(Debug, Clone, Default)]
pub struct BbvCollector {
    counts: BTreeMap<u64, u64>,
    instructions: u64,
}

impl BbvCollector {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the execution of a basic block entered at `pc` containing
    /// `len` instructions.
    pub fn record(&mut self, pc: u64, len: u64) {
        *self.counts.entry(pc).or_insert(0) += len;
        self.instructions += len;
    }

    /// Instructions recorded so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Finish the interval: produce the normalized, randomly projected
    /// vector and reset the collector.
    ///
    /// An empty interval (no instructions recorded) yields the zero
    /// vector: without the guard a 0/0 normalization would poison the
    /// vector with NaNs, and every distance k-means later computes
    /// against it would be NaN too.
    pub fn finish(&mut self) -> Vec<f64> {
        let mut v = vec![0.0f64; PROJECTED_DIM];
        if self.instructions == 0 {
            self.counts.clear();
            return v;
        }
        let total = self.instructions as f64;
        for (&pc, &cnt) in &self.counts {
            // Deterministic random projection: each block's ±weight row
            // comes from an explicitly seeded generator, so the same
            // block projects identically in every run (PROJECTION_SEED).
            let mut rng =
                StdRng::seed_from_u64(PROJECTION_SEED ^ pc.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for slot in v.iter_mut() {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                *slot += sign * (cnt as f64) / total;
            }
        }
        self.counts.clear();
        self.instructions = 0;
        v
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// One selected simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPoint {
    /// Index of the representative interval.
    pub interval: usize,
    /// Intervals in this point's cluster (the exact integer numerator of
    /// `weight` — report aggregation uses this so deterministic bodies
    /// stay float-free).
    pub members: u64,
    /// Fraction of all intervals in its cluster.
    pub weight: f64,
}

/// Cluster interval BBVs with k-means++ and pick one representative per
/// cluster (the interval closest to the centroid), weighted by cluster
/// population.
///
/// # Panics
///
/// Panics when `vectors` is empty or `k` is zero.
pub fn simpoints(vectors: &[Vec<f64>], k: usize, seed: u64) -> Vec<SimPoint> {
    assert!(!vectors.is_empty(), "need at least one interval");
    assert!(k > 0, "need at least one cluster");
    let k = k.min(vectors.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ initialization.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(vectors[rng.gen_range(0..vectors.len())].clone());
    while centroids.len() < k {
        let d2: Vec<f64> = vectors
            .iter()
            .map(|v| {
                centroids
                    .iter()
                    .map(|c| dist2(v, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            // All points identical to some centroid: duplicate one.
            centroids.push(vectors[rng.gen_range(0..vectors.len())].clone());
            continue;
        }
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = 0;
        for (i, d) in d2.iter().enumerate() {
            pick -= d;
            if pick <= 0.0 {
                chosen = i;
                break;
            }
        }
        centroids.push(vectors[chosen].clone());
    }

    // Lloyd iterations.
    let mut assignment = vec![0usize; vectors.len()];
    for _ in 0..50 {
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(v, &centroids[a])
                        .partial_cmp(&dist2(v, &centroids[b]))
                        .expect("finite distances")
                })
                .expect("k > 0");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Recompute centroids.
        let dim = vectors[0].len();
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut ns = vec![0usize; centroids.len()];
        for (i, v) in vectors.iter().enumerate() {
            let c = assignment[i];
            ns[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(v) {
                *s += x;
            }
        }
        for (c, sum) in sums.into_iter().enumerate() {
            if ns[c] > 0 {
                centroids[c] = sum.into_iter().map(|x| x / ns[c] as f64).collect();
            }
        }
        if !changed {
            break;
        }
    }

    // Representative per non-empty cluster.
    let mut points = Vec::new();
    for (c, centroid) in centroids.iter().enumerate() {
        let members: Vec<usize> = (0..vectors.len())
            .filter(|&i| assignment[i] == c)
            .collect();
        if members.is_empty() {
            continue;
        }
        let rep = members
            .iter()
            .copied()
            .min_by(|&a, &b| {
                dist2(&vectors[a], centroid)
                    .partial_cmp(&dist2(&vectors[b], centroid))
                    .expect("finite")
            })
            .expect("non-empty");
        points.push(SimPoint {
            interval: rep,
            members: members.len() as u64,
            weight: members.len() as f64 / vectors.len() as f64,
        });
    }
    points.sort_by_key(|p| p.interval);
    points
}

/// Weighted-CPI estimation: combine per-simpoint measured CPIs by weight
/// (the paper's "weighted cycles per instruction for performance
/// validation").
///
/// # Panics
///
/// Panics if the inputs are empty or lengths differ.
pub fn weighted_cpi(cpis: &[f64], weights: &[f64]) -> f64 {
    assert_eq!(cpis.len(), weights.len());
    assert!(!cpis.is_empty());
    let wsum: f64 = weights.iter().sum();
    cpis.iter().zip(weights).map(|(c, w)| c * w).sum::<f64>() / wsum
}

/// Pure-integer weighted-CPI estimation: combine per-simpoint CPI×1000
/// values weighted by exact cluster populations
/// ([`SimPoint::members`]). Campaign reports aggregate with this form so
/// the deterministic body never carries a float — the result is
/// permutation-invariant because integer addition is associative.
///
/// # Panics
///
/// Panics if the inputs are empty, lengths differ, or every weight is
/// zero.
pub fn weighted_cpi_milli(cpi_milli: &[u64], members: &[u64]) -> u64 {
    assert_eq!(cpi_milli.len(), members.len());
    assert!(!cpi_milli.is_empty());
    let wsum: u64 = members.iter().sum();
    assert!(wsum > 0, "at least one cluster must have members");
    let num: u64 = cpi_milli
        .iter()
        .zip(members)
        .map(|(c, m)| c.saturating_mul(*m))
        .sum();
    num / wsum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bbv_normalization_and_reset() {
        let mut b = BbvCollector::new();
        b.record(0x1000, 10);
        b.record(0x2000, 30);
        assert_eq!(b.instructions(), 40);
        let v = b.finish();
        assert_eq!(v.len(), PROJECTED_DIM);
        let norm: f64 = v.iter().map(|x| x.abs()).sum();
        assert!(norm > 0.0);
        assert_eq!(b.instructions(), 0, "collector resets");
        // Scaling counts by a constant yields the same normalized vector.
        let mut b2 = BbvCollector::new();
        b2.record(0x1000, 100);
        b2.record(0x2000, 300);
        let v2 = b2.finish();
        for (a, b) in v.iter().zip(&v2) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_interval_yields_the_zero_vector() {
        let mut b = BbvCollector::new();
        let v = b.finish();
        assert_eq!(v, vec![0.0; PROJECTED_DIM], "no NaNs, no garbage");
        // An empty vector must be harmless downstream: clustering a mix
        // of empty and non-empty intervals stays NaN-free.
        let mut b2 = BbvCollector::new();
        b2.record(0x1000, 10);
        let pts = simpoints(&[v, b2.finish()], 2, 0);
        assert!(!pts.is_empty());
        for p in &pts {
            assert!(p.weight.is_finite());
        }
    }

    #[test]
    fn projection_is_pinned() {
        // The projection matrix is part of the stored-BBV format: this
        // vector must never change across releases, platforms, or runs
        // (see PROJECTION_SEED). Counts 1 + 3 of 4 give exact binary
        // fractions, so equality is exact.
        let mut b = BbvCollector::new();
        b.record(0x1000, 1);
        b.record(0x2000, 3);
        let v = b.finish();
        let mut b2 = BbvCollector::new();
        b2.record(0x1000, 1);
        b2.record(0x2000, 3);
        assert_eq!(v, b2.finish(), "same interval, same vector");
        for x in &v {
            assert!(
                [1.0, 0.5, -0.5, -1.0].contains(x),
                "slots are exact ±0.25 ± 0.75 sums: {v:?}"
            );
        }
        let pinned: [f64; PROJECTED_DIM] = PINNED_PROJECTION;
        assert_eq!(v.as_slice(), pinned.as_slice(), "got {v:?}");
    }

    /// The frozen projection of `{0x1000: 1, 0x2000: 3}` under
    /// `PROJECTION_SEED` (see `projection_is_pinned`).
    const PINNED_PROJECTION: [f64; PROJECTED_DIM] = [
        -0.5, 0.5, -0.5, -0.5, 0.5, -0.5, -0.5, -1.0, 1.0, -0.5, 0.5, 1.0, -1.0, -0.5, 0.5, 1.0,
        1.0, 1.0, -0.5, -0.5, 0.5, 0.5, -0.5, 1.0, -0.5, 1.0, -0.5, 0.5, 1.0, 1.0, 0.5, -1.0,
    ];

    fn synthetic_phases() -> Vec<Vec<f64>> {
        // Three clearly distinct program phases, 10 intervals each.
        let mut vecs = Vec::new();
        for phase in 0..3u64 {
            for rep in 0..10u64 {
                let mut b = BbvCollector::new();
                b.record(0x1000 + phase * 0x100, 100 + rep % 2);
                b.record(0x5000 + phase * 0x40, 10);
                vecs.push(b.finish());
            }
        }
        vecs
    }

    #[test]
    fn kmeans_recovers_phases() {
        let vecs = synthetic_phases();
        let pts = simpoints(&vecs, 3, 1);
        assert_eq!(pts.len(), 3);
        let total: f64 = pts.iter().map(|p| p.weight).sum();
        assert!((total - 1.0).abs() < 1e-9, "weights sum to 1");
        // Each representative comes from a distinct phase block.
        let phases: std::collections::HashSet<usize> =
            pts.iter().map(|p| p.interval / 10).collect();
        assert_eq!(phases.len(), 3, "{pts:?}");
        // Roughly equal weights.
        for p in &pts {
            assert!((p.weight - 1.0 / 3.0).abs() < 0.15, "{pts:?}");
        }
    }

    #[test]
    fn k_larger_than_population_is_clamped() {
        let vecs = synthetic_phases();
        let pts = simpoints(&vecs[..2], 10, 0);
        assert!(pts.len() <= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let vecs = synthetic_phases();
        assert_eq!(simpoints(&vecs, 3, 7), simpoints(&vecs, 3, 7));
    }

    #[test]
    fn weighted_cpi_milli_math() {
        // 3 intervals at CPI 1.000, 1 at CPI 2.000 → 1.250.
        assert_eq!(weighted_cpi_milli(&[1000, 2000], &[3, 1]), 1250);
        // Permutation invariance is exact in integer math.
        assert_eq!(
            weighted_cpi_milli(&[2000, 1000], &[1, 3]),
            weighted_cpi_milli(&[1000, 2000], &[3, 1])
        );
    }

    #[test]
    fn simpoint_members_are_the_weight_numerator() {
        let vecs = synthetic_phases();
        let pts = simpoints(&vecs, 3, 1);
        let total: u64 = pts.iter().map(|p| p.members).sum();
        assert_eq!(total, vecs.len() as u64, "clusters partition intervals");
        for p in &pts {
            assert!(
                (p.weight - p.members as f64 / vecs.len() as f64).abs() < 1e-12,
                "weight must be the members/total ratio: {p:?}"
            );
        }
    }

    #[test]
    fn weighted_cpi_math() {
        let cpi = weighted_cpi(&[1.0, 2.0], &[0.75, 0.25]);
        assert!((cpi - 1.25).abs() < 1e-12);
        // Unnormalized weights are normalized.
        let cpi = weighted_cpi(&[1.0, 2.0], &[3.0, 1.0]);
        assert!((cpi - 1.25).abs() < 1e-12);
    }
}
