//! The paper's reproduced results as one tracked file: [`paper`] is the
//! typed, deterministic body of `BENCH_paper.json`, in the library so the
//! harness that writes the file (`benches/paper.rs`) and
//! `tests/golden_bench.rs` that reads it share one definition. No speed is
//! recorded here: the harness prints them, `benchmark/` tracks them.

pub mod paper;

/// Geometric mean of the ratios `num / den`, times `scale`, rounded to
/// the nearest integer — the one place a float is computed on the way to
/// the tracked body. No ratios are the empty product, 1.
pub fn geomean(ratios: &[(u64, u64)], scale: u64) -> u64 {
    let ln_sum: f64 = ratios.iter().map(|&(num, den)| (num as f64 / den as f64).ln()).sum();
    let mean_ln = ln_sum / ratios.len().max(1) as f64;
    (mean_ln.exp() * scale as f64).round() as u64
}

#[cfg(test)]
#[test]
fn the_mean_is_geometric_scaled_and_rounded() {
    assert_eq!(geomean(&[(4, 1)], 1000), 4000);
    assert_eq!(geomean(&[(1, 1), (4, 1)], 1000), 2000);
    assert_eq!(geomean(&[(1, 3)], 1000), 333);
    assert_eq!(geomean(&[], 1000), 1000);
    // A hostile body's zeros are a number, not a panic.
    assert_eq!(geomean(&[(0, 0), (1, 0)], 1000), 0);
}
