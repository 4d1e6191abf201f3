//! Benchmark harnesses for the MINJIE/XiangShan reproduction.
//!
//! This crate exists for its `benches/` directory: one harness per paper
//! table or figure (see README.md and EXPERIMENTS.md). The library hosts
//! shared helpers plus the [`fig8`] module: the typed, deterministic body
//! of the tracked `BENCH_fig8.json`, kept in the library so the
//! `fig8_interpreters` harness that writes the file and
//! `tests/golden_bench.rs` that reads it share one definition. No speed
//! is recorded here; speeds over time live under `benchmark/`.

pub mod fig8;

/// Geometric mean of a non-empty slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of an empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
