//! Architectural checkpoints and SimPoint sampling — the MINJIE
//! performance-evaluation workflow of paper §III-D3.
//!
//! - [`format`](mod@format): the ISA-level checkpoint format of Fig. 9, including a
//!   restore loader that uses only basic RV64 privilege instructions (no
//!   external debug mode),
//! - [`simpoint`]: basic-block-vector profiling and k-means++ clustering,
//! - [`generate`]: NEMU-driven checkpoint generation.
//!
//! The intended flow (reproduced end to end by `campaign --sample` and
//! the `paper` bench's Fig. 14 section): profile a workload with NEMU, cluster its
//! intervals, simulate only the representative checkpoints on the cycle
//! model with warm-up, and report the weighted CPI.

pub mod format;
pub mod generate;
pub mod simpoint;

pub use format::{blob_hash, Checkpoint, LOADER_BASE};
pub use generate::{
    checkpoint_at_interval, generate_checkpoints, generate_checkpoints_with_ref, CheckpointSet,
    CLUSTER_SEED,
};
pub use simpoint::{
    simpoints, weighted_cpi, weighted_cpi_milli, BbvCollector, SimPoint, PROJECTED_DIM,
};
