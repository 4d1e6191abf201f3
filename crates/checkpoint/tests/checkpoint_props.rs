//! Property tests for the checkpoint format and the SimPoint pipeline
//! (ISSUE satellite): the byte format round-trips arbitrary
//! torture-derived architectural states and turns every truncated,
//! flipped, spliced or lying blob into an error or into a checkpoint
//! that writes the same bytes back, the blob hash is pinned and tells
//! single-bit neighbours apart, clustering is a pure function
//! of its inputs with exactly partitioned weights, integer weighted-CPI
//! aggregation is permutation-invariant, and the BBV collector tracks
//! interval boundaries exactly.

use checkpoint::{
    blob_hash, simpoints, weighted_cpi, weighted_cpi_milli, BbvCollector, Checkpoint,
};
use nemu::hart::{self, Hart};
use proptest::prelude::*;
use workloads::{TortureConfig, TortureProgram};

/// Build a checkpoint by stepping a NEMU hart `steps` instructions into
/// a torture program — a state with populated GPRs/FPRs/CSRs and a live
/// memory image, the same shape the generator produces.
fn torture_checkpoint(seed: u64, steps: u64) -> Checkpoint {
    let cfg = TortureConfig {
        body_len: 40,
        iterations: 4,
        ..Default::default()
    };
    let program = TortureProgram::generate(seed, &cfg).emit();
    let mut memory = riscv_isa::mem::SparseMemory::new();
    program.load_into(&mut memory);
    let mut hart = Hart::new(program.entry, 0);
    let mut executed = 0;
    for _ in 0..steps {
        if hart.is_halted() {
            break;
        }
        hart::step(&mut hart, &mut memory);
        executed += 1;
    }
    Checkpoint {
        state: hart.state.clone(),
        memory,
        instret: executed,
        weight: 0.5,
        members: 3,
        total_intervals: 6,
        interval: (seed % 11) as usize,
    }
}

/// Where the memory image starts in a blob: behind the length prefix
/// and the header it counts.
fn image_offset(blob: &[u8]) -> usize {
    8 + u64::from_le_bytes(blob[..8].try_into().unwrap()) as usize
}

/// What `try_from_bytes` owes a blob damaged from byte `at` on: never a
/// panic, and — unless the damage is inside the JSON header — an error or
/// a checkpoint that serializes to exactly these bytes. The header is
/// exempt because JSON spells one value many ways (`7`, `07`, ` 7`,
/// `7e0`): a flipped digit can leave a header that parses and is written
/// back differently. Re-serializing every parsed header to rule that out
/// costs 6.5 µs on a 15 µs parse, and nothing needs it — the cache checks
/// `blob_hash` of the file's bytes before it parses them.
fn err_or_canonical(bytes: &[u8], at: usize) -> bool {
    match Checkpoint::try_from_bytes(bytes) {
        Ok(c) => (8..image_offset(bytes)).contains(&at) || c.to_bytes() == bytes,
        Err(_) => true,
    }
}

/// A file cut at any length is an error; a file with any one byte
/// damaged is an error or canonical (see [`err_or_canonical`]). Every
/// position of one blob, not a sample: the slice index that used to
/// panic here sat behind the header, where a sampled cut never landed.
#[test]
fn every_cut_and_every_damaged_byte_is_an_error_or_canonical() {
    let blob = torture_checkpoint(7, 200).to_bytes();
    for cut in 0..blob.len() {
        assert!(Checkpoint::try_from_bytes(&blob[..cut]).is_err(), "cut at {cut}");
    }
    let mut damaged = blob.clone();
    for at in 0..blob.len() {
        damaged[at] ^= 1 << (at % 8);
        assert!(err_or_canonical(&damaged, at), "bit {} of byte {at} flipped", at % 8);
        damaged[at] = blob[at];
    }
    let mut longer = blob.clone();
    longer.push(0);
    assert!(Checkpoint::try_from_bytes(&longer).is_err(), "a trailing byte");
}

/// A small random BBV interval set built through the real collector.
fn bbv_set(blocks: &[(u64, u64)], intervals: usize) -> Vec<Vec<f64>> {
    let mut out = Vec::new();
    let mut c = BbvCollector::new();
    for i in 0..intervals {
        for (j, &(pc, len)) in blocks.iter().enumerate() {
            // Vary which blocks run per interval so phases exist.
            if (i + j) % 3 != 0 {
                c.record(0x8000_0000 + pc * 4, len.max(1));
            }
        }
        out.push(c.finish());
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `to_bytes`/`try_from_bytes` round-trip torture-derived states
    /// bit-exactly and the canonical re-serialization is byte-identical
    /// (so a blob read back from disk hashes to the name it was stored
    /// under).
    #[test]
    fn byte_format_roundtrips_torture_states(seed in 0u64..50_000, steps in 1u64..400) {
        let c = torture_checkpoint(seed, steps);
        let blob = c.to_bytes();
        let back = Checkpoint::try_from_bytes(&blob).expect("round-trip parses");
        prop_assert_eq!(&back.state, &c.state);
        prop_assert_eq!(back.instret, c.instret);
        prop_assert_eq!(back.members, c.members);
        prop_assert_eq!(back.total_intervals, c.total_intervals);
        prop_assert_eq!(back.interval, c.interval);
        prop_assert_eq!(back.to_bytes(), &blob[..], "re-serialization must be canonical");
        prop_assert_eq!(back.content_hash(), blob_hash(&blob));
        let mut reused = vec![0xee; 7];
        back.to_bytes_into(&mut reused);
        prop_assert_eq!(reused, blob, "a reused buffer holds this blob and nothing else");
    }

    /// Two blobs spliced at any offset, or a blob lying about how many
    /// pages follow, is an error or parses to a checkpoint that
    /// serializes to exactly those bytes — never a panic, never an
    /// allocation sized by the lie.
    #[test]
    fn spliced_and_lying_blobs_are_errors_or_canonical(
        seed in 0u64..50_000,
        steps in 1u64..400,
        at in any::<u64>(),
        lie in any::<u64>(),
    ) {
        let blob = torture_checkpoint(seed, steps).to_bytes();
        let other = torture_checkpoint(seed + 1, steps + 17).to_bytes();
        let at = (at % blob.len().min(other.len()) as u64) as usize;
        for (head, tail) in [(&blob, &other), (&other, &blob)] {
            let spliced = [&head[..at], &tail[at..]].concat();
            prop_assert!(err_or_canonical(&spliced, at), "spliced at {}", at);
        }
        let image = image_offset(&blob);
        let pages = u64::from_le_bytes(blob[image..][..8].try_into().unwrap());
        // (The third is the smallest count whose byte size overflows.)
        let overflowing = u64::MAX / (8 + riscv_isa::mem::PAGE_SIZE) + 1;
        for count in [lie, u64::MAX, overflowing, pages + 1, pages - 1, 0] {
            let mut lying = blob.clone();
            lying[image..][..8].copy_from_slice(&count.to_le_bytes());
            let parsed = Checkpoint::try_from_bytes(&lying);
            prop_assert!(count == pages || parsed.is_err(), "page count {}", count);
        }
    }

    /// Clustering is a pure function of `(vectors, k, seed)`; cluster
    /// populations partition the intervals exactly (Σ members == total,
    /// Σ weight == 1) and every representative indexes a real interval.
    #[test]
    fn simpoints_are_deterministic_and_partition(
        blocks in prop::collection::vec((0u64..64, 1u64..50), 2..8),
        intervals in 2usize..20,
        k in 1usize..6,
        seed in 0u64..1_000,
    ) {
        let vecs = bbv_set(&blocks, intervals);
        let pts = simpoints(&vecs, k, seed);
        prop_assert_eq!(&pts, &simpoints(&vecs, k, seed), "same inputs, same points");
        prop_assert!(!pts.is_empty() && pts.len() <= k.min(intervals));
        let members: u64 = pts.iter().map(|p| p.members).sum();
        prop_assert_eq!(members, intervals as u64, "clusters must partition intervals");
        let wsum: f64 = pts.iter().map(|p| p.weight).sum();
        prop_assert!((wsum - 1.0).abs() < 1e-9, "weights sum to 1, got {}", wsum);
        for p in &pts {
            prop_assert!(p.interval < intervals);
            prop_assert!(p.members > 0);
        }
    }

    /// Integer weighted-CPI aggregation is exactly permutation-invariant
    /// (integer addition is associative), bounded by the input range,
    /// and consistent with the float form to within rounding.
    #[test]
    fn weighted_cpi_milli_is_permutation_invariant(
        pairs in prop::collection::vec((100u64..5_000, 1u64..50), 1..12),
        rot in 0usize..12,
    ) {
        let cpis: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let members: Vec<u64> = pairs.iter().map(|p| p.1).collect();
        let base = weighted_cpi_milli(&cpis, &members);
        // Any rotation and the full reversal agree exactly.
        let r = rot % pairs.len();
        let mut rc = cpis.clone();
        rc.rotate_left(r);
        let mut rm = members.clone();
        rm.rotate_left(r);
        prop_assert_eq!(base, weighted_cpi_milli(&rc, &rm));
        let rev_c: Vec<u64> = cpis.iter().rev().copied().collect();
        let rev_m: Vec<u64> = members.iter().rev().copied().collect();
        prop_assert_eq!(base, weighted_cpi_milli(&rev_c, &rev_m));
        // Bounded by the extremes of its inputs.
        let lo = *cpis.iter().min().unwrap();
        let hi = *cpis.iter().max().unwrap();
        prop_assert!(base >= lo.saturating_sub(1) && base <= hi);
        // Agrees with the float estimator to within integer rounding.
        let fc: Vec<f64> = cpis.iter().map(|&c| c as f64 / 1000.0).collect();
        let fw: Vec<f64> = members.iter().map(|&m| m as f64).collect();
        let f = weighted_cpi(&fc, &fw) * 1000.0;
        prop_assert!((base as f64 - f).abs() <= 1.0, "milli {} vs float {}", base, f);
    }

    /// The collector tracks interval boundaries exactly: the running
    /// instruction count is the exact sum of recorded lengths, `finish`
    /// resets it to zero, and a finished interval leaks nothing into the
    /// next one (the next vector equals a fresh collector's).
    #[test]
    fn bbv_collector_interval_boundaries_are_exact(
        first in prop::collection::vec((0u64..256, 1u64..100), 1..10),
        second in prop::collection::vec((0u64..256, 1u64..100), 1..10),
    ) {
        let mut c = BbvCollector::new();
        let mut total = 0;
        for &(pc, len) in &first {
            c.record(0x8000_0000 + pc * 2, len);
            total += len;
        }
        prop_assert_eq!(c.instructions(), total, "exact instruction accounting");
        let v1 = c.finish();
        prop_assert_eq!(c.instructions(), 0, "finish resets the boundary");
        prop_assert_eq!(v1.len(), checkpoint::PROJECTED_DIM);
        // Second interval through the same collector vs. a fresh one.
        for &(pc, len) in &second {
            c.record(0x9000_0000 + pc * 2, len);
        }
        let v2 = c.finish();
        let mut fresh = BbvCollector::new();
        for &(pc, len) in &second {
            fresh.record(0x9000_0000 + pc * 2, len);
        }
        prop_assert_eq!(v2, fresh.finish(), "no leakage across a boundary");
    }
}

/// 10 KiB that no two positions of which repeat with a short period.
fn patterned_buffer() -> Vec<u8> {
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    (0..10 * 1024)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

/// The cache key cannot drift silently: a change to `blob_hash` changes
/// these values and must come with a new `INDEX_FORMAT` in
/// `campaign::sample`, or old directories are read under new names.
#[test]
fn blob_hash_is_pinned() {
    assert_eq!(blob_hash(b""), "042613bd4651029e");
    assert_eq!(blob_hash(b"MINJIE checkpoint blob"), "3e522bc35f724e7e");
    assert_eq!(blob_hash(&patterned_buffer()), "f296db5d73f044a5");
}

#[test]
fn blob_hash_tells_neighbours_apart() {
    let buf = patterned_buffer();
    let mut seen = std::collections::HashSet::new();
    assert!(seen.insert(blob_hash(&buf)));
    let mut flipped = buf.clone();
    for i in 0..buf.len() {
        for bit in 0..8 {
            flipped[i] ^= 1 << bit;
            assert!(seen.insert(blob_hash(&flipped)), "bit {bit} of byte {i}");
            flipped[i] ^= 1 << bit;
        }
    }
    for cut in 0..buf.len() {
        assert!(seen.insert(blob_hash(&buf[..cut])), "cut at {cut}");
    }
    let mut longer = buf.clone();
    longer.push(0);
    for byte in 0..=255 {
        *longer.last_mut().unwrap() = byte;
        assert!(seen.insert(blob_hash(&longer)), "{byte:#x} appended");
    }
}
