//! Property tests for the coverage-guided fuzzing layer (ISSUE
//! satellite): mutation is a pure function of `(recipe, mutation_seed)`,
//! and every mutant of a valid recipe still assembles to a fully
//! decodable program.

use campaign::fuzz::mix;
use campaign::{fresh_recipe, mutate_recipe, Recipe, WorkloadSource};
use proptest::prelude::*;
use riscv_isa::{decode16, decode32, Op};

/// Walk a program image as an instruction stream and fail on the first
/// word the decoder rejects. Torture programs are pure code (no data
/// pools), so every halfword boundary must start a valid instruction.
/// (`build` itself asserts that a kept-mask matches the regenerated
/// body, so a drifted mask fails here too.)
fn assert_decodable(recipe: &Recipe) {
    let p = recipe.source.build();
    let bytes = &p.bytes;
    let mut i = 0;
    while i < bytes.len() {
        let lo = u16::from_le_bytes([bytes[i], bytes[i + 1]]);
        if lo & 3 == 3 {
            let w = u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
            let d = decode32(w);
            assert_ne!(d.op, Op::Illegal, "illegal 32-bit word {w:#010x} at +{i:#x}");
            i += 4;
        } else {
            let d = decode16(lo);
            assert_ne!(d.op, Op::Illegal, "illegal 16-bit word {lo:#06x} at +{i:#x}");
            i += 2;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `fresh_recipe` and `mutate_recipe` are pure: the same inputs give
    /// the same recipe, and sibling mutation seeds diversify.
    #[test]
    fn mutation_is_deterministic(seed in 0u64..1_000_000, mseed in 0u64..1_000_000) {
        let r = fresh_recipe(seed, "small-nh");
        prop_assert_eq!(&r, &fresh_recipe(seed, "small-nh"));
        let m1 = mutate_recipe(&r, mseed);
        let m2 = mutate_recipe(&r, mseed);
        prop_assert_eq!(&m1, &m2);
        prop_assert_eq!(&m1.config, &r.config, "mutation must not change the preset");
        // The seed-mixing function itself is pure and slot-sensitive.
        prop_assert_eq!(mix(seed, 3, 7), mix(seed, 3, 7));
        prop_assert_ne!(mix(seed, 3, 7), mix(seed, 3, 8));
    }

    /// Every link of a mutation chain yields a decodable program: knob
    /// clamping and mask regeneration keep mutants structurally valid
    /// no matter how far they drift from the fresh recipe.
    #[test]
    fn mutation_chains_stay_decodable(seed in 0u64..100_000) {
        let mut r = fresh_recipe(seed, "small-nh");
        assert_decodable(&r);
        for step in 0..12u64 {
            r = mutate_recipe(&r, mix(seed, step, 0));
            let WorkloadSource::Torture { cfg, .. } = &r.source else {
                panic!("torture mutations stay torture: {r:?}");
            };
            prop_assert!(cfg.body_len >= 8 && cfg.body_len <= 256);
            prop_assert!(cfg.iterations >= 1 && cfg.iterations <= 1000);
            assert_decodable(&r);
        }
    }
}
