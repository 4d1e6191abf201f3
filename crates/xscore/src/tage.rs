//! TAGE-SC conditional branch direction predictor.
//!
//! A 4-table TAGE with geometric history lengths plus a bimodal base
//! predictor and a small statistical corrector (SC), matching the
//! "4-table 16K-entry TAGE-SC" of paper §IV-A. The SC sums signed
//! per-history counters and overrides TAGE when confident.

/// Provider metadata returned with each prediction, needed for update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagePred {
    /// Predicted direction.
    pub taken: bool,
    /// Providing table (4 = bimodal base).
    pub provider: usize,
    /// Index used in the provider.
    pub index: usize,
    /// The alternate prediction (used for allocation decisions).
    pub alt_taken: bool,
    /// Provider counter was weak (|ctr| low) — drives PUBS confidence.
    pub weak: bool,
    /// Global history at prediction time (for update).
    pub ghist: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct TageEntry {
    tag: u16,
    ctr: i8, // -4..=3
    useful: u8,
}

/// The TAGE-SC predictor.
#[derive(Debug, Clone, PartialEq)]
pub struct TageSc {
    base: Vec<i8>, // bimodal 2-bit counters
    tables: [Vec<TageEntry>; 4],
    hist_lens: [u32; 4],
    entries: usize,
    sc: Vec<i8>, // statistical corrector counters
    sc_threshold: i32,
    tick: u64,
}

const BASE_BITS: usize = 12;

impl TageSc {
    /// Create a predictor with `entries` per tagged table.
    pub fn new(entries: usize) -> Self {
        let entries = entries.next_power_of_two();
        TageSc {
            base: vec![0; 1 << BASE_BITS],
            tables: std::array::from_fn(|_| vec![TageEntry::default(); entries]),
            hist_lens: [8, 16, 32, 64],
            entries,
            sc: vec![0; 4096],
            sc_threshold: 6,
            tick: 0,
        }
    }

    fn fold(hist: u64, len: u32, bits: u32) -> u64 {
        let mut h = hist & (u64::MAX >> (64 - len.min(64)));
        let mut f = 0u64;
        while h != 0 {
            f ^= h & ((1 << bits) - 1);
            h >>= bits;
        }
        f
    }

    fn index(&self, pc: u64, ghist: u64, table: usize) -> usize {
        let bits = self.entries.trailing_zeros();
        let folded = Self::fold(ghist, self.hist_lens[table], bits);
        ((pc >> 1) ^ (pc >> 5) ^ folded ^ ((table as u64) << 3)) as usize & (self.entries - 1)
    }

    fn tag(&self, pc: u64, ghist: u64, table: usize) -> u16 {
        let folded = Self::fold(ghist, self.hist_lens[table], 9);
        (((pc >> 1) ^ (pc >> 9) ^ (folded << 1)) & 0x1ff) as u16 | 0x200
    }

    fn base_index(&self, pc: u64) -> usize {
        ((pc >> 1) as usize) & ((1 << BASE_BITS) - 1)
    }

    fn sc_index(&self, pc: u64, ghist: u64) -> usize {
        (((pc >> 1) ^ ghist) as usize) & (self.sc.len() - 1)
    }

    /// Predict the direction of the branch at `pc` under global history
    /// `ghist`.
    pub fn predict(&self, pc: u64, ghist: u64) -> TagePred {
        let mut provider = 4usize;
        let mut index = self.base_index(pc);
        let mut taken = self.base[index] >= 0;
        let mut alt_taken = taken;
        let mut weak = self.base[index] == 0 || self.base[index] == -1;
        // Longest matching history wins.
        for t in (0..4).rev() {
            let i = self.index(pc, ghist, t);
            let e = &self.tables[t][i];
            if e.tag == self.tag(pc, ghist, t) {
                if provider == 4 {
                    provider = t;
                    index = i;
                    alt_taken = taken;
                    taken = e.ctr >= 0;
                    weak = e.ctr == 0 || e.ctr == -1;
                } else {
                    break;
                }
            }
        }
        // Statistical corrector: override a weak TAGE prediction when the
        // SC counter is confident in the other direction.
        let sc_ctr = self.sc[self.sc_index(pc, ghist)] as i32;
        if weak && sc_ctr.abs() >= self.sc_threshold {
            taken = sc_ctr >= 0;
        }
        TagePred {
            taken,
            provider,
            index,
            alt_taken,
            weak,
            ghist,
        }
    }

    /// Train on the resolved outcome.
    pub fn update(&mut self, pc: u64, pred: TagePred, taken: bool) {
        self.tick += 1;
        let ghist = pred.ghist;
        // Base predictor always trains.
        let bi = self.base_index(pc);
        self.base[bi] = bump(self.base[bi], taken, 1);
        // Provider trains.
        if pred.provider < 4 {
            let e = &mut self.tables[pred.provider][pred.index];
            e.ctr = bump(e.ctr, taken, 3);
            if pred.taken != pred.alt_taken {
                // Provider was decisive: adjust usefulness.
                if pred.taken == taken {
                    e.useful = (e.useful + 1).min(3);
                } else {
                    e.useful = e.useful.saturating_sub(1);
                }
            }
        }
        // SC trains on every outcome.
        let si = self.sc_index(pc, ghist);
        self.sc[si] = bump(self.sc[si], taken, 31);
        // Allocate a longer-history entry on a misprediction.
        if pred.taken != taken && pred.provider != 0 {
            let start = if pred.provider == 4 {
                0
            } else {
                0.max(pred.provider as i64 - 1) as usize
            };
            let mut allocated = false;
            for t in start..4 {
                if pred.provider < 4 && t >= pred.provider {
                    break;
                }
                let i = self.index(pc, ghist, t);
                if self.tables[t][i].useful == 0 {
                    self.tables[t][i] = TageEntry {
                        tag: self.tag(pc, ghist, t),
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated && self.tick.is_multiple_of(256) {
                // Periodically decay usefulness so allocation can proceed.
                for t in &mut self.tables {
                    for e in t.iter_mut() {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }
    }
}

#[inline]
fn bump(ctr: i8, up: bool, max: i8) -> i8 {
    if up {
        (ctr + 1).min(max)
    } else {
        (ctr - 1).max(-max - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(t: &mut TageSc, pc: u64, pattern: &[bool], reps: usize) -> f64 {
        let mut ghist = 0u64;
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..reps {
            for &taken in pattern {
                let p = t.predict(pc, ghist);
                if p.taken == taken {
                    correct += 1;
                }
                total += 1;
                t.update(pc, p, taken);
                ghist = (ghist << 1) | taken as u64;
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn learns_always_taken() {
        let mut t = TageSc::new(512);
        let acc = train(&mut t, 0x8000_0080, &[true], 200);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn learns_alternating_pattern() {
        let mut t = TageSc::new(512);
        // T N T N ... requires 1 bit of history — trivial for TAGE.
        let acc = train(&mut t, 0x8000_0100, &[true, false], 400);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn learns_long_period_pattern() {
        let mut t = TageSc::new(1024);
        // Loop branch: taken 19 times, not-taken once (period 20 needs
        // longer history tables).
        let mut pattern = vec![true; 19];
        pattern.push(false);
        let acc = train(&mut t, 0x8000_0200, &pattern, 300);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn distinguishes_branches() {
        let mut t = TageSc::new(512);
        let a = train(&mut t, 0x8000_0300, &[true], 100);
        let b = train(&mut t, 0x8000_0340, &[false], 100);
        assert!(a > 0.9 && b > 0.9);
    }

    #[test]
    fn weak_flag_reflects_confidence() {
        let mut t = TageSc::new(512);
        let pc = 0x8000_0400;
        // Untrained: weak.
        assert!(t.predict(pc, 0).weak);
        train(&mut t, pc, &[true], 100);
        assert!(!t.predict(pc, u64::MAX >> 1).weak || !t.predict(pc, 0).weak);
    }
}
