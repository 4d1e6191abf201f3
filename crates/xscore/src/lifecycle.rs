//! Per-instruction pipeline lifecycle tracing.
//!
//! Every in-flight uop carries a compact set of pure-integer cycle
//! stamps (fetch/decode/rename/dispatch/issue/execute/writeback) in its
//! ROB entry; when the uop leaves the machine — retired or squashed — a
//! [`Lifecycle`] record is finalized. Two consumers exist:
//!
//! * an **always-on ring buffer** ([`LifecycleRing`]) of the last
//!   [`LIFECYCLE_RING_CAP`] records, snapshotted into triage bundles on
//!   campaign failures so every diverged/timeout job ships a pipeline
//!   waterfall of its final window, and
//! * a **full-trace mode** (gated behind `RunKnobs::lifecycle`) that
//!   streams every record into ArchDB and can be exported as
//!   gem5-O3PipeView/Konata-compatible text ([`render_o3pipeview`]).
//!
//! An always-on [`LifecycleDigest`] (per-stage gap histograms,
//! squash-cause counts, dominant-stall attribution reusing the CPI-stack
//! category names) lives inside `PerfCounters` so the two observability
//! layers cross-check (see [`LifecycleDigest::cross_check`]).

use crate::perf::PerfCounters;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use uncore::{Hist, HIST_BUCKETS};

/// Capacity of the always-on per-core ring buffer (and therefore the
/// upper bound on the ring snapshot embedded in a triage bundle).
pub const LIFECYCLE_RING_CAP: usize = 64;

/// Why a uop was squashed instead of retiring.
///
/// The order is stable: [`LifecycleDigest::squash_causes`] is indexed by
/// `cause as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SquashCause {
    /// Flushed by an older mispredicted branch.
    Mispredict,
    /// Flushed by a memory-order violation detected at commit.
    MemOrderViolation,
    /// Flushed by an older serializing instruction (CSR/system/atomic).
    Serialize,
    /// Flushed by an older instruction taking an architectural exception
    /// (the excepting instruction itself is tagged this way too).
    Exception,
}

impl SquashCause {
    /// Stable display names, digest index order.
    pub const NAMES: [&'static str; 4] = [
        "mispredict",
        "mem_order_violation",
        "serialize",
        "exception",
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }
}

/// Per-uop pipeline stage stamps, recorded unconditionally (plain u64
/// stores on the default path). A stamp of 0 means "never reached".
///
/// In this model predecode *is* decode (so `decoded == fetched`) and
/// rename/dispatch happen in the same cycle (`dispatched == renamed`);
/// both pairs are kept distinct so the export format stays
/// O3PipeView-shaped and survives a future decoupled frontend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifeStamps {
    /// Cycle the instruction entered the instruction buffer.
    pub fetched: u64,
    /// Cycle the instruction was predecoded (== `fetched` today).
    pub decoded: u64,
    /// Cycle the uop was renamed.
    pub renamed: u64,
    /// Cycle the uop was dispatched to an issue queue (== `renamed`).
    pub dispatched: u64,
    /// Cycle of the (last) issue to a functional unit / LSU.
    pub issued: u64,
    /// Cycle execution produced the result.
    pub executed: u64,
    /// Cycle the result was written back (== `executed` today).
    pub writeback: u64,
    /// Number of LSU replays this uop suffered before completing.
    pub replays: u64,
}

/// A finalized lifecycle record: one uop's trip through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Lifecycle {
    /// Hart the uop executed on.
    pub hart: u64,
    /// ROB sequence number (global program order, gaps after flushes).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Raw instruction bits.
    pub inst: u32,
    /// Fused macro-op (counts as two architectural instructions).
    pub fused: bool,
    /// Memory operation (load/store/atomic) — selects the memory-stall
    /// bucket in dominant-gap attribution.
    pub mem: bool,
    /// Stage stamps.
    pub stamps: LifeStamps,
    /// Commit cycle (0 when squashed).
    pub committed: u64,
    /// Squash cycle (0 when retired).
    pub squashed_at: u64,
    /// Why the uop was squashed (`None` when retired).
    pub cause: Option<SquashCause>,
}

impl Lifecycle {
    /// True when the uop retired architecturally.
    pub fn retired(&self) -> bool {
        self.committed != 0
    }

    /// The cycle the record was finalized (commit or squash).
    pub fn end_cycle(&self) -> u64 {
        if self.retired() {
            self.committed
        } else {
            self.squashed_at
        }
    }

    /// What the core guarantees of a record and a file need not honour:
    /// the uop retired or was squashed, not both and not neither, and no
    /// stage was reached after that cycle.
    ///
    /// # Errors
    ///
    /// One line naming the field that breaks it.
    pub fn check(&self) -> Result<(), String> {
        let (s, end) = (&self.stamps, self.end_cycle());
        if self.retired() == (self.squashed_at != 0) {
            return Err(format!(
                "committed {} and squashed_at {}: exactly one must be set",
                self.committed, self.squashed_at
            ));
        }
        let stamps = [
            ("fetched", s.fetched),
            ("decoded", s.decoded),
            ("renamed", s.renamed),
            ("dispatched", s.dispatched),
            ("issued", s.issued),
            ("executed", s.executed),
            ("writeback", s.writeback),
        ];
        match stamps.iter().find(|(_, cycle)| *cycle > end) {
            Some((stage, cycle)) => Err(format!(
                "{stage} stamp {cycle} lies after the end cycle {end}"
            )),
            None => Ok(()),
        }
    }
}

/// Always-on bounded ring of the most recent finalized records.
#[derive(Debug, Clone, Default)]
pub struct LifecycleRing {
    buf: VecDeque<Lifecycle>,
    cap: usize,
}

impl LifecycleRing {
    /// A ring holding at most `cap` records.
    pub fn new(cap: usize) -> Self {
        LifecycleRing {
            buf: VecDeque::with_capacity(cap),
            cap,
        }
    }

    /// Append, evicting the oldest record when full.
    pub fn push(&mut self, rec: Lifecycle) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }

    /// Records currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<Lifecycle> {
        self.buf.iter().copied().collect()
    }
}

/// Number of power-of-two buckets per gap histogram (bucket 15 is
/// ">= 2^14 cycles"): a gap lands in its [`Hist::bucket_of`].
pub const GAP_BUCKETS: usize = HIST_BUCKETS;

/// Always-on, pure-integer summary of every finalized lifecycle record.
///
/// Lives inside `PerfCounters` so it rides the existing `PerfSnapshot`
/// plumbing into campaign reports (deterministic body). The
/// `dominant_stall` array reuses the CPI-stack component order
/// (`CpiStack::components`) so the two attribution layers can be checked
/// against each other.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifecycleDigest {
    /// Records finalized as retired.
    pub retired: u64,
    /// Records finalized as squashed.
    pub squashed: u64,
    /// Squashed records per [`SquashCause`] (index = `cause as usize`).
    pub squash_causes: [u64; 4],
    /// Total LSU replays observed across all uops.
    pub replays: u64,
    /// Fetch→rename gap histogram (frontend / ibuf wait).
    pub gap_fetch_rename: [u64; GAP_BUCKETS],
    /// Rename→issue gap histogram (issue-queue wait).
    pub gap_rename_issue: [u64; GAP_BUCKETS],
    /// Issue→writeback gap histogram (execution / memory latency).
    pub gap_issue_writeback: [u64; GAP_BUCKETS],
    /// Writeback→commit gap histogram (ROB wait).
    pub gap_writeback_commit: [u64; GAP_BUCKETS],
    /// Per retired uop, the CPI-stack category of its largest stage gap:
    /// fetch→rename ⇒ `frontend_starved`, rename→issue ⇒ `iq_full`,
    /// issue→writeback ⇒ `memory_stall` (memory ops) / `other`,
    /// writeback→commit ⇒ `serialization`; all gaps zero ⇒ `retired`.
    /// Indexed like `CpiStack::components()`.
    pub dominant_stall: [u64; 8],
}

/// `dominant_stall` index constants (CPI-stack component order).
const DS_RETIRED: usize = 0;
const DS_FRONTEND: usize = 1;
const DS_MEMORY: usize = 3;
const DS_IQ: usize = 5;
const DS_SERIALIZATION: usize = 6;
const DS_OTHER: usize = 7;

/// Stable display names for the `dominant_stall` slots.
pub const DOMINANT_STALL_NAMES: [&str; 8] = [
    "retired",
    "frontend_starved",
    "mispredict_recovery",
    "memory_stall",
    "rob_full",
    "iq_full",
    "serialization",
    "other",
];

impl LifecycleDigest {
    /// The digest of `records` alone, each folded as the core folds the
    /// record it finalizes (a squashed one with its own cause).
    pub fn of(records: &[Lifecycle]) -> Self {
        let mut d = Self::default();
        for r in records {
            if r.retired() {
                d.observe_retired(r);
            } else if let Some(cause) = r.cause {
                d.observe_squashed(r, cause);
            }
        }
        d
    }

    /// Fold a retired record into the digest.
    pub fn observe_retired(&mut self, rec: &Lifecycle) {
        self.retired += 1;
        self.replays += rec.stamps.replays;
        let s = &rec.stamps;
        let g_front = s.renamed.saturating_sub(s.fetched);
        let g_issue = s.issued.saturating_sub(s.dispatched);
        let g_exec = s.writeback.saturating_sub(s.issued);
        let g_commit = rec.committed.saturating_sub(s.writeback);
        self.gap_fetch_rename[Hist::bucket_of(g_front)] += 1;
        self.gap_rename_issue[Hist::bucket_of(g_issue)] += 1;
        self.gap_issue_writeback[Hist::bucket_of(g_exec)] += 1;
        self.gap_writeback_commit[Hist::bucket_of(g_commit)] += 1;
        // Largest gap wins; ties resolve to the earliest stage so the
        // attribution stays deterministic.
        let exec_slot = if rec.mem { DS_MEMORY } else { DS_OTHER };
        let gaps = [
            (g_front, DS_FRONTEND),
            (g_issue, DS_IQ),
            (g_exec, exec_slot),
            (g_commit, DS_SERIALIZATION),
        ];
        let (max_gap, slot) = gaps
            .iter()
            .copied()
            .max_by_key(|&(g, _)| g)
            .map(|best| {
                gaps.iter()
                    .copied()
                    .find(|&(g, _)| g == best.0)
                    .unwrap_or(best)
            })
            .unwrap();
        if max_gap == 0 {
            self.dominant_stall[DS_RETIRED] += 1;
        } else {
            self.dominant_stall[slot] += 1;
        }
    }

    /// Fold a squashed record into the digest.
    pub fn observe_squashed(&mut self, rec: &Lifecycle, cause: SquashCause) {
        self.squashed += 1;
        self.replays += rec.stamps.replays;
        self.squash_causes[cause as usize] += 1;
    }

    /// Check the digest against the independently-maintained CPI-stack
    /// layer of the same run. Returns the violated invariant on failure.
    ///
    /// Exact identities: every retired record carries exactly one
    /// dominant-stall tag, retired records equal committed uops, and
    /// squashed records sum over their causes. Liveness implications: a
    /// nonzero squash-cause count requires the matching flush counter to
    /// be live (the converse cannot hold — a flush may squash zero
    /// younger uops).
    pub fn cross_check(&self, perf: &PerfCounters) -> Result<(), String> {
        let ds_sum: u64 = self.dominant_stall.iter().sum();
        if ds_sum != self.retired {
            return Err(format!(
                "dominant-stall sum {ds_sum} != retired records {}",
                self.retired
            ));
        }
        if self.retired != perf.uops {
            return Err(format!(
                "retired lifecycle records {} != committed uops {}",
                self.retired, perf.uops
            ));
        }
        let cause_sum: u64 = self.squash_causes.iter().sum();
        if cause_sum != self.squashed {
            return Err(format!(
                "squash-cause sum {cause_sum} != squashed records {}",
                self.squashed
            ));
        }
        let flush_live = [
            perf.flushes_mispredict,
            perf.flushes_violation,
            perf.flushes_system,
            perf.exceptions,
        ];
        for (i, (&count, &live)) in self.squash_causes.iter().zip(flush_live.iter()).enumerate() {
            if count > 0 && live == 0 {
                return Err(format!(
                    "{} squashes recorded but the matching flush counter is zero",
                    SquashCause::NAMES[i]
                ));
            }
        }
        Ok(())
    }

    /// Merge another digest into this one (multi-core aggregation).
    pub fn merge(&mut self, other: &LifecycleDigest) {
        self.retired += other.retired;
        self.squashed += other.squashed;
        self.replays += other.replays;
        for i in 0..4 {
            self.squash_causes[i] += other.squash_causes[i];
        }
        for i in 0..GAP_BUCKETS {
            self.gap_fetch_rename[i] += other.gap_fetch_rename[i];
            self.gap_rename_issue[i] += other.gap_rename_issue[i];
            self.gap_issue_writeback[i] += other.gap_issue_writeback[i];
            self.gap_writeback_commit[i] += other.gap_writeback_commit[i];
        }
        for i in 0..8 {
            self.dominant_stall[i] += other.dominant_stall[i];
        }
    }
}

fn render_gap_hist(out: &mut String, name: &str, hist: &[u64; GAP_BUCKETS]) {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        out.push_str(&format!("  {name:<22} (no samples)\n"));
        return;
    }
    out.push_str(&format!("  {name:<22} samples={total}\n"));
    let max = hist.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in hist.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat(((c * 40) / max).max(1) as usize);
        out.push_str(&format!(
            "    {:>12} {:>10} {bar}\n",
            Hist::bucket_label(i),
            c
        ));
    }
}

/// Render the per-stage gap histograms, squash-cause counts, and
/// dominant-stall attribution of a digest as aligned ASCII.
pub fn render_gap_summary(d: &LifecycleDigest) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "lifecycle digest: retired={} squashed={} replays={}\n",
        d.retired, d.squashed, d.replays
    ));
    render_gap_hist(&mut s, "fetch->rename", &d.gap_fetch_rename);
    render_gap_hist(&mut s, "rename->issue", &d.gap_rename_issue);
    render_gap_hist(&mut s, "issue->writeback", &d.gap_issue_writeback);
    render_gap_hist(&mut s, "writeback->commit", &d.gap_writeback_commit);
    s.push_str("  squash causes\n");
    for (i, &c) in d.squash_causes.iter().enumerate() {
        if c > 0 {
            s.push_str(&format!("    {:<22} {c}\n", SquashCause::NAMES[i]));
        }
    }
    s.push_str("  dominant stall (per retired uop, CPI-stack categories)\n");
    for (i, &c) in d.dominant_stall.iter().enumerate() {
        if c > 0 {
            s.push_str(&format!("    {:<22} {c}\n", DOMINANT_STALL_NAMES[i]));
        }
    }
    s
}

const WATERFALL_COLS: usize = 48;

/// Render records as an ASCII waterfall: one row per uop with its stage
/// stamps and a lane scaled onto the window's cycle range
/// (`F`etch, `R`ename, `I`ssue, `W`riteback, `C`ommit / `x` squash).
pub fn render_waterfall(records: &[Lifecycle]) -> String {
    let mut s = String::new();
    if records.is_empty() {
        s.push_str("(no lifecycle records)\n");
        return s;
    }
    let lo = records
        .iter()
        .map(|r| {
            if r.stamps.fetched != 0 {
                r.stamps.fetched
            } else {
                r.stamps.renamed
            }
        })
        .filter(|&c| c != 0)
        .min()
        .unwrap_or(1);
    let hi = records
        .iter()
        .map(|r| r.end_cycle())
        .max()
        .unwrap_or(lo)
        .max(lo.saturating_add(1));
    let span = (hi - lo).max(1) as u128;
    // Clamped into the window and scaled in 128 bits: a column of the
    // lane whatever the stamp (a record that fails `Lifecycle::check` may
    // carry one past `hi`).
    let col = |c: u64| -> Option<usize> {
        let offset = (c.clamp(lo, hi) - lo) as u128 * (WATERFALL_COLS as u128 - 1);
        (c != 0).then(|| (offset / span) as usize)
    };
    s.push_str(&format!(
        "waterfall: {} records, cycles {lo}..{hi}\n",
        records.len()
    ));
    s.push_str(&format!(
        "{:>10} {:>18} {:>8} {:>8} {:>8} {:>8} {:>8}  lane\n",
        "seq", "pc", "fetch", "rename", "issue", "wb", "end"
    ));
    for r in records {
        let mut lane = vec![b' '; WATERFALL_COLS];
        let mut mark = |c: u64, ch: u8| {
            if let Some(i) = col(c) {
                lane[i] = ch;
            }
        };
        // Later stages overwrite earlier ones on collision.
        mark(r.stamps.fetched, b'F');
        mark(r.stamps.renamed, b'R');
        mark(r.stamps.issued, b'I');
        mark(r.stamps.writeback, b'W');
        if r.retired() {
            mark(r.committed, b'C');
        } else {
            mark(r.squashed_at, b'x');
        }
        let end = if r.retired() {
            format!("C@{}", r.committed)
        } else {
            format!(
                "x@{} {}",
                r.squashed_at,
                r.cause.map(|c| c.name()).unwrap_or("?")
            )
        };
        s.push_str(&format!(
            "{:>10} {:>#18x} {:>8} {:>8} {:>8} {:>8} {:>8}  |{}|\n",
            r.seq,
            r.pc,
            r.stamps.fetched,
            r.stamps.renamed,
            r.stamps.issued,
            r.stamps.writeback,
            end,
            String::from_utf8_lossy(&lane)
        ));
    }
    s
}

/// Export records as gem5-O3PipeView text (Konata-compatible): one
/// `fetch` line carrying pc/seq, one line per later stage, and a
/// `retire` line whose tick is 0 for squashed uops.
pub fn render_o3pipeview(records: &[Lifecycle]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&format!(
            "O3PipeView:fetch:{}:0x{:016x}:0:{}:inst_{:08x}\n",
            r.stamps.fetched, r.pc, r.seq, r.inst
        ));
        s.push_str(&format!("O3PipeView:decode:{}\n", r.stamps.decoded));
        s.push_str(&format!("O3PipeView:rename:{}\n", r.stamps.renamed));
        s.push_str(&format!("O3PipeView:dispatch:{}\n", r.stamps.dispatched));
        s.push_str(&format!("O3PipeView:issue:{}\n", r.stamps.issued));
        s.push_str(&format!("O3PipeView:complete:{}\n", r.stamps.writeback));
        s.push_str(&format!("O3PipeView:retire:{}:store:0\n", r.committed));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, fetched: u64, committed: u64) -> Lifecycle {
        Lifecycle {
            hart: 0,
            seq,
            pc: 0x8000_0000 + seq * 4,
            inst: 0x13,
            fused: false,
            mem: false,
            stamps: LifeStamps {
                fetched,
                decoded: fetched,
                renamed: fetched + 2,
                dispatched: fetched + 2,
                issued: fetched + 3,
                executed: fetched + 4,
                writeback: fetched + 4,
                replays: 0,
            },
            committed,
            squashed_at: 0,
            cause: None,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = LifecycleRing::new(3);
        for i in 0..5 {
            ring.push(rec(i, 10 + i, 20 + i));
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].seq, 2);
        assert_eq!(snap[2].seq, 4);
    }

    #[test]
    fn digest_counts_and_cross_check() {
        let mut d = LifecycleDigest::default();
        let r = rec(1, 100, 110);
        d.observe_retired(&r);
        let mut sq = rec(2, 101, 0);
        sq.squashed_at = 105;
        sq.cause = Some(SquashCause::Mispredict);
        d.observe_squashed(&sq, SquashCause::Mispredict);
        assert_eq!(d.retired, 1);
        assert_eq!(d.squashed, 1);
        assert_eq!(d.squash_causes[SquashCause::Mispredict as usize], 1);
        assert_eq!(d.dominant_stall.iter().sum::<u64>(), 1);
        // writeback->commit gap (6) dominates -> serialization slot.
        assert_eq!(d.dominant_stall[DS_SERIALIZATION], 1);

        let mut perf = PerfCounters {
            uops: 1,
            flushes_mispredict: 1,
            ..Default::default()
        };
        assert!(d.cross_check(&perf).is_ok());
        perf.flushes_mispredict = 0;
        assert!(
            d.cross_check(&perf).is_err(),
            "dead flush counter must fail"
        );
        perf.flushes_mispredict = 1;
        perf.uops = 2;
        assert!(d.cross_check(&perf).is_err(), "uops mismatch must fail");
    }

    #[test]
    fn digest_merge_adds() {
        let mut a = LifecycleDigest::default();
        let mut b = LifecycleDigest::default();
        a.observe_retired(&rec(1, 10, 20));
        b.observe_retired(&rec(2, 30, 40));
        let mut sq = rec(3, 31, 0);
        sq.squashed_at = 33;
        b.observe_squashed(&sq, SquashCause::Exception);
        a.merge(&b);
        assert_eq!(a.retired, 2);
        assert_eq!(a.squashed, 1);
        assert_eq!(a.squash_causes[SquashCause::Exception as usize], 1);
    }

    #[test]
    fn mem_ops_attribute_to_memory_stall() {
        let mut d = LifecycleDigest::default();
        let mut r = rec(1, 100, 0);
        r.mem = true;
        r.stamps.issued = 103;
        r.stamps.writeback = 150; // huge execution gap
        r.committed = 151;
        d.observe_retired(&r);
        assert_eq!(d.dominant_stall[DS_MEMORY], 1);
    }

    #[test]
    fn renders_are_nonempty_and_deterministic() {
        let records = vec![rec(1, 100, 110), {
            let mut r = rec(2, 101, 0);
            r.squashed_at = 104;
            r.cause = Some(SquashCause::Serialize);
            r
        }];
        let w1 = render_waterfall(&records);
        let w2 = render_waterfall(&records);
        assert_eq!(w1, w2);
        assert!(w1.contains("2 records"));
        assert!(w1.contains("serialize"));
        let o3 = render_o3pipeview(&records);
        assert!(o3.contains("O3PipeView:fetch:100:"));
        assert!(o3.contains("O3PipeView:retire:110:store:0"));
        assert!(
            o3.contains("O3PipeView:retire:0:store:0"),
            "squashed -> retire tick 0"
        );
        let mut d = LifecycleDigest::default();
        d.observe_retired(&records[0]);
        let g = render_gap_summary(&d);
        assert!(g.contains("retired=1"));
        assert!(g.contains("fetch->rename"));
    }

    #[test]
    fn empty_waterfall_renders() {
        assert!(render_waterfall(&[]).contains("no lifecycle records"));
    }

    #[test]
    fn a_stamp_after_the_end_is_refused_and_still_renders_inside_the_lane() {
        assert_eq!(rec(1, 100, 110).check(), Ok(()));
        for stamp in [5_000, u64::MAX] {
            let mut r = rec(1, 100, 110);
            r.stamps.issued = stamp;
            assert!(r.check().unwrap_err().contains("issued stamp"));
            let lane_len = |line: &str| line.split('|').nth(1).map(str::len);
            let lanes = render_waterfall(&[rec(0, 90, 95), r]);
            assert!(
                lanes
                    .lines()
                    .skip(2)
                    .all(|l| lane_len(l) == Some(WATERFALL_COLS)),
                "{lanes}"
            );
        }
        let mut both = rec(1, 100, 110);
        both.squashed_at = 105;
        assert!(both.check().unwrap_err().contains("exactly one"));
    }
}
