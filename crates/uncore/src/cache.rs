//! A coherent, inclusive, set-associative cache level with MSHR-tracked
//! transactions.
//!
//! The same structure instantiates L1I, L1D, private L2, and the shared
//! L3: parents keep an in-line directory of child permissions and
//! serialize transactions per line, clients grow permissions with
//! Acquire/Grant and shrink with Probe/ProbeAck — the protocol of
//! [`crate::msg`].
//!
//! The transaction engine says each protocol step once: `serve` starts an
//! acquire-type transaction (probe the children, else acquire from the
//! parent, else grant or complete), `install_or_evict` places a granted
//! line or evicts a victim first, `probe_children` probes every child
//! above a cap, and `txn_epilogue` serves what waited on a line when a
//! transaction on it retires. The order in which they push messages and
//! completions, and bump counters, is behaviour (DESIGN.md "`uncore`
//! event order").
//!
//! The §IV-C case-study bug ("L2 MSHR does not handle the overlapping of
//! Probe and GrantData correctly") is available as a fault injection via
//! [`CacheConfig::inject_probe_grant_race`].

use crate::msg::{
    line_of, AccessKind, Completion, CoreReq, LineData, MsgKind, Node, Perm, LINE_SIZE,
};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Static configuration of one cache level.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Display name ("l1d0", "l3", ...).
    pub name: String,
    /// Capacity in bytes.
    pub size: usize,
    /// Associativity.
    pub ways: usize,
    /// Cycles from request acceptance to response for a hit.
    pub hit_latency: u64,
    /// Maximum concurrently outstanding core-side misses (L1 only).
    pub mshrs: usize,
    /// Inject the Probe/GrantData overlap race of paper §IV-C.
    pub inject_probe_grant_race: bool,
}

impl CacheConfig {
    /// A convenience constructor.
    pub fn new(name: &str, size: usize, ways: usize, hit_latency: u64, mshrs: usize) -> Self {
        CacheConfig {
            name: name.to_string(),
            size,
            ways,
            hit_latency,
            mshrs,
            inject_probe_grant_race: false,
        }
    }

    fn n_sets(&self) -> usize {
        (self.size / LINE_SIZE as usize / self.ways).max(1)
    }
}

/// Aggregate statistics of one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Requests satisfied locally.
    pub hits: u64,
    /// Requests that required the parent.
    pub misses: u64,
    /// Lines written back (dirty evictions/probe write-backs).
    pub writebacks: u64,
    /// Probes sent to children.
    pub probes_sent: u64,
    /// Probes received from the parent.
    pub probes_received: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Times the injected probe/grant race fired (fault injection only).
    pub injected_races: u64,
    /// Core requests rejected for structural reasons (MSHRs exhausted or
    /// the line busy under a non-covering miss).
    pub mshr_stalls: u64,
}

/// Target size of one copy-on-write chunk of the line arrays: a guest
/// page, the granule the guest memory itself is shared at.
const CHUNK_BYTES: usize = riscv_isa::mem::PAGE_SIZE as usize;

/// The cache line arrays: one flat `sets × ways` array of lines, split
/// into `Arc`'d chunks of whole sets, each roughly a guest page. Cloning
/// a cache (LightSSS snapshots) shares every chunk, and the next write
/// duplicates only the chunk it lands in — the same copy-on-write idea,
/// at the same granule, as the guest memory pages. Indexing by set yields
/// that set's ways.
///
/// The same mechanism materializes the arrays: a new array is one
/// all-invalid chunk that every full-size slot shares, and the first
/// write to a slot copies it exactly as a write after a snapshot would,
/// so booting and dropping a cache cost what the run touched, not the
/// cache's size.
#[derive(Debug, Clone)]
struct CowSets {
    chunks: Vec<Arc<[Line]>>,
    n_sets: usize,
    ways: usize,
    /// log2 of the sets per chunk (the last chunk may hold fewer).
    chunk_shift: u32,
}

impl CowSets {
    fn new(n_sets: usize, ways: usize) -> Self {
        // The largest power-of-two number of sets that fits the target.
        let fit = (CHUNK_BYTES / (ways * std::mem::size_of::<Line>())).max(1);
        let chunk_shift = fit.ilog2();
        let per_chunk = 1 << chunk_shift;
        let blank = |sets: usize| -> Arc<[Line]> {
            std::iter::repeat_n(Line::invalid(), sets * ways).collect()
        };
        // The pristine chunk belongs to this array alone: a process-wide
        // one would put every worker's boots, first writes and drops on
        // one reference-count line.
        let (full, tail) = (n_sets / per_chunk, n_sets % per_chunk);
        let mut chunks = vec![blank(per_chunk); full];
        if tail > 0 {
            chunks.push(blank(tail));
        }
        CowSets {
            chunks,
            n_sets,
            ways,
            chunk_shift,
        }
    }
    fn len(&self) -> usize {
        self.n_sets
    }
    /// Where set `i` lives: its chunk and its lines' range inside it.
    fn locate(&self, i: usize) -> (usize, std::ops::Range<usize>) {
        let first = (i & ((1 << self.chunk_shift) - 1)) * self.ways;
        (i >> self.chunk_shift, first..first + self.ways)
    }
    fn lines(&self) -> impl Iterator<Item = &Line> {
        self.chunks.iter().flat_map(|c| c.iter())
    }
}

impl Index<usize> for CowSets {
    type Output = [Line];
    fn index(&self, i: usize) -> &[Line] {
        let (chunk, ways) = self.locate(i);
        &self.chunks[chunk][ways]
    }
}

impl IndexMut<usize> for CowSets {
    fn index_mut(&mut self, i: usize) -> &mut [Line] {
        let (chunk, ways) = self.locate(i);
        &mut Arc::make_mut(&mut self.chunks[chunk])[ways]
    }
}

#[derive(Debug, Clone)]
struct Line {
    tag: u64, // full line address
    perm: Perm,
    dirty: bool,
    child_perm: [Perm; 2],
    data: LineData,
    installed_at: u64,
}

impl Line {
    fn invalid() -> Self {
        Line {
            tag: u64::MAX,
            perm: Perm::None,
            dirty: false,
            child_perm: [Perm::None; 2],
            data: [0; LINE_SIZE as usize],
            installed_at: 0,
        }
    }

    fn max_child_perm(&self) -> Perm {
        self.child_perm[0].max(self.child_perm[1])
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Requester {
    /// A child cache acquiring permission.
    Child {
        slot: usize,
        need: Perm,
    },
    /// Core-side requests (L1 only); all target the same line.
    Core(Vec<CoreReq>),
    /// A probe from the parent capping our permission.
    ParentProbe {
        cap: Perm,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// Waiting for ProbeAcks from children.
    ProbeChildren { outstanding: usize },
    /// Waiting for a Grant from the parent.
    AcquireParent,
    /// Waiting for recall ProbeAcks on the eviction victim.
    EvictRecall { outstanding: usize, victim: u64 },
    /// Waiting for the parent's ReleaseAck (eviction in flight).
    ReleaseWait { victim: u64 },
    /// Grant sent to a child; waiting for its GrantAck before releasing
    /// the per-line serialization.
    GrantWait,
}

impl TxnState {
    /// The line this transaction is evicting, if any.
    fn victim(self) -> Option<u64> {
        match self {
            TxnState::EvictRecall { victim, .. } | TxnState::ReleaseWait { victim } => Some(victim),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
struct Txn {
    line: u64,
    state: TxnState,
    requester: Requester,
    /// Grant buffered while the victim eviction completes.
    buffered_grant: Option<(Perm, Option<Box<LineData>>)>,
}

impl Txn {
    /// A transaction on `line` for `requester`, in a placeholder state
    /// until it is served.
    fn new(line: u64, requester: Requester) -> Self {
        Txn {
            line,
            state: TxnState::AcquireParent,
            requester,
            buffered_grant: None,
        }
    }
}

/// Messages and completions produced by one cache in one cycle.
#[derive(Debug, Default, Clone)]
pub struct Outbox {
    /// Protocol messages to route (destination, payload).
    pub msgs: Vec<(Node, MsgKind)>,
    /// Core-request completions (L1 caches only).
    pub completions: Vec<Completion>,
}

/// One coherent cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Configuration.
    pub cfg: CacheConfig,
    /// This cache's node id.
    pub node: Node,
    /// Parent node (next level toward memory).
    pub parent: Node,
    /// Child nodes (cache levels or core ports that acquire from us).
    pub children: Vec<Node>,
    sets: CowSets,
    txns: Vec<Txn>,
    waiting_acquires: VecDeque<(usize, Perm, u64)>, // (child slot, need, line)
    deferred_probes: VecDeque<(u64, Perm)>,
    /// Statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Build a cache level.
    pub fn new(cfg: CacheConfig, node: Node, parent: Node, children: Vec<Node>) -> Self {
        assert!(children.len() <= 2, "at most two children per level");
        let sets = CowSets::new(cfg.n_sets(), cfg.ways);
        Cache {
            cfg,
            node,
            parent,
            children,
            sets,
            txns: Vec::new(),
            waiting_acquires: VecDeque::new(),
            deferred_probes: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / LINE_SIZE) as usize) % self.sets.len()
    }

    fn find_line(&self, line: u64) -> Option<(usize, usize)> {
        let s = self.set_index(line);
        self.sets[s]
            .iter()
            .position(|l| l.tag == line && l.perm != Perm::None)
            .map(|w| (s, w))
    }

    fn line_ref(&self, line: u64) -> Option<&Line> {
        self.find_line(line).map(|(s, w)| &self.sets[s][w])
    }

    fn line_mut(&mut self, line: u64) -> Option<&mut Line> {
        let (s, w) = self.find_line(line)?;
        Some(&mut self.sets[s][w])
    }

    fn child_slot(&self, node: Node) -> usize {
        self.children
            .iter()
            .position(|&c| c == node)
            .unwrap_or_else(|| panic!("{:?} is not a child of {}", node, self.cfg.name))
    }

    /// True when any transaction (including parent probes and evictions)
    /// concerns `line` — used for per-line serialization.
    fn line_busy(&self, line: u64) -> bool {
        self.txns
            .iter()
            .any(|t| t.line == line || t.state.victim() == Some(line))
    }

    /// Number of in-flight transactions (for MSHR occupancy stats).
    pub fn active_txns(&self) -> usize {
        self.txns.len()
    }

    // ------------------------------------------------------------------
    // Core-side interface (L1 caches).
    // ------------------------------------------------------------------

    /// Try to accept a core request. Returns false when the request must
    /// be retried later (MSHRs exhausted or the line is busy).
    pub fn submit_core(&mut self, req: CoreReq, now: u64, out: &mut Outbox) -> bool {
        let line = line_of(req.addr);
        debug_assert!(
            line_of(req.addr + req.size.max(1) - 1) == line,
            "core requests must not cross a line"
        );
        let need = perm_for(req.kind);
        if self.line_busy(line) {
            // Merge into the existing miss when the permission suffices.
            let miss = self.txns.iter_mut().find_map(|t| match &mut t.requester {
                Requester::Core(reqs) if t.line == line && txn_need(reqs).covers(need) => {
                    Some(reqs)
                }
                _ => None,
            });
            if let Some(reqs) = miss {
                reqs.push(req);
                return true;
            }
            self.stats.mshr_stalls += 1;
            return false;
        }
        if let Some((s, w)) = self.find_line(line) {
            let l = &self.sets[s][w];
            if l.perm.covers(need) && l.max_child_perm() == Perm::None {
                self.stats.hits += 1;
                let at = now + self.cfg.hit_latency;
                out.completions
                    .push(perform_access(&mut self.sets[s][w], &req, at, true));
                return true;
            }
        }
        if self.txns.len() >= self.cfg.mshrs {
            self.stats.mshr_stalls += 1;
            return false;
        }
        self.stats.misses += 1;
        self.serve(Txn::new(line, Requester::Core(vec![req])), now, out);
        true
    }

    // ------------------------------------------------------------------
    // Protocol engine.
    // ------------------------------------------------------------------

    /// Handle an incoming protocol message.
    pub fn handle(&mut self, src: Node, kind: MsgKind, now: u64, out: &mut Outbox) {
        match kind {
            MsgKind::Acquire { line, need } => {
                let slot = self.child_slot(src);
                if self.line_busy(line) {
                    self.waiting_acquires.push_back((slot, need, line));
                } else {
                    self.serve(Txn::new(line, Requester::Child { slot, need }), now, out);
                }
            }
            MsgKind::Grant { line, perm, data } => {
                out.msgs.push((self.parent, MsgKind::GrantAck { line }));
                self.on_grant(line, perm, data, now, out);
            }
            MsgKind::GrantAck { line } => {
                if let Some(idx) = self
                    .txns
                    .iter()
                    .position(|t| t.line == line && t.state == TxnState::GrantWait)
                {
                    self.txns.swap_remove(idx);
                    self.txn_epilogue(line, now, out);
                }
            }
            MsgKind::Probe { line, cap } => {
                self.stats.probes_received += 1;
                self.on_probe(line, cap, now, out);
            }
            MsgKind::ProbeAck { line, now: child_now, data } => {
                let slot = self.child_slot(src);
                self.on_probe_ack(line, slot, child_now, data, now, out);
            }
            MsgKind::Release { line, data } => {
                let slot = self.child_slot(src);
                if let Some(l) = self.line_mut(line) {
                    l.child_perm[slot] = Perm::None;
                    if let Some(d) = data {
                        l.data = *d;
                        l.dirty = true;
                    }
                }
                out.msgs.push((src, MsgKind::ReleaseAck { line }));
            }
            MsgKind::ReleaseAck { line } => {
                self.on_release_ack(line, now, out);
            }
        }
    }

    /// Start (or restart) serving an acquire-type transaction: probe
    /// conflicting children, else acquire from the parent, else grant.
    /// The transaction waits in the MSHRs for whatever it asked for, or
    /// retires on the spot.
    fn serve(&mut self, mut txn: Txn, now: u64, out: &mut Outbox) {
        let line = txn.line;
        let (need, except) = match &txn.requester {
            Requester::Child { slot, need } => (*need, Some(*slot)),
            Requester::Core(reqs) => (txn_need(reqs), None),
            Requester::ParentProbe { .. } => unreachable!("serve on a parent probe"),
        };
        if self.line_ref(line).is_some_and(|l| l.perm.covers(need)) {
            // Locally sufficient: shrink other children first.
            let cap = if need == Perm::Trunk {
                Perm::None
            } else {
                Perm::Branch
            };
            match self.probe_children(line, cap, except, out) {
                0 => self.finish_serve(txn, now, out),
                outstanding => {
                    txn.state = TxnState::ProbeChildren { outstanding };
                    self.txns.push(txn);
                }
            }
        } else {
            // Grow our own permission.
            out.msgs
                .push((self.parent, MsgKind::Acquire { line, need }));
            txn.state = TxnState::AcquireParent;
            self.txns.push(txn);
        }
    }

    /// Complete an acquire-type transaction: update directory/data and
    /// respond to the requester. Core requests retire here; a child grant
    /// keeps the line serialized until its GrantAck.
    fn finish_serve(&mut self, mut txn: Txn, now: u64, out: &mut Outbox) {
        let line = txn.line;
        let at = now + self.cfg.hit_latency;
        let (s, w) = self.find_line(line).expect("line installed by now");
        let l = &mut self.sets[s][w];
        match txn.requester {
            Requester::Child { slot, need } => {
                l.child_perm[slot] = need;
                if need == Perm::Trunk {
                    for (i, p) in l.child_perm.iter_mut().enumerate() {
                        if i != slot {
                            *p = Perm::None;
                        }
                    }
                }
                let data = Some(Box::new(l.data));
                out.msgs.push((
                    self.children[slot],
                    MsgKind::Grant {
                        line,
                        perm: need,
                        data,
                    },
                ));
                txn.state = TxnState::GrantWait;
                self.txns.push(txn);
            }
            Requester::Core(ref reqs) => {
                for req in reqs {
                    out.completions.push(perform_access(l, req, at, false));
                }
                self.txn_epilogue(line, now, out);
            }
            Requester::ParentProbe { .. } => unreachable!("finish_serve on a parent probe"),
        }
    }

    /// Probe every child other than `except` that holds `line` above
    /// `cap`; returns how many were probed.
    fn probe_children(
        &mut self,
        line: u64,
        cap: Perm,
        except: Option<usize>,
        out: &mut Outbox,
    ) -> usize {
        let Some(l) = self.line_ref(line) else {
            return 0;
        };
        let mut n = 0;
        for (slot, &child) in self.children.iter().enumerate() {
            if Some(slot) != except && l.child_perm[slot] > cap {
                out.msgs.push((child, MsgKind::Probe { line, cap }));
                n += 1;
            }
        }
        self.stats.probes_sent += n as u64;
        n
    }

    fn on_grant(
        &mut self,
        line: u64,
        perm: Perm,
        data: Option<Box<LineData>>,
        now: u64,
        out: &mut Outbox,
    ) {
        let idx = self
            .txns
            .iter()
            .position(|t| t.line == line && t.state == TxnState::AcquireParent)
            .unwrap_or_else(|| panic!("{}: unexpected grant for {line:#x}", self.cfg.name));
        let txn = self.txns.swap_remove(idx);
        let Some(l) = self.line_mut(line) else {
            return self.install_or_evict(txn, perm, data, now, out);
        };
        // An upgrade of a line we hold.
        l.perm = perm;
        if let Some(d) = data {
            if !l.dirty {
                l.data = *d;
            }
        }
        l.installed_at = now;
        self.serve(txn, now, out);
    }

    /// Install a granted line in a free way and serve `txn`, or make room
    /// first: pick a victim, recall it from the children, then release
    /// it, with the grant buffered in `txn` until the parent's ReleaseAck.
    fn install_or_evict(
        &mut self,
        mut txn: Txn,
        perm: Perm,
        data: Option<Box<LineData>>,
        now: u64,
        out: &mut Outbox,
    ) {
        let set = self.set_index(txn.line);
        match self.pick_victim(set) {
            VictimChoice::Free(w) => {
                let l = &mut self.sets[set][w];
                *l = Line {
                    tag: txn.line,
                    perm,
                    installed_at: now,
                    ..Line::invalid()
                };
                if let Some(d) = data {
                    l.data = *d;
                }
                self.serve(txn, now, out);
            }
            VictimChoice::Evict(w) => {
                let victim = self.sets[set][w].tag;
                self.stats.evictions += 1;
                txn.buffered_grant = Some((perm, data));
                txn.state = match self.probe_children(victim, Perm::None, None, out) {
                    0 => {
                        self.release_victim(victim, out);
                        TxnState::ReleaseWait { victim }
                    }
                    outstanding => TxnState::EvictRecall {
                        outstanding,
                        victim,
                    },
                };
                self.txns.push(txn);
            }
        }
    }

    /// Issue the Release for a fully recalled victim.
    fn release_victim(&mut self, victim: u64, out: &mut Outbox) {
        let l = self.line_mut(victim).expect("victim present");
        let data = l.dirty.then(|| Box::new(l.data));
        *l = Line::invalid();
        if data.is_some() {
            self.stats.writebacks += 1;
        }
        out.msgs.push((self.parent, MsgKind::Release { line: victim, data }));
    }

    fn on_release_ack(&mut self, released: u64, now: u64, out: &mut Outbox) {
        let idx = self.txns.iter().position(
            |t| matches!(t.state, TxnState::ReleaseWait { victim } if victim == released),
        );
        let Some(idx) = idx else { return };
        let mut txn = self.txns.swap_remove(idx);
        // The victim line is gone: serve anything that was deferred on it
        // (a parent probe answers "None" now; a queued acquire restarts).
        self.txn_epilogue(released, now, out);
        // Resume the buffered install (which may need another victim when
        // the set is under heavy pressure).
        let (perm, data) = txn.buffered_grant.take().expect("grant buffered");
        self.install_or_evict(txn, perm, data, now, out);
    }

    fn pick_victim(&self, set: usize) -> VictimChoice {
        // Prefer an invalid way, then a way with no child copies (clean
        // first), finally any non-busy way that needs recall.
        if let Some(w) = self.sets[set].iter().position(|l| l.perm == Perm::None) {
            return VictimChoice::Free(w);
        }
        let mut candidate: Option<usize> = None;
        for (w, l) in self.sets[set].iter().enumerate() {
            if self.line_busy(l.tag) {
                continue;
            }
            if l.max_child_perm() == Perm::None && !l.dirty {
                return VictimChoice::Evict(w);
            }
            candidate.get_or_insert(w);
        }
        VictimChoice::Evict(candidate.expect("at least one non-busy way per set"))
    }

    fn on_probe(&mut self, line: u64, cap: Perm, now: u64, out: &mut Outbox) {
        // Defer while we are mid-transaction with installed state on the
        // line (probing children, granting it, or evicting it).
        let blocking = self.txns.iter().any(|t| {
            (t.line == line && t.state != TxnState::AcquireParent) || t.state.victim() == Some(line)
        });
        if blocking {
            self.deferred_probes.push_back((line, cap));
        } else if self.find_line(line).is_none() {
            // We no longer hold the line (e.g. it raced with our Release).
            let ack = MsgKind::ProbeAck {
                line,
                now: Perm::None,
                data: None,
            };
            out.msgs.push((self.parent, ack));
        } else {
            match self.probe_children(line, cap, None, out) {
                0 => self.probe_ack_now(line, cap, now, out),
                outstanding => self.txns.push(Txn {
                    state: TxnState::ProbeChildren { outstanding },
                    ..Txn::new(line, Requester::ParentProbe { cap })
                }),
            }
        }
    }

    fn probe_ack_now(&mut self, line: u64, cap: Perm, now: u64, out: &mut Outbox) {
        let parent = self.parent;
        let inject = self.cfg.inject_probe_grant_race;
        let l = self.line_mut(line).expect("probed line present");
        // FAULT INJECTION (paper §IV-C): when the probe overlaps a
        // just-granted line ("Probe and GrantData from L3 arrive at a
        // specific time interval"), the buggy MSHR mixes up its data
        // buffers and writes back the wrong data.
        let injected = inject && now.saturating_sub(l.installed_at) <= 300;
        if injected {
            l.data[0] ^= 0xff;
            l.data[8] ^= 0xff;
            l.dirty = true;
        }
        let data = if l.dirty && cap < Perm::Trunk {
            l.dirty = false;
            Some(Box::new(l.data))
        } else {
            None
        };
        let wrote_back = data.is_some();
        l.perm = cap;
        if cap == Perm::None {
            *l = Line::invalid();
        }
        if wrote_back {
            self.stats.writebacks += 1;
        }
        if injected {
            self.stats.injected_races += 1;
        }
        out.msgs.push((parent, MsgKind::ProbeAck { line, now: cap, data }));
    }

    fn on_probe_ack(
        &mut self,
        line: u64,
        slot: usize,
        child_now: Perm,
        data: Option<Box<LineData>>,
        now: u64,
        out: &mut Outbox,
    ) {
        if let Some(l) = self.line_mut(line) {
            l.child_perm[slot] = child_now;
            if let Some(d) = data {
                l.data = *d;
                l.dirty = true;
            }
        }
        // Find the transaction waiting on probes for this line (either an
        // acquire-type in ProbeChildren, a ParentProbe, or an EvictRecall
        // whose *victim* is this line).
        let idx = self
            .txns
            .iter()
            .position(|t| {
                (t.line == line && matches!(t.state, TxnState::ProbeChildren { .. }))
                    || matches!(t.state, TxnState::EvictRecall { victim, .. } if victim == line)
            })
            .unwrap_or_else(|| panic!("{}: stray ProbeAck for {line:#x}", self.cfg.name));
        let mut txn = self.txns.swap_remove(idx);
        match &mut txn.state {
            TxnState::ProbeChildren { outstanding } | TxnState::EvictRecall { outstanding, .. }
                if *outstanding > 1 =>
            {
                *outstanding -= 1;
                self.txns.push(txn);
            }
            &mut TxnState::EvictRecall { victim, .. } => {
                self.release_victim(victim, out);
                txn.state = TxnState::ReleaseWait { victim };
                self.txns.push(txn);
            }
            TxnState::ProbeChildren { .. } => match txn.requester {
                Requester::ParentProbe { cap } => {
                    self.probe_ack_now(line, cap, now, out);
                    self.txn_epilogue(line, now, out);
                }
                _ => self.finish_serve(txn, now, out),
            },
            _ => unreachable!("probe ack in unexpected state"),
        }
    }

    /// After any transaction on `line` retires: run a deferred probe, then
    /// — unless that probe is itself under way — a queued child acquire.
    fn txn_epilogue(&mut self, line: u64, now: u64, out: &mut Outbox) {
        if let Some(pos) = self.deferred_probes.iter().position(|&(l, _)| l == line) {
            let (_, cap) = self.deferred_probes.remove(pos).expect("present");
            self.on_probe(line, cap, now, out);
            if self.line_busy(line) {
                return;
            }
        }
        if let Some(pos) = self
            .waiting_acquires
            .iter()
            .position(|&(_, _, l)| l == line)
        {
            let (slot, need, _) = self.waiting_acquires.remove(pos).expect("present");
            self.serve(Txn::new(line, Requester::Child { slot, need }), now, out);
        }
    }

    // ------------------------------------------------------------------
    // Functional inspection (DiffTest global memory, snapshots).
    // ------------------------------------------------------------------

    /// Peek line data if present (used for coherent functional reads).
    pub fn peek_line(&self, line: u64) -> Option<(&LineData, bool, Perm)> {
        self.line_ref(line).map(|l| (&l.data, l.dirty, l.perm))
    }

    /// Invalidate every line (used for fence.i on the L1I).
    ///
    /// # Panics
    ///
    /// Panics if any line is dirty — only clean (instruction) caches may
    /// be flash-invalidated.
    pub fn invalidate_all_clean(&mut self) {
        for chunk in &mut self.sets.chunks {
            // A chunk without a valid line already is what this leaves,
            // and may be one no fetch ever wrote: it stays shared.
            if chunk.iter().all(|l| l.perm == Perm::None) {
                continue;
            }
            for l in Arc::make_mut(chunk) {
                assert!(!l.dirty, "invalidate_all_clean on a dirty line");
                *l = Line::invalid();
            }
        }
    }

    /// Total number of valid lines (occupancy metric).
    pub fn valid_lines(&self) -> usize {
        self.sets.lines().filter(|l| l.perm != Perm::None).count()
    }

    /// Serialize the full cache state (SSS baseline).
    pub fn dump_state(&self, out: &mut Vec<u8>) {
        for l in self.sets.lines() {
            out.extend_from_slice(&l.tag.to_le_bytes());
            out.push(l.perm as u8);
            out.push(l.dirty as u8);
            out.extend_from_slice(&l.data);
        }
    }

    /// Copy-on-write chunks the line arrays are split into.
    pub fn chunks(&self) -> usize {
        self.sets.chunks.len()
    }

    /// Chunks whose storage is currently shared with anything — a
    /// snapshot or, for a chunk never written since boot, the other
    /// never-written chunks of its array (the cache-array counterpart of
    /// `SparseMemory::shared_pages`).
    pub fn shared_chunks(&self) -> usize {
        let shared = |c: &&Arc<[Line]>| Arc::strong_count(c) > 1;
        self.sets.chunks.iter().filter(shared).count()
    }
}

/// Where a granted line goes: an invalid way, or a way to evict first.
enum VictimChoice {
    Free(usize),
    Evict(usize),
}

fn perm_for(kind: AccessKind) -> Perm {
    match kind {
        AccessKind::Fetch | AccessKind::Load => Perm::Branch,
        AccessKind::Store | AccessKind::LoadExclusive => Perm::Trunk,
    }
}

fn txn_need(reqs: &[CoreReq]) -> Perm {
    reqs.iter()
        .map(|r| perm_for(r.kind))
        .max()
        .unwrap_or(Perm::Branch)
}

/// Perform the data access of a hit/fill on a line and build the
/// completion record.
fn perform_access(l: &mut Line, req: &CoreReq, at: u64, l1_hit: bool) -> Completion {
    let off = (req.addr - line_of(req.addr)) as usize;
    let mut data = 0u64;
    let mut fetch_block = None;
    match req.kind {
        AccessKind::Load | AccessKind::LoadExclusive => {
            let mut buf = [0u8; 8];
            buf[..req.size as usize].copy_from_slice(&l.data[off..off + req.size as usize]);
            data = u64::from_le_bytes(buf);
        }
        AccessKind::Store => {
            let bytes = req.data.to_le_bytes();
            l.data[off..off + req.size as usize].copy_from_slice(&bytes[..req.size as usize]);
            l.dirty = true;
        }
        AccessKind::Fetch => {
            let mut blk = [0u8; 32];
            let take = (LINE_SIZE as usize - off).min(32);
            blk[..take].copy_from_slice(&l.data[off..off + take]);
            fetch_block = Some(blk);
        }
    }
    Completion {
        req: *req,
        at,
        data,
        fetch_block,
        l1_hit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Separate allocations behind an array's chunk table.
    fn allocations(sets: &CowSets) -> usize {
        let distinct: BTreeSet<_> = sets.chunks.iter().map(|c| c.as_ptr()).collect();
        distinct.len()
    }

    #[test]
    fn an_array_is_allocated_by_its_first_writes_not_by_its_size() {
        // (sets, ways): a small L1, `nh`'s 6 MiB L3, and a shape whose
        // last chunk is short.
        for (n_sets, ways) in [(256, 2), (16_384, 6), (1_001, 3)] {
            let mut sets = CowSets::new(n_sets, ways);
            let per_chunk = 1usize << sets.chunk_shift;
            let tail = usize::from(n_sets % per_chunk > 0);
            assert_eq!(sets.chunks.len(), n_sets.div_ceil(per_chunk));
            assert_eq!(allocations(&sets), 1 + tail, "{n_sets} × {ways}: pristine chunk + tail");
            assert_eq!(sets.lines().count(), n_sets * ways);
            assert!(sets.lines().all(|l| l.perm == Perm::None && l.tag == u64::MAX));

            // Five writes to three chunks (two of them through two
            // sets each) materialize exactly those three.
            let written = [0, 1, per_chunk, per_chunk + 1, n_sets - 1];
            for &set in &written {
                sets[set][ways - 1].tag = set as u64;
            }
            let touched: BTreeSet<_> = written.iter().map(|s| s >> sets.chunk_shift).collect();
            assert_eq!(touched.len(), 3);
            // (The last chunk is either one of the full-size slots or the
            // short tail that was its own allocation from the start.)
            assert_eq!(allocations(&sets), 1 + touched.len(), "{n_sets} × {ways}");
            assert!(written.iter().all(|&set| sets[set][ways - 1].tag == set as u64));
            let untouched = sets.lines().filter(|l| l.tag == u64::MAX).count();
            assert_eq!(untouched, n_sets * ways - written.len(), "a write reaches one line");
        }
    }
}
