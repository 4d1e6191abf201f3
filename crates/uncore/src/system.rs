//! The memory system: cores' L1s, private L2s, an optional shared L3, and
//! the memory controller, connected by latency-modeled links.
//!
//! The topology mirrors XiangShan's (Table II): per-core L1I/L1D under a
//! private L2; NH adds a shared L3 between the L2s and DRAM, YQH connects
//! its (single) L2 directly to DRAM.

use crate::cache::{Cache, CacheConfig, CacheStats, Outbox};
use crate::dram::{DramModel, DramStats};
use crate::hist::Hist;
use crate::msg::{
    line_of, AccessKind, Completion, CoreReq, Msg, MsgKind, Node, Perm, LINE_SIZE,
};
use crate::scoreboard::CoherenceScoreboard;
use riscv_isa::mem::{PhysMem, SparseMemory};
use std::collections::{BinaryHeap, HashMap};

/// Per-link message latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkLatencies {
    /// L1 <-> L2.
    pub l1_l2: u64,
    /// L2 <-> L3.
    pub l2_l3: u64,
    /// Last-level cache <-> memory controller.
    pub llc_dram: u64,
}

impl Default for LinkLatencies {
    fn default() -> Self {
        LinkLatencies {
            l1_l2: 3,
            l2_l3: 6,
            llc_dram: 10,
        }
    }
}

/// Memory-system configuration.
#[derive(Debug, Clone)]
pub struct MemSystemConfig {
    /// Number of cores.
    pub cores: usize,
    /// L1 instruction cache template (instantiated per core).
    pub l1i: CacheConfig,
    /// L1 data cache template.
    pub l1d: CacheConfig,
    /// Private L2 template.
    pub l2: CacheConfig,
    /// Shared L3 (None for the YQH generation).
    pub l3: Option<CacheConfig>,
    /// Link latencies.
    pub links: LinkLatencies,
    /// Enable the coherence scoreboard checker.
    pub scoreboard: bool,
    /// Record per-request latency histograms (telemetry; small per-access
    /// bookkeeping cost, so off by default).
    pub telemetry: bool,
}

impl MemSystemConfig {
    /// A small configuration for unit tests.
    pub fn tiny(cores: usize) -> Self {
        MemSystemConfig {
            cores,
            l1i: CacheConfig::new("l1i", 4096, 2, 1, 4),
            l1d: CacheConfig::new("l1d", 4096, 2, 1, 4),
            l2: CacheConfig::new("l2", 16384, 4, 4, 8),
            l3: Some(CacheConfig::new("l3", 65536, 4, 10, 16)),
            links: LinkLatencies {
                l1_l2: 1,
                l2_l3: 2,
                llc_dram: 3,
            },
            scoreboard: true,
            telemetry: false,
        }
    }
}

/// Round-trip latency histograms for the memory hierarchy, as seen from
/// the request side (submit-to-completion), plus the controller's own
/// service latency. Populated only when [`MemSystemConfig::telemetry`]
/// is set.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MemLatencyHists {
    /// Data/fetch requests that hit in the L1.
    pub l1_hit: Hist,
    /// Data/fetch requests that missed the L1 (any deeper level served).
    pub l1_miss: Hist,
    /// Memory-controller service latency per line access.
    pub dram: Hist,
}

/// An entry of the two event heaps: `item` acts at cycle `at`, and `seq`
/// is its place in the order the system scheduled things. `Eq` and `Ord`
/// both compare `(at, seq)`, `Ord` reversed so that the max-heap pops the
/// earliest entry and, of entries due in one cycle, the first scheduled.
#[derive(Debug, Clone)]
struct Timed<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Timed<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl<T> Eq for Timed<T> {}
impl<T> PartialOrd for Timed<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Timed<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The whole coherent memory system below the cores.
///
/// Events due in the same cycle act in the order they were scheduled, and
/// a cycle's message deliveries precede its completions. The counter that
/// records that order is a field, so a clone (a LightSSS snapshot) replays
/// ties exactly as the original would.
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemSystemConfig,
    cycle: u64,
    l1i: Vec<Cache>,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    l3: Option<Cache>,
    wheel: BinaryHeap<Timed<Msg>>,
    done: BinaryHeap<Timed<Completion>>,
    /// The `seq` the next scheduled message or completion is stamped with.
    seq: u64,
    dram: DramModel,
    backing: SparseMemory,
    /// Coherence scoreboard (present when enabled in the config).
    pub scoreboard: Option<CoherenceScoreboard>,
    /// Submit cycle of in-flight requests, keyed by (is_fetch, core, id).
    /// Only populated when telemetry is enabled.
    inflight_since: HashMap<(bool, usize, u64), u64>,
    lat: MemLatencyHists,
    /// The one outbox every cache call fills: taken for the call, put
    /// back drained by `route_outbox` (so empty in between, grown once).
    outbox: Outbox,
}

impl MemSystem {
    /// Build a memory system over a backing physical memory.
    pub fn new(cfg: MemSystemConfig, dram: DramModel, backing: SparseMemory) -> Self {
        let level = |tpl: &CacheConfig, name: String, node, parent, children| {
            Cache::new(
                CacheConfig {
                    name,
                    ..tpl.clone()
                },
                node,
                parent,
                children,
            )
        };
        let l3 = cfg.l3.as_ref().map(|c3| {
            let children = (0..cfg.cores).map(Node::L2).collect();
            level(c3, "l3".into(), Node::L3, Node::Dram, children)
        });
        let l2_parent = if l3.is_some() { Node::L3 } else { Node::Dram };
        let (mut l1i, mut l1d, mut l2) = (Vec::new(), Vec::new(), Vec::new());
        for core in 0..cfg.cores {
            let (i, d, c2) = (Node::L1i(core), Node::L1d(core), Node::L2(core));
            l1i.push(level(&cfg.l1i, format!("l1i{core}"), i, c2, vec![]));
            l1d.push(level(&cfg.l1d, format!("l1d{core}"), d, c2, vec![]));
            l2.push(level(
                &cfg.l2,
                format!("l2_{core}"),
                c2,
                l2_parent,
                vec![i, d],
            ));
        }
        let mut sys = MemSystem {
            cfg,
            cycle: 0,
            l1i,
            l1d,
            l2,
            l3,
            wheel: BinaryHeap::new(),
            done: BinaryHeap::new(),
            seq: 0,
            dram,
            backing,
            scoreboard: None,
            inflight_since: HashMap::new(),
            lat: MemLatencyHists::default(),
            outbox: Outbox::default(),
        };
        if sys.cfg.scoreboard {
            let parents = sys.caches().map(|c| (c.node, c.parent)).collect();
            sys.scoreboard = Some(CoherenceScoreboard::new(parents));
        }
        sys
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The earliest future cycle at which anything in the hierarchy acts:
    /// the next in-flight message delivery or core-visible completion.
    /// `None` when the memory system is fully quiescent.
    pub fn next_event_cycle(&self) -> Option<u64> {
        let wheel = self.wheel.peek().map(|m| m.at);
        let done = self.done.peek().map(|c| c.at);
        match (wheel, done) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advance the clock by `n` cycles with no deliveries. Only sound when
    /// the caller has proven nothing is due in `(cycle, cycle + n]` — i.e.
    /// `next_event_cycle()` is `None` or `> cycle + n`.
    pub fn advance_idle(&mut self, n: u64) {
        debug_assert!(self.next_event_cycle().is_none_or(|e| e > self.cycle + n));
        self.cycle += n;
    }

    /// Submit a data-side request for `core`. Returns false when the L1D
    /// cannot accept it this cycle (retry later).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a cache line.
    pub fn submit_data(&mut self, req: CoreReq) -> bool {
        self.submit(Node::L1d(req.core), req)
    }

    /// Submit an instruction fetch (32-byte block at `addr`).
    pub fn submit_fetch(&mut self, core: usize, addr: u64, id: u64) -> bool {
        let req = CoreReq {
            core,
            kind: AccessKind::Fetch,
            addr,
            size: 32,
            data: 0,
            id,
        };
        self.submit(Node::L1i(core), req)
    }

    /// Offer `req` to the L1 at `l1`; a request it takes is timed from
    /// now when telemetry is on.
    fn submit(&mut self, l1: Node, req: CoreReq) -> bool {
        let (now, mut out) = (self.cycle, std::mem::take(&mut self.outbox));
        let ok = self.cache_mut(l1).submit_core(req, now, &mut out);
        self.route_outbox(l1, out);
        if ok && self.cfg.telemetry {
            self.inflight_since.insert(inflight_key(&req), now);
        }
        ok
    }

    /// Advance one cycle; returns the completions due this cycle.
    pub fn tick(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        self.tick_into(&mut out);
        out
    }

    /// Advance one cycle, appending the completions due this cycle (in
    /// the order they were scheduled) to a buffer the caller can reuse
    /// from cycle to cycle.
    pub fn tick_into(&mut self, out: &mut Vec<Completion>) {
        self.cycle += 1;
        // Deliver all messages due now, then collect due completions.
        while self.wheel.peek().is_some_and(|m| m.at <= self.cycle) {
            let msg = self.wheel.pop().expect("peeked").item;
            if let Some(sb) = &mut self.scoreboard {
                sb.observe(self.cycle, &msg);
            }
            self.deliver(msg);
        }
        while self.done.peek().is_some_and(|c| c.at <= self.cycle) {
            let c = self.done.pop().expect("peeked").item;
            if self.cfg.telemetry {
                if let Some(since) = self.inflight_since.remove(&inflight_key(&c.req)) {
                    let rtt = c.at.saturating_sub(since);
                    if c.l1_hit {
                        self.lat.l1_hit.record(rtt);
                    } else {
                        self.lat.l1_miss.record(rtt);
                    }
                }
            }
            out.push(c);
        }
    }

    fn deliver(&mut self, msg: Msg) {
        match msg.dst {
            Node::Dram => self.deliver_dram(msg),
            node => {
                let (now, mut out) = (self.cycle, std::mem::take(&mut self.outbox));
                self.cache_mut(node).handle(msg.src, msg.kind, now, &mut out);
                self.route_outbox(node, out);
            }
        }
    }

    fn deliver_dram(&mut self, msg: Msg) {
        match msg.kind {
            MsgKind::Acquire { line, need: _ } => {
                let latency = self.dram.access(line, self.cycle);
                if self.cfg.telemetry {
                    self.lat.dram.record(latency);
                }
                let mut data = Box::new([0u8; LINE_SIZE as usize]);
                self.backing.read(line, &mut data[..]);
                self.schedule(
                    Node::Dram,
                    msg.src,
                    MsgKind::Grant {
                        line,
                        perm: Perm::Trunk,
                        data: Some(data),
                    },
                    latency + self.cfg.links.llc_dram,
                );
            }
            MsgKind::Release { line, data } => {
                if let Some(d) = data {
                    self.backing.write(line, &d[..]);
                }
                self.schedule(
                    Node::Dram,
                    msg.src,
                    MsgKind::ReleaseAck { line },
                    self.cfg.links.llc_dram,
                );
            }
            MsgKind::GrantAck { .. } => {
                // The controller has no probes, so no serialization needed.
            }
            other => panic!("memory controller cannot handle {other:?}"),
        }
    }

    fn cache_mut(&mut self, node: Node) -> &mut Cache {
        match node {
            Node::L1i(c) => &mut self.l1i[c],
            Node::L1d(c) => &mut self.l1d[c],
            Node::L2(c) => &mut self.l2[c],
            Node::L3 => self.l3.as_mut().expect("no L3 in this configuration"),
            n => panic!("{n:?} is not a cache"),
        }
    }

    fn link_latency(&self, a: Node, b: Node) -> u64 {
        use Node::*;
        match (a, b) {
            (L1i(_) | L1d(_), L2(_)) | (L2(_), L1i(_) | L1d(_)) => self.cfg.links.l1_l2,
            (L2(_), L3) | (L3, L2(_)) => self.cfg.links.l2_l3,
            (L3, Dram) | (Dram, L3) | (L2(_), Dram) | (Dram, L2(_)) => self.cfg.links.llc_dram,
            (x, y) => panic!("no link between {x:?} and {y:?}"),
        }
    }

    fn schedule(&mut self, src: Node, dst: Node, kind: MsgKind, latency: u64) {
        let at = self.cycle + latency.max(1);
        self.wheel.push(Timed { at, seq: self.seq, item: Msg { src, dst, kind } });
        self.seq += 1;
    }

    /// Put what the cache at `from` left in `out` on its way, and `out`
    /// back for the next call.
    fn route_outbox(&mut self, from: Node, mut out: Outbox) {
        for (dst, kind) in out.msgs.drain(..) {
            let latency = self.link_latency(from, dst);
            self.schedule(from, dst, kind, latency);
        }
        for c in out.completions.drain(..) {
            self.done.push(Timed { at: c.at, seq: self.seq, item: c });
            self.seq += 1;
        }
        self.outbox = out;
    }

    // ------------------------------------------------------------------
    // Functional access (program loading, DiffTest global memory).
    // ------------------------------------------------------------------

    /// Read bytes with full coherence: the freshest dirty copy anywhere in
    /// the hierarchy wins. Used by the DiffTest global-memory diff-rule.
    pub fn coherent_read(&mut self, addr: u64, size: u64) -> u64 {
        let line = line_of(addr);
        let off = (addr - line) as usize;
        let grab = |data: &crate::msg::LineData| {
            let mut buf = [0u8; 8];
            buf[..size as usize].copy_from_slice(&data[off..off + size as usize]);
            u64::from_le_bytes(buf)
        };
        // Freshest first: L1D dirty, L2 dirty, L3 dirty, backing memory.
        let mut levels = self.l1d.iter().chain(&self.l2).chain(&self.l3);
        let dirty = levels.find_map(|c| match c.peek_line(line) {
            Some((d, true, _)) => Some(grab(d)),
            _ => None,
        });
        dirty.unwrap_or_else(|| self.backing.read_uint(addr, size))
    }

    /// Direct backing-memory access (program loading before boot).
    pub fn backing_mut(&mut self) -> &mut SparseMemory {
        &mut self.backing
    }

    /// Immutable backing-memory view (snapshot serialization).
    pub fn backing(&self) -> &SparseMemory {
        &self.backing
    }

    /// Eagerly serialize the full memory-system state: backing memory plus
    /// every cache array — the SSS baseline snapshot of paper §III-C2.
    pub fn serialize_full_state(&self) -> Vec<u8> {
        let mut out = self.backing.serialize_full();
        for c in self.caches() {
            c.dump_state(&mut out);
        }
        out
    }

    /// Every cache level: L1Is, L1Ds, L2s, then the L3 if there is one.
    pub fn caches(&self) -> impl Iterator<Item = &Cache> {
        let private = self.l1i.iter().chain(&self.l1d).chain(&self.l2);
        private.chain(self.l3.iter())
    }

    /// Invalidate all (clean) lines of a core's L1I — `fence.i`.
    pub fn flush_l1i(&mut self, core: usize) {
        self.l1i[core].invalidate_all_clean();
    }

    /// Statistics of each level, keyed by cache name.
    pub fn stats(&self) -> Vec<(String, CacheStats)> {
        self.caches()
            .map(|c| (c.cfg.name.clone(), c.stats))
            .collect()
    }

    /// Memory-controller statistics.
    pub fn dram_stats(&self) -> DramStats {
        self.dram.stats()
    }

    /// Round-trip / service latency histograms (empty unless the config
    /// enables telemetry).
    pub fn latency_hists(&self) -> &MemLatencyHists {
        &self.lat
    }

    /// In-flight transaction count of core `core`'s L1D (MSHR occupancy
    /// proxy, sampled per cycle by the core's telemetry).
    pub fn l1d_active_txns(&self, core: usize) -> usize {
        self.l1d[core].active_txns()
    }

    /// Enable the §IV-C probe/grant race fault in core `core`'s L2.
    pub fn inject_l2_race_bug(&mut self, core: usize) {
        self.l2[core].cfg.inject_probe_grant_race = true;
    }

    /// True when nothing is in flight anywhere in the hierarchy.
    pub fn quiescent(&self) -> bool {
        self.wheel.is_empty() && self.done.is_empty() && self.caches().all(|c| c.active_txns() == 0)
    }
}

/// The key of an in-flight request's submit cycle: fetches and data
/// requests number their ids apart.
fn inflight_key(req: &CoreReq) -> (bool, usize, u64) {
    (req.kind == AccessKind::Fetch, req.core, req.id)
}

/// Drive the system until a specific request id completes (test helper).
pub fn run_until_complete(sys: &mut MemSystem, id: u64, max_cycles: u64) -> Option<Completion> {
    for _ in 0..max_cycles {
        for c in sys.tick() {
            if c.req.id == id {
                return Some(c);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_req(core: usize, addr: u64, id: u64) -> CoreReq {
        CoreReq {
            core,
            kind: AccessKind::Load,
            addr,
            size: 8,
            data: 0,
            id,
        }
    }

    fn store_req(core: usize, addr: u64, data: u64, id: u64) -> CoreReq {
        CoreReq {
            core,
            kind: AccessKind::Store,
            addr,
            size: 8,
            data,
            id,
        }
    }

    fn new_sys(cores: usize) -> MemSystem {
        let mut backing = SparseMemory::new();
        backing.write_uint(0x1000, 8, 0xabcd_ef01_2345_6789);
        MemSystem::new(MemSystemConfig::tiny(cores), DramModel::fixed(20), backing)
    }

    #[test]
    fn load_through_hierarchy() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(load_req(0, 0x1000, 1)));
        let c = run_until_complete(&mut sys, 1, 1000).expect("completes");
        assert_eq!(c.data, 0xabcd_ef01_2345_6789);
        assert!(!c.l1_hit, "first access must miss");
        // Second access to the same line hits in L1.
        assert!(sys.submit_data(load_req(0, 0x1008, 2)));
        let c2 = run_until_complete(&mut sys, 2, 1000).expect("completes");
        assert!(c2.l1_hit);
        assert!(c2.at - sys_first_latency_floor() <= c.at, "hit is faster");
        assert!(sys.scoreboard.as_ref().unwrap().clean());
    }

    fn sys_first_latency_floor() -> u64 {
        1
    }

    #[test]
    fn same_cycle_completions_leave_in_submit_order() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(load_req(0, 0x1000, 1)));
        run_until_complete(&mut sys, 1, 1000).expect("warm-up load");
        while !sys.quiescent() {
            sys.tick();
        }
        // A miss first, then four hits to the warm line in the same cycle:
        // the hits tie on their completion cycle, the miss is due later.
        assert!(sys.submit_data(load_req(0, 0x3000, 9)));
        for id in 10..14 {
            assert!(sys.submit_data(load_req(0, 0x1000 + (id - 10) * 8, id)));
        }
        let mut order = Vec::new();
        while order.len() < 5 {
            order.extend(sys.tick().into_iter().map(|c| (c.req.id, c.at)));
        }
        let ids: Vec<u64> = order.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [10, 11, 12, 13, 9]);
        assert!(order[..4].iter().all(|&(_, at)| at == order[0].1), "{order:?}");
        assert!(order[4].1 > order[0].1, "{order:?}");
    }

    #[test]
    fn store_then_load_roundtrip() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(store_req(0, 0x2000, 42, 1)));
        run_until_complete(&mut sys, 1, 1000).expect("store completes");
        assert!(sys.submit_data(load_req(0, 0x2000, 2)));
        let c = run_until_complete(&mut sys, 2, 1000).expect("load completes");
        assert_eq!(c.data, 42);
        assert_eq!(sys.coherent_read(0x2000, 8), 42);
        // Backing memory still stale until eviction — that's the point of
        // the coherent read.
        assert_eq!(sys.backing_mut().read_uint(0x2000, 8), 0);
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut sys = new_sys(1);
        // DRAM fill.
        sys.submit_data(load_req(0, 0x1000, 1));
        let dram_fill = run_until_complete(&mut sys, 1, 1000).unwrap();
        let t0 = sys.cycle();
        // L1 hit.
        sys.submit_data(load_req(0, 0x1000, 2));
        let l1_hit = run_until_complete(&mut sys, 2, 1000).unwrap();
        let dram_latency = dram_fill.at;
        let l1_latency = l1_hit.at - t0;
        assert!(
            l1_latency < dram_latency / 3,
            "l1 {l1_latency} vs dram {dram_latency}"
        );
    }

    #[test]
    fn eviction_writes_back_through_levels() {
        let mut sys = new_sys(1);
        // Write enough distinct lines mapping to the same L1 set to force
        // evictions through L2 and beyond (L1: 4 KiB, 2 ways, 32 sets).
        for (id, i) in (1..).zip(0..64u64) {
            let addr = 0x10_0000 + i * 4096; // same set every time
            assert!(sys.submit_data(store_req(0, addr, i + 1, id)));
            run_until_complete(&mut sys, id, 5000).expect("store completes");
        }
        // All values must be recoverable.
        for i in 0..64u64 {
            let addr = 0x10_0000 + i * 4096;
            assert_eq!(sys.coherent_read(addr, 8), i + 1, "line {i}");
        }
        assert!(sys.scoreboard.as_ref().unwrap().clean());
        let stats = sys.stats();
        let l1d = &stats.iter().find(|(n, _)| n == "l1d0").unwrap().1;
        assert!(l1d.evictions > 0, "L1D must have evicted");
    }

    #[test]
    fn fetch_path_returns_block() {
        let mut sys = new_sys(1);
        for i in 0..8u64 {
            sys.backing_mut().write_uint(0x8000_0000 + i * 4, 4, i);
        }
        assert!(sys.submit_fetch(0, 0x8000_0000, 7));
        let c = run_until_complete(&mut sys, 7, 1000).expect("fetch completes");
        let block = c.fetch_block.expect("fetch returns block");
        assert_eq!(u32::from_le_bytes(block[0..4].try_into().unwrap()), 0);
        assert_eq!(u32::from_le_bytes(block[28..32].try_into().unwrap()), 7);
    }

    #[test]
    fn dual_core_coherence() {
        let mut sys = new_sys(2);
        // Core 0 writes, core 1 reads the same line.
        assert!(sys.submit_data(store_req(0, 0x3000, 1234, 1)));
        run_until_complete(&mut sys, 1, 2000).expect("store");
        assert!(sys.submit_data(load_req(1, 0x3000, 2)));
        let c = run_until_complete(&mut sys, 2, 2000).expect("load");
        assert_eq!(c.data, 1234, "core 1 must see core 0's store");
        // And back: core 1 writes, core 0 reads.
        assert!(sys.submit_data(store_req(1, 0x3000, 5678, 3)));
        run_until_complete(&mut sys, 3, 2000).expect("store");
        assert!(sys.submit_data(load_req(0, 0x3000, 4)));
        let c = run_until_complete(&mut sys, 4, 2000).expect("load");
        assert_eq!(c.data, 5678);
        assert!(sys.scoreboard.as_ref().unwrap().clean(), "{:?}", sys.scoreboard.as_ref().unwrap().violations);
    }

    #[test]
    fn ping_pong_many_rounds_stays_coherent() {
        let mut sys = new_sys(2);
        let mut id = 1;
        let mut expected = 0u64;
        for round in 0..50u64 {
            let writer = (round % 2) as usize;
            expected = round + 1000;
            assert!(sys.submit_data(store_req(writer, 0x4000, expected, id)));
            run_until_complete(&mut sys, id, 5000).expect("store");
            id += 1;
            let reader = 1 - writer;
            assert!(sys.submit_data(load_req(reader, 0x4000, id)));
            let c = run_until_complete(&mut sys, id, 5000).expect("load");
            assert_eq!(c.data, expected, "round {round}");
            id += 1;
        }
        assert_eq!(sys.coherent_read(0x4000, 8), expected);
        assert!(sys.scoreboard.as_ref().unwrap().clean());
    }

    /// Drive concurrent same-line stores from both cores, then check that
    /// (a) both cores agree on the stored dword and (b) the *untouched*
    /// neighboring dword of the same line keeps its sentinel value.
    /// Returns true when wrong data was observed — the signature of the
    /// injected Probe/GrantData corruption.
    fn race_rounds(sys: &mut MemSystem, rounds: u64) -> bool {
        const SENTINEL: u64 = 0xaaaa_5555_aaaa_5555;
        sys.backing_mut().write_uint(0x5008, 8, SENTINEL);
        let mut id = 1;
        for round in 0..rounds {
            // Both cores store concurrently — this creates the
            // Probe/GrantData overlap window at the L2s.
            let v0 = round * 2 + 1;
            let v1 = round * 2 + 2;
            sys.submit_data(store_req(0, 0x5000, v0, id));
            sys.submit_data(store_req(1, 0x5000, v1, id + 1));
            id += 2;
            for _ in 0..400 {
                sys.tick();
            }
            sys.submit_data(load_req(0, 0x5000, id));
            let c0 = run_until_complete(sys, id, 5000).expect("load 0");
            sys.submit_data(load_req(1, 0x5000, id + 1));
            let c1 = run_until_complete(sys, id + 1, 5000).expect("load 1");
            sys.submit_data(load_req(0, 0x5008, id + 2));
            let s0 = run_until_complete(sys, id + 2, 5000).expect("sentinel load");
            id += 3;
            if c0.data != c1.data || (c0.data != v0 && c0.data != v1) || s0.data != SENTINEL {
                return true;
            }
        }
        false
    }

    #[test]
    fn concurrent_stores_stay_coherent_without_bug() {
        let mut sys = new_sys(2);
        assert!(!race_rounds(&mut sys, 25), "no wrong data expected");
        assert!(
            sys.scoreboard.as_ref().unwrap().clean(),
            "{:?}",
            sys.scoreboard.as_ref().unwrap().violations
        );
    }

    #[test]
    fn injected_probe_grant_race_breaks_coherence() {
        let mut sys = new_sys(2);
        sys.inject_l2_race_bug(0);
        let wrong_data = race_rounds(&mut sys, 25);
        assert!(
            wrong_data,
            "the injected race must produce observable wrong data"
        );
    }

    #[test]
    fn telemetry_latency_hists_populate() {
        let mut backing = SparseMemory::new();
        backing.write_uint(0x1000, 8, 7);
        let mut cfg = MemSystemConfig::tiny(1);
        cfg.telemetry = true;
        let mut sys = MemSystem::new(cfg, DramModel::fixed(20), backing);
        sys.submit_data(load_req(0, 0x1000, 1));
        run_until_complete(&mut sys, 1, 1000).expect("miss completes");
        sys.submit_data(load_req(0, 0x1008, 2));
        run_until_complete(&mut sys, 2, 1000).expect("hit completes");
        let lat = sys.latency_hists();
        assert_eq!(lat.l1_miss.samples, 1);
        assert_eq!(lat.l1_hit.samples, 1);
        assert!(lat.l1_miss.max > lat.l1_hit.max, "miss slower than hit");
        assert_eq!(lat.dram.samples, 1);
        assert_eq!(sys.dram_stats().accesses, 1);
    }

    #[test]
    fn telemetry_off_records_nothing() {
        let mut sys = new_sys(1);
        sys.submit_data(load_req(0, 0x1000, 1));
        run_until_complete(&mut sys, 1, 1000).expect("completes");
        assert!(sys.latency_hists().l1_hit.is_empty());
        assert!(sys.latency_hists().l1_miss.is_empty());
        assert!(sys.latency_hists().dram.is_empty());
        // DRAM access counting is always on (cheap, needed by RunStats).
        assert_eq!(sys.dram_stats().accesses, 1);
    }

    #[test]
    fn mshr_stalls_count_rejections() {
        let mut sys = new_sys(1);
        for i in 0..6u64 {
            sys.submit_data(load_req(0, 0xa000 + i * 64, 300 + i));
        }
        let stats = sys.stats();
        let l1d = &stats.iter().find(|(n, _)| n == "l1d0").unwrap().1;
        assert_eq!(l1d.mshr_stalls, 2, "2 of 6 distinct-line misses rejected");
    }

    /// Chunks of each level no longer shared with a snapshot, by name.
    fn unshared_chunks(sys: &MemSystem) -> Vec<(String, usize)> {
        sys.caches()
            .map(|c| (c.cfg.name.clone(), c.chunks() - c.shared_chunks()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }

    #[test]
    fn a_store_after_a_snapshot_unshares_one_chunk_per_written_level() {
        let mut sys = new_sys(1);
        assert!(sys.submit_data(store_req(0, 0x2000, 1, 1)));
        run_until_complete(&mut sys, 1, 1000).expect("warm-up store");
        while !sys.quiescent() {
            sys.tick();
        }
        assert!(sys.caches().all(|c| c.chunks() > 1), "levels are chunked");

        // A hit on a line the L1D owns writes the L1D and nothing else.
        let snapshot = sys.clone();
        assert!(unshared_chunks(&sys).is_empty(), "a clone shares everything");
        let pages = sys.backing().shared_pages();
        assert!(sys.submit_data(store_req(0, 0x2008, 2, 2)));
        run_until_complete(&mut sys, 2, 1000).expect("hit store");
        assert_eq!(unshared_chunks(&sys), [("l1d0".to_string(), 1)]);
        assert_eq!(sys.backing().shared_pages(), pages, "no write-back yet");

        // A miss installs one line at every level on the way: one chunk
        // each, however large the level.
        let snapshot2 = sys.clone();
        assert!(unshared_chunks(&sys).is_empty());
        assert!(sys.submit_data(store_req(0, 0x7_0000, 3, 3)));
        run_until_complete(&mut sys, 3, 1000).expect("miss store");
        let written = unshared_chunks(&sys);
        let names: Vec<&str> = written.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["l1d0", "l2_0", "l3"]);
        assert!(written.iter().all(|(_, n)| *n == 1), "{written:?}");

        // The snapshots kept what they captured.
        let mut snapshot = snapshot;
        assert_eq!(snapshot.coherent_read(0x2008, 8), 0);
        let mut snapshot2 = snapshot2;
        assert_eq!(snapshot2.coherent_read(0x2008, 8), 2);
        assert_eq!(snapshot2.coherent_read(0x7_0000, 8), 0);
        assert_eq!(sys.coherent_read(0x7_0000, 8), 3);
    }

    #[test]
    fn a_fresh_system_holds_only_the_chunks_its_requests_wrote() {
        // Never cloned: what a chunk is shared with here is its level's
        // other never-written chunks. L1s of eight chunks, so that one
        // written chunk leaves several unwritten ones sharing.
        let mut cfg = MemSystemConfig::tiny(1);
        (cfg.l1i.size, cfg.l1d.size) = (16_384, 16_384);
        let mut sys = MemSystem::new(cfg, DramModel::fixed(20), SparseMemory::new());
        assert!(sys.caches().all(|c| c.chunks() >= 8));
        assert!(unshared_chunks(&sys).is_empty(), "boot writes no chunk");

        let settle = |sys: &mut MemSystem, id| {
            run_until_complete(sys, id, 1000).expect("request completes");
            while !sys.quiescent() {
                sys.tick();
            }
        };
        // A store miss installs one line per data level; a second store
        // to its neighbour set lands in the chunks the first one made.
        let one_each = ["l1d0", "l2_0", "l3"].map(|n| (n.to_string(), 1));
        assert!(sys.submit_data(store_req(0, 0x2000, 1, 1)));
        settle(&mut sys, 1);
        assert_eq!(unshared_chunks(&sys), one_each);
        assert!(sys.submit_data(store_req(0, 0x2040, 2, 2)));
        settle(&mut sys, 2);
        assert_eq!(unshared_chunks(&sys), one_each);
        // 24 sets on: another chunk of each level.
        assert!(sys.submit_data(store_req(0, 0x2000 + 24 * 64, 3, 3)));
        settle(&mut sys, 3);
        assert_eq!(unshared_chunks(&sys), one_each.clone().map(|(n, _)| (n, 2)));

        // A fetch writes one L1I chunk (and reuses the L2/L3 chunks of
        // the store beside it); `fence.i` empties that chunk in place and
        // leaves the seven nobody wrote shared.
        assert!(sys.submit_fetch(0, 0x2080, 4));
        settle(&mut sys, 4);
        let with_fetch = unshared_chunks(&sys);
        assert_eq!(with_fetch[0], ("l1i0".to_string(), 1));
        assert_eq!(with_fetch[1..], one_each.map(|(n, _)| (n, 2)));
        sys.flush_l1i(0);
        assert_eq!(unshared_chunks(&sys), with_fetch);
        assert_eq!(sys.caches().next().expect("l1i0").valid_lines(), 0);
        assert_eq!(sys.coherent_read(0x2040, 8), 2);
    }

    /// Drive one load or store to completion (`sel` picks one of 96
    /// lines that share 12 L1D sets, so a run keeps evicting at every
    /// level of the tiny hierarchy).
    fn drive(sys: &mut MemSystem, (sel, is_store, data): (u64, bool, u64), id: u64) {
        let addr = 0x10_0000 + (sel % 12) * 64 + (sel / 12) * 4096 + (data & 0x38);
        let req = if is_store {
            store_req(0, addr, data, id)
        } else {
            load_req(0, addr, id)
        };
        while !sys.submit_data(req) {
            sys.tick();
        }
        run_until_complete(sys, id, 10_000).expect("request completes");
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Snapshot isolation of the chunked arrays: whatever the live
        /// copy does after a clone — hits, fills, evictions and
        /// write-backs through all three levels — the snapshot serializes
        /// to the same bytes, and driving the snapshot leaves the live
        /// copy's bytes alone.
        #[test]
        fn a_snapshot_and_the_live_copy_never_see_each_others_writes(
            before in prop::collection::vec((0u64..96, any::<bool>(), any::<u64>()), 0..120),
            after in prop::collection::vec((0u64..96, any::<bool>(), any::<u64>()), 1..120),
        ) {
            let mut live = new_sys(1);
            let mut id = 0;
            for &op in &before {
                id += 1;
                drive(&mut live, op, id);
            }
            let mut snapshot = live.clone();
            let captured = snapshot.serialize_full_state();
            prop_assert_eq!(&live.serialize_full_state(), &captured);
            for &op in &after {
                id += 1;
                drive(&mut live, op, id);
            }
            prop_assert!(snapshot.serialize_full_state() == captured, "live writes leaked");
            let live_bytes = live.serialize_full_state();
            for &op in after.iter().rev() {
                id += 1;
                drive(&mut snapshot, op, id);
            }
            prop_assert!(live.serialize_full_state() == live_bytes, "snapshot writes leaked");
            prop_assert!(live.scoreboard.as_ref().unwrap().clean());
            prop_assert!(snapshot.scoreboard.as_ref().unwrap().clean());
        }
    }

    /// FNV-1a step over one little-endian word.
    fn fnv(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold completions into a digest: `(at, core, id, data)` and the
    /// fetch block.
    fn fold_completions(h: &mut u64, done: Vec<Completion>) {
        for c in done {
            for v in [c.at, c.req.core as u64, c.req.id, c.data] {
                fnv(h, v);
            }
            for word in c.fetch_block.iter().flat_map(|b| b.chunks(8)) {
                fnv(h, u64::from_le_bytes(word.try_into().expect("8 bytes")));
            }
        }
    }

    /// Two cores submitting every cycle for `cycles` cycles from a seeded
    /// xorshift — loads, stores, `LoadExclusive`s and fetches over 48
    /// lines whose 4 KiB and 16 KiB strides collide in every level of the
    /// tiny hierarchy — then a drain. Returns the FNV-1a digest of every
    /// completion, then of each level's counters and the controller's.
    fn contended_traffic(sys: &mut MemSystem, mut seed: u64, cycles: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut id = 0;
        for _ in 0..cycles {
            for core in 0..2 {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let line =
                    0x10_0000 + (seed & 3) * 4096 + (seed >> 2) % 6 * 16_384 + (seed >> 5 & 1) * 64;
                let word = (seed >> 6 & 7) * 8;
                id += 1;
                let kind = match seed >> 9 & 7 {
                    0..=2 => AccessKind::Load,
                    3 | 4 => AccessKind::Store,
                    5 => AccessKind::LoadExclusive,
                    _ => {
                        sys.submit_fetch(core, line + (word & 32), id);
                        continue;
                    }
                };
                sys.submit_data(CoreReq {
                    core,
                    kind,
                    addr: line + word,
                    size: 8,
                    data: seed,
                    id,
                });
            }
            fold_completions(&mut h, sys.tick());
        }
        for _ in 0..100_000 {
            if sys.quiescent() {
                break;
            }
            fold_completions(&mut h, sys.tick());
        }
        for (_, s) in sys.stats() {
            let CacheStats {
                hits,
                misses,
                writebacks,
                probes_sent,
                probes_received,
                evictions,
                injected_races,
                mshr_stalls,
            } = s;
            for v in [
                hits,
                misses,
                writebacks,
                probes_sent,
                probes_received,
                evictions,
                injected_races,
                mshr_stalls,
            ] {
                fnv(&mut h, v);
            }
        }
        let DramStats {
            accesses,
            row_hits,
            row_misses,
        } = sys.dram_stats();
        for v in [accesses, row_hits, row_misses] {
            fnv(&mut h, v);
        }
        h
    }

    /// Every protocol step of the engine under two-core contention: which
    /// way gets evicted, what a transaction's retirement serves next, and
    /// the order of completions all move this digest.
    #[test]
    fn contended_two_core_traffic_is_pinned() {
        let dram = DramModel::ddr(crate::dram::DdrConfig::ddr4_2400());
        let mut sys = MemSystem::new(MemSystemConfig::tiny(2), dram, SparseMemory::new());
        let digest = contended_traffic(&mut sys, 0x9e37_79b9_7f4a_7c15, 15_000);
        let sb = sys.scoreboard.as_ref().expect("scoreboard on");
        assert!(sb.clean(), "{:?}", sb.violations);
        assert!(sys.quiescent());
        let stats: HashMap<String, CacheStats> = sys.stats().into_iter().collect();
        for level in ["l1d0", "l1d1", "l2_0", "l2_1", "l3"] {
            let s = &stats[level];
            assert!(s.evictions > 0 && s.writebacks > 0, "{level}: {s:?}");
        }
        for level in ["l2_0", "l2_1", "l3"] {
            assert!(stats[level].probes_sent > 0, "{level}: {:?}", stats[level]);
        }
        // Each L2 probes both of its children.
        for level in ["l1i0", "l1d0", "l1i1", "l1d1"] {
            assert!(stats[level].probes_received > 0, "{level}: {:?}", stats[level]);
        }
        assert_eq!(digest, 0xd62d_08c9_7c7c_04c3, "digest {digest:#018x}");
    }

    #[test]
    fn mshr_backpressure() {
        let mut sys = new_sys(1);
        // 4 MSHRs in the tiny config: the fifth distinct-line miss must be
        // rejected in the same cycle.
        let mut accepted = 0;
        for i in 0..6u64 {
            if sys.submit_data(load_req(0, 0x9000 + i * 64, 100 + i)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4, "MSHR limit must backpressure");
        // They all eventually complete after draining.
        for _ in 0..2000 {
            sys.tick();
        }
        assert!(sys.quiescent());
    }
}
