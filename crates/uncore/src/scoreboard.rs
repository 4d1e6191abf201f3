//! The coherence permission scoreboard and bus-legality checker.
//!
//! This is the cache-hierarchy half of the paper's §III-B2b diff-rules:
//! caches are treated as black boxes and only the *transactions* between
//! levels are monitored. Two rule families are enforced:
//!
//! 1. **bus legality** — a `ProbeAck` must answer an outstanding `Probe`,
//!    a `Grant` must answer an outstanding `Acquire`, a `ReleaseAck` an
//!    outstanding `Release`;
//! 2. **permission scoreboard** — per block, sibling clients of the same
//!    manager may never simultaneously hold Trunk (or Trunk + Branch).
//!
//! The §IV-C injected bug is caught by rule 2: the buggy L2 acks a probe
//! without shrinking, so the next Grant to the sibling creates two Trunk
//! owners.

use crate::msg::{Msg, MsgKind, Node, Perm};
use std::collections::HashMap;

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Cycle the violating message was observed.
    pub at: u64,
    /// Line address concerned.
    pub line: u64,
    /// Human-readable description.
    pub description: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {}: line {:#x}: {}",
            self.at, self.line, self.description
        )
    }
}

/// Observes every hierarchy message and checks coherence invariants.
#[derive(Debug, Clone, Default)]
pub struct CoherenceScoreboard {
    /// Believed permission of each (line, client) pair.
    perms: HashMap<(u64, Node), Perm>,
    /// Outstanding probes: (line, client) -> cap.
    outstanding_probes: HashMap<(u64, Node), Perm>,
    /// Outstanding acquires: (line, client) -> need.
    outstanding_acquires: HashMap<(u64, Node), Perm>,
    /// Outstanding releases: (line, client).
    outstanding_releases: HashMap<(u64, Node), ()>,
    /// Parent of each client node (topology).
    parents: HashMap<Node, Node>,
    /// All violations found so far.
    pub violations: Vec<Violation>,
}

impl CoherenceScoreboard {
    /// Create a scoreboard for the given topology (child -> parent).
    pub fn new(parents: HashMap<Node, Node>) -> Self {
        CoherenceScoreboard {
            parents,
            ..Default::default()
        }
    }

    fn violate(&mut self, at: u64, line: u64, description: String) {
        self.violations.push(Violation {
            at,
            line,
            description,
        });
    }

    fn siblings(&self, node: Node) -> Vec<Node> {
        let Some(parent) = self.parents.get(&node) else {
            return Vec::new();
        };
        self.parents
            .iter()
            .filter(|(c, p)| **p == *parent && **c != node)
            .map(|(c, _)| *c)
            .collect()
    }

    /// Observe one routed message as it is delivered at cycle `at`
    /// (called by the hierarchy router).
    pub fn observe(&mut self, at: u64, msg: &Msg) {
        match &msg.kind {
            MsgKind::Acquire { line, need } => {
                self.outstanding_acquires.insert((*line, msg.src), *need);
            }
            MsgKind::Grant { line, perm, .. } => {
                let client = msg.dst;
                if self.outstanding_acquires.remove(&(*line, client)).is_none() {
                    self.violate(at, *line, format!("Grant to {client:?} without Acquire"));
                }
                self.perms.insert((*line, client), *perm);
                if *perm == Perm::Trunk {
                    for sib in self.siblings(client) {
                        let sp = self
                            .perms
                            .get(&(*line, sib))
                            .copied()
                            .unwrap_or(Perm::None);
                        if sp > Perm::None {
                            self.violate(
                                at,
                                *line,
                                format!(
                                    "Trunk granted to {client:?} while sibling {sib:?} holds {sp:?}"
                                ),
                            );
                        }
                    }
                } else {
                    for sib in self.siblings(client) {
                        let sp = self
                            .perms
                            .get(&(*line, sib))
                            .copied()
                            .unwrap_or(Perm::None);
                        if sp == Perm::Trunk {
                            self.violate(
                                at,
                                *line,
                                format!(
                                    "Branch granted to {client:?} while sibling {sib:?} holds Trunk"
                                ),
                            );
                        }
                    }
                }
            }
            MsgKind::Probe { line, cap } => {
                self.outstanding_probes.insert((*line, msg.dst), *cap);
            }
            MsgKind::ProbeAck { line, now, .. } => {
                let client = msg.src;
                match self.outstanding_probes.remove(&(*line, client)) {
                    None => {
                        self.violate(at, *line, format!("ProbeAck from {client:?} without Probe"));
                    }
                    Some(cap) => {
                        if *now > cap {
                            self.violate(
                                at,
                                *line,
                                format!(
                                    "ProbeAck reports {now:?} above the probed cap {cap:?}"
                                ),
                            );
                        }
                    }
                }
                self.perms.insert((*line, client), *now);
            }
            MsgKind::Release { line, .. } => {
                self.outstanding_releases.insert((*line, msg.src), ());
                self.perms.insert((*line, msg.src), Perm::None);
            }
            MsgKind::GrantAck { line } => {
                // Must follow a grant the client actually received; the
                // perms map records receipt.
                if !self.perms.contains_key(&(*line, msg.src)) {
                    self.violate(at, *line, format!("GrantAck from {:?} without Grant", msg.src));
                }
            }
            MsgKind::ReleaseAck { line } => {
                if self
                    .outstanding_releases
                    .remove(&(*line, msg.dst))
                    .is_none()
                {
                    self.violate(
                        at,
                        *line,
                        format!("ReleaseAck to {:?} without Release", msg.dst),
                    );
                }
            }
        }
    }

    /// True when no violations have been recorded.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> HashMap<Node, Node> {
        let mut m = HashMap::new();
        m.insert(Node::L2(0), Node::L3);
        m.insert(Node::L2(1), Node::L3);
        m.insert(Node::L3, Node::Dram);
        m
    }

    fn msg(src: Node, dst: Node, kind: MsgKind) -> Msg {
        Msg { src, dst, kind }
    }

    #[test]
    fn clean_handoff_passes() {
        let mut sb = CoherenceScoreboard::new(topo());
        // L2(0) acquires Trunk.
        sb.observe(1, &msg(Node::L2(0), Node::L3, MsgKind::Acquire { line: 0x100, need: Perm::Trunk }));
        sb.observe(1, &msg(Node::L3, Node::L2(0), MsgKind::Grant { line: 0x100, perm: Perm::Trunk, data: None }));
        // L3 probes it away before granting to L2(1).
        sb.observe(1, &msg(Node::L3, Node::L2(0), MsgKind::Probe { line: 0x100, cap: Perm::None }));
        sb.observe(1, &msg(Node::L2(0), Node::L3, MsgKind::ProbeAck { line: 0x100, now: Perm::None, data: None }));
        sb.observe(1, &msg(Node::L2(1), Node::L3, MsgKind::Acquire { line: 0x100, need: Perm::Trunk }));
        sb.observe(1, &msg(Node::L3, Node::L2(1), MsgKind::Grant { line: 0x100, perm: Perm::Trunk, data: None }));
        assert!(sb.clean(), "{:?}", sb.violations);
    }

    #[test]
    fn double_trunk_is_flagged() {
        let mut sb = CoherenceScoreboard::new(topo());
        for core in [0, 1] {
            sb.observe(1, &msg(Node::L2(core), Node::L3, MsgKind::Acquire { line: 0x100, need: Perm::Trunk }));
            sb.observe(1, &msg(Node::L3, Node::L2(core), MsgKind::Grant { line: 0x100, perm: Perm::Trunk, data: None }));
        }
        assert!(!sb.clean());
        assert!(sb.violations[0].description.contains("Trunk"));
    }

    #[test]
    fn probe_ack_without_probe_is_flagged() {
        let mut sb = CoherenceScoreboard::new(topo());
        sb.observe(1, &msg(Node::L2(0), Node::L3, MsgKind::ProbeAck { line: 0x40, now: Perm::None, data: None }));
        assert!(!sb.clean());
    }

    #[test]
    fn grant_without_acquire_is_flagged() {
        let mut sb = CoherenceScoreboard::new(topo());
        sb.observe(1, &msg(Node::L3, Node::L2(0), MsgKind::Grant { line: 0x40, perm: Perm::Branch, data: None }));
        assert!(!sb.clean());
    }

    #[test]
    fn probe_ack_above_cap_is_flagged() {
        let mut sb = CoherenceScoreboard::new(topo());
        sb.observe(1, &msg(Node::L3, Node::L2(0), MsgKind::Probe { line: 0x40, cap: Perm::None }));
        sb.observe(1, &msg(Node::L2(0), Node::L3, MsgKind::ProbeAck { line: 0x40, now: Perm::Branch, data: None }));
        assert!(!sb.clean());
    }
}
