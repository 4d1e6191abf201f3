//! In-memory span recorder for the traced (`--trace 1`) run.
//!
//! A span is `(name, start, end, parent, sim)`: `parent` is the span that
//! was open when this one started, `sim` is an identifier shared by every
//! span of one simulation. Spans stay in memory while the benchmark runs
//! and are written out once, at exit. The harness is single-threaded
//! wherever it records spans (campaign worker threads are inside a span,
//! not instrumented), so nesting is a plain stack.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    sim: u32,
}

/// Aggregate of every span sharing a name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    sim: u32,
}

/// Run one operation and time it: as a leaf span of a fresh simulation
/// when a tracer is given, plain otherwise. Returns the result and the
/// seconds it took.
pub fn timed<R>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let t0 = Instant::now();
    let r = match tr {
        Some(tr) => {
            tr.next_sim();
            tr.leaf(name, f)
        }
        None => f(),
    };
    (r, t0.elapsed().as_secs_f64())
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            sim: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new simulation: spans recorded from here share a fresh id.
    pub fn next_sim(&mut self) {
        self.sim += 1;
    }

    /// Record `f` as a span that may contain child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            sim: self.sim,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        r
    }

    /// Record `f` as a span without children (the hot-loop form: one
    /// push, no stack traffic).
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            sim: self.sim,
        });
        r
    }

    /// Per-name totals; a span's self time is its duration minus its
    /// children's.
    pub fn totals(&self) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Totals of the spans named `root` and, by name, of their direct
    /// children — the per-layer breakdown of one kind of simulation.
    pub fn under(&self, root: &str) -> (Total, BTreeMap<&'static str, Total>) {
        let mut top = Total::default();
        let mut kids: BTreeMap<&'static str, Total> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            if s.name == root {
                top.count += 1;
                top.total_ns += dur;
            } else if s.parent != NO_PARENT && self.spans[s.parent as usize].name == root {
                let t = kids.entry(s.name).or_default();
                t.count += 1;
                t.total_ns += dur;
            }
        }
        top.self_ns = top.total_ns - kids.values().map(|t| t.total_ns).sum::<u64>();
        (top, kids)
    }

    /// Mean duration (ns) an empty leaf span records — the clock's own
    /// cost, which every recorded span includes once. Sampled hot-loop
    /// spans are a few hundred nanoseconds long, so their totals are
    /// corrected by this before they are scaled up.
    pub fn clock_bias_ns() -> f64 {
        let mut t = Tracer::new();
        const N: u32 = 100_000;
        for _ in 0..N {
            t.leaf("calibrate", || ());
        }
        let total: u64 = t.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        total as f64 / f64::from(N)
    }

    /// Durations (ns) of every span with this name, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,sim,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{id},{parent},{},{},{},{}",
                s.sim, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
