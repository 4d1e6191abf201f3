//! An allocation budget for the DUT tick: the steady-state loop of
//! `XsSystem::tick_skipping_into` may go to the allocator only for what
//! a cache miss needs (the `Requester::Core(vec![req])` of a new
//! transaction, the boxed line of a `Grant`), never per cycle or per
//! request — the pick buffers, the memory system's outbox and the
//! completion buffer of the core/uncore seam are all reused (DESIGN §4
//! "`xscore` pipeline").
//!
//! One thread runs a fixed program, so the counts repeat exactly: this
//! is a regression pin, not a timing test. Measured over the windows
//! below, allocator calls per simulated cycle on `sjeng` and per real
//! (unskipped) tick on `mcf`:
//!
//! | | `sjeng` / cycle | `mcf` / real tick |
//! |---|---|---|
//! | PR 16 (`b944a9f`: an `Outbox` per request and per message, a `Vec` per `MemSystem::tick`) | 1.039 (51 951 calls) | 0.861 (11 202 calls in 13 009 ticks) |
//! | PR 17 | 0.000 (none) | 0.217 (2 817 calls: 520 misses) |
//! | PR 18 (cache arrays materialize on first write) | 0.000 (none) | 0.219 (2 852 calls: the same misses + 35 chunks first written inside the window) |
//!
//! The same allocator counts the bytes a boot asks for: a system's
//! cache arrays materialize on first write (DESIGN §4 "LightSSS
//! snapshots"), so `XsSystem::new` costs what the core needs, not what
//! the preset's caches could hold.
//!
//! And the bytes a report asks for on its way to text: `full_json()`
//! walks the report straight into the `String` it returns (DESIGN §4
//! "`campaign`"), so it costs the growth of that one buffer, not a
//! `Value` tree of the whole report beside it.
//!
//! And the bytes a REF boot asks for: NEMU's uop cache grows with the
//! uops it fills, so DiffTest's default REF costs the program, not the
//! cache it could hold. Once warm, NEMU's `run()` goes to the allocator
//! only for a page it touches first or a uop it fills, never per
//! instruction, and its `step_one()` and the trace tier's not at all:
//! each tier lends the one record it owns (DESIGN §4 "`nemu`", *One
//! stepping contract*).
//!
//! And what a traced row costs: ArchDB keeps the struct the probe
//! emitted in a `VecDeque` (DESIGN §4 "Telemetry"), so a run with the
//! full lifecycle trace or the debug-mode commit trace on goes to the
//! allocator when a ring doubles, not per row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workloads::{workload, Scale};
use xscore::{XsConfig, XsSystem};

thread_local! {
    /// Allocator calls made by this thread (the test harness's other
    /// threads do not disturb the count).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those calls asked for (a `realloc` counts its new size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count(bytes: usize) {
        // Ignored during thread teardown, when the cells are gone.
        let _ = CALLS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialised thread-local `Cell`s, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: as for `dealloc`, with the caller's `layout`/`new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: u64 = 20_000;
const WINDOW: u64 = 50_000;
/// Allocator calls per simulated cycle of a cache-resident kernel.
const CYCLE_BUDGET: f64 = 0.15;
/// Allocator calls per real tick of a DRAM-bound kernel: `mcf` misses
/// the L1D once in 25 real ticks, and a miss that goes to DRAM makes 5.4
/// calls on its way (one 48-byte `vec![req]`, 4.4 boxed 64-byte lines),
/// so what is per miss alone is over the cache-resident budget.
const MISS_BOUND_BUDGET: f64 = 0.25;

/// Run Bench-scale `kernel` on `small-nh` past the warm-up and return
/// what the next `WINDOW` cycles cost: (allocator calls, real ticks).
fn window_cost(kernel: &str) -> (u64, u64) {
    let cfg = XsConfig::preset("small-nh").expect("preset exists");
    let mut sys = XsSystem::new(cfg, &workload(kernel, Scale::Bench).program);
    let mut outs = Vec::new();
    while sys.mem.cycle() < WARM_UP {
        sys.tick_skipping_into(WARM_UP, &mut outs);
    }
    let (before, end, mut ticks) = (CALLS.get(), WARM_UP + WINDOW, 0);
    while sys.mem.cycle() < end {
        sys.tick_skipping_into(end, &mut outs);
        ticks += 1;
    }
    assert!(!sys.all_halted(), "{kernel} halted inside the window");
    (CALLS.get() - before, ticks)
}

#[test]
fn the_steady_state_tick_stays_inside_its_allocation_budget() {
    let (sjeng_calls, sjeng_ticks) = window_cost("sjeng");
    let (mcf_calls, mcf_ticks) = window_cost("mcf");
    let per_cycle = sjeng_calls as f64 / WINDOW as f64;
    let per_tick = mcf_calls as f64 / mcf_ticks as f64;
    println!("sjeng: {sjeng_calls} calls in {sjeng_ticks} real ticks, {per_cycle:.3} per cycle");
    println!("mcf: {mcf_calls} calls in {mcf_ticks} real ticks, {per_tick:.3} per real tick");
    assert!(per_cycle <= CYCLE_BUDGET, "sjeng: {per_cycle:.3} allocator calls per cycle");
    // DRAM-bound: most cycles are skipped, so the cost that matters is
    // that of a tick that really runs.
    assert!(mcf_ticks < WINDOW / 2, "mcf no longer skips: {mcf_ticks} real ticks");
    assert!(per_tick <= MISS_BOUND_BUDGET, "mcf: {per_tick:.3} allocator calls per real tick");
}

/// Bytes `XsSystem::new` may request on the paper's `nh` preset, whose
/// cache arrays alone are 4 736 chunks (≈ 12 MiB of lines for 7.4 MiB of
/// cache). PR 17 (`aeec463`) allocated and filled every one of them at
/// boot, twice over — a `Vec`, then the `Arc<[Line]>` it was copied into:
/// 21 527 500 bytes requested, ≈ 11 MiB of them live. Now an array is one
/// pristine chunk and the boot asks for 556 364 bytes.
const NH_BOOT_BUDGET: u64 = 3 << 19; // 1.5 MiB

#[test]
fn a_boot_allocates_for_the_core_not_for_the_size_of_the_caches() {
    let cfg = XsConfig::preset("nh").expect("preset exists");
    let program = workload("sjeng", Scale::Test).program;
    let before = BYTES.get();
    let sys = XsSystem::new(cfg, &program);
    let bytes = BYTES.get() - before;
    println!("nh: XsSystem::new requested {bytes} bytes");
    assert!(bytes <= NH_BOOT_BUDGET, "nh: a boot requested {bytes} bytes");
    let chunks: usize = sys.mem.caches().map(|c| c.chunks()).sum();
    assert!(chunks > 4_000, "nh no longer has the arrays this bounds: {chunks} chunks");
}

/// Bytes booting DiffTest's default REF may request. The uop cache's
/// capacity is a flush bound, not a reservation, so a boot costs the
/// program's pages: 5 396 bytes for Test-scale `sjeng`. While `Nemu`
/// reserved its 16 384 64-byte uops up front, the same boot requested
/// 1 053 972 — per hart, per job.
const REF_BOOT_BUDGET: u64 = 64 << 10;

#[test]
fn a_ref_boot_allocates_for_the_program_not_for_the_uop_cache() {
    let program = workload("sjeng", Scale::Test).program;
    let before = BYTES.get();
    let r = minjie::AnyRef::by_name(minjie::DEFAULT_REF_NAME, &program, 0);
    let bytes = BYTES.get() - before;
    assert!(r.is_some(), "the default REF boots");
    println!("{}: a REF boot requested {bytes} bytes", minjie::DEFAULT_REF_NAME);
    assert!(bytes <= REF_BOOT_BUDGET, "a REF boot requested {bytes} bytes");
    // That the capacity still flushes the cache is `nemu`'s
    // `capacity_flush`.
}

/// Instructions a `nemu` `run()` of Test-scale `sjeng` (84 503 in all)
/// executes before its window opens: by then the uop cache holds 52 of
/// the 53 uops the kernel ever fills, and memory every page it touches.
const REF_WARM_UP: u64 = 10_000;

#[test]
fn a_warm_nemu_run_allocates_for_new_pages_and_uops_only() {
    use nemu::Interpreter;
    let program = workload("sjeng", Scale::Test).program;
    let mut n = nemu::Nemu::new(&program);
    assert!(n.run(REF_WARM_UP).exit_code.is_none(), "sjeng halted inside the warm-up");
    let (pages, uops, calls) = (n.mem_mut().resident_pages(), n.stats.uop_fills, CALLS.get());
    let r = n.run(u64::MAX);
    let calls = CALLS.get() - calls;
    let pages = (n.mem_mut().resident_pages() - pages) as u64;
    let uops = n.stats.uop_fills - uops;
    println!("nemu run(): {calls} calls in {} instructions, {pages} new pages, {uops} new uops", r.instructions);
    assert!(r.exit_code.is_some(), "sjeng did not halt");
    assert!(r.instructions > 50_000, "the window ran only {} instructions", r.instructions);
    // A page first touched is one allocation; a uop filled may grow the
    // uop array (for itself and its trace's length-cap sentinel) and the
    // pc map once each.
    let budget = pages + 3 * uops;
    assert!(calls <= budget, "a warm run() made {calls} allocator calls (budget {budget})");
}

/// `step_one()` calls on Test-scale `sjeng` before the stepping window
/// opens, and the calls inside it.
const STEP_WARM_UP: u64 = 10_000;
const STEP_WINDOW: u64 = 50_000;

/// Step `tier` past the warm-up and return what the window costs:
/// (allocator calls, pages first touched, decodes filled, by `fills`).
fn step_window<I: nemu::Interpreter>(mut tier: I, fills: fn(&I) -> u64) -> (u64, u64, u64) {
    for _ in 0..STEP_WARM_UP {
        tier.step_one();
    }
    let (pages, filled, calls) = (tier.mem_mut().resident_pages(), fills(&tier), CALLS.get());
    for _ in 0..STEP_WINDOW {
        tier.step_one();
    }
    let calls = CALLS.get() - calls;
    assert!(
        !tier.hart().is_halted(),
        "{}: sjeng halted inside the window",
        tier.name()
    );
    let pages = (tier.mem_mut().resident_pages() - pages) as u64;
    (calls, pages, fills(&tier) - filled)
}

#[test]
fn a_warm_step_loop_allocates_nothing() {
    let program = workload("sjeng", Scale::Test).program;
    let nemu = step_window(nemu::Nemu::new(&program), |n| n.stats.uop_fills);
    let trace = step_window(nemu::NemuTrace::new(&program), |t| t.stats.trace_fills);
    for (name, (calls, pages, fills)) in [("nemu", nemu), ("nemu-trace", trace)] {
        println!("{name} step_one(): {calls} calls in {STEP_WINDOW} steps, {pages} new pages, {fills} new decodes");
        // A window that touched a new page or filled a decode would make
        // the zero below mean less than it says.
        assert_eq!((pages, fills), (0, 0), "{name}: the window is not warm");
        // Each tier lends the one record it owns: a record boxed or
        // allocated per step would count here.
        assert_eq!(
            calls, 0,
            "{name}: a warm step loop made {calls} allocator calls"
        );
    }
}

/// Bytes `CampaignReport::full_json` may request per byte of the text it
/// returns. The text is written into one `String` that doubles as it
/// grows: 1 048 568 bytes requested for the 421 531 of this report
/// (2.5 ×; doubling asks for 2–4 × the final length, and the body of
/// these 40 jobs is deterministic, so the figure repeats). PR 18
/// (`59581b8`) built a `BTreeMap<String, Value>` tree of the whole
/// report first and printed that: 3 710 274 bytes requested for the
/// same text (8.8 ×), nearly all of it live at once.
const REPORT_BYTES_PER_BYTE: u64 = 3;

#[test]
fn a_report_is_written_without_a_tree_of_it() {
    use campaign::{Campaign, JobSpec, WorkloadSource};
    let cfg = workloads::TortureConfig::default();
    let job = |seed| JobSpec::new(WorkloadSource::torture(seed, cfg), "small-nh");
    let report = Campaign::new((0..40).map(job).collect()).with_workers(2).run();
    assert_eq!(report.summary.halted, 40);
    let before = BYTES.get();
    let full = report.full_json();
    let bytes = BYTES.get() - before;
    println!("full_json: {bytes} bytes requested for {} of text", full.len());
    assert!(
        bytes <= REPORT_BYTES_PER_BYTE * full.len() as u64,
        "full_json requested {bytes} bytes for {} of text",
        full.len()
    );
}

/// Allocator calls per thousand ArchDB rows. Measured on the Test-scale
/// `sjeng` run below, past the warm-up: 0.06 with the lifecycle trace on
/// (5 calls for 84 807 rows) and 0.11 in debug mode (7 for 64 228) — the
/// rings doubling. PR 22 (`9ab2faa`) lowered every row to a `Value` tree
/// on insert — a `Map`, a `String` per key and a nested map per struct
/// field: 22 726 and 24 672 calls per thousand rows.
const ROW_BUDGET: f64 = 1.0;

/// Run Test-scale `sjeng` on `cfg` under DiffTest and return the allocator
/// calls per thousand rows ArchDB took after the first `WARM_UP` cycles.
fn calls_per_thousand_rows(cfg: XsConfig, debug_mode: bool) -> f64 {
    use minjie::{CoSim, CoSimEnd};
    let mut cosim = CoSim::new(cfg, &workload("sjeng", Scale::Test).program);
    cosim.debug_mode = debug_mode;
    assert!(matches!(cosim.run(WARM_UP), CoSimEnd::OutOfCycles));
    let (calls, rows) = (CALLS.get(), cosim.archdb.records_inserted());
    assert!(matches!(cosim.run(10_000_000), CoSimEnd::Halted(_)));
    let (calls, rows) = (CALLS.get() - calls, cosim.archdb.records_inserted() - rows);
    assert!(rows > 50_000, "the window traced only {rows} rows");
    println!("debug_mode {debug_mode}: {calls} calls for {rows} rows");
    calls as f64 * 1000.0 / rows as f64
}

#[test]
fn a_traced_row_is_a_struct_copy_not_a_tree() {
    let cfg = XsConfig::preset("small-nh").expect("preset exists");
    let lifecycle = calls_per_thousand_rows(cfg.clone().with_lifecycle(), false);
    let debug = calls_per_thousand_rows(cfg, true);
    assert!(lifecycle <= ROW_BUDGET, "lifecycle trace: {lifecycle:.2} allocator calls per 1000 rows");
    assert!(debug <= ROW_BUDGET, "debug mode: {debug:.2} allocator calls per 1000 rows");
}
