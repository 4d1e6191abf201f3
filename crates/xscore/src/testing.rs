//! Fixture for the per-stage unit tests: the shared structures of an idle
//! core over an empty memory, lent out as a [`Shared`] next to stage
//! structs a test drives one at a time — no `XsSystem`, no program.

use crate::core::{Core, CycleOutput, Shared, Stages};
use crate::uop::{PreUop, Uop};
use crate::XsConfig;
use riscv_isa::mem::SparseMemory;
use uncore::MemSystem;

/// Reset PC of the fixture's core.
pub(crate) const BOOT: u64 = 0x8000_0000;

pub(crate) struct Bench {
    core: Core,
    mem: MemSystem,
    out: CycleOutput,
}

impl Bench {
    pub(crate) fn new() -> Self {
        let cfg = XsConfig::preset("small-nh").expect("preset exists");
        let mem = MemSystem::new(
            cfg.mem_system_config(),
            cfg.memory.build(),
            SparseMemory::new(),
        );
        Bench {
            core: Core::new(cfg, 0, BOOT),
            mem,
            out: CycleOutput::default(),
        }
    }

    pub(crate) fn core(&mut self) -> &mut Core {
        &mut self.core
    }

    /// The shared structures at cycle 0 (tests move `cycle` themselves),
    /// and the stage structs.
    pub(crate) fn split(&mut self) -> (Shared<'_>, &mut Stages) {
        self.core.split(&mut self.mem, &mut self.out)
    }
}

/// `raw` predecoded at `pc` the way the frontend pushes a non-branch.
pub(crate) fn pre(pc: u64, raw: u32) -> PreUop {
    let inst = riscv_isa::decode32(raw);
    PreUop {
        uop: Uop::new(pc, inst, pc + 4),
        pred: None,
        fault: None,
        fetched_at: 0,
    }
}

/// Rename and dispatch `raws` as consecutive instructions from [`BOOT`].
pub(crate) fn dispatch(sh: &mut Shared, st: &mut Stages, raws: &[u32]) {
    let pcs = (BOOT..).step_by(4);
    st.frontend.ibuf = pcs.zip(raws).map(|(pc, &raw)| pre(pc, raw)).collect();
    while !st.frontend.ibuf.is_empty() {
        assert!(
            st.rename.tick(sh, &mut st.frontend.ibuf).0,
            "fixture rename stalled"
        );
    }
}

// Hand-assembled instructions the tests use.
/// `addi x5, x5, 1`
pub(crate) const ADDI_X5: u32 = 0x0012_8293;
/// `addi x6, x6, 1`
pub(crate) const ADDI_X6: u32 = 0x0013_0313;
/// `ld x7, 0(x5)`
pub(crate) const LD_X7_X5: u32 = 0x0002_b383;
/// `sw x6, 0(x5)`
pub(crate) const SW_X6_X5: u32 = 0x0062_a023;
/// `jal x0, +16`
pub(crate) const JAL_16: u32 = 0x0100_006f;
/// `ecall`
pub(crate) const ECALL: u32 = 0x0000_0073;
/// `lr.d x6, (x5)`
pub(crate) const LR_D_X6_X5: u32 = 0x1002_b32f;
/// `sc.d x7, x6, (x5)`
pub(crate) const SC_D_X7_X6_X5: u32 = 0x1862_b3af;
