//! Property tier for [`SparseMemory`]'s word-granular fast path: the
//! `read_uint`/`write_uint`/`fetch32` overrides must be indistinguishable
//! from the byte-wise `read`/`write` they shortcut — for every access
//! size, at page-straddling offsets, and on pages nothing ever wrote.

use proptest::prelude::*;
use riscv_isa::mem::{PhysMem, SparseMemory, PAGE_SIZE};

const BASE: u64 = 0x8000_0000;

/// `size` little-endian bytes at `addr`, through the byte-wise `read`.
fn read_bytewise(m: &mut SparseMemory, addr: u64, size: u64) -> u64 {
    let mut buf = [0u8; 8];
    m.read(addr, &mut buf[..size as usize]);
    u64::from_le_bytes(buf)
}

/// Page offsets worth probing: the straddle zone the issue names
/// (4088..=4095), the page start, and one arbitrary interior offset.
fn offset_of(pick: u64) -> u64 {
    match pick % 12 {
        n @ 0..=7 => 4088 + n,
        8 => 0,
        9 => 1,
        _ => pick % PAGE_SIZE,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A `write_uint` is the byte-wise `write` of the value's low bytes,
    /// and a `read_uint` is the byte-wise `read`, whatever the size and
    /// wherever the access sits relative to a page boundary.
    #[test]
    fn uint_accesses_agree_with_bytewise(
        pick in any::<u64>(),
        size in 1u64..9,
        value in any::<u64>(),
        background in any::<u64>(),
    ) {
        let addr = BASE + offset_of(pick);
        let mut fast = SparseMemory::new();
        let mut slow = SparseMemory::new();
        // A non-zero background on both pages, so a store that touches a
        // byte too many (or too few) shows.
        for m in [&mut fast, &mut slow] {
            for i in 0..(2 * PAGE_SIZE / 8) {
                m.write(BASE + 8 * i, &background.rotate_left(i as u32).to_le_bytes());
            }
        }
        fast.write_uint(addr, size, value);
        slow.write(addr, &value.to_le_bytes()[..size as usize]);
        for probe in (addr - 8)..(addr + 16) {
            prop_assert_eq!(
                read_bytewise(&mut fast, probe, 1),
                read_bytewise(&mut slow, probe, 1),
                "byte at {:#x} after a {}-byte store at {:#x}", probe, size, addr
            );
        }
        let mask = if size == 8 { u64::MAX } else { (1 << (8 * size)) - 1 };
        prop_assert_eq!(fast.read_uint(addr, size), value & mask);
        for s in 1u64..9 {
            prop_assert_eq!(fast.read_uint(addr, s), read_bytewise(&mut slow, addr, s));
        }
        prop_assert_eq!(u64::from(fast.fetch32(addr)), read_bytewise(&mut slow, addr, 4));
        prop_assert_eq!(fast.resident_pages(), slow.resident_pages());
    }

    /// Reads of memory nothing wrote return zero and allocate nothing —
    /// in one page, across two, and next to a page that is backed.
    #[test]
    fn unbacked_reads_are_zero_and_allocate_nothing(pick in any::<u64>(), size in 1u64..9) {
        let addr = BASE + offset_of(pick);
        let mut m = SparseMemory::new();
        prop_assert_eq!(m.read_uint(addr, size), 0);
        prop_assert_eq!(m.fetch32(addr), 0);
        prop_assert_eq!(m.resident_pages(), 0);
        // Back the first page only: a straddling read sees its bytes and
        // zeros from the second, which stays unallocated.
        m.write(BASE, &[0xa5; PAGE_SIZE as usize]);
        let got = m.read_uint(addr, size);
        prop_assert_eq!(got, read_bytewise(&mut m.clone(), addr, size));
        let in_first = (PAGE_SIZE - (addr - BASE)).min(size);
        let want = if in_first == 8 { u64::MAX } else { (1u64 << (8 * in_first)) - 1 };
        prop_assert_eq!(got, 0xa5a5_a5a5_a5a5_a5a5 & want);
        prop_assert_eq!(m.resident_pages(), 1);
    }
}
