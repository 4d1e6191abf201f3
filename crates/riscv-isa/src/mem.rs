//! Sparse, copy-on-write physical memory.
//!
//! [`SparseMemory`] stores guest memory as 4 KiB pages behind [`Arc`]s.
//! Cloning it is cheap — only the page table is copied, the pages
//! themselves are shared and duplicated lazily on the next write. This is
//! the substrate of the LightSSS snapshot mechanism: where the paper uses
//! `fork()` and the kernel's copy-on-write, this reproduction uses
//! `Arc::make_mut` and language-level copy-on-write (see DESIGN.md §5.3).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Page size in bytes (matches the Sv39 base page).
pub const PAGE_SIZE: u64 = 4096;

/// UART transmit register: write-only MMIO in every model's device map.
pub const UART_TX: u64 = 0x1000_0000;
/// CLINT `mtime` register: read-only MMIO.
pub const MTIME: u64 = 0x0200_bff8;
/// LR/SC reservation granule, in bytes.
pub const RESERVATION_GRANULE: u64 = 64;
const PAGE_MASK: u64 = PAGE_SIZE - 1;

type Page = [u8; PAGE_SIZE as usize];

/// Bytes of one page in a [`SparseMemory::serialize_full`] image: its
/// index, then its contents.
const PAGE_RECORD: usize = 8 + PAGE_SIZE as usize;

/// Multiplicative hasher for small integer keys (page indices, pcs).
///
/// The page map is probed on every guest memory access, where SipHash
/// costs more than the access itself. Keys are guest addresses, so the
/// collision resistance given up only matters to a guest that attacks
/// its own simulator's speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

/// `BuildHasher` of [`IntHasher`], for `HashMap<u64, _, IntBuildHasher>`.
pub type IntBuildHasher = BuildHasherDefault<IntHasher>;

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply, folded so both the bucket bits (low) and
        // the control-byte bits (high) see the whole key.
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Little-endian load of `size` (1..=8) bytes from the front of `bytes`.
#[inline]
fn load_le(bytes: &[u8], size: usize) -> u64 {
    match size {
        8 => u64::from_le_bytes(bytes[..8].try_into().expect("8-byte slice")),
        4 => u64::from(u32::from_le_bytes(bytes[..4].try_into().expect("4-byte slice"))),
        2 => u64::from(u16::from_le_bytes(bytes[..2].try_into().expect("2-byte slice"))),
        1 => u64::from(bytes[0]),
        _ => {
            let mut buf = [0u8; 8];
            buf[..size].copy_from_slice(&bytes[..size]);
            u64::from_le_bytes(buf)
        }
    }
}

/// Abstract byte-addressed physical memory.
///
/// Implemented by [`SparseMemory`] and by the cache hierarchy front doors
/// in `uncore`, so interpreters and the core model are generic over where
/// their memory traffic actually goes.
pub trait PhysMem {
    /// Read `buf.len()` bytes starting at physical address `addr`.
    fn read(&mut self, addr: u64, buf: &mut [u8]);
    /// Write `buf` starting at physical address `addr`.
    fn write(&mut self, addr: u64, buf: &[u8]);

    /// Read an unsigned little-endian value of `size` bytes (1/2/4/8).
    fn read_uint(&mut self, addr: u64, size: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read(addr, &mut buf[..size as usize]);
        u64::from_le_bytes(buf)
    }

    /// Write the low `size` bytes of `value` little-endian.
    fn write_uint(&mut self, addr: u64, size: u64, value: u64) {
        let buf = value.to_le_bytes();
        self.write(addr, &buf[..size as usize]);
    }

    /// Fetch 32 bits for instruction decode (may cross a page boundary).
    fn fetch32(&mut self, addr: u64) -> u32 {
        self.read_uint(addr, 4) as u32
    }
}

/// Little-endian store of the low `size` (1..=8) bytes of `value` to the
/// front of `bytes`.
#[inline]
fn store_le(bytes: &mut [u8], size: usize, value: u64) {
    match size {
        8 => bytes[..8].copy_from_slice(&value.to_le_bytes()),
        4 => bytes[..4].copy_from_slice(&(value as u32).to_le_bytes()),
        2 => bytes[..2].copy_from_slice(&(value as u16).to_le_bytes()),
        1 => bytes[0] = value as u8,
        _ => bytes[..size].copy_from_slice(&value.to_le_bytes()[..size]),
    }
}

/// Sparse copy-on-write physical memory.
///
/// Unbacked reads return zero; writes allocate pages on demand.
///
/// # Example
///
/// ```
/// use riscv_isa::mem::{PhysMem, SparseMemory};
/// let mut mem = SparseMemory::new();
/// mem.write_uint(0x8000_0000, 8, 0xdead_beef);
/// assert_eq!(mem.read_uint(0x8000_0000, 8), 0xdead_beef);
///
/// // Snapshots are cheap: pages are shared until written.
/// let snapshot = mem.clone();
/// mem.write_uint(0x8000_0000, 8, 1);
/// assert_eq!(snapshot.clone().read_uint(0x8000_0000, 8), 0xdead_beef);
/// ```
#[derive(Clone, Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Arc<Page>, IntBuildHasher>,
}

impl std::fmt::Debug for SparseMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseMemory")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl SparseMemory {
    /// Create an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages whose storage is currently shared with a snapshot.
    ///
    /// Used by the LightSSS evaluation to observe copy-on-write behavior.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Copy a byte slice into memory (used by program loaders).
    pub fn load_image(&mut self, addr: u64, image: &[u8]) {
        self.write(addr, image);
    }

    /// Serialize the entire memory eagerly into a flat byte buffer.
    ///
    /// This is deliberately expensive — it is the "SSS" baseline snapshot
    /// of paper §III-C2, contrasted against the incremental COW clone.
    pub fn serialize_full(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.serialize_full_into(&mut out);
        out
    }

    /// Append the [`Self::serialize_full`] image to `out`: the page
    /// count, then `(index, bytes)` per page in ascending index order.
    /// A caller that frames the image (a checkpoint blob) or serializes
    /// many memories writes into one buffer instead of copying a second.
    pub fn serialize_full_into(&self, out: &mut Vec<u8>) {
        let mut keys: Vec<_> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        out.reserve(8 + keys.len() * PAGE_RECORD);
        out.extend_from_slice(&(keys.len() as u64).to_le_bytes());
        for k in keys {
            out.extend_from_slice(&k.to_le_bytes());
            out.extend_from_slice(&self.pages[&k][..]);
        }
    }

    /// Rebuild a memory from the output of [`Self::serialize_full`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer is truncated or malformed;
    /// [`Self::try_deserialize_full`] is the form for bytes read from disk.
    pub fn deserialize_full(data: &[u8]) -> Self {
        Self::try_deserialize_full(data).expect("valid memory image")
    }

    /// Rebuild a memory from the output of [`Self::serialize_full`],
    /// accepting only what [`Self::serialize_full`] can have written: the
    /// page count must account for every remaining byte (checked before
    /// anything is allocated for it) and the page indices must ascend
    /// strictly — so an accepted image re-serializes to the same bytes.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn try_deserialize_full(data: &[u8]) -> Result<Self, String> {
        let Some((count, records)) = data.split_first_chunk::<8>() else {
            return Err(format!("image too short for a page count: {} bytes", data.len()));
        };
        let n = u64::from_le_bytes(*count);
        let expected = usize::try_from(n).ok().and_then(|n| n.checked_mul(PAGE_RECORD));
        if expected != Some(records.len()) {
            return Err(format!(
                "page count {n} does not match the {} bytes that follow it",
                records.len()
            ));
        }
        let mut pages = HashMap::with_capacity_and_hasher(n as usize, IntBuildHasher::default());
        let mut last = None;
        for record in records.chunks_exact(PAGE_RECORD) {
            let (index, bytes) = record.split_first_chunk::<8>().expect("record holds an index");
            let k = u64::from_le_bytes(*index);
            if last.is_some_and(|last| k <= last) {
                return Err(format!("page index {k:#x} is out of order or repeated"));
            }
            last = Some(k);
            let page: &Page = bytes.try_into().expect("record holds a page");
            pages.insert(k, Arc::new(*page));
        }
        Ok(SparseMemory { pages })
    }

    /// Make every page that `other` holds at the same index with equal
    /// bytes the *same* page (one `Arc`), and return how many were
    /// joined. Memories cloned from one another share pages already;
    /// this restores the sharing for memories that were rebuilt apart,
    /// such as consecutive checkpoints of one run read back from disk. A
    /// 4 KiB compare is cheaper than the page it frees.
    pub fn share_pages_with(&mut self, other: &SparseMemory) -> usize {
        let mut joined = 0;
        for (k, page) in &mut self.pages {
            if let Some(theirs) = other.pages.get(k) {
                if !Arc::ptr_eq(page, theirs) && **page == **theirs {
                    *page = Arc::clone(theirs);
                    joined += 1;
                }
            }
        }
        joined
    }

    #[inline]
    fn page_mut(&mut self, page_idx: u64) -> &mut Page {
        Arc::make_mut(
            self.pages
                .entry(page_idx)
                .or_insert_with(|| Arc::new([0u8; PAGE_SIZE as usize])),
        )
    }
}

impl PhysMem for SparseMemory {
    fn read(&mut self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut done = 0;
        while done < buf.len() {
            let page_idx = addr / PAGE_SIZE;
            let off = (addr & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize - off) as usize).min(buf.len() - done);
            match self.pages.get(&page_idx) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr += n as u64;
        }
    }

    fn write(&mut self, addr: u64, buf: &[u8]) {
        let mut addr = addr;
        let mut done = 0;
        while done < buf.len() {
            let page_idx = addr / PAGE_SIZE;
            let off = (addr & PAGE_MASK) as usize;
            let n = ((PAGE_SIZE as usize - off) as usize).min(buf.len() - done);
            self.page_mut(page_idx)[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr += n as u64;
        }
    }

    // Word-granular fast path: an access that stays inside one page is
    // one page probe plus one fixed-width load or store. Straddles take
    // the byte loops above.

    #[inline]
    fn read_uint(&mut self, addr: u64, size: u64) -> u64 {
        let off = (addr & PAGE_MASK) as usize;
        let size = size as usize;
        if off + size > PAGE_SIZE as usize {
            let mut buf = [0u8; 8];
            self.read(addr, &mut buf[..size]);
            return u64::from_le_bytes(buf);
        }
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => load_le(&p[off..], size),
            None => 0,
        }
    }

    #[inline]
    fn write_uint(&mut self, addr: u64, size: u64, value: u64) {
        let off = (addr & PAGE_MASK) as usize;
        let size = size as usize;
        if off + size > PAGE_SIZE as usize {
            self.write(addr, &value.to_le_bytes()[..size]);
        } else {
            store_le(&mut self.page_mut(addr / PAGE_SIZE)[off..], size, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_on_unbacked_read() {
        let mut m = SparseMemory::new();
        assert_eq!(m.read_uint(0x1234, 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_uint(0x8000_0000, 8, 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x8000_0000, 8), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x8000_0004, 4), 0x1122_3344);
        assert_eq!(m.read_uint(0x8000_0000, 1), 0x88);
    }

    #[test]
    fn page_crossing_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE - 4;
        m.write_uint(addr, 8, 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.read_uint(addr, 8), 0xaabb_ccdd_eeff_0011);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn cow_snapshot_isolation() {
        let mut m = SparseMemory::new();
        m.write_uint(0x1000, 8, 42);
        let snap = m.clone();
        assert_eq!(m.shared_pages(), 1);
        m.write_uint(0x1000, 8, 99);
        // The write duplicated the page; the snapshot sees the old value.
        let mut snap = snap;
        assert_eq!(snap.read_uint(0x1000, 8), 42);
        assert_eq!(m.read_uint(0x1000, 8), 99);
        assert_eq!(m.shared_pages(), 0);
    }

    #[test]
    fn full_serialization_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_uint(0x0, 8, 1);
        m.write_uint(0x10_0000, 8, 2);
        m.write_uint(0xdead_b000, 4, 3);
        let blob = m.serialize_full();
        let mut back = SparseMemory::deserialize_full(&blob);
        assert_eq!(back.read_uint(0x0, 8), 1);
        assert_eq!(back.read_uint(0x10_0000, 8), 2);
        assert_eq!(back.read_uint(0xdead_b000, 4), 3);
        assert_eq!(back.resident_pages(), m.resident_pages());
        assert_eq!(back.serialize_full(), blob, "the image is canonical");
        let mut framed = vec![0xaa; 3];
        m.serialize_full_into(&mut framed);
        assert_eq!(framed[..3], [0xaa; 3], "appends, keeps what was there");
        assert_eq!(framed[3..], blob[..]);
    }

    #[test]
    fn malformed_images_are_errors_not_panics() {
        let mut m = SparseMemory::new();
        m.write_uint(0x1000, 8, 1);
        m.write_uint(0x3000, 8, 2);
        let blob = m.serialize_full();
        for cut in 0..blob.len() {
            assert!(SparseMemory::try_deserialize_full(&blob[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(SparseMemory::try_deserialize_full(&long).is_err(), "trailing byte");
        // A page count no buffer could hold must fail before allocating.
        for lie in [3, u64::MAX, u64::MAX / PAGE_RECORD as u64 + 1] {
            let mut lying = blob.clone();
            lying[..8].copy_from_slice(&lie.to_le_bytes());
            assert!(SparseMemory::try_deserialize_full(&lying).is_err(), "count {lie}");
        }
        // Unsorted and repeated indices would not re-serialize as read.
        let second = 8 + PAGE_RECORD;
        for index in [0u64, 1] {
            let mut unordered = blob.clone();
            unordered[second..second + 8].copy_from_slice(&index.to_le_bytes());
            assert!(SparseMemory::try_deserialize_full(&unordered).is_err(), "index {index}");
        }
        assert!(SparseMemory::try_deserialize_full(&blob).is_ok());
    }

    #[test]
    fn share_pages_with_joins_equal_pages_only() {
        let mut a = SparseMemory::new();
        for page in 0..4u64 {
            a.write_uint(page * PAGE_SIZE, 8, page + 1);
        }
        let mut b = SparseMemory::deserialize_full(&a.serialize_full());
        b.write_uint(2 * PAGE_SIZE, 8, 99); // differs
        b.write_uint(7 * PAGE_SIZE, 8, 5); // only in b
        assert_eq!((a.shared_pages(), b.shared_pages()), (0, 0));
        assert_eq!(b.share_pages_with(&a), 3);
        assert_eq!((a.shared_pages(), b.shared_pages()), (3, 3));
        assert_eq!(b.share_pages_with(&a), 0, "already joined");
        // Joined pages are still copy-on-write.
        b.write_uint(0, 8, 7);
        assert_eq!((a.read_uint(0, 8), b.read_uint(0, 8)), (1, 7));
        assert_eq!(b.read_uint(2 * PAGE_SIZE, 8), 99);
        assert_eq!(b.resident_pages(), 5);
    }

    #[test]
    fn load_image_places_bytes() {
        let mut m = SparseMemory::new();
        m.load_image(0x8000_0000, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_uint(0x8000_0000, 4), 0x0403_0201);
        assert_eq!(m.read_uint(0x8000_0004, 1), 5);
    }
}
