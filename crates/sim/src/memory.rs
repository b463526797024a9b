//! Sparse byte-addressable simulated memory.

use crate::page_table::{PageTable, PAGE_SHIFT, PAGE_SIZE};

const PAGE_BYTES: usize = PAGE_SIZE as usize;

type Page = Box<[u8; PAGE_BYTES]>;

/// Sparse, zero-initialized memory over the whole 64-bit address space.
/// Pages are allocated on first write; addresses below 4 GiB, where the
/// simulated programs live, are the cheapest to look up.
///
/// # Examples
///
/// ```
/// use uwm_sim::memory::Memory;
/// let mut m = Memory::new();
/// assert_eq!(m.read_u64(0x1000), 0);
/// m.write_u64(0x1000, 42);
/// assert_eq!(m.read_u64(0x1000), 42);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: PageTable<Page>,
}

/// Equal contents: the same resident pages with the same bytes, whatever
/// order they were first written in.
impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .all(|(k, page)| other.pages.get(k) == Some(page))
    }
}

impl Eq for Memory {}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .get_or_insert_with(addr >> PAGE_SHIFT, || Box::new([0u8; PAGE_BYTES]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr as usize) & (PAGE_BYTES - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_BYTES - 1)] = value;
    }

    /// Reads a little-endian u64 (may straddle pages).
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u64.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let bytes = value.to_le_bytes();
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + bytes.len() <= PAGE_BYTES {
            // Within one page: a single page lookup instead of one per byte.
            self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(&bytes);
            return;
        }
        self.write_bytes(addr, &bytes);
    }

    /// Reads `N` bytes starting at `addr` without allocating — the
    /// instruction-fetch path.
    #[inline]
    pub fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + N > PAGE_BYTES {
            return self.read_straddling(addr);
        }
        // Within one page: a single page lookup instead of one per byte.
        if let Some(page) = self.pages.get(addr >> PAGE_SHIFT) {
            out.copy_from_slice(&page[off..off + N]);
        }
        out
    }

    /// [`Memory::read_array`] across a page boundary, byte by byte; out
    /// of line so the one-page case inlines.
    #[cold]
    #[inline(never)]
    fn read_straddling<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
        out
    }

    /// Copies `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u64)))
            .collect()
    }

    /// Number of distinct pages touched so far (diagnostics).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Rewinds this memory to `snap`'s exact contents. Every page
    /// resident in `snap` is copied, overwritten in place where this
    /// memory has it too (a memcpy, no allocation), so the steady-state
    /// cost is proportional to the snapshot's resident pages, not to the
    /// pages an item touched.
    pub fn restore_from(&mut self, snap: &Memory) {
        self.pages.clone_from(&snap.pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u64(0xFFFF_FFF8), 0);
    }

    #[test]
    fn u64_roundtrip_and_endianness() {
        let mut m = Memory::new();
        m.write_u64(16, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(16), 0x08, "little-endian low byte first");
        assert_eq!(m.read_u64(16), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = Memory::new();
        let data = b"weird machines compute with time";
        m.write_bytes(0x2000, data);
        assert_eq!(m.read_bytes(0x2000, data.len()), data);
    }

    #[test]
    fn read_array_matches_bytes_across_pages() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // straddles a page boundary
        m.write_bytes(addr, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_array::<8>(addr), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(m.read_array::<4>(0x9000), [0; 4], "unmapped reads zero");
    }

    #[test]
    fn overwrite() {
        let mut m = Memory::new();
        m.write_u64(8, 1);
        m.write_u64(8, 2);
        assert_eq!(m.read_u64(8), 2);
    }
}
