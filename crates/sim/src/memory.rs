//! Sparse byte-addressable simulated memory.

use crate::fxmap::IntMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse, zero-initialized memory with a 4 GiB address space.
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Memory {
    pages: IntMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian u64 (may straddle pages).
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let bytes = value.to_le_bytes();
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + bytes.len() <= PAGE_SIZE {
            // Within one page: a single page lookup instead of one per byte.
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[off..off + bytes.len()].copy_from_slice(&bytes);
            return;
        }
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, *b);
        }
    }

    /// Reads `N` bytes starting at `addr` without allocating — the
    /// instruction-fetch path.
    pub fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            // Within one page: a single page lookup instead of one per byte.
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                out.copy_from_slice(&page[off..off + N]);
            }
            return out;
        }
        for (i, b) in out.iter_mut().enumerate() {
            *b = self.read_u8(addr + i as u64);
        }
        out
    }

    /// Copies `bytes` into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr + i as u64, b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr + i as u64)).collect()
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
        self.pages.retain(|k, _| snap.pages.contains_key(k));
        for (k, src) in &snap.pages {
            match self.pages.get_mut(k) {
                Some(dst) => **dst = **src,
                None => {
                    self.pages.insert(*k, src.clone());
                }
            }
        }
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
