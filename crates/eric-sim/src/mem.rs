//! Flat physical memory.

use std::error::Error;
use std::fmt;

/// A memory access fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemError {
    /// Faulting physical address.
    pub addr: u64,
    /// Access width in bytes.
    pub width: usize,
    /// `true` for stores.
    pub write: bool,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fault: {} bytes at {:#x}",
            if self.write { "store" } else { "load" },
            self.width,
            self.addr
        )
    }
}

impl Error for MemError {}

/// Granularity (bytes, power of two) at which stores into translated
/// code are tracked. Coarser pages cost more spurious invalidations;
/// finer pages cost more bitmap bits. 256 B ≈ a few basic blocks.
const CODE_PAGE_SHIFT: u32 = 8;

/// Byte-addressable RAM mapped at a fixed base (the Rocket memory map
/// puts DRAM at `0x8000_0000`).
#[derive(Clone)]
pub struct Memory {
    base: u64,
    bytes: Vec<u8>,
    /// One flag per [`CODE_PAGE_SHIFT`]-sized page: set when an
    /// execution engine has translated instructions from that page.
    code_pages: Vec<bool>,
    /// Bumped whenever a store or [`Memory::write_bytes`] touches a
    /// marked code page — pre-decoded engines watch this to invalidate
    /// stale translations (HDE in-place decryption, self-modification).
    code_version: u64,
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Memory {{ base: {:#x}, size: {} KiB }}",
            self.base,
            self.bytes.len() / 1024
        )
    }
}

impl Memory {
    /// Create `size` bytes of zeroed RAM at `base`.
    pub fn new(base: u64, size: usize) -> Self {
        Memory {
            base,
            bytes: vec![0; size],
            code_pages: vec![false; (size >> CODE_PAGE_SHIFT) + 1],
            code_version: 0,
        }
    }

    /// Zero all of RAM and drop code-page marks, reusing the existing
    /// allocations (power-on state for a reloaded `Soc`).
    pub fn clear(&mut self) {
        self.bytes.fill(0);
        self.code_pages.fill(false);
        // Translations of the old contents are stale either way.
        self.code_version += 1;
    }

    /// Current code-write generation. Engines that cache decoded
    /// instructions snapshot this and re-validate their caches when it
    /// moves.
    pub fn code_version(&self) -> u64 {
        self.code_version
    }

    /// Mark `[addr, addr + len)` as translated code, so future stores
    /// into it bump [`Memory::code_version`]. Out-of-range addresses are
    /// ignored (the caller already fetched from the range successfully).
    pub fn note_code_range(&mut self, addr: u64, len: usize) {
        if len == 0 {
            return;
        }
        let Some(off) = addr.checked_sub(self.base) else {
            return;
        };
        let first = (off >> CODE_PAGE_SHIFT) as usize;
        let last = ((off + len as u64 - 1) >> CODE_PAGE_SHIFT) as usize;
        for page in first..=last.min(self.code_pages.len() - 1) {
            self.code_pages[page] = true;
        }
    }

    /// Did `[off, off + len)` (byte offsets, `len > 0`) touch a marked
    /// code page?
    #[inline]
    fn touches_code(&self, off: usize, len: usize) -> bool {
        let first = off >> CODE_PAGE_SHIFT;
        let last = (off + len - 1) >> CODE_PAGE_SHIFT;
        self.code_pages[first..=last].iter().any(|&p| p)
    }

    /// Base physical address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// RAM size in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Highest mapped address + 1.
    pub fn end(&self) -> u64 {
        self.base + self.bytes.len() as u64
    }

    fn offset(&self, addr: u64, width: usize, write: bool) -> Result<usize, MemError> {
        let err = MemError { addr, width, write };
        let off = addr.checked_sub(self.base).ok_or(err)?;
        let end = off.checked_add(width as u64).ok_or(err)?;
        if end > self.bytes.len() as u64 {
            return Err(err);
        }
        Ok(off as usize)
    }

    /// Check that `[addr, addr + len)` is mapped, reporting exactly the
    /// error a [`Memory::write_bytes`] of `len` bytes there would.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is unmapped.
    pub fn check_write(&self, addr: u64, len: usize) -> Result<(), MemError> {
        self.offset(addr, len, true).map(drop)
    }

    /// Copy `data` into memory at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is unmapped.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) -> Result<(), MemError> {
        let off = self.offset(addr, data.len(), true)?;
        if !data.is_empty() && self.touches_code(off, data.len()) {
            self.code_version += 1;
        }
        self.bytes[off..off + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Read `len` bytes at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is unmapped.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Result<&[u8], MemError> {
        let off = self.offset(addr, len, false)?;
        Ok(&self.bytes[off..off + len])
    }

    /// Load a little-endian unsigned value of `width` ∈ {1,2,4,8} bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is unmapped.
    pub fn load(&self, addr: u64, width: usize) -> Result<u64, MemError> {
        let off = self.offset(addr, width, false)?;
        let b = &self.bytes[off..off + width];
        Ok(match width {
            1 => b[0] as u64,
            2 => u16::from_le_bytes([b[0], b[1]]) as u64,
            4 => u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as u64,
            8 => u64::from_le_bytes(b.try_into().expect("width 8")),
            _ => b.iter().rev().fold(0u64, |v, &byte| (v << 8) | byte as u64),
        })
    }

    /// Store the low `width` bytes of `value` little-endian at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the range is unmapped.
    pub fn store(&mut self, addr: u64, width: usize, value: u64) -> Result<(), MemError> {
        let off = self.offset(addr, width, true)?;
        if self.touches_code(off, width) {
            self.code_version += 1;
        }
        let le = value.to_le_bytes();
        self.bytes[off..off + width].copy_from_slice(&le[..width.min(8)]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_widths() {
        let mut m = Memory::new(0x8000_0000, 4096);
        for (w, v) in [
            (1usize, 0xAAu64),
            (2, 0xBBCC),
            (4, 0x1122_3344),
            (8, 0x1122_3344_5566_7788),
        ] {
            m.store(0x8000_0100, w, v).unwrap();
            assert_eq!(m.load(0x8000_0100, w).unwrap(), v);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new(0, 16);
        m.store(0, 4, 0x0102_0304).unwrap();
        assert_eq!(m.read_bytes(0, 4).unwrap(), &[0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn out_of_range_faults() {
        let mut m = Memory::new(0x8000_0000, 64);
        assert!(m.load(0x7FFF_FFFF, 1).is_err());
        assert!(m.load(0x8000_0040, 1).is_err());
        assert!(m.load(0x8000_003D, 8).is_err());
        assert!(m.store(0x8000_0040, 1, 0).is_err());
        // Fault reports the address and direction.
        let e = m.store(0x9000_0000, 4, 0).unwrap_err();
        assert!(e.write);
        assert_eq!(e.addr, 0x9000_0000);
    }

    #[test]
    fn wraparound_rejected() {
        let m = Memory::new(0, 64);
        assert!(m.load(u64::MAX - 2, 8).is_err());
    }

    #[test]
    fn write_read_bytes() {
        let mut m = Memory::new(0x1000, 64);
        m.write_bytes(0x1010, b"hello").unwrap();
        assert_eq!(m.read_bytes(0x1010, 5).unwrap(), b"hello");
    }

    #[test]
    fn code_version_tracks_stores_into_translated_text() {
        let mut m = Memory::new(0x8000_0000, 4096);
        let v0 = m.code_version();
        m.store(0x8000_0800, 4, 1).unwrap();
        assert_eq!(m.code_version(), v0, "store outside code: no bump");
        m.note_code_range(0x8000_0000, 64);
        m.store(0x8000_0010, 4, 1).unwrap();
        assert!(m.code_version() > v0, "store into translated text bumps");
        let v1 = m.code_version();
        m.write_bytes(0x8000_0020, &[1, 2, 3, 4]).unwrap();
        assert!(m.code_version() > v1, "write_bytes bumps too");
        m.write_bytes(0x8000_0020, &[]).unwrap();
    }

    #[test]
    fn clear_zeroes_and_invalidates() {
        let mut m = Memory::new(0x8000_0000, 4096);
        m.write_bytes(0x8000_0000, b"code").unwrap();
        m.note_code_range(0x8000_0000, 4);
        let v = m.code_version();
        m.clear();
        assert!(m.code_version() > v);
        assert_eq!(m.read_bytes(0x8000_0000, 4).unwrap(), &[0, 0, 0, 0]);
        // Marks are gone: a store to the old code page no longer bumps.
        let v = m.code_version();
        m.store(0x8000_0000, 4, 7).unwrap();
        assert_eq!(m.code_version(), v);
    }
}
