//! Byte addresses and block/set decomposition helpers.

use std::fmt;
use std::ops::{Add, Sub};

/// A byte address in the flat physical address space backed by NVM.
///
/// The EHS address space is small (megabytes), but we keep 64-bit addresses
/// so synthetic workloads can place their regions freely.
///
/// # Examples
///
/// ```
/// use ehs_model::Address;
///
/// let a = Address::new(0x1234);
/// assert_eq!(a.block_base(32).get(), 0x1220);
/// assert_eq!(a.block_offset(32), 0x14);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Address(u64);

impl Address {
    /// Creates an address from a raw byte offset.
    pub const fn new(raw: u64) -> Self {
        Address(raw)
    }

    /// Returns the raw byte offset.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Returns the address of the first byte of the enclosing block.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `block_size` is not a power of two.
    pub fn block_base(self, block_size: u32) -> Address {
        debug_assert!(block_size.is_power_of_two(), "block size must be a power of two");
        Address(self.0 & !(block_size as u64 - 1))
    }

    /// Returns the offset of this address within its block.
    pub fn block_offset(self, block_size: u32) -> u32 {
        debug_assert!(block_size.is_power_of_two());
        (self.0 & (block_size as u64 - 1)) as u32
    }

    /// Returns the block index (address divided by the block size).
    pub fn block_index(self, block_size: u32) -> u64 {
        debug_assert!(block_size.is_power_of_two());
        self.0 >> block_size.trailing_zeros()
    }

    /// Returns the cache set index for a cache with `num_sets` sets.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `num_sets` is not a power of two.
    pub fn set_index(self, block_size: u32, num_sets: u32) -> u32 {
        debug_assert!(num_sets.is_power_of_two(), "set count must be a power of two");
        (self.block_index(block_size) & (num_sets as u64 - 1)) as u32
    }

    /// Returns the tag bits above the set index.
    pub fn tag(self, block_size: u32, num_sets: u32) -> u64 {
        debug_assert!(num_sets.is_power_of_two());
        self.block_index(block_size) >> num_sets.trailing_zeros()
    }

    /// Checked addition of a byte offset.
    pub fn checked_add(self, offset: u64) -> Option<Address> {
        self.0.checked_add(offset).map(Address)
    }
}

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Address {
    fn from(raw: u64) -> Self {
        Address(raw)
    }
}

impl Add<u64> for Address {
    type Output = Address;
    fn add(self, rhs: u64) -> Address {
        Address(self.0 + rhs)
    }
}

impl Sub<Address> for Address {
    /// Byte distance between two addresses.
    type Output = u64;
    fn sub(self, rhs: Address) -> u64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decomposition() {
        let a = Address::new(0x1037);
        assert_eq!(a.block_base(32), Address::new(0x1020));
        assert_eq!(a.block_offset(32), 0x17);
        assert_eq!(a.block_index(32), 0x1037 / 32);
    }

    #[test]
    fn set_and_tag_partition_block_index() {
        let block_size = 32;
        let num_sets = 4;
        let a = Address::new(0x00AB_CDE0);
        let idx = a.block_index(block_size);
        let set = a.set_index(block_size, num_sets) as u64;
        let tag = a.tag(block_size, num_sets);
        assert_eq!(tag * num_sets as u64 + set, idx);
    }

    #[test]
    fn same_set_different_tag_conflict() {
        // Two addresses one "cache-size" apart map to the same set.
        let block_size = 32;
        let num_sets = 4; // 256B / 32B / 2 ways
        let a = Address::new(0x100);
        let b = Address::new(0x100 + (num_sets * block_size) as u64);
        assert_eq!(a.set_index(block_size, num_sets), b.set_index(block_size, num_sets));
        assert_ne!(a.tag(block_size, num_sets), b.tag(block_size, num_sets));
    }

    #[test]
    fn arithmetic_and_formatting() {
        let a = Address::new(0x10);
        assert_eq!(a + 0x10, Address::new(0x20));
        assert_eq!(Address::new(0x30) - a, 0x20);
        assert_eq!(a.to_string(), "0x00000010");
        assert_eq!(format!("{:x}", a), "10");
        assert_eq!(format!("{:X}", Address::new(0xAB)), "AB");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Address::new(u64::MAX).checked_add(1).is_none());
        assert_eq!(Address::new(1).checked_add(1), Some(Address::new(2)));
    }
}
