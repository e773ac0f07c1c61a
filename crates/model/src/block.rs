//! Cache-block payloads.
//!
//! Compression in this stack operates on *real bytes*: the NVM model stores
//! actual data, blocks move into the cache with their contents, and the
//! compressors in `ehs-compress` see exactly what a hardware compressor
//! would. [`BlockData`] is the owned byte payload of one cache block.

use std::fmt;

/// Blocks at or below this size live inline in [`BlockData`] — no heap
/// allocation on clone or drop. 64 B covers every configured block size;
/// larger blocks (possible through [`BlockData::from_bytes`]) spill to a
/// `Vec`.
const INLINE_CAP: usize = 64;

/// Storage behind [`BlockData`].
///
/// Invariant: a block of `len <= INLINE_CAP` is *always* `Inline` (both
/// constructors enforce this), and the inline buffer's bytes past `len`
/// are *always* zero (`as_mut_slice` never exposes them). Together these
/// make the derived `PartialEq`/`Hash` equivalent to comparing/hashing
/// the live bytes: equal contents imply equal representations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    Heap(Vec<u8>),
}

/// The owned contents of one cache block (16, 32 or 64 bytes by default).
///
/// Blocks up to 64 bytes are stored inline: cloning one (the NVM model
/// hands out owned copies on every cache miss) is a plain memcpy with no
/// allocator traffic, and dropping an evicted line frees nothing.
///
/// # Examples
///
/// ```
/// use ehs_model::BlockData;
///
/// let mut block = BlockData::zeroed(32);
/// block.write_u32(4, 0xDEAD_BEEF);
/// assert_eq!(block.read_u32(4), 0xDEAD_BEEF);
/// assert_eq!(block.len(), 32);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BlockData {
    repr: Repr,
}

impl BlockData {
    /// Creates an all-zero block of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or not a multiple of 4 (blocks are always
    /// word-addressable).
    pub fn zeroed(size: u32) -> Self {
        assert!(size > 0 && size.is_multiple_of(4), "block size must be a positive multiple of 4");
        let repr = if size as usize <= INLINE_CAP {
            Repr::Inline { len: size as u8, buf: [0u8; INLINE_CAP] }
        } else {
            Repr::Heap(vec![0u8; size as usize])
        };
        BlockData { repr }
    }

    /// Creates a block from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if the byte count is zero or not a multiple of 4.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        assert!(
            !bytes.is_empty() && bytes.len().is_multiple_of(4),
            "block size must be a positive multiple of 4"
        );
        let repr = if bytes.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            buf[..bytes.len()].copy_from_slice(&bytes);
            Repr::Inline { len: bytes.len() as u8, buf }
        } else {
            Repr::Heap(bytes)
        };
        BlockData { repr }
    }

    /// Number of bytes in the block.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Heap(v) => v.len(),
        }
    }

    /// Always `false`: blocks are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Borrows the raw bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Mutably borrows the raw bytes.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.repr {
            Repr::Inline { len, buf } => &mut buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Consumes the block, returning the underlying byte vector.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.repr {
            Repr::Inline { len, buf } => buf[..len as usize].to_vec(),
            Repr::Heap(v) => v,
        }
    }

    /// Reads the little-endian 32-bit word at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds the block length.
    pub fn read_u32(&self, offset: u32) -> u32 {
        let o = offset as usize;
        u32::from_le_bytes(self.as_slice()[o..o + 4].try_into().expect("4-byte slice"))
    }

    /// Writes the little-endian 32-bit word at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 4` exceeds the block length.
    pub fn write_u32(&mut self, offset: u32, value: u32) {
        let o = offset as usize;
        self.as_mut_slice()[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads the little-endian 64-bit word at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the block length.
    pub fn read_u64(&self, offset: u32) -> u64 {
        let o = offset as usize;
        u64::from_le_bytes(self.as_slice()[o..o + 8].try_into().expect("8-byte slice"))
    }

    /// Writes the little-endian 64-bit word at byte `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + 8` exceeds the block length.
    pub fn write_u64(&mut self, offset: u32, value: u64) {
        let o = offset as usize;
        self.as_mut_slice()[o..o + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads the byte at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the block length.
    pub fn read_u8(&self, offset: u32) -> u8 {
        self.as_slice()[offset as usize]
    }

    /// Writes the byte at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the block length.
    pub fn write_u8(&mut self, offset: u32, value: u8) {
        self.as_mut_slice()[offset as usize] = value;
    }

    /// Iterates over the block as little-endian 32-bit words.
    pub fn words(&self) -> impl Iterator<Item = u32> + '_ {
        self.as_slice()
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
    }

    /// Returns `true` if every byte in the block is zero.
    pub fn is_all_zero(&self) -> bool {
        self.as_slice().iter().all(|&b| b == 0)
    }
}

impl AsRef<[u8]> for BlockData {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Display for BlockData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}B:", self.len())?;
        for chunk in self.as_slice().chunks(4) {
            write!(f, " ")?;
            for b in chunk {
                write!(f, "{:02x}", b)?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_all_zero() {
        let b = BlockData::zeroed(32);
        assert_eq!(b.len(), 32);
        assert!(b.is_all_zero());
        assert!(!b.is_empty());
    }

    #[test]
    fn word_round_trip() {
        let mut b = BlockData::zeroed(32);
        b.write_u32(0, 0x0102_0304);
        b.write_u32(28, u32::MAX);
        assert_eq!(b.read_u32(0), 0x0102_0304);
        assert_eq!(b.read_u32(28), u32::MAX);
        assert!(!b.is_all_zero());
    }

    #[test]
    fn u64_round_trip() {
        let mut b = BlockData::zeroed(16);
        b.write_u64(8, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(b.read_u64(8), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn byte_access() {
        let mut b = BlockData::zeroed(16);
        b.write_u8(3, 0xAA);
        assert_eq!(b.read_u8(3), 0xAA);
        assert_eq!(b.read_u32(0), 0xAA00_0000);
    }

    #[test]
    fn words_iterator_is_little_endian() {
        let b = BlockData::from_bytes(vec![1, 0, 0, 0, 2, 0, 0, 0]);
        let words: Vec<u32> = b.words().collect();
        assert_eq!(words, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive multiple of 4")]
    fn rejects_unaligned_size() {
        let _ = BlockData::zeroed(30);
    }

    #[test]
    fn display_is_nonempty() {
        let b = BlockData::zeroed(8);
        assert_eq!(b.to_string(), "[8B: 00000000 00000000]");
    }

    #[test]
    fn inline_and_heap_round_trip() {
        // At the inline boundary.
        let small = BlockData::from_bytes((0..64u8).collect());
        assert_eq!(small.len(), 64);
        assert_eq!(small.clone(), small);
        assert_eq!(small.as_slice(), small.clone().into_bytes().as_slice());
        // Past it: spills to the heap, same behaviour.
        let big = BlockData::from_bytes((0..128u8).collect());
        assert_eq!(big.len(), 128);
        assert_eq!(big.clone(), big);
        assert_eq!(big.as_slice(), big.clone().into_bytes().as_slice());
        assert_eq!(big.read_u32(124), u32::from_le_bytes([124, 125, 126, 127]));
    }

    #[test]
    fn mutation_preserves_equality_semantics() {
        // Two blocks built differently but holding the same bytes compare
        // equal (the inline tail stays zero under every mutation path).
        let mut a = BlockData::zeroed(32);
        a.write_u32(12, 0x1234_5678);
        let mut bytes = vec![0u8; 32];
        bytes[12..16].copy_from_slice(&0x1234_5678u32.to_le_bytes());
        let b = BlockData::from_bytes(bytes);
        assert_eq!(a, b);
        a.as_mut_slice()[12..16].fill(0);
        assert_eq!(a, BlockData::zeroed(32));
    }
}
