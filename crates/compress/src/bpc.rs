//! Bit-Plane Compression (Kim et al., ISCA 2016) — an extension beyond the
//! paper's four evaluated algorithms, included because the paper's related
//! work (§IX) singles it out and because its delta+bit-plane transform
//! covers data classes BDI misses (correlated streams whose deltas share
//! bit patterns).
//!
//! Pipeline, per the original design, adapted to one cache block of
//! 32-bit words:
//!
//! 1. **Delta**: keep word 0 as a base, replace each later word with the
//!    difference from its predecessor (33-bit signed deltas).
//! 2. **Bit-plane transform**: view the `n−1` deltas as a bit matrix and
//!    transpose it, producing 33 *delta-bit-planes* (DBPs) of `n−1` bits.
//! 3. **XOR**: each DBP is XORed with its neighbour (DBX), turning slowly
//!    varying planes into zero or near-zero words.
//! 4. **Encode** each DBX word: all-zero → 2 bits; all-ones → 5 bits;
//!    otherwise 1 + (n−1) raw bits (simplified from the original's run
//!    and two-bit encodings, keeping the same asymptotics).
//!
//! Decompression reverses each step exactly; the implementation is fully
//! lossless and round-trip tested.

use crate::bitio::{BitReader, BitWriter};
use crate::{passthrough, validate_block, Algorithm, CompressedBlock, Compressor, DecodeError};

/// Number of bit-planes after the delta transform (32-bit deltas + carry).
const PLANES: u32 = 33;

/// Largest block BPC encodes: each bit-plane holds one bit per word
/// delta in a `u64`, so at most 64 words.
pub const MAX_BLOCK_BYTES: u32 = 64 * 4;

/// The Bit-Plane Compression engine.
///
/// # Examples
///
/// ```
/// use ehs_compress::{Bpc, Compressor};
///
/// // A linear ramp has constant deltas: all DBX planes collapse to zero.
/// let block: Vec<u8> = (0..8u32).flat_map(|i| (1000 + 7 * i).to_le_bytes()).collect();
/// let bpc = Bpc::new();
/// let enc = bpc.compress(&block);
/// assert!(enc.compressed_bytes() < 16);
/// assert_eq!(bpc.decompress(&enc), block);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Bpc {
    _private: (),
}

impl Bpc {
    /// Creates a BPC compressor.
    pub fn new() -> Self {
        Bpc { _private: () }
    }
}

/// Computes the 33-bit sign-extended deltas between consecutive words.
fn deltas_of(words: &[u32]) -> Vec<u64> {
    words
        .windows(2)
        .map(|w| {
            let d = w[1] as i64 - w[0] as i64; // fits in 33 bits
            (d as u64) & ((1u64 << PLANES) - 1)
        })
        .collect()
}

/// Transposes `deltas` (each `PLANES` bits) into `PLANES` planes of
/// `deltas.len()` bits.
fn bit_planes(deltas: &[u64]) -> Vec<u64> {
    let mut planes = vec![0u64; PLANES as usize];
    for (i, &d) in deltas.iter().enumerate() {
        for (p, plane) in planes.iter_mut().enumerate() {
            if (d >> p) & 1 == 1 {
                *plane |= 1 << i;
            }
        }
    }
    planes
}

/// Inverse of [`bit_planes`] (the decoder re-transposes in place; this
/// exists to property-test the transform pair).
#[cfg(test)]
fn un_bit_planes(planes: &[u64], n: usize) -> Vec<u64> {
    let mut deltas = vec![0u64; n];
    for (p, &plane) in planes.iter().enumerate() {
        for (i, delta) in deltas.iter_mut().enumerate() {
            if (plane >> i) & 1 == 1 {
                *delta |= 1 << p;
            }
        }
    }
    deltas
}

impl Compressor for Bpc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Bpc
    }

    fn compress(&self, data: &[u8]) -> CompressedBlock {
        validate_block(data);
        let words: Vec<u32> = data
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
            .collect();
        if words.len() < 2 {
            return passthrough(Algorithm::Bpc, data);
        }
        let n = words.len() - 1; // delta count
        let deltas = deltas_of(&words);
        let planes = bit_planes(&deltas);
        let ones_mask = (1u64 << n) - 1;

        let mut w = BitWriter::new();
        w.write_bits(1, 1); // compressed flag
        w.write_bits(words[0] as u64, 32); // base word
                                           // DBX encoding: plane XOR previous plane (plane 0 emitted raw-ish).
        let mut prev = 0u64;
        for &plane in &planes {
            let dbx = plane ^ prev;
            prev = plane;
            if dbx == 0 {
                w.write_bits(0b00, 2);
            } else if dbx == ones_mask {
                w.write_bits(0b01, 2);
            } else {
                w.write_bits(0b1, 1);
                w.write_bits(dbx, n as u32);
            }
        }
        let (payload, bits) = w.finish();
        if bits.div_ceil(8) >= data.len() as u32 {
            return passthrough(Algorithm::Bpc, data);
        }
        CompressedBlock::new(Algorithm::Bpc, data.len() as u32, payload, bits)
    }

    fn try_decompress_into(
        &self,
        block: &CompressedBlock,
        out: &mut [u8],
    ) -> Result<(), DecodeError> {
        crate::check_out(block, Algorithm::Bpc, out)?;
        let len = out.len();
        let payload = block.payload();
        let mut r = BitReader::new(payload);
        if r.try_read_bits(1)? == 0 {
            // Passthrough: flag byte (0) + raw bytes.
            if payload.len() < len + 1 {
                return Err(DecodeError::Truncated {
                    needed_bits: (len as u32 + 1) * 8,
                    position: payload.len() as u32 * 8,
                });
            }
            out.copy_from_slice(&payload[1..len + 1]);
            return Ok(());
        }
        let n_words = len / 4;
        if n_words < 2 {
            // The encoder only ever emits passthrough for such blocks.
            return Err(DecodeError::Corrupt {
                algorithm: Algorithm::Bpc,
                detail: "compressed flag on a sub-2-word block",
            });
        }
        let n = n_words - 1;
        let ones_mask = (1u64 << n) - 1;
        let base = r.try_read_bits(32)? as u32;
        // The plane set is a fixed register file, like the hardware's
        // transpose network — no heap allocation.
        let mut planes = [0u64; PLANES as usize];
        let mut prev = 0u64;
        for plane in planes.iter_mut() {
            let first = r.try_read_bits(1)?;
            let dbx = if first == 0 {
                if r.try_read_bits(1)? == 0 {
                    0
                } else {
                    ones_mask
                }
            } else {
                r.try_read_bits(n as u32)?
            };
            *plane = dbx ^ prev;
            prev = *plane;
        }
        crate::put_word(out, 0, base);
        let mut cur = base as i64;
        for i in 0..n {
            // Re-transpose delta `i` out of the planes and sign-extend it.
            let mut d = 0u64;
            for (p, &plane) in planes.iter().enumerate() {
                d |= ((plane >> i) & 1) << p;
            }
            let shift = 64 - PLANES;
            let sd = ((d << shift) as i64) >> shift;
            cur += sd;
            crate::put_word(out, i + 1, cur as u32);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> CompressedBlock {
        let bpc = Bpc::new();
        let enc = bpc.compress(data);
        assert_eq!(bpc.decompress(&enc), data, "BPC mismatch on {data:02x?}");
        enc
    }

    #[test]
    fn zero_block_collapses() {
        let enc = round_trip(&[0u8; 32]);
        assert!(enc.compressed_bytes() <= 14, "got {}", enc.compressed_bytes());
    }

    #[test]
    fn linear_ramps_are_bpcs_sweet_spot() {
        // Constant delta: one DBX pattern then all-zero planes.
        let block: Vec<u8> = (0..8u32).flat_map(|i| (50_000 + 1_000 * i).to_le_bytes()).collect();
        let enc = round_trip(&block);
        assert!(enc.compressed_bytes() <= 16, "got {}", enc.compressed_bytes());
    }

    #[test]
    fn correlated_noise_still_compresses() {
        // Small wiggles around a ramp: only low bit-planes stay active.
        let vals = [100i64, 203, 298, 405, 497, 601, 702, 799];
        let block: Vec<u8> = vals.iter().flat_map(|&v| (v as u32).to_le_bytes()).collect();
        let enc = round_trip(&block);
        assert!(enc.is_compressed(), "ratio {}", enc.ratio());
    }

    #[test]
    fn negative_deltas_round_trip() {
        let vals = [1_000_000u32, 500, 2_000_000, 3, 0xFFFF_FFFF, 1, 0x8000_0000, 42];
        let block: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        round_trip(&block);
    }

    #[test]
    fn random_data_falls_back_to_passthrough() {
        let mut x = 0xACE1u32;
        let block: Vec<u8> = (0..8)
            .flat_map(|_| {
                x = x.wrapping_mul(0x9E3779B9).wrapping_add(0x85EBCA6B);
                x.to_le_bytes()
            })
            .collect();
        let enc = round_trip(&block);
        assert_eq!(enc.compressed_bytes(), 33);
    }

    #[test]
    fn all_block_sizes_work() {
        for size in [8usize, 16, 32, 64] {
            let block: Vec<u8> =
                (0..size / 4).flat_map(|i| ((i * 3 + 7) as u32).to_le_bytes()).collect();
            round_trip(&block);
        }
    }

    #[test]
    fn transforms_are_inverses() {
        let words = [5u32, 10, 7, 1_000_000, 0, 0xFFFF_FFFF];
        let deltas = deltas_of(&words);
        let planes = bit_planes(&deltas);
        assert_eq!(un_bit_planes(&planes, deltas.len()), deltas);
    }
}
