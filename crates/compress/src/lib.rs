//! Cache-compression algorithms for the Kagura stack.
//!
//! Implements the four algorithms the paper evaluates (§II-B), as *real*
//! encoders/decoders over block bytes — not statistical size models — so the
//! compressed sizes the cache simulator sees are exactly what the hardware
//! scheme would produce:
//!
//! * [`Bdi`] — Base-Delta-Immediate (Pekhimenko et al., PACT'12), the
//!   paper's default.
//! * [`Fpc`] — Frequent Pattern Compression (Alameldeen & Wood, TR'04).
//! * [`CPack`] — Cache Packer (Chen et al., TVLSI'10), pattern matching
//!   plus a small FIFO dictionary.
//! * [`Dzc`] — Dynamic Zero Compression (Villa et al., MICRO'00), a
//!   zero-indicator bit per byte.
//!
//! Two further schemes from the paper's related-work section (§IX) are
//! provided as extensions (in [`Algorithm::EXTENDED`] but not in the
//! evaluated [`Algorithm::ALL`] set):
//!
//! * [`Bpc`] — Bit-Plane Compression (Kim et al., ISCA'16).
//! * [`Fvc`] — Frequent Value Compression (Yang et al., MICRO'00).
//!
//! All compressors are infallible and lossless on the encode side:
//! [`Compressor::compress`] always yields an encoding (possibly an
//! uncompressed passthrough) and decoding it restores the original bytes
//! exactly. The decode side is *fallible by design*:
//! [`Compressor::try_decompress_into`] returns a [`DecodeError`] value on
//! a truncated or bit-flipped payload — corruption is a value, not a
//! crash — so fault-injection harnesses can surface a mangled checkpoint
//! stream as a *detected* consistency violation instead of an abort. The
//! panicking [`Compressor::decompress_into`] / [`Compressor::decompress`]
//! wrappers remain for hot paths that only ever see their own encoder's
//! output.
//!
//! # Examples
//!
//! ```
//! use ehs_compress::{Algorithm, Compressor};
//!
//! let block = [0u8; 32];
//! let bdi = Algorithm::Bdi.compressor();
//! let enc = bdi.compress(&block);
//! assert!(enc.compressed_bytes() < 32);
//! assert_eq!(bdi.decompress(&enc), block);
//! ```

pub mod bdi;
pub mod bitio;
pub mod bpc;
pub mod cpack;
pub mod dzc;
pub mod fpc;
pub mod fvc;

use std::fmt;

use ehs_model::CompressorCost;
use ehs_model::Cycles;
use ehs_model::Energy;

pub use bdi::Bdi;
pub use bpc::Bpc;
pub use cpack::CPack;
pub use dzc::Dzc;
pub use fpc::Fpc;
pub use fvc::Fvc;

/// Why a compressed payload failed to decode.
///
/// Decoders never panic and never read out of bounds on corrupt input:
/// every structurally impossible stream maps to one of these values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The block was produced by a different algorithm than the decoder.
    WrongAlgorithm {
        /// The decoder's algorithm.
        expected: Algorithm,
        /// The block's algorithm.
        got: Algorithm,
    },
    /// The output buffer is not exactly one original block.
    OutputLen {
        /// The block's original size in bytes.
        expected: u32,
        /// The buffer length supplied.
        got: usize,
    },
    /// The bitstream ended before the decoder read every field.
    Truncated {
        /// Width of the read that failed, in bits.
        needed_bits: u32,
        /// Bit position the decoder had reached.
        position: u32,
    },
    /// A field holds a value the encoder can never emit (bad tag,
    /// impossible run length, oversized geometry).
    Corrupt {
        /// The decoding algorithm.
        algorithm: Algorithm,
        /// What was impossible about the stream.
        detail: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::WrongAlgorithm { expected, got } => {
                write!(f, "not a {expected} block (got {got})")
            }
            DecodeError::OutputLen { expected, got } => {
                write!(f, "output buffer must be exactly one original block ({expected} bytes, got {got})")
            }
            DecodeError::Truncated { needed_bits, position } => {
                write!(f, "bit stream exhausted: need {needed_bits} bits at position {position}")
            }
            DecodeError::Corrupt { algorithm, detail } => {
                write!(f, "corrupt {algorithm} stream: {detail}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<bitio::Exhausted> for DecodeError {
    fn from(e: bitio::Exhausted) -> Self {
        DecodeError::Truncated { needed_bits: e.needed_bits, position: e.position }
    }
}

/// Identifies one of the modelled compression algorithms (the paper's
/// four evaluated schemes plus two related-work extensions).
///
/// # Examples
///
/// ```
/// use ehs_compress::Algorithm;
///
/// assert_eq!(Algorithm::Bdi.name(), "BDI");
/// assert_eq!(Algorithm::ALL.len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Base-Delta-Immediate (paper default).
    Bdi,
    /// Frequent Pattern Compression.
    Fpc,
    /// C-Pack.
    CPack,
    /// Dynamic Zero Compression.
    Dzc,
    /// Bit-Plane Compression (related-work extension, §IX).
    Bpc,
    /// Frequent Value Compression (related-work extension, §IX).
    Fvc,
}

impl Algorithm {
    /// The four algorithms the paper evaluates, in Fig 23 order.
    pub const ALL: [Algorithm; 4] =
        [Algorithm::Bdi, Algorithm::Fpc, Algorithm::CPack, Algorithm::Dzc];

    /// Every implemented algorithm, including the related-work extensions.
    pub const EXTENDED: [Algorithm; 6] = [
        Algorithm::Bdi,
        Algorithm::Fpc,
        Algorithm::CPack,
        Algorithm::Dzc,
        Algorithm::Bpc,
        Algorithm::Fvc,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Bdi => "BDI",
            Algorithm::Fpc => "FPC",
            Algorithm::CPack => "C-Pack",
            Algorithm::Dzc => "DZC",
            Algorithm::Bpc => "BPC",
            Algorithm::Fvc => "FVC",
        }
    }

    /// Instantiates the compressor for this algorithm with default costs.
    pub fn compressor(self) -> AnyCompressor {
        match self {
            Algorithm::Bdi => AnyCompressor::Bdi(Bdi::new()),
            Algorithm::Fpc => AnyCompressor::Fpc(Fpc::new()),
            Algorithm::CPack => AnyCompressor::CPack(CPack::new()),
            Algorithm::Dzc => AnyCompressor::Dzc(Dzc::new()),
            Algorithm::Bpc => AnyCompressor::Bpc(Bpc::new()),
            Algorithm::Fvc => AnyCompressor::Fvc(Fvc::new()),
        }
    }

    /// Default energy/latency cost table for this algorithm.
    ///
    /// BDI comes from paper Table I; the others are extrapolated in
    /// proportion to circuit complexity (DZC is a handful of gates per byte;
    /// C-Pack carries a dictionary CAM; FPC sits between), documented in
    /// DESIGN.md.
    pub fn default_cost(self) -> CompressorCost {
        match self {
            Algorithm::Bdi => CompressorCost::bdi_table1(),
            Algorithm::Fpc => CompressorCost {
                compress_energy: Energy::from_picojoules(2.90),
                decompress_energy: Energy::from_picojoules(1.20),
                compress_latency: Cycles::new(3),
                decompress_latency: Cycles::new(5),
            },
            Algorithm::CPack => CompressorCost {
                compress_energy: Energy::from_picojoules(4.20),
                decompress_energy: Energy::from_picojoules(1.60),
                compress_latency: Cycles::new(4),
                decompress_latency: Cycles::new(8),
            },
            Algorithm::Dzc => CompressorCost {
                compress_energy: Energy::from_picojoules(0.90),
                decompress_energy: Energy::from_picojoules(0.30),
                compress_latency: Cycles::new(1),
                decompress_latency: Cycles::new(1),
            },
            // The bit-plane transpose network is the most complex engine
            // modelled here.
            Algorithm::Bpc => CompressorCost {
                compress_energy: Energy::from_picojoules(5.10),
                decompress_energy: Energy::from_picojoules(2.10),
                compress_latency: Cycles::new(6),
                decompress_latency: Cycles::new(9),
            },
            // FVC is a CAM lookup per word: cheap, DZC-class.
            Algorithm::Fvc => CompressorCost {
                compress_energy: Energy::from_picojoules(1.20),
                decompress_energy: Energy::from_picojoules(0.45),
                compress_latency: Cycles::new(1),
                decompress_latency: Cycles::new(1),
            },
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The result of compressing one cache block.
///
/// Holds the actual encoded payload (so it can be decompressed and verified)
/// together with the size the cache's segmented data array must budget for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    algorithm: Algorithm,
    original_len: u32,
    payload: Vec<u8>,
    /// Exact encoded size in bits, before rounding up to whole bytes.
    encoded_bits: u32,
}

impl CompressedBlock {
    /// Creates a compressed block from an encoder's output.
    ///
    /// `encoded_bits` is the exact bit cost (metadata + payload);
    /// `payload` is that bitstream packed into bytes.
    ///
    /// # Panics
    ///
    /// Panics if `payload` is shorter than `encoded_bits` requires.
    pub fn new(
        algorithm: Algorithm,
        original_len: u32,
        payload: Vec<u8>,
        encoded_bits: u32,
    ) -> Self {
        assert!(
            payload.len() * 8 >= encoded_bits as usize,
            "payload too short for declared bit count"
        );
        CompressedBlock { algorithm, original_len, payload, encoded_bits }
    }

    /// Which algorithm produced this encoding.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Size of the original (uncompressed) block in bytes.
    pub fn original_bytes(&self) -> u32 {
        self.original_len
    }

    /// Exact encoded size in bits.
    pub fn encoded_bits(&self) -> u32 {
        self.encoded_bits
    }

    /// Encoded size rounded up to whole bytes — what the data array stores.
    pub fn compressed_bytes(&self) -> u32 {
        self.encoded_bits.div_ceil(8)
    }

    /// `true` if the encoding is strictly smaller than the original block.
    pub fn is_compressed(&self) -> bool {
        self.compressed_bytes() < self.original_len
    }

    /// Compression ratio `compressed / original` (1.0 = incompressible).
    pub fn ratio(&self) -> f64 {
        self.compressed_bytes() as f64 / self.original_len as f64
    }

    /// Borrows the packed payload bitstream.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }
}

/// A lossless cache-block compressor.
///
/// Implementations must be pure functions of the input bytes: compressing
/// the same block twice yields the same encoding, and
/// `decompress(compress(b)) == b` for every block whose length is a
/// multiple of 4.
pub trait Compressor {
    /// Which algorithm this is.
    fn algorithm(&self) -> Algorithm;

    /// Compresses one block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or its length is not a multiple of 4
    /// (cache blocks are word-aligned).
    fn compress(&self, data: &[u8]) -> CompressedBlock;

    /// Exact encoded size in bits of what [`Compressor::compress`] would
    /// produce, `== compress(data).encoded_bits()` for every input.
    ///
    /// Callers that model a compressed cache's *space* (segment counts)
    /// never touch the payload, so implementations may answer the size
    /// question alone — skipping the bitstream assembly and its
    /// allocations. The default simply runs the compressor.
    ///
    /// # Panics
    ///
    /// Same contract as [`Compressor::compress`].
    fn compressed_size_bits(&self, data: &[u8]) -> u32 {
        self.compress(data).encoded_bits()
    }

    /// Decompresses a block into a caller-provided buffer, without
    /// allocating, reporting corruption as a [`DecodeError`] value.
    ///
    /// This is the primitive everything else builds on: the caller owns
    /// the destination (a resident cache line, a scratch block) and the
    /// decoder writes every byte of it on success. On `Err` the buffer
    /// contents are unspecified (partially written), but the decoder has
    /// neither panicked nor read out of bounds — corrupt payloads are a
    /// *value*, which lets fault-injection harnesses count a mangled
    /// checkpoint stream as a detected consistency violation.
    fn try_decompress_into(
        &self,
        block: &CompressedBlock,
        out: &mut [u8],
    ) -> Result<(), DecodeError>;

    /// Decompresses a block produced by [`Compressor::compress`] into a
    /// caller-provided buffer, without allocating.
    ///
    /// This is the simulator's hot-path wrapper for payloads it encoded
    /// itself; use [`Compressor::try_decompress_into`] for input that may
    /// be corrupt.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != block.original_bytes()`, if `block` was
    /// produced by a different algorithm, or if the payload is corrupt
    /// (the latter cannot happen for values returned by this crate's
    /// compressors).
    fn decompress_into(&self, block: &CompressedBlock, out: &mut [u8]) {
        if let Err(e) = self.try_decompress_into(block, out) {
            panic!("{e}");
        }
    }

    /// Decompresses a block into a fresh allocation, reporting corruption
    /// as a [`DecodeError`] value (allocating wrapper over
    /// [`Compressor::try_decompress_into`]).
    fn try_decompress(&self, block: &CompressedBlock) -> Result<Vec<u8>, DecodeError> {
        let mut out = vec![0u8; block.original_bytes() as usize];
        self.try_decompress_into(block, &mut out)?;
        Ok(out)
    }

    /// Decompresses a block produced by [`Compressor::compress`] into a
    /// fresh allocation (convenience wrapper over
    /// [`Compressor::decompress_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `block` was produced by a different algorithm or the
    /// payload is corrupt (cannot happen for values returned by this
    /// crate's compressors).
    fn decompress(&self, block: &CompressedBlock) -> Vec<u8> {
        let mut out = vec![0u8; block.original_bytes() as usize];
        self.decompress_into(block, &mut out);
        out
    }

    /// Energy/latency cost of this engine.
    fn cost(&self) -> CompressorCost {
        self.algorithm().default_cost()
    }
}

/// An enum of all built-in compressors, for static dispatch in hot loops.
///
/// # Examples
///
/// ```
/// use ehs_compress::{Algorithm, AnyCompressor, Compressor};
///
/// let c: AnyCompressor = Algorithm::Dzc.compressor();
/// let enc = c.compress(&[0u8; 16]);
/// assert_eq!(c.decompress(&enc), vec![0u8; 16]);
/// ```
#[derive(Debug, Clone)]
pub enum AnyCompressor {
    /// Base-Delta-Immediate.
    Bdi(Bdi),
    /// Frequent Pattern Compression.
    Fpc(Fpc),
    /// C-Pack.
    CPack(CPack),
    /// Dynamic Zero Compression.
    Dzc(Dzc),
    /// Bit-Plane Compression.
    Bpc(Bpc),
    /// Frequent Value Compression.
    Fvc(Fvc),
}

impl Compressor for AnyCompressor {
    fn algorithm(&self) -> Algorithm {
        match self {
            AnyCompressor::Bdi(c) => c.algorithm(),
            AnyCompressor::Fpc(c) => c.algorithm(),
            AnyCompressor::CPack(c) => c.algorithm(),
            AnyCompressor::Dzc(c) => c.algorithm(),
            AnyCompressor::Bpc(c) => c.algorithm(),
            AnyCompressor::Fvc(c) => c.algorithm(),
        }
    }

    fn compress(&self, data: &[u8]) -> CompressedBlock {
        match self {
            AnyCompressor::Bdi(c) => c.compress(data),
            AnyCompressor::Fpc(c) => c.compress(data),
            AnyCompressor::CPack(c) => c.compress(data),
            AnyCompressor::Dzc(c) => c.compress(data),
            AnyCompressor::Bpc(c) => c.compress(data),
            AnyCompressor::Fvc(c) => c.compress(data),
        }
    }

    fn compressed_size_bits(&self, data: &[u8]) -> u32 {
        match self {
            AnyCompressor::Bdi(c) => c.compressed_size_bits(data),
            AnyCompressor::Fpc(c) => c.compressed_size_bits(data),
            AnyCompressor::CPack(c) => c.compressed_size_bits(data),
            AnyCompressor::Dzc(c) => c.compressed_size_bits(data),
            AnyCompressor::Bpc(c) => c.compressed_size_bits(data),
            AnyCompressor::Fvc(c) => c.compressed_size_bits(data),
        }
    }

    fn try_decompress_into(
        &self,
        block: &CompressedBlock,
        out: &mut [u8],
    ) -> Result<(), DecodeError> {
        match self {
            AnyCompressor::Bdi(c) => c.try_decompress_into(block, out),
            AnyCompressor::Fpc(c) => c.try_decompress_into(block, out),
            AnyCompressor::CPack(c) => c.try_decompress_into(block, out),
            AnyCompressor::Dzc(c) => c.try_decompress_into(block, out),
            AnyCompressor::Bpc(c) => c.try_decompress_into(block, out),
            AnyCompressor::Fvc(c) => c.try_decompress_into(block, out),
        }
    }
}

pub(crate) fn validate_block(data: &[u8]) {
    assert!(
        !data.is_empty() && data.len().is_multiple_of(4),
        "cache blocks must be a positive multiple of 4 bytes, got {}",
        data.len()
    );
}

/// Checks a decompression destination against the block's metadata.
pub(crate) fn check_out(
    block: &CompressedBlock,
    expected: Algorithm,
    out: &[u8],
) -> Result<(), DecodeError> {
    if block.algorithm() != expected {
        return Err(DecodeError::WrongAlgorithm { expected, got: block.algorithm() });
    }
    if out.len() != block.original_bytes() as usize {
        return Err(DecodeError::OutputLen { expected: block.original_bytes(), got: out.len() });
    }
    Ok(())
}

/// Writes the 32-bit `word` at word index `idx` of `out`, little-endian.
pub(crate) fn put_word(out: &mut [u8], idx: usize, word: u32) {
    out[idx * 4..idx * 4 + 4].copy_from_slice(&word.to_le_bytes());
}

/// Builds an uncompressed passthrough encoding: 1 flag byte + raw bytes.
pub(crate) fn passthrough(algorithm: Algorithm, data: &[u8]) -> CompressedBlock {
    let mut payload = Vec::with_capacity(data.len() + 1);
    payload.push(0u8); // flag byte: 0 = uncompressed
    payload.extend_from_slice(data);
    CompressedBlock::new(algorithm, data.len() as u32, payload, (data.len() as u32 + 1) * 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_blocks() -> Vec<Vec<u8>> {
        let mut blocks = vec![
            vec![0u8; 32],
            vec![0xFFu8; 32],
            (0..32).collect::<Vec<u8>>(),
            b"the quick brown fox jumps over!!".to_vec(),
        ];
        // A base+small-delta block: u32 values near 0x1000_0000.
        let mut deltas = Vec::new();
        for i in 0..8u32 {
            deltas.extend_from_slice(&(0x1000_0000 + i * 3).to_le_bytes());
        }
        blocks.push(deltas);
        // Pseudo-random (incompressible) block.
        let mut x = 0x12345678u32;
        let mut rnd = Vec::new();
        for _ in 0..8 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            rnd.extend_from_slice(&x.to_le_bytes());
        }
        blocks.push(rnd);
        blocks
    }

    #[test]
    fn every_algorithm_round_trips_samples() {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            for block in sample_blocks() {
                let enc = c.compress(&block);
                assert_eq!(c.decompress(&enc), block, "{alg} failed on {block:02x?}");
                assert_eq!(enc.algorithm(), alg);
                assert_eq!(enc.original_bytes(), block.len() as u32);
            }
        }
    }

    #[test]
    fn zero_blocks_compress_well_everywhere() {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            let enc = c.compress(&[0u8; 32]);
            // BPC pays a fixed 33-plane header, everyone else crushes a
            // zero block into a few bytes.
            let max = if alg == Algorithm::Bpc { 14 } else { 8 };
            assert!(
                enc.compressed_bytes() <= max,
                "{alg} should crush a zero block, got {}B",
                enc.compressed_bytes()
            );
        }
    }

    #[test]
    fn compressed_size_respects_structural_worst_case() {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            for block in sample_blocks() {
                let n = block.len() as u32;
                // Worst-case expansion is bounded by each algorithm's
                // per-word/per-byte metadata tax.
                let max = match alg {
                    Algorithm::Bdi => n + 1,              // flag byte
                    Algorithm::Fpc => n + n * 3 / 32 + 1, // 3 bits per word
                    Algorithm::CPack => n + n / 16 + 1,   // 2 bits per word
                    Algorithm::Dzc => n + n / 8,          // 1 bit per byte
                    Algorithm::Bpc => n + 1,              // passthrough fallback
                    Algorithm::Fvc => n + 4 + n / 32 + 1, // header + flags
                };
                let enc = c.compress(&block);
                assert!(
                    enc.compressed_bytes() <= max,
                    "{alg} exploded a {n}B block to {}B",
                    enc.compressed_bytes()
                );
            }
        }
    }

    #[test]
    fn ratio_and_flags_consistent() {
        let c = Algorithm::Bdi.compressor();
        let enc = c.compress(&[0u8; 32]);
        assert!(enc.is_compressed());
        assert!(enc.ratio() < 1.0);
    }

    #[test]
    fn default_costs_ordered_by_complexity() {
        let dzc = Algorithm::Dzc.default_cost();
        let bdi = Algorithm::Bdi.default_cost();
        let cpack = Algorithm::CPack.default_cost();
        assert!(dzc.compress_energy < bdi.compress_energy);
        assert!(bdi.compress_energy < cpack.compress_energy);
    }

    #[test]
    fn algorithm_display_names() {
        assert_eq!(Algorithm::CPack.to_string(), "C-Pack");
        assert_eq!(Algorithm::Fpc.to_string(), "FPC");
    }

    #[test]
    #[should_panic(expected = "multiple of 4")]
    fn odd_sized_blocks_rejected() {
        let _ = Algorithm::Bdi.compressor().compress(&[0u8; 7]);
    }

    #[test]
    fn compression_is_deterministic() {
        for alg in Algorithm::EXTENDED {
            let c = alg.compressor();
            for block in sample_blocks() {
                assert_eq!(c.compress(&block), c.compress(&block));
            }
        }
    }
}
