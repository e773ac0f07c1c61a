//! The 20 MiBench/MediaBench-like applications of the paper's evaluation.
//!
//! Each app is a [`KernelSpec`] calibrated on three axes (see the crate
//! docs): arithmetic intensity, working-set size relative to the 256 B
//! caches, and data compressibility via its [`MemoryImage`]. Names match
//! the paper's figures (`jpegd`, `blowfishd`, `strings`, …).
//!
//! Layout of the synthetic address space (byte addresses):
//!
//! * `0x0010_0000` — code (per-app phase bodies live at small offsets)
//! * `0x0020_0000` — primary input region
//! * `0x0030_0000` — secondary region (tables, state)
//! * `0x0040_0000` — output region
//! * `0x0050_0000` — scratch/globals

use ehs_mem::{ImageKind, MemoryImage};

use crate::kernel::{AddrGen, KernelProgram, KernelSpec, Op, Phase, ValGen};

const CODE: u64 = 0x0010_0000;
// Data regions are staggered by one cache set each (32 B blocks, 4 sets in
// the Table-I geometry) so that lock-step streams do not collide in the
// same set forever — real linkers scatter sections similarly.
const IN: u64 = 0x0020_0000;
const TAB: u64 = 0x0030_0020;
const OUT: u64 = 0x0040_0040;
const GLOB: u64 = 0x0050_0060;

/// One of the 20 evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are the benchmark names themselves
pub enum App {
    Adpcmd,
    Adpcme,
    Epic,
    G721d,
    G721e,
    Gsm,
    Jpeg,
    Jpegd,
    Mpeg2d,
    Mpeg2e,
    Susans,
    Blowfish,
    Blowfishd,
    Rijndael,
    Sha,
    Crc32,
    Dijkstra,
    Patricia,
    Strings,
    Typeset,
}

impl App {
    /// All 20 applications in the paper's figure order.
    pub const ALL: [App; 20] = [
        App::Adpcmd,
        App::Adpcme,
        App::Epic,
        App::G721d,
        App::G721e,
        App::Gsm,
        App::Jpeg,
        App::Jpegd,
        App::Mpeg2d,
        App::Mpeg2e,
        App::Susans,
        App::Blowfish,
        App::Blowfishd,
        App::Rijndael,
        App::Sha,
        App::Crc32,
        App::Dijkstra,
        App::Patricia,
        App::Strings,
        App::Typeset,
    ];

    /// The six apps of the paper's arithmetic-intensity study (Fig 17),
    /// lowest intensity first.
    pub const FIG17: [App; 6] =
        [App::Jpegd, App::Jpeg, App::Mpeg2d, App::G721d, App::Patricia, App::Strings];

    /// Benchmark name as printed in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            App::Adpcmd => "adpcmd",
            App::Adpcme => "adpcme",
            App::Epic => "epic",
            App::G721d => "g721d",
            App::G721e => "g721e",
            App::Gsm => "gsm",
            App::Jpeg => "jpeg",
            App::Jpegd => "jpegd",
            App::Mpeg2d => "mpeg2d",
            App::Mpeg2e => "mpeg2e",
            App::Susans => "susans",
            App::Blowfish => "blowfish",
            App::Blowfishd => "blowfishd",
            App::Rijndael => "rijndael",
            App::Sha => "sha",
            App::Crc32 => "crc32",
            App::Dijkstra => "dijkstra",
            App::Patricia => "patricia",
            App::Strings => "strings",
            App::Typeset => "typeset",
        }
    }

    /// Parses a benchmark name, case-insensitively.
    pub fn from_name(name: &str) -> Option<App> {
        App::ALL.into_iter().find(|a| a.name().eq_ignore_ascii_case(name))
    }

    /// Builds the program. `scale` multiplies every trip count (1.0 ≈
    /// 300–600 k dynamic instructions).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    pub fn build(self, scale: f64) -> KernelProgram {
        assert!(scale > 0.0, "scale must be positive");
        KernelProgram::new(self.spec(scale))
    }

    fn spec(self, scale: f64) -> KernelSpec {
        // `scale` multiplies the outer repetition count only, so one
        // repetition's phase structure (and therefore its locality) is
        // identical at every scale.
        let it = |n: u64| ((n as f64 * scale).round() as u64).max(1);
        let seed = self as u64 + 1;
        // Shorthands.
        let seq = |base, stride, span| Op::Load(AddrGen::Seq { base, stride, span });
        let rnd = |base, span, salt| Op::Load(AddrGen::Rand { base, span, salt });
        let stseq = |base: u64, stride: u64, span: u64, v: ValGen| {
            Op::Store(AddrGen::Seq { base, stride, span }, v)
        };
        let strnd = |base: u64, span: u64, salt: u64, v: ValGen| {
            Op::Store(AddrGen::Rand { base, span, salt }, v)
        };
        #[allow(unused_variables)]
        let tile = |base: u64, tile_span: u64, iters_per_tile: u64| {
            Op::Load(AddrGen::Tiled { base, tile_span, iters_per_tile, stride: 4 })
        };
        let trand = |base: u64, tile_span: u64, iters_per_tile: u64, salt: u64| {
            Op::Load(AddrGen::TiledRand { base, tile_span, iters_per_tile, salt })
        };
        #[allow(unused_variables)]
        let sttile = |base: u64, tile_span: u64, iters_per_tile: u64, v: ValGen| {
            Op::Store(AddrGen::Tiled { base, tile_span, iters_per_tile, stride: 4 }, v)
        };
        let small = ValGen::Small { magnitude: 256, salt: seed };
        let a = Op::Alu;

        // Common image fragments.
        let code_img = (CODE, ImageKind::SmallInts { seed: 0xC0DE ^ seed, magnitude: 1 << 22 });

        let (phases, repeats, image) = match self {
            // --- MediaBench audio: streaming samples, modest compute. ---
            App::Adpcmd => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 64),
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                        trand(IN + 0x8000, 4096, 110, seed),
                        a,
                        a,
                    ],
                    iterations: 4000,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(20),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 128 })
                    .region(OUT, ImageKind::Zeros)
                    .build(),
            ),
            App::Adpcme => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 64),
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                        trand(IN + 0x8000, 4096, 110, seed),
                        a,
                        a,
                    ],
                    iterations: 3500,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(20),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 4096 })
                    .build(),
            ),
            // --- epic: wavelet image compression, 2D sweeps on gradients. ---
            App::Epic => (
                vec![
                    Phase {
                        // Wavelet filtering over 352B tiles, two passes.
                        body: vec![
                            trand(IN, 4096, 100, seed),
                            seq(TAB, 4, 64),
                            a,
                            a,
                            stseq(TAB + 0x40, 4, 64, ValGen::Iter),
                            a,
                        ],
                        iterations: 2500,
                        code_base: CODE,
                        code_paths: 10,
                    },
                    Phase {
                        body: vec![
                            trand(OUT, 4096, 100, seed + 23),
                            seq(TAB, 4, 64),
                            a,
                            a,
                            stseq(TAB + 0x40, 4, 64, small),
                            a,
                        ],
                        iterations: 1500,
                        code_base: CODE + 0x100,
                        code_paths: 10,
                    },
                ],
                it(12),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Gradient { base: 0x8000, step: 5 })
                    .build(),
            ),
            // --- g721: ADPCM with heavy quantisation-table lookups. ---
            App::G721d => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 64),
                        rnd(TAB, 1024, seed),
                        a,
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                    ],
                    iterations: 3000,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(18),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 128 })
                    .region(TAB, ImageKind::SmallInts { seed: seed + 1, magnitude: 2048 })
                    .build(),
            ),
            App::G721e => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 64),
                        rnd(TAB, 1024, seed),
                        a,
                        a,
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                    ],
                    iterations: 2800,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(18),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 4096 })
                    .region(TAB, ImageKind::SmallInts { seed: seed + 1, magnitude: 2048 })
                    .build(),
            ),
            // --- gsm: frame-based speech coding. ---
            App::Gsm => (
                vec![
                    Phase {
                        // LPC analysis: five passes over each 384B frame.
                        body: vec![
                            trand(IN, 4096, 100, seed),
                            a,
                            a,
                            seq(TAB, 4, 64),
                            a,
                            stseq(OUT, 4, 64, small),
                        ],
                        iterations: 3000,
                        code_base: CODE,
                        code_paths: 10,
                    },
                    Phase {
                        body: vec![
                            seq(TAB, 4, 64),
                            a,
                            a,
                            a,
                            stseq(OUT, 4, 64, small),
                            trand(IN, 4096, 100, seed + 9),
                        ],
                        iterations: 2000,
                        code_base: CODE + 0x80,
                        code_paths: 10,
                    },
                ],
                it(16),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 8192 })
                    .region(TAB, ImageKind::SmallInts { seed: seed + 1, magnitude: 512 })
                    .build(),
            ),
            // --- jpeg encode: DCT over gradient pixels; memory-heavy. ---
            App::Jpeg => (
                vec![
                    Phase {
                        // DCT over 384B pixel tiles: two passes per tile.
                        body: vec![
                            trand(IN, 6144, 130, seed),
                            seq(TAB, 4, 64),
                            a,
                            stseq(TAB + 0x40, 4, 64, ValGen::Iter),
                        ],
                        iterations: 3000,
                        code_base: CODE,
                        code_paths: 10,
                    },
                    Phase {
                        // Entropy coding of the coefficient tiles.
                        body: vec![
                            trand(OUT, 6144, 130, seed + 23),
                            seq(TAB, 4, 64),
                            a,
                            stseq(TAB + 0x40, 4, 64, small),
                        ],
                        iterations: 2500,
                        code_base: CODE + 0x100,
                        code_paths: 10,
                    },
                ],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Gradient { base: 0x40_0000, step: 3 })
                    .build(),
            ),
            // --- jpeg decode: lowest arithmetic intensity; Kagura's best. ---
            App::Jpegd => (
                vec![
                    Phase {
                        // Huffman decode into 384B coefficient tiles.
                        body: vec![
                            trand(IN, 6144, 130, seed),
                            stseq(TAB, 4, 64, small),
                            seq(TAB + 0x40, 4, 64),
                            stseq(TAB + 0x40, 4, 64, ValGen::Iter),
                            a,
                        ],
                        iterations: 3500,
                        code_base: CODE,
                        code_paths: 10,
                    },
                    Phase {
                        // IDCT + color conversion over the pixel tiles.
                        body: vec![
                            trand(OUT, 6144, 130, seed + 23),
                            stseq(TAB, 4, 64, ValGen::Iter),
                        ],
                        iterations: 3500,
                        code_base: CODE + 0x100,
                        code_paths: 10,
                    },
                ],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Mixed { seed, compressible_pct: 70 })
                    .build(),
            ),
            // --- mpeg2 decode: motion compensation over a big frame. ---
            App::Mpeg2d => (
                vec![Phase {
                    // Motion compensation: random reference fetches plus
                    // tiled macroblock reconstruction.
                    body: vec![
                        rnd(IN, 4096, seed),
                        seq(TAB, 4, 64),
                        a,
                        a,
                        stseq(OUT, 4, 64, ValGen::Iter),
                        a,
                    ],
                    iterations: 4500,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(16),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Mixed { seed, compressible_pct: 70 })
                    .region(TAB, ImageKind::SmallInts { seed, magnitude: 256 })
                    .build(),
            ),
            App::Mpeg2e => (
                vec![Phase {
                    body: vec![
                        rnd(IN, 4096, seed),
                        seq(TAB, 4, 64),
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                        a,
                    ],
                    iterations: 3500,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(16),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Gradient { base: 0x10_0000, step: 11 })
                    .build(),
            ),
            // --- susan smoothing: windowed 2D loads. ---
            App::Susans => (
                vec![Phase {
                    // 3x3 smoothing window over 416B image tiles.
                    body: vec![
                        trand(IN, 4096, 100, seed),
                        seq(TAB, 4, 64),
                        a,
                        a,
                        stseq(OUT, 4, 64, small),
                        a,
                    ],
                    iterations: 3200,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(15),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Mixed { seed, compressible_pct: 70 })
                    .build(),
            ),
            // --- crypto: random S-box lookups over incompressible state. ---
            App::Blowfish => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 4096),
                        rnd(TAB, 2048, seed),
                        rnd(TAB + 2048, 2048, seed + 1),
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 4096, ValGen::Rand { salt: seed }),
                    ],
                    iterations: 3000,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Random { seed })
                    .region(TAB, ImageKind::Random { seed: seed + 2 })
                    .build(),
            ),
            App::Blowfishd => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 4096),
                        rnd(TAB, 2048, seed + 3),
                        rnd(TAB + 2048, 2048, seed + 4),
                        a,
                        a,
                        a,
                        stseq(OUT, 4, 4096, ValGen::Rand { salt: seed + 5 }),
                    ],
                    iterations: 3000,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Random { seed: seed + 6 })
                    .region(TAB, ImageKind::Random { seed: seed + 7 })
                    .build(),
            ),
            App::Rijndael => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 4096),
                        rnd(TAB, 2048, seed),
                        a,
                        a,
                        strnd(GLOB, 256, seed + 1, ValGen::Rand { salt: seed }),
                    ],
                    iterations: 3600,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Random { seed: seed + 8 })
                    .region(TAB, ImageKind::Random { seed: seed + 9 })
                    .build(),
            ),
            // --- sha: high reuse of one message block, ALU-heavy. ---
            App::Sha => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 64),
                        a,
                        a,
                        a,
                        a,
                        a,
                        a,
                        Op::Store(AddrGen::Fixed { addr: GLOB }, ValGen::Rand { salt: seed }),
                    ],
                    iterations: 4500,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Text { seed })
                    .build(),
            ),
            // --- crc32: pure streaming, no reuse. ---
            App::Crc32 => (
                vec![Phase {
                    body: vec![
                        seq(IN, 4, 16384),
                        a,
                        rnd(TAB, 256, seed),
                        a,
                        Op::Store(AddrGen::Fixed { addr: GLOB }, ValGen::Iter),
                    ],
                    iterations: 5500,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(12),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Text { seed })
                    .region(TAB, ImageKind::Random { seed: seed + 10 })
                    .build(),
            ),
            // --- dijkstra: graph relaxation over adjacency + dist arrays. ---
            App::Dijkstra => (
                vec![Phase {
                    body: vec![
                        rnd(IN, 2048, seed),
                        seq(TAB, 4, 384),
                        a,
                        a,
                        strnd(OUT, 512, seed + 1, ValGen::Small { magnitude: 1 << 16, salt: seed }),
                    ],
                    iterations: 4200,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 1 << 14 })
                    .region(TAB, ImageKind::Gradient { base: 0, step: 1 })
                    .build(),
            ),
            // --- patricia: pointer chasing, high arithmetic intensity. ---
            App::Patricia => (
                vec![Phase {
                    body: vec![rnd(IN, 1024, seed), a, a, a, a, a],
                    iterations: 6000,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::SmallInts { seed, magnitude: 1 << 20 })
                    .build(),
            ),
            // --- stringsearch: text scanning, highest intensity. ---
            App::Strings => (
                vec![Phase {
                    body: vec![seq(IN, 4, 4096), a, a, a, a, a, a],
                    iterations: 5200,
                    code_base: CODE,
                    code_paths: 10,
                }],
                it(12),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Text { seed })
                    .build(),
            ),
            // --- typeset: layout over text, memory-heavy, mixed access. ---
            App::Typeset => (
                vec![
                    Phase {
                        // Glyph layout: random dictionary lookups + tiled
                        // line buffers.
                        body: vec![
                            rnd(IN, 2048, seed),
                            seq(TAB, 4, 192),
                            a,
                            stseq(OUT, 4, 64, small),
                        ],
                        iterations: 3200,
                        code_base: CODE,
                        code_paths: 12,
                    },
                    Phase {
                        body: vec![seq(OUT, 4, 64), a, strnd(GLOB, 128, seed, ValGen::Iter)],
                        iterations: 2000,
                        code_base: CODE + 0x100,
                        code_paths: 12,
                    },
                ],
                it(14),
                MemoryImage::builder(ImageKind::Zeros)
                    .region(code_img.0, code_img.1)
                    .region(IN, ImageKind::Text { seed })
                    .region(TAB, ImageKind::SmallInts { seed, magnitude: 64 })
                    .build(),
            ),
        };
        KernelSpec { name: self.name(), phases, repeats, image }
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_model::inst::InstKind;

    #[test]
    fn all_apps_build_and_have_sane_lengths() {
        for app in App::ALL {
            let p = app.build(1.0);
            assert!((100_000..3_000_000).contains(&p.len()), "{app}: {} instructions", p.len());
        }
    }

    #[test]
    fn names_round_trip() {
        for app in App::ALL {
            assert_eq!(App::from_name(app.name()), Some(app));
        }
        assert_eq!(App::from_name("nope"), None);
        assert_eq!(App::ALL.len(), 20);
    }

    #[test]
    fn scale_multiplies_length() {
        let small = App::Sha.build(0.1);
        let big = App::Sha.build(1.0);
        assert!(big.len() > 5 * small.len());
    }

    #[test]
    fn fig17_ordering_by_arithmetic_intensity() {
        // The six Fig-17 apps must be ordered low->high intensity.
        let ai: Vec<f64> = App::FIG17.iter().map(|a| a.build(0.2).arithmetic_intensity()).collect();
        for w in ai.windows(2) {
            assert!(w[0] <= w[1] + 1e-9, "intensities not monotonic: {ai:?}");
        }
        // jpegd must be clearly memory-bound; strings clearly compute-bound.
        assert!(ai[0] < 1.0, "jpegd AI = {}", ai[0]);
        assert!(*ai.last().unwrap() >= 5.0, "strings AI = {:?}", ai.last());
    }

    #[test]
    fn instruction_streams_are_deterministic() {
        let a = App::Dijkstra.build(0.1);
        let b = App::Dijkstra.build(0.1);
        for i in (0..a.len()).step_by(997) {
            assert_eq!(a.inst_at(i), b.inst_at(i));
        }
    }

    #[test]
    fn data_addresses_fall_in_declared_regions() {
        for app in App::ALL {
            let p = app.build(0.05);
            for i in (0..p.len()).step_by(31) {
                if let InstKind::Load { addr } | InstKind::Store { addr, .. } = p.inst_at(i).kind {
                    assert!(
                        addr.get() >= IN && addr.get() < GLOB + 0x10_0000,
                        "{app}: data address {addr} outside data regions"
                    );
                }
            }
        }
    }

    #[test]
    fn pcs_fall_in_code_region() {
        for app in App::ALL {
            let p = app.build(0.05);
            for i in (0..p.len()).step_by(53) {
                let pc = p.inst_at(i).pc.get();
                assert!((CODE..CODE + 0x1000).contains(&pc), "{app}: pc {pc:#x}");
            }
        }
    }

    #[test]
    fn crypto_images_are_incompressible_media_images_are_not() {
        use ehs_compress::{Algorithm, Compressor};
        let bdi = Algorithm::Bdi.compressor();

        let crypto = App::Blowfish.build(0.05);
        let media = App::Jpeg.build(0.05);
        let block_of = |prog: &KernelProgram, addr: u64| prog.image().materialize(addr / 32, 32);

        let c = bdi.compress(block_of(&crypto, TAB + 256).as_slice());
        assert!(!c.is_compressed(), "crypto table should be incompressible");
        let m = bdi.compress(block_of(&media, IN + 256).as_slice());
        assert!(m.is_compressed(), "gradient pixels should compress");
    }
}
