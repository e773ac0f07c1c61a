//! The kernel IR: loop phases over address/value generators, compiled to a
//! randomly-addressable instruction stream.

use ehs_mem::MemoryImage;
use ehs_model::{Address, Instruction};

/// SplitMix64 hash for deterministic pseudo-random address/value streams.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the data address of a memory op from the loop iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddrGen {
    /// `base + (iter * stride) % span`, word-aligned. Streaming/array
    /// sweeps; `span` bounds the working set.
    Seq {
        /// Region base address.
        base: u64,
        /// Bytes advanced per iteration.
        stride: u64,
        /// Working-set size in bytes (wraps).
        span: u64,
    },
    /// `base + hash(iter, salt) % span`, word-aligned. Table lookups,
    /// pointer chasing, hash probes.
    Rand {
        /// Region base address.
        base: u64,
        /// Working-set size in bytes.
        span: u64,
        /// Stream discriminator.
        salt: u64,
    },
    /// A single hot location (accumulators, globals).
    Fixed {
        /// The address.
        addr: u64,
    },
    /// Like [`AddrGen::Tiled`] but touching *random* words within the
    /// current tile instead of scanning it cyclically. Random reuse gives
    /// an LRU cache a hit rate proportional to the resident fraction of
    /// the tile (a cyclic scan of an over-sized tile degenerates to ~0%),
    /// which is how real loop nests with scattered accesses behave.
    TiledRand {
        /// Region base address.
        base: u64,
        /// Bytes per tile.
        tile_span: u64,
        /// Loop iterations spent on one tile.
        iters_per_tile: u64,
        /// Stream discriminator.
        salt: u64,
    },
    /// Tiled processing (JPEG macroblocks, wavelet tiles, speech frames):
    /// the stream works on one `tile_span`-byte tile for `iters_per_tile`
    /// iterations — walking it with `stride`, wrapping, so later passes
    /// re-touch the tile — then moves to the next tile and never returns.
    /// The *instantaneous* working set is one tile; the *total* footprint
    /// is unbounded. This is the access shape that makes compression
    /// useful-but-perishable: a tile in flight benefits from the stretched
    /// cache, a tile in flight at power failure is pure loss.
    Tiled {
        /// Region base address.
        base: u64,
        /// Bytes per tile.
        tile_span: u64,
        /// Loop iterations spent on one tile.
        iters_per_tile: u64,
        /// Bytes advanced per iteration within the tile (wraps).
        stride: u64,
    },
}

impl AddrGen {
    fn at(&self, iter: u64) -> Address {
        let raw = match *self {
            AddrGen::Seq { base, stride, span } => base + (iter.wrapping_mul(stride)) % span,
            AddrGen::Rand { base, span, salt } => base + mix(iter ^ salt.rotate_left(17)) % span,
            AddrGen::Fixed { addr } => addr,
            AddrGen::Tiled { base, tile_span, iters_per_tile, stride } => {
                let tile = iter / iters_per_tile;
                let within = (iter % iters_per_tile).wrapping_mul(stride) % tile_span;
                base + tile * tile_span + within
            }
            AddrGen::TiledRand { base, tile_span, iters_per_tile, salt } => {
                let tile = iter / iters_per_tile;
                let within = mix(iter ^ salt.rotate_left(29)) % tile_span;
                base + tile * tile_span + within
            }
        };
        Address::new(raw & !3)
    }
}

/// Generates the stored value of a store op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValGen {
    /// Always zero (zero-fill loops; maximally compressible output).
    Zero,
    /// The iteration count (ramps; BDI-friendly output).
    Iter,
    /// Small values below `magnitude` (coefficients; FPC-friendly).
    Small {
        /// Exclusive upper bound of generated values.
        magnitude: u32,
        /// Stream discriminator.
        salt: u64,
    },
    /// Uniform random words (crypto/compressed output; incompressible).
    Rand {
        /// Stream discriminator.
        salt: u64,
    },
}

impl ValGen {
    fn at(&self, iter: u64) -> u32 {
        match *self {
            ValGen::Zero => 0,
            ValGen::Iter => iter as u32,
            ValGen::Small { magnitude, salt } => {
                (mix(iter ^ salt) % magnitude.max(1) as u64) as u32
            }
            ValGen::Rand { salt } => mix(iter.wrapping_add(salt) << 1) as u32,
        }
    }
}

/// One operation slot in a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Arithmetic/logic (no data-memory traffic).
    Alu,
    /// 4-byte load.
    Load(AddrGen),
    /// 4-byte store.
    Store(AddrGen, ValGen),
}

/// A loop: a body of [`Op`]s executed for `iterations` trips.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// The loop body, one instruction per op.
    pub body: Vec<Op>,
    /// Trip count.
    pub iterations: u64,
    /// Code address of the loop's first instruction (drives the ICache).
    pub code_base: u64,
    /// Number of alternative code paths through the body (data-dependent
    /// branches / helper calls). Each iteration hashes to one path, whose
    /// instructions live at a distinct code offset — this is what gives
    /// the ICache a realistic footprint beyond one tiny loop body.
    pub code_paths: u32,
}

impl Phase {
    /// Dynamic instruction count of this phase.
    pub fn len(&self) -> u64 {
        self.body.len() as u64 * self.iterations
    }

    /// Always `false` for valid phases.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty() || self.iterations == 0
    }
}

/// A whole application: a sequence of phases repeated `repeats` times.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSpec {
    /// Display name.
    pub name: &'static str,
    /// Phases executed in order within one repetition.
    pub phases: Vec<Phase>,
    /// How many times the phase sequence repeats (reuse across
    /// repetitions gives the program its steady-state locality).
    pub repeats: u64,
    /// Initial contents of the address space.
    pub image: MemoryImage,
}

/// A compiled kernel: prefix sums over the phases for O(log #phases)
/// random access to any dynamic instruction.
#[derive(Debug, Clone)]
pub struct KernelProgram {
    name: &'static str,
    phases: Vec<Phase>,
    /// Cumulative instruction counts; `starts[i]` = first index of phase i.
    starts: Vec<u64>,
    per_rep: u64,
    repeats: u64,
    image: MemoryImage,
}

impl KernelProgram {
    /// Compiles a spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec has no phases, an empty phase, or zero repeats.
    pub fn new(spec: KernelSpec) -> Self {
        assert!(!spec.phases.is_empty(), "kernel needs at least one phase");
        assert!(spec.repeats > 0, "kernel needs at least one repetition");
        let mut starts = Vec::with_capacity(spec.phases.len());
        let mut acc = 0u64;
        for p in &spec.phases {
            assert!(!p.is_empty(), "phase with empty body or zero iterations");
            starts.push(acc);
            acc += p.len();
        }
        KernelProgram {
            name: spec.name,
            phases: spec.phases,
            starts,
            per_rep: acc,
            repeats: spec.repeats,
            image: spec.image,
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total dynamic instruction count.
    pub fn len(&self) -> u64 {
        self.per_rep * self.repeats
    }

    /// Always `false`: programs are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Instructions per repetition of the phase sequence.
    pub fn rep_len(&self) -> u64 {
        self.per_rep
    }

    /// The initial memory image.
    pub fn image(&self) -> &MemoryImage {
        &self.image
    }

    /// The dynamic instruction at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn inst_at(&self, index: u64) -> Instruction {
        assert!(index < self.len(), "instruction index {index} out of range");
        let within = index % self.per_rep;
        // Find the phase via binary search on the prefix sums.
        let pi = match self.starts.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let phase = &self.phases[pi];
        let offset = within - self.starts[pi];
        let body_len = phase.body.len() as u64;
        let iter = offset / body_len;
        let slot = (offset % body_len) as usize;
        // Pick this iteration's code path; each path's body sits at its own
        // block-aligned code offset.
        let path = if phase.code_paths > 1 {
            mix(iter ^ 0x5EED_C0DE) % phase.code_paths as u64
        } else {
            0
        };
        let body_span = (body_len * 4).next_multiple_of(32);
        let pc = Address::new(phase.code_base + path * body_span + 4 * slot as u64);
        match phase.body[slot] {
            Op::Alu => Instruction::alu(pc),
            Op::Load(a) => Instruction::load(pc, a.at(iter)),
            Op::Store(a, v) => Instruction::store(pc, a.at(iter), v.at(iter)),
        }
    }

    /// An incremental decoder positioned at instruction `index`.
    ///
    /// The cursor yields exactly the stream [`KernelProgram::inst_at`]
    /// produces, but amortises the per-instruction binary search and
    /// per-iteration code-path hash across a whole loop body.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn cursor(&self, index: u64) -> InstCursor<'_> {
        let mut c =
            InstCursor { program: self, index: 0, pi: 0, iter: 0, slot: 0, path: 0, body_span: 0 };
        c.seek(index);
        c
    }

    /// Counts static properties: `(mem_ops, alu_ops)` per repetition.
    pub fn op_mix(&self) -> (u64, u64) {
        let mut mem = 0;
        let mut alu = 0;
        for p in &self.phases {
            for op in &p.body {
                match op {
                    Op::Alu => alu += p.iterations,
                    _ => mem += p.iterations,
                }
            }
        }
        (mem, alu)
    }

    /// Arithmetic intensity: ALU ops per memory op.
    pub fn arithmetic_intensity(&self) -> f64 {
        let (mem, alu) = self.op_mix();
        if mem == 0 {
            f64::INFINITY
        } else {
            alu as f64 / mem as f64
        }
    }
}

/// An incremental decoder over a [`KernelProgram`]'s dynamic instruction
/// stream.
///
/// [`KernelProgram::inst_at`] pays a binary search over the phase prefix
/// sums plus a SplitMix64 hash for *every* instruction; the cursor keeps a
/// `(phase, iteration, slot)` position and advances it in O(1), hashing the
/// code path once per loop iteration. The stream is bit-identical to
/// `inst_at` by construction (asserted by the `cursor_matches_inst_at`
/// test over every app).
///
/// # Examples
///
/// ```
/// # use ehs_workloads::App;
/// let program = App::Sha.build(0.01);
/// let mut cursor = program.cursor(0);
/// for i in 0..program.len() {
///     assert_eq!(cursor.next_inst(), program.inst_at(i));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct InstCursor<'p> {
    program: &'p KernelProgram,
    /// Next dynamic instruction index to decode.
    index: u64,
    /// Current phase index.
    pi: usize,
    /// Loop iteration within the current phase.
    iter: u64,
    /// Op slot within the loop body.
    slot: usize,
    /// This iteration's code path (hashed once per iteration).
    path: u64,
    /// Code bytes spanned by one path's body (block-aligned).
    body_span: u64,
}

impl<'p> InstCursor<'p> {
    /// The index of the next instruction [`InstCursor::next_inst`] yields.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Repositions the cursor at `index` (used after SweepCache rollback,
    /// where the committed-instruction pointer moves backwards).
    ///
    /// # Panics
    ///
    /// Panics if `index >= program.len()`.
    pub fn seek(&mut self, index: u64) {
        let p = self.program;
        assert!(index < p.len(), "instruction index {index} out of range");
        let within = index % p.per_rep;
        let pi = match p.starts.binary_search(&within) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let phase = &p.phases[pi];
        let offset = within - p.starts[pi];
        let body_len = phase.body.len() as u64;
        self.index = index;
        self.pi = pi;
        self.iter = offset / body_len;
        self.slot = (offset % body_len) as usize;
        self.enter_iteration();
    }

    /// Recomputes the per-iteration decode state (code path, body span).
    fn enter_iteration(&mut self) {
        let phase = &self.program.phases[self.pi];
        self.path = if phase.code_paths > 1 {
            mix(self.iter ^ 0x5EED_C0DE) % phase.code_paths as u64
        } else {
            0
        };
        self.body_span = (phase.body.len() as u64 * 4).next_multiple_of(32);
    }

    /// Program counter of the instruction at the current position.
    fn pc(&self) -> Address {
        let phase = &self.program.phases[self.pi];
        Address::new(phase.code_base + self.path * self.body_span + 4 * self.slot as u64)
    }

    /// Decodes the instruction at the current position and advances.
    ///
    /// # Panics
    ///
    /// Panics when the cursor is past the last instruction.
    pub fn next_inst(&mut self) -> Instruction {
        let phase = &self.program.phases[self.pi];
        let pc = self.pc();
        let inst = match phase.body[self.slot] {
            Op::Alu => Instruction::alu(pc),
            Op::Load(a) => Instruction::load(pc, a.at(self.iter)),
            Op::Store(a, v) => Instruction::store(pc, a.at(self.iter), v.at(self.iter)),
        };
        self.index += 1;
        if self.index >= self.program.len() {
            return inst;
        }
        self.slot += 1;
        if self.slot < phase.body.len() {
            return inst;
        }
        self.slot = 0;
        self.iter += 1;
        if self.iter >= phase.iterations {
            self.iter = 0;
            self.pi += 1;
            if self.pi >= self.program.phases.len() {
                self.pi = 0; // next repetition
            }
        }
        self.enter_iteration();
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ehs_model::inst::InstKind;

    fn tiny_spec() -> KernelSpec {
        KernelSpec {
            name: "tiny",
            phases: vec![
                Phase {
                    body: vec![
                        Op::Load(AddrGen::Seq { base: 0x1000, stride: 4, span: 64 }),
                        Op::Alu,
                        Op::Store(AddrGen::Fixed { addr: 0x2000 }, ValGen::Iter),
                    ],
                    iterations: 10,
                    code_base: 0x100,
                    code_paths: 1,
                },
                Phase {
                    body: vec![Op::Alu, Op::Alu],
                    iterations: 5,
                    code_base: 0x200,
                    code_paths: 1,
                },
            ],
            repeats: 3,
            image: MemoryImage::zeros(),
        }
    }

    #[test]
    fn lengths_and_prefix_sums() {
        let p = KernelProgram::new(tiny_spec());
        assert_eq!(p.rep_len(), 30 + 10);
        assert_eq!(p.len(), 120);
    }

    #[test]
    fn instruction_stream_is_deterministic_and_phase_correct() {
        let p = KernelProgram::new(tiny_spec());
        // First phase: load/alu/store cycle.
        assert!(matches!(p.inst_at(0).kind, InstKind::Load { .. }));
        assert!(matches!(p.inst_at(1).kind, InstKind::Alu));
        assert!(matches!(p.inst_at(2).kind, InstKind::Store { .. }));
        // Second phase starts at index 30.
        assert!(matches!(p.inst_at(30).kind, InstKind::Alu));
        assert_eq!(p.inst_at(30).pc, Address::new(0x200));
        // Repetition 2 replays repetition 1 exactly.
        for i in 0..40 {
            assert_eq!(p.inst_at(i), p.inst_at(i + 40));
        }
    }

    #[test]
    fn seq_addresses_wrap_at_span() {
        let gen = AddrGen::Seq { base: 0x1000, stride: 4, span: 64 };
        assert_eq!(gen.at(0), Address::new(0x1000));
        assert_eq!(gen.at(1), Address::new(0x1004));
        assert_eq!(gen.at(16), Address::new(0x1000)); // wrapped
    }

    #[test]
    fn tiled_addresses_reuse_within_a_tile_then_advance() {
        let gen = AddrGen::Tiled { base: 0x1000, tile_span: 64, iters_per_tile: 32, stride: 4 };
        // First pass walks the tile sequentially.
        assert_eq!(gen.at(0), Address::new(0x1000));
        assert_eq!(gen.at(15), Address::new(0x103C));
        // Second pass (iters 16..32) wraps back over the same 64 bytes.
        assert_eq!(gen.at(16), Address::new(0x1000));
        assert_eq!(gen.at(31), Address::new(0x103C));
        // Next tile starts fresh, one tile_span further.
        assert_eq!(gen.at(32), Address::new(0x1040));
        // A tile is never revisited after the stream moves on.
        for i in 32..64 {
            assert!(gen.at(i).get() >= 0x1040);
        }
    }

    #[test]
    fn tiled_rand_stays_within_the_current_tile() {
        let gen = AddrGen::TiledRand { base: 0x1000, tile_span: 64, iters_per_tile: 32, salt: 5 };
        for i in 0..32 {
            let a = gen.at(i).get();
            assert!((0x1000..0x1040).contains(&a), "iter {i}: {a:#x}");
        }
        for i in 32..64 {
            let a = gen.at(i).get();
            assert!((0x1040..0x1080).contains(&a), "iter {i}: {a:#x}");
        }
        // Random within the tile: more than 4 distinct words touched.
        let distinct: std::collections::HashSet<u64> = (0..32).map(|i| gen.at(i).get()).collect();
        assert!(distinct.len() > 4);
    }

    #[test]
    fn rand_addresses_stay_in_span_and_are_aligned() {
        let gen = AddrGen::Rand { base: 0x8000, span: 1024, salt: 7 };
        for i in 0..500 {
            let a = gen.at(i).get();
            assert!((0x8000..0x8000 + 1024).contains(&a));
            assert_eq!(a % 4, 0);
        }
        // Different salts give different streams.
        let other = AddrGen::Rand { base: 0x8000, span: 1024, salt: 8 };
        assert!((0..100).any(|i| gen.at(i) != other.at(i)));
    }

    #[test]
    fn value_generators() {
        assert_eq!(ValGen::Zero.at(5), 0);
        assert_eq!(ValGen::Iter.at(5), 5);
        let small = ValGen::Small { magnitude: 100, salt: 3 };
        for i in 0..200 {
            assert!(small.at(i) < 100);
        }
        let r = ValGen::Rand { salt: 1 };
        assert_ne!(r.at(0), r.at(1));
        assert_eq!(r.at(7), r.at(7));
    }

    #[test]
    fn op_mix_and_intensity() {
        let p = KernelProgram::new(tiny_spec());
        let (mem, alu) = p.op_mix();
        assert_eq!(mem, 20); // (1 load + 1 store) * 10 iters
        assert_eq!(alu, 20); // 10 + 2*5
        assert_eq!(p.arithmetic_intensity(), 1.0);
    }

    #[test]
    fn cursor_matches_inst_at_across_whole_stream() {
        let p = KernelProgram::new(tiny_spec());
        let mut c = p.cursor(0);
        for i in 0..p.len() {
            assert_eq!(c.index(), i);
            assert_eq!(c.next_inst(), p.inst_at(i), "index {i}");
        }
    }

    #[test]
    fn cursor_matches_inst_at_with_code_paths_and_mem_ops() {
        let p = KernelProgram::new(KernelSpec {
            name: "paths",
            phases: vec![
                Phase {
                    body: vec![
                        Op::Alu,
                        Op::Alu,
                        Op::Load(AddrGen::Rand { base: 0x4000, span: 512, salt: 3 }),
                        Op::Alu,
                        Op::Store(
                            AddrGen::Tiled {
                                base: 0x8000,
                                tile_span: 64,
                                iters_per_tile: 8,
                                stride: 4,
                            },
                            ValGen::Small { magnitude: 50, salt: 9 },
                        ),
                    ],
                    iterations: 37,
                    code_base: 0x1000,
                    code_paths: 5,
                },
                Phase { body: vec![Op::Alu; 9], iterations: 11, code_base: 0x9000, code_paths: 3 },
            ],
            repeats: 4,
            image: MemoryImage::zeros(),
        });
        let mut c = p.cursor(0);
        for i in 0..p.len() {
            assert_eq!(c.next_inst(), p.inst_at(i), "index {i}");
        }
    }

    #[test]
    fn cursor_seek_lands_anywhere() {
        let p = KernelProgram::new(tiny_spec());
        let mut c = p.cursor(0);
        for &i in &[0, 1, 29, 30, 39, 40, 77, 119, 3, 0] {
            c.seek(i);
            assert_eq!(c.next_inst(), p.inst_at(i), "seek {i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let p = KernelProgram::new(tiny_spec());
        let _ = p.inst_at(p.len());
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_spec_rejected() {
        let _ = KernelProgram::new(KernelSpec {
            name: "empty",
            phases: vec![],
            repeats: 1,
            image: MemoryImage::zeros(),
        });
    }
}
