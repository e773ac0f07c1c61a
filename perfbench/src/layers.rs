//! Per-layer metrics of a traced run, and the attribution of each cell's
//! measured ns/inst to the layers it crosses.
//!
//! Every number here comes from calling a layer's public functions from
//! outside the program, on the workload's own inputs: blocks materialised
//! from its memory images, its instruction streams replayed through a
//! standalone cache, its configurations run under both machine loops.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

use ehs_cache::{CacheConfig, CompressedCache, HitInfo};
use ehs_compress::{Algorithm, Compressor};
use ehs_energy::{Capacitor, PowerTrace};
use ehs_mem::Nvm;
use ehs_model::inst::InstKind;
use ehs_model::{Energy, SimTime};
use ehs_sim::{ExecMode, GovernorSpec, SimConfig, SimStats, Simulator};
use ehs_workloads::{App, KernelProgram};
use kagura_core::{Acc, AlwaysCompress, CompressionGovernor, Kagura, NeverCompress};
use serde_json::{json, Value};

use crate::simwork::TRACE_LEN;
use crate::util::{median, time_batched, timer_overhead_ns};
use crate::{serve, spans, Outcome};

/// Instructions of each cell replayed through the standalone cache.
const REPLAY_INSTS: u64 = 2_000_000;
/// Distinct data blocks per app fed to the compressors.
const MAX_BLOCKS: usize = 2048;
/// Minimum time each batched micro-measurement runs for.
const MIN_MS: f64 = 40.0;

/// One measured cell of the workload loop.
#[derive(Debug, Clone)]
pub struct CellRun {
    pub label: String,
    pub app: App,
    pub cfg: SimConfig,
    /// Median host seconds of `Simulator::run`.
    pub secs: f64,
    pub stats: SimStats,
}

/// How busy the workload kept its workers: one entry per batch.
#[derive(Debug, Clone, Default)]
pub struct PoolUse {
    walls: Vec<f64>,
    busy: Vec<f64>,
    workers: usize,
}

impl PoolUse {
    /// Records one batch: its wall time and the summed busy time of its
    /// `workers` workers.
    pub fn add(&mut self, wall: f64, busy: f64, workers: usize) {
        self.walls.push(wall);
        self.busy.push(busy);
        self.workers = workers;
    }

    /// Σ busy ÷ (workers × Σ wall).
    fn busy_frac(&self) -> f64 {
        let wall: f64 = self.walls.iter().sum();
        self.busy.iter().sum::<f64>() / (self.workers.max(1) as f64 * wall).max(1e-12)
    }

    /// Median per batch of wall − busy ÷ workers: the time the batch
    /// outlasted a perfect packing of its work onto the workers.
    fn tail_s(&self) -> f64 {
        let tails: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.busy)
            .map(|(w, b)| w - b / self.workers.max(1) as f64)
            .collect();
        median(&tails)
    }
}

/// Everything the probes need from the workload run.
pub struct Context<'a> {
    pub cells: &'a [CellRun],
    /// Programs of the cells, keyed by app, all built at `scale`.
    pub programs: &'a HashMap<App, KernelProgram>,
    pub scale: f64,
    /// The power trace all cells ran on.
    pub trace: &'a PowerTrace,
    /// Cells run under both machine loops.
    pub ff_subset: Vec<&'a CellRun>,
    pub pool: PoolUse,
    /// Traced ÷ untraced median batch wall, minus 1.
    pub overhead: f64,
    /// `[server_p50_ms, cache_hit_rate, shed]` from a live server's
    /// `metrics` op; `None` measures them on an in-process server core.
    pub live_server: Option<[f64; 3]>,
}

/// Mean ns per event of each cache-side operation, over all replays.
#[derive(Debug, Default)]
struct Replay {
    read_hit: (f64, u64),
    write_hit: (f64, u64),
    miss: (f64, u64),
    fill: (f64, u64),
    nvm_read: (f64, u64),
    nvm_write: (f64, u64),
    shallow: u64,
    memo: (u64, u64),
    infos: Vec<HitInfo>,
}

fn add(slot: &mut (f64, u64), ns: f64) {
    slot.0 += ns;
    slot.1 += 1;
}

fn mean(slot: (f64, u64)) -> f64 {
    slot.0 / slot.1.max(1) as f64
}

fn governor(spec: &GovernorSpec) -> Box<dyn CompressionGovernor> {
    match spec {
        GovernorSpec::AlwaysCompress => Box::new(AlwaysCompress),
        GovernorSpec::Acc => Box::new(Acc::new()),
        GovernorSpec::AccKagura(k) => Box::new(Kagura::new(*k, Acc::new())),
        _ => Box::new(NeverCompress),
    }
}

/// Replays a cell's instruction stream (up to [`REPLAY_INSTS`]) through a
/// standalone data cache and NVM, driven by the cell's own governor.
/// With `clock_ns` set, every call is timed (less the clock's own cost)
/// into `r`; either way the loop's total host ns is returned.
fn replay(cell: &CellRun, program: &KernelProgram, clock_ns: Option<f64>, r: &mut Replay) -> f64 {
    let params = cell.cfg.system.dcache;
    let mut cache = CompressedCache::new(CacheConfig::new(params, cell.cfg.algorithm));
    let mut nvm = Nvm::new(cell.cfg.system.nvm, params.block_size, program.image().clone());
    let mut gov = governor(&cell.cfg.governor);
    let ways = params.ways;
    let bs = params.block_size;
    let mut cursor = program.cursor(0);
    let stamp = || clock_ns.map(|_| Instant::now());
    let took = |t: Option<Instant>| match (t, clock_ns) {
        (Some(t), Some(c)) => (t.elapsed().as_nanos() as f64 - c).max(0.0),
        _ => 0.0,
    };
    let start = Instant::now();
    for _ in 0..program.len().min(REPLAY_INSTS) {
        let inst = cursor.next_inst();
        let (addr, store) = match inst.kind {
            InstKind::Alu => continue,
            InstKind::Load { addr } => (addr, None),
            InstKind::Store { addr, value } => (addr, Some(value)),
        };
        let t = stamp();
        let shallow = match store {
            None => cache.try_commit_shallow_read(addr),
            Some(v) => cache.try_commit_shallow_write(addr, v),
        };
        let hit = if shallow {
            r.shallow += 1;
            None
        } else {
            match store {
                None => cache.read(addr),
                Some(v) => cache.write(addr, v, gov.compression_enabled()).map(|(info, _)| info),
            }
        };
        let ns = took(t);
        let hit_slot = if store.is_some() { &mut r.write_hit } else { &mut r.read_hit };
        match (shallow, hit) {
            (true, _) => add(hit_slot, ns),
            (false, Some(info)) => {
                add(hit_slot, ns);
                gov.on_hit(&info, ways);
                if r.infos.len() < 65_536 {
                    r.infos.push(info);
                }
            }
            (false, None) => {
                add(&mut r.miss, ns);
                let t = stamp();
                let read = nvm.read_block(addr);
                add(&mut r.nvm_read, took(t));
                let mode = gov.fill_mode();
                let apply = store.map(|v| (addr.block_offset(bs) & !3, v));
                let t = stamp();
                let outcome = cache.fill(addr.block_base(bs), read.data, mode, apply);
                add(&mut r.fill, took(t));
                gov.on_fill(outcome.stored_compressed);
                for e in outcome.evicted.into_iter().filter(|e| e.dirty) {
                    let t = stamp();
                    black_box(nvm.write_block(e.addr, e.data));
                    add(&mut r.nvm_write, took(t));
                }
            }
        }
        gov.on_mem_commit();
    }
    let total = start.elapsed().as_nanos() as f64;
    let (h, m) = cache.size_memo_counters();
    r.memo.0 += h;
    r.memo.1 += m;
    total
}

/// Host ns of decoding the same stream with no cache behind it.
fn decode_only(program: &KernelProgram) -> f64 {
    let mut cursor = program.cursor(0);
    let start = Instant::now();
    for _ in 0..program.len().min(REPLAY_INSTS) {
        black_box(cursor.next_inst());
    }
    start.elapsed().as_nanos() as f64
}

/// Distinct data blocks the program touches, materialised from its image.
fn blocks_of(program: &KernelProgram, block_size: u32) -> Vec<Vec<u8>> {
    let mut seen = std::collections::BTreeSet::new();
    let mut cursor = program.cursor(0);
    for _ in 0..program.len().min(REPLAY_INSTS) {
        if let Some(a) = cursor.next_inst().kind.data_addr() {
            seen.insert(a.block_index(block_size));
            if seen.len() >= MAX_BLOCKS {
                break;
            }
        }
    }
    seen.into_iter().map(|i| program.image().materialize(i, block_size).into_bytes()).collect()
}

/// ns per block of compress, size-only and decompress, and the ratio;
/// `None` when a block does not survive the round trip.
fn compressor_costs(alg: Algorithm, blocks: &[Vec<u8>]) -> Option<[f64; 4]> {
    let c = alg.compressor();
    let n = blocks.len();
    let compress = time_batched(MIN_MS, n, || {
        for b in blocks {
            black_box(c.compress(black_box(b)));
        }
    });
    let size = time_batched(MIN_MS, n, || {
        for b in blocks {
            black_box(c.compressed_size_bits(black_box(b)));
        }
    });
    let encoded: Vec<_> = blocks.iter().map(|b| c.compress(b)).collect();
    let mut buf = vec![0u8; blocks.first().map_or(0, Vec::len)];
    let decompress = time_batched(MIN_MS, n, || {
        for e in &encoded {
            c.decompress_into(black_box(e), &mut buf);
        }
    });
    if blocks.iter().zip(&encoded).any(|(b, e)| c.try_decompress(e).as_ref() != Ok(b)) {
        return None;
    }
    let orig: u64 = encoded.iter().map(|e| u64::from(e.original_bytes())).sum();
    let comp: u64 = encoded.iter().map(|e| u64::from(e.compressed_bytes())).sum();
    Some([compress, size, decompress, orig as f64 / comp.max(1) as f64])
}

/// ns per call of each governor hook, over the replay's recorded hits.
fn hook_costs(mut gov: Box<dyn CompressionGovernor>, infos: &[HitInfo], ways: u32) -> [f64; 3] {
    const CALLS: usize = 4096;
    let fill_mode = time_batched(MIN_MS, CALLS, || {
        for _ in 0..CALLS {
            black_box(gov.fill_mode());
        }
    });
    let on_hit = time_batched(MIN_MS, infos.len(), || {
        for info in infos {
            gov.on_hit(black_box(info), ways);
        }
    });
    let on_commit = time_batched(MIN_MS, CALLS, || {
        for _ in 0..CALLS {
            gov.on_mem_commit();
        }
    });
    [fill_mode, on_hit, on_commit]
}

/// ns per `charge` + `drain` pair, over the workload's own trace samples.
fn capacitor_cost(cfg: &SimConfig, trace: &PowerTrace) -> f64 {
    let samples = &trace.samples()[..trace.len().min(65_536)];
    let mut cap = Capacitor::new(cfg.capacitor);
    let (v_mid, dt, spend) = (
        (cfg.capacitor.v_rst + cfg.capacitor.v_ckpt) / 2.0,
        SimTime::from_micros(10.0),
        Energy::from_picojoules(50.0),
    );
    time_batched(MIN_MS, samples.len(), || {
        cap.set_voltage(v_mid);
        for &p in samples {
            black_box(cap.charge(p, dt));
            cap.drain(spend);
        }
    })
}

/// Host seconds of one run (best of two) and its stats.
fn timed_run(cfg: &SimConfig, program: &KernelProgram, trace: &PowerTrace) -> (f64, SimStats) {
    let mut best = (f64::INFINITY, SimStats::default());
    for _ in 0..2 {
        let sim = Simulator::new(cfg.clone(), program, trace);
        let t = Instant::now();
        let stats = sim.run();
        best = (best.0.min(t.elapsed().as_secs_f64()), stats);
    }
    best
}

/// Host seconds of one telemetry-attached run (best of two).
fn attached_run(cfg: &SimConfig, program: &KernelProgram, trace: &PowerTrace) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..2 {
        let mut sink = ehs_telemetry::NullSink;
        let mut sim = Simulator::new(cfg.clone(), program, trace);
        sim.attach_telemetry(&mut sink);
        let t = Instant::now();
        black_box(sim.run_instrumented());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Layer costs the attribution multiplies by event counts.
struct Costs {
    read_hit: f64,
    write_hit: f64,
    miss: f64,
    fill: f64,
    nvm_read: f64,
    nvm_write: f64,
    capacitor: f64,
    /// `[fill_mode, on_hit, on_mem_commit]` for Kagura and ACC cells.
    kagura: [f64; 3],
    acc: [f64; 3],
    shallow_rate: f64,
}

/// Predicted host ns of one cell from its `SimStats` event counts.
fn attribute(c: &Costs, cfg: &SimConfig, s: &SimStats) -> f64 {
    let d = &s.dcache;
    let fills = (d.fills + s.icache.fills) as f64;
    let mem_ops = d.accesses() as f64;
    let hooks = match cfg.governor {
        GovernorSpec::AccKagura(_) => Some(c.kagura),
        GovernorSpec::Acc => Some(c.acc),
        _ => None, // fixed policies: a constant answer, no state
    };
    let governor = hooks.map_or(0.0, |[fill_mode, on_hit, commit]| {
        fill_mode * fills + on_hit * d.hits() as f64 * (1.0 - c.shallow_rate) + commit * mem_ops
    });
    c.read_hit * d.read_hits as f64
        + c.write_hit * d.write_hits as f64
        + c.miss * (d.misses() + s.icache.misses()) as f64
        + c.fill * fills
        + c.nvm_read * s.nvm.reads as f64
        + c.nvm_write * s.nvm.writes as f64
        + c.capacitor * (mem_ops + fills)
        + governor
}

/// Runs every probe and adds the per-layer metrics to `out`.
pub fn probe(out: &mut Outcome, ctx: &Context) {
    let root = spans::span("probe", 0, || "layers".into());
    let cfg0 = &ctx.cells[0].cfg;
    let clock_ns = timer_overhead_ns();

    // Set-up layers.
    let mut gen_ms = Vec::new();
    for _ in 0..3 {
        let _s = spans::span("energy.trace_generate", root.id(), || "probe".into());
        let t = Instant::now();
        black_box(PowerTrace::generate(cfg0.trace_kind, cfg0.trace_seed, TRACE_LEN));
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    out.metric("energy.trace_generate_ms", "ms", median(&gen_ms), gen_ms.len());
    let build_ms = time_batched(MIN_MS, ctx.programs.len(), || {
        for app in ctx.programs.keys() {
            let _s = spans::span("workloads.build", root.id(), || app.name().into());
            black_box(app.build(ctx.scale));
        }
    }) / 1e6;
    out.metric("workloads.build_ms", "ms", build_ms, ctx.programs.len());
    let new_ms = time_batched(MIN_MS, ctx.cells.len(), || {
        for c in ctx.cells {
            let _s = spans::span("sim.new", root.id(), || c.label.clone());
            black_box(Simulator::new(c.cfg.clone(), &ctx.programs[&c.app], ctx.trace));
        }
    }) / 1e6;
    out.metric("sim.new_ms", "ms", new_ms, ctx.cells.len());

    // Compressors, over blocks of the workload's own memory images.
    let blocks: Vec<Vec<u8>> = {
        let _s = spans::span("workloads.image", root.id(), || "blocks".into());
        let bs = cfg0.system.dcache.block_size;
        ctx.programs.values().flat_map(|p| blocks_of(p, bs)).collect()
    };
    for (alg, name) in [(Algorithm::Bdi, "bdi"), (Algorithm::CPack, "cpack")] {
        let _s = spans::span("compress", root.id(), || name.into());
        out.attempted += 1;
        let [c, s, d, ratio] = compressor_costs(alg, &blocks).unwrap_or_else(|| {
            out.fail(format!("{name}: a workload block fails its round trip"));
            [f64::NAN; 4]
        });
        let n = blocks.len();
        out.metric(&format!("compress.{name}.compress_ns"), "ns", c, n);
        out.metric(&format!("compress.{name}.size_ns"), "ns", s, n);
        out.metric(&format!("compress.{name}.decompress_ns"), "ns", d, n);
        out.metric(&format!("compress.{name}.ratio"), "ratio", ratio, n);
    }

    // Cache, NVM and governor hooks, over the workload's own streams.
    // Per-call clocks stall the pipeline around each call, so the timed
    // costs are scaled to match an untimed replay of the same streams
    // (less their decode-only time): calibrated costs keep the timed
    // shares but add up to what the loop really spends.
    let mut r = Replay::default();
    let (mut timed_loop, mut untimed_loop, mut decode) = (0.0, 0.0, 0.0);
    let mut seen = std::collections::HashSet::new();
    for c in ctx.cells {
        if seen.insert((c.app, c.cfg.governor.label())) {
            let _s = spans::span("cache.replay", root.id(), || c.label.clone());
            let program = &ctx.programs[&c.app];
            timed_loop += replay(c, program, Some(clock_ns), &mut r);
            untimed_loop += replay(c, program, None, &mut Replay::default());
            decode += decode_only(program);
        }
    }
    let timed_ns: f64 = [r.read_hit, r.write_hit, r.miss, r.fill, r.nvm_read, r.nvm_write]
        .iter()
        .map(|s| s.0)
        .sum();
    let scale = ((untimed_loop - decode) / timed_ns).clamp(0.0, 1.0);
    for slot in [
        &mut r.read_hit,
        &mut r.write_hit,
        &mut r.miss,
        &mut r.fill,
        &mut r.nvm_read,
        &mut r.nvm_write,
    ] {
        slot.0 *= scale;
    }
    out.detail(
        "replay_calibration",
        json!({ "timed_loop_ns": timed_loop, "untimed_loop_ns": untimed_loop,
                "decode_ns": decode, "timed_calls_ns": timed_ns, "scale": scale }),
    );
    let hits = r.read_hit.1 + r.write_hit.1;
    let shallow_rate = r.shallow as f64 / hits.max(1) as f64;
    let memo_rate = r.memo.0 as f64 / (r.memo.0 + r.memo.1).max(1) as f64;
    out.metric("cache.read_hit_ns", "ns", mean(r.read_hit), r.read_hit.1 as usize);
    out.metric("cache.read_miss_ns", "ns", mean(r.miss), r.miss.1 as usize);
    out.metric("cache.write_hit_ns", "ns", mean(r.write_hit), r.write_hit.1 as usize);
    out.metric("cache.fill_ns", "ns", mean(r.fill), r.fill.1 as usize);
    out.metric("cache.memo_hit_rate", "ratio", memo_rate, (r.memo.0 + r.memo.1) as usize);
    out.metric("cache.shallow_commit_rate", "ratio", shallow_rate, hits as usize);
    out.metric("mem.nvm_read_ns", "ns", mean(r.nvm_read), r.nvm_read.1 as usize);
    out.metric("mem.nvm_write_ns", "ns", mean(r.nvm_write), r.nvm_write.1 as usize);
    let capacitor = {
        let _s = spans::span("energy.capacitor", root.id(), || "probe".into());
        capacitor_cost(cfg0, ctx.trace)
    };
    out.metric("energy.capacitor_ns", "ns", capacitor, 65_536);
    if r.infos.is_empty() {
        r.infos.push(HitInfo { was_compressed: false, lru_rank: 0, word: 0 });
    }
    let ways = cfg0.system.dcache.ways;
    let kagura = {
        let _s = spans::span("core.kagura", root.id(), || "hooks".into());
        hook_costs(Box::new(Kagura::new(Default::default(), Acc::new())), &r.infos, ways)
    };
    let acc = {
        let _s = spans::span("core.acc", root.id(), || "hooks".into());
        hook_costs(Box::new(Acc::new()), &r.infos, ways)
    };
    for (name, v) in [("kagura", kagura), ("acc", acc)] {
        out.metric(&format!("core.{name}.fill_mode_ns"), "ns", v[0], 4096);
        out.metric(&format!("core.{name}.on_hit_ns"), "ns", v[1], r.infos.len());
        out.metric(&format!("core.{name}.on_mem_commit_ns"), "ns", v[2], 4096);
    }

    // Both machine loops, and the telemetry-attached run, on a subset.
    let (mut ff_total, mut ref_total, mut att_total) = (0.0, 0.0, 0.0);
    let mut ffs = BTreeMap::new();
    for c in &ctx.ff_subset {
        let _s = spans::span("sim.exec_modes", root.id(), || c.label.clone());
        let program = &ctx.programs[&c.app];
        let (ff, ff_stats) = timed_run(&c.cfg, program, ctx.trace);
        let ref_cfg = c.cfg.clone().with_exec(ExecMode::Reference);
        let (rf, ref_stats) = timed_run(&ref_cfg, program, ctx.trace);
        out.attempted += 1;
        if ff_stats != ref_stats {
            out.fail(format!("{}: FastForward and Reference loops disagree", c.label));
        }
        ffs.insert(c.label.clone(), rf / ff);
        ff_total += ff;
        ref_total += rf;
        att_total += attached_run(&c.cfg, program, ctx.trace);
    }
    out.metric(
        "sim.fastforward_speedup",
        "x",
        ref_total / ff_total.max(1e-12),
        ctx.ff_subset.len(),
    );
    out.metric(
        "telemetry.attached_slowdown",
        "x",
        att_total / ff_total.max(1e-12),
        ctx.ff_subset.len(),
    );

    // Attribution of each cell's measured ns/inst.
    let costs = Costs {
        read_hit: mean(r.read_hit),
        write_hit: mean(r.write_hit),
        miss: mean(r.miss),
        fill: mean(r.fill),
        nvm_read: mean(r.nvm_read),
        nvm_write: mean(r.nvm_write),
        capacitor,
        kagura,
        acc,
        shallow_rate,
    };
    let mut rows = Vec::new();
    let (mut insts, mut secs, mut attributed) = (0u64, 0.0, 0.0);
    let (mut dfills, mut comps, mut nvm_w, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    for c in ctx.cells {
        let s = &c.stats;
        let n = s.executed_insts.max(1);
        let measured = c.secs * 1e9 / n as f64;
        let pred = attribute(&costs, &c.cfg, s) / n as f64;
        rows.push((c.label.clone(), measured, pred, measured - pred, ffs.get(&c.label).copied()));
        insts += n;
        secs += c.secs;
        attributed += pred * n as f64;
        dfills += s.dcache.fills;
        comps += s.compression_ops();
        nvm_w += s.nvm.writes;
        cycles += s.power_cycle_count;
    }
    let ns_per_inst = secs * 1e9 / insts.max(1) as f64;
    let attributed_per_inst = attributed / insts.max(1) as f64;
    let k = insts.max(1) as f64;
    out.metric("sim.ns_per_inst", "ns", ns_per_inst, ctx.cells.len());
    out.metric("sim.attributed_ns_per_inst", "ns", attributed_per_inst, ctx.cells.len());
    out.metric(
        "sim.residual_ns_per_inst",
        "ns",
        ns_per_inst - attributed_per_inst,
        ctx.cells.len(),
    );
    out.metric("sim.dfills_per_kinst", "1/kinst", dfills as f64 * 1e3 / k, ctx.cells.len());
    out.metric("sim.compressions_per_kinst", "1/kinst", comps as f64 * 1e3 / k, ctx.cells.len());
    out.metric("sim.nvm_writes_per_kinst", "1/kinst", nvm_w as f64 * 1e3 / k, ctx.cells.len());
    out.metric("sim.power_cycles_per_minst", "1/Minst", cycles as f64 * 1e6 / k, ctx.cells.len());
    out.metric("sim.pool_busy_frac", "ratio", ctx.pool.busy_frac(), ctx.pool.walls.len());
    out.metric("sim.pool_tail_s", "s", ctx.pool.tail_s(), ctx.pool.walls.len());
    out.metric("trace.overhead_frac", "ratio", ctx.overhead, ctx.pool.walls.len());

    rows.sort_by(|a, b| b.3.total_cmp(&a.3));
    let table: Vec<Value> = rows
        .iter()
        .map(|(label, m, a, res, ff)| {
            json!({
                "cell": label.clone(), "measured_ns_per_inst": *m,
                "attributed_ns_per_inst": *a, "residual_ns_per_inst": *res,
                "fastforward_speedup": ff.map_or(Value::Null, Value::from),
            })
        })
        .collect();
    out.detail("attribution", Value::Array(table));
    drop(root);

    serve::probe_in_process(out, ctx.cells, ctx.live_server);
}
