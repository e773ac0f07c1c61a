//! `serve-whatif`: one `simrun serve` process driven closed-loop by one
//! client connection per host core, with a seeded query stream in which
//! about half the queries repeat one the same connection already had
//! answered. Also the in-process serve probe of every traced run.

use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Barrier};
use std::time::{Duration, Instant};

use ehs_energy::PowerTrace;
use ehs_sim::{GovernorSpec, StepBudget};
use ehs_workloads::App;
use kagura_bench::serve::request::{parse_request, Request};
use kagura_bench::serve::{Core, ServeOptions};
use serde_json::Value;

use crate::layers::{self, CellRun, PoolUse};
use crate::util::{host_cores, median, mix, peak_rss_mb, quantile, time_batched, Rng};
use crate::{spans, Outcome};

/// Program scale of every query.
pub const QUERY_SCALE: f64 = 0.1;
/// Queries each connection sends per round.
const ROUND: usize = 10;
/// Fresh queries answered on one (trace, seed) before moving to a new one.
const GROUP: u32 = 4;
/// Server spawns whose spawn → ready times give `setup_s` (after one
/// uncounted warm-up spawn).
const SPAWNS: usize = 31;

const GOVERNORS: [&str; 3] = ["acc", "kagura", "always"];
const DESIGNS: [&str; 3] = ["nvsram", "nvmr", "sweepcache"];
const ALGORITHMS: [&str; 3] = ["bdi", "cpack", "fpc"];
const TRACES: [&str; 3] = ["rfhome", "solar", "thermal"];
const CAPS_UF: [f64; 3] = [1.0, 4.7, 10.0];

/// One connection's seeded query stream.
struct QueryGen {
    conn: usize,
    rng: Rng,
    /// Request lines of the distinct queries so far; index = query id.
    distinct: Vec<String>,
    /// Seeded start of the walk over apps and knobs.
    offset: usize,
    trace: &'static str,
    trace_seed: u64,
    group: u64,
    group_left: u32,
}

impl QueryGen {
    fn new(seed: u64, conn: usize) -> QueryGen {
        let mut g = QueryGen {
            conn,
            rng: Rng::new(mix(seed ^ ((conn as u64 + 1) * 0x5EB7E))),
            distinct: Vec::new(),
            offset: 0,
            trace: "rfhome",
            trace_seed: 0,
            group: 0,
            group_left: 0,
        };
        g.offset = g.rng.below(1 << 16);
        g.next_group(seed);
        g
    }

    /// Moves to a (trace, seed) no query has used yet; connections draw
    /// from disjoint seed ranges and take the trace kinds in turn.
    fn next_group(&mut self, seed: u64) {
        self.trace = TRACES[(self.group as usize + self.conn) % TRACES.len()];
        self.trace_seed = (mix(seed) >> 24) + self.conn as u64 * 1_000_000 + self.group;
        self.group += 1;
        self.group_left = GROUP;
    }

    /// The next query: `(distinct id, is a repeat)`.
    fn next(&mut self, seed: u64) -> (usize, bool) {
        if !self.distinct.is_empty() && self.rng.unit() < 0.5 {
            return (self.rng.below(self.distinct.len()), true);
        }
        if self.group_left == 0 {
            self.next_group(seed);
        }
        self.group_left -= 1;
        // Fresh queries walk every dimension in turn from seeded offsets,
        // so each run's mix of apps and knobs is the same.
        let id = self.distinct.len();
        let n = id + self.offset;
        let app = App::ALL[n % App::ALL.len()].name();
        let gov = GOVERNORS[n % 3];
        let design = DESIGNS[(n / 3) % 3];
        let alg = ALGORITHMS[(n / 9) % 3];
        let cap = CAPS_UF[(n + n / 3) % 3];
        self.distinct.push(format!(
            "{{\"op\":\"query\",\"id\":\"c{}-{id}\",\"app\":\"{app}\",\"scale\":{QUERY_SCALE},\
             \"governor\":\"{gov}\",\"design\":\"{design}\",\"algorithm\":\"{alg}\",\
             \"trace\":\"{}\",\"seed\":{},\"cap\":{cap}}}",
            self.conn, self.trace, self.trace_seed
        ));
        (id, false)
    }
}

/// A live `simrun serve` child process.
struct Server {
    child: Child,
    addr: SocketAddr,
    /// Drains the server's stderr until it exits.
    log: std::thread::JoinHandle<()>,
}

impl Server {
    /// Spawns the server and waits until it reports that it listens;
    /// returns it with the seconds that took. Readiness is the server's
    /// own "listening on" line, read from a pipe, so no polling delay
    /// enters the measurement.
    fn spawn(simrun: &Path, dir: &Path, n: usize) -> Result<(Server, f64), String> {
        let port_file = dir.join(format!("port-{}-{n}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let t = Instant::now();
        let workers = host_cores().to_string();
        let mut child = Command::new(simrun)
            .args(["serve", "--tcp", "127.0.0.1:0", "--workers", &workers, "--cache-capacity"])
            .args(["100000", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", simrun.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (ready, listening) = mpsc::channel();
        let log = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                if line.contains("listening on") {
                    let _ = ready.send(());
                }
            }
        });
        let up = listening.recv_timeout(Duration::from_secs(30));
        let secs = t.elapsed().as_secs_f64();
        let addr = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse::<SocketAddr>().ok());
        let _ = std::fs::remove_file(&port_file);
        let server = match (up, addr) {
            (Ok(()), Some(addr)) => Server { child, addr, log },
            (up, _) => {
                let _ = child.kill();
                let status = child.wait();
                let _ = log.join();
                return Err(format!("server did not come up ({up:?}, exit {status:?})"));
            }
        };
        Ok((server, secs))
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream = TcpStream::connect(self.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(60))).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { stream, reader })
    }

    /// Graceful drain via the `shutdown` op; kills it if it hangs.
    fn shutdown(mut self) -> Result<(), String> {
        let drained = self.connect().and_then(|mut c| c.ask(r#"{"op":"shutdown","id":"bye"}"#));
        let t = Instant::now();
        while t.elapsed() < Duration::from_secs(20) {
            if let Ok(Some(status)) = self.child.try_wait() {
                let _ = self.log.join();
                return match (drained, status.success()) {
                    (Ok(_), true) => Ok(()),
                    (d, _) => Err(format!("server shutdown: {d:?}, exit {status}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
        Err("server did not drain within 20 s".into())
    }

    /// Stops the server at once.
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.log.join();
    }
}

/// One NDJSON client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line in a single write and reads the reply.
    fn ask(&mut self, line: &str) -> Result<String, String> {
        self.stream.write_all(format!("{line}\n").as_bytes()).map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What one client connection measured.
#[derive(Default)]
struct ConnResult {
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    miss_insts: u64,
    attempted: u64,
    failures: Vec<String>,
    /// Reply to each distinct query, by id.
    replies: BTreeMap<usize, String>,
    lines: Vec<String>,
}

/// Checks a fresh reply and returns the instructions it simulated.
fn check_miss(reply: &str) -> Result<u64, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("bad reply JSON: {e}"))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("error reply: {reply}"));
    }
    let result = v.get("result").ok_or("reply has no result")?;
    let mut insts = 0;
    for run in ["baseline", "candidate"] {
        let r = result.get(run).ok_or("reply lacks a run summary")?;
        if r.get("completed").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{run} run incomplete: {reply}"));
        }
        insts += r.get("executed_insts").and_then(Value::as_u64).unwrap_or(0);
    }
    if result.get("ledger_violations").and_then(Value::as_f64) != Some(0.0) {
        return Err(format!("ledger violations: {reply}"));
    }
    Ok(insts)
}

/// Drives one connection round by round until told to stop.
fn client(
    server: &Server,
    mut gen: QueryGen,
    seed: u64,
    barrier: &Barrier,
    stop: &AtomicBool,
) -> ConnResult {
    let mut r = ConnResult::default();
    let mut conn = match server.connect() {
        Ok(c) => Some(c),
        Err(e) => {
            r.failures.push(e);
            None
        }
    };
    let mut round = 0usize;
    loop {
        barrier.wait();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let span = spans::span("serve.round", 0, || format!("c{}-r{round}", gen.conn));
        for _ in 0..ROUND {
            let Some(c) = conn.as_mut() else { break };
            let (id, hit) = gen.next(seed);
            r.attempted += 1;
            let line = gen.distinct[id].clone();
            let t = Instant::now();
            let reply = {
                let _s = spans::span("serve.query", span.id(), || format!("c{}-{id}", gen.conn));
                c.ask(&line)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let reply = match reply {
                Ok(reply) => reply,
                Err(e) => {
                    r.failures.push(e);
                    conn = None;
                    break;
                }
            };
            let measured = round > 0; // round 0 warms up: checked, not timed
            if hit {
                if r.replies.get(&id) != Some(&reply) {
                    r.failures.push(format!("c{}-{id}: repeat differs from first reply", gen.conn));
                }
                if measured {
                    r.hit_ms.push(ms);
                }
            } else {
                match check_miss(&reply) {
                    Ok(insts) if measured => {
                        r.miss_ms.push(ms);
                        r.miss_insts += insts;
                    }
                    Ok(_) => {}
                    Err(e) => r.failures.push(format!("c{}-{id}: {e}", gen.conn)),
                }
                r.replies.insert(id, reply);
            }
        }
        drop(span);
        barrier.wait();
        round += 1;
    }
    r.lines = gen.distinct;
    r
}

/// Reads `[server_p50_ms, cache_hit_rate, shed]` from a `metrics` reply.
fn server_metrics(reply: &str) -> Option<[f64; 3]> {
    let v: Value = serde_json::from_str(reply).ok()?;
    let reg = v.get("metrics")?.get("registry")?;
    let counter = |name: &str| {
        reg.get("counters")?
            .as_array()?
            .iter()
            .find(|c| c.get("name").and_then(Value::as_str) == Some(name))?
            .get("value")?
            .as_f64()
    };
    let p50 = reg
        .get("histograms")?
        .as_array()?
        .iter()
        .find(|h| h.get("name").and_then(Value::as_str) == Some("server_latency_ms"))?
        .get("p50")?
        .as_f64()?;
    let (hits, misses) = (counter("server_cache_hits")?, counter("server_cache_misses")?);
    Some([p50, hits / (hits + misses).max(1.0), counter("server_shed")?])
}

/// An in-process core configured like the benchmark's server.
fn core() -> Core {
    Core::new(ServeOptions {
        tcp: None,
        port_file: None,
        state: None,
        workers: host_cores(),
        queue_depth: 8,
        cache_capacity: 1024,
        default_budget: StepBudget::UNLIMITED,
        write_timeout: Duration::from_secs(5),
    })
}

/// `serve-whatif`.
pub fn serve_whatif(seconds: f64, seed: u64, traced: bool, simrun: &Path, dir: &Path) -> Outcome {
    let mut out = Outcome::new();
    let mut setup = Vec::new();
    for n in 0..=SPAWNS {
        out.attempted += 1;
        match Server::spawn(simrun, dir, n) {
            Ok((s, secs)) => {
                if n > 0 {
                    setup.push(secs);
                }
                s.kill();
            }
            Err(e) => out.fail(e),
        }
    }
    out.attempted += 1;
    let server = match Server::spawn(simrun, dir, SPAWNS + 1) {
        Ok((s, secs)) => {
            setup.push(secs);
            s
        }
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let workers = host_cores();
    let barrier = Barrier::new(workers + 1);
    let stop = AtomicBool::new(false);
    let (mut walls, mut plain, mut recorded) = (Vec::new(), Vec::new(), Vec::new());
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|c| {
                let (server, barrier, stop) = (&server, &barrier, &stop);
                s.spawn(move || client(server, QueryGen::new(seed, c), seed, barrier, stop))
            })
            .collect();
        let start = Instant::now();
        let mut round = 0usize;
        loop {
            let go = round < 3 || start.elapsed().as_secs_f64() < seconds;
            stop.store(!go, Ordering::SeqCst);
            // Traced runs record spans on odd rounds only, to measure
            // the tracing overhead.
            spans::set_enabled(traced && round % 2 == 1);
            barrier.wait();
            if !go {
                break;
            }
            let t = Instant::now();
            barrier.wait();
            let wall = t.elapsed().as_secs_f64();
            if round > 0 {
                walls.push(wall);
                if traced && round % 2 == 1 { &mut recorded } else { &mut plain }.push(wall);
            }
            round += 1;
        }
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    spans::set_enabled(traced);

    let live = server
        .connect()
        .and_then(|mut c| c.ask(r#"{"op":"metrics","id":"m"}"#))
        .ok()
        .and_then(|r| server_metrics(&r));
    let rss = peak_rss_mb(&server.child.id().to_string());
    let (mut hit_ms, mut miss_ms, mut insts) = (Vec::new(), Vec::new(), 0u64);
    for r in &results {
        out.attempted += r.attempted;
        r.failures.iter().for_each(|f| out.fail(f.clone()));
        hit_ms.extend(&r.hit_ms);
        miss_ms.extend(&r.miss_ms);
        insts += r.miss_insts;
    }
    // Untimed: the server must answer exactly what the library answers
    // in-process for the same request line.
    let reference = core();
    for r in &results {
        for (id, reply) in r.replies.iter().take(2) {
            out.attempted += 1;
            if reference.handle_line(&r.lines[*id]).as_deref() != Some(reply.as_str()) {
                out.fail(format!("{}: server reply differs from in-process reply", r.lines[*id]));
            }
        }
    }
    if live.is_none() {
        out.fail("server metrics op gave no readable metrics".into());
    }
    out.attempted += 1;
    if let Err(e) = server.shutdown() {
        out.fail(e);
    }

    let miss_s: f64 = miss_ms.iter().sum::<f64>() / 1e3;
    let queries = hit_ms.len() + miss_ms.len();
    out.metric("sim_ips", "Minst/s", insts as f64 / miss_s.max(1e-12) / 1e6, miss_ms.len());
    out.metric("wall_s", "s", median(&walls), walls.len());
    out.metric("setup_s", "s", median(&setup), setup.len());
    out.detail("setup_samples_s", Value::Array(setup.iter().map(|&w| w.into()).collect()));
    out.metric("peak_rss_mb", "MB", rss, 1);
    out.metric("miss_p50_ms", "ms", quantile(&miss_ms, 0.5), miss_ms.len());
    out.metric("miss_p90_ms", "ms", quantile(&miss_ms, 0.9), miss_ms.len());
    out.metric("qps", "1/s", queries as f64 / walls.iter().sum::<f64>().max(1e-12), queries);
    out.report("hit_p50_ms", "ms", quantile(&hit_ms, 0.5), hit_ms.len());
    out.report("hit_p99_ms", "ms", quantile(&hit_ms, 0.99), hit_ms.len());
    if miss_ms.len() < 100 {
        eprintln!("warning: only {} misses; miss_p90_ms rests on few samples", miss_ms.len());
    }
    let digests: Vec<Value> = results
        .iter()
        .flat_map(|r| r.replies.iter().map(|(id, reply)| (r.lines[*id].clone(), reply)))
        .map(|(line, reply)| {
            Value::Array(vec![
                line.into(),
                format!("{:016x}", crate::util::fnv1a(reply.as_bytes())).into(),
            ])
        })
        .collect();
    out.detail("reply_digests", Value::Array(digests));

    if traced {
        // Client-side busy time is not kept per round: spread it evenly.
        let busy: f64 = (hit_ms.iter().sum::<f64>() + miss_ms.iter().sum::<f64>()) / 1e3;
        let mut pool_use = PoolUse::default();
        for &w in &walls {
            pool_use.add(w, busy / walls.len() as f64, workers);
        }
        probe_cells(
            &mut out,
            &results[0].lines,
            pool_use,
            median(&recorded) / median(&plain) - 1.0,
            live,
        );
    }
    out
}

/// Runs the first (trace, seed) group of connection 0's queries
/// in-process and feeds them to the layer probes.
fn probe_cells(
    out: &mut Outcome,
    lines: &[String],
    pool: PoolUse,
    overhead: f64,
    live: Option<[f64; 3]>,
) {
    let queries: Vec<_> = lines
        .iter()
        .take(GROUP as usize)
        .filter_map(|l| match parse_request(l) {
            Ok(Request::Query { query, .. }) => Some(*query),
            _ => None,
        })
        .collect();
    let Some(first) = queries.first() else {
        out.fail("no queries to probe".into());
        return;
    };
    let trace =
        PowerTrace::generate(first.cfg.trace_kind, first.cfg.trace_seed, crate::simwork::TRACE_LEN);
    let mut programs = HashMap::new();
    let mut cells = Vec::new();
    for q in &queries {
        let program = programs.entry(q.app).or_insert_with(|| q.app.build(QUERY_SCALE));
        let mut base = q.cfg.clone();
        base.governor = GovernorSpec::NoCompression;
        for cfg in [base, q.cfg.clone()] {
            let sim = ehs_sim::Simulator::new(cfg.clone(), program, &trace);
            let t = Instant::now();
            let stats = sim.run();
            let secs = t.elapsed().as_secs_f64();
            let label = format!("{}/{}/{}", q.app.name(), cfg.governor.label(), cfg.design);
            cells.push(CellRun { label, app: q.app, cfg, secs, stats });
        }
    }
    let ctx = layers::Context {
        cells: &cells,
        programs: &programs,
        scale: QUERY_SCALE,
        trace: &trace,
        ff_subset: cells.iter().take(2).collect(),
        pool,
        overhead,
        live_server: live,
    };
    layers::probe(out, &ctx);
}

/// The serve layer on the workload's own configurations: parse cost,
/// cached-query cost, and (unless a live server reported them) the
/// server metrics of an in-process core.
pub fn probe_in_process(out: &mut Outcome, cells: &[CellRun], live: Option<[f64; 3]>) {
    let root = spans::span("serve.probe", 0, || "in-process".into());
    let lines: Vec<String> =
        cells.iter().take(4).enumerate().map(|(i, c)| query_line(i, c)).collect();
    let parse_us = time_batched(40.0, lines.len(), || {
        for l in &lines {
            std::hint::black_box(parse_request(l).is_ok());
        }
    }) / 1e3;
    out.metric("serve.parse_us", "us", parse_us, lines.len());
    let core = core();
    for l in &lines {
        out.attempted += 1;
        let _s = spans::span("serve.handle_miss", root.id(), || l.clone());
        match core.handle_line(l).as_deref().map(check_miss) {
            Some(Ok(_)) => {}
            Some(Err(e)) => out.fail(format!("in-process query {l}: {e}")),
            None => out.fail(format!("in-process query {l}: no reply")),
        }
    }
    let hit_us = time_batched(40.0, lines.len(), || {
        for l in &lines {
            std::hint::black_box(core.handle_line(l));
        }
    }) / 1e3;
    out.metric("serve.handle_hit_us", "us", hit_us, lines.len());
    let local = core.handle_line(r#"{"op":"metrics","id":"m"}"#).and_then(|r| server_metrics(&r));
    let [p50, hit_rate, shed] = live.or(local).unwrap_or([f64::NAN; 3]);
    out.metric("serve.server_p50_ms", "ms", p50, 1);
    out.metric("serve.cache_hit_rate", "ratio", hit_rate, 1);
    out.metric("serve.shed", "count", shed, 1);
}

/// A `query` request line for one cell's configuration, at a small scale.
fn query_line(i: usize, c: &CellRun) -> String {
    let gov = match c.cfg.governor {
        GovernorSpec::AlwaysCompress => "always",
        GovernorSpec::Acc => "acc",
        GovernorSpec::AccKagura(_) => "kagura",
        _ => "baseline",
    };
    format!(
        "{{\"op\":\"query\",\"id\":\"p{i}\",\"app\":\"{}\",\"scale\":0.05,\"governor\":\"{gov}\",\
         \"design\":\"{}\",\"algorithm\":\"{}\",\"trace\":\"{}\",\"seed\":{},\"cap\":{}}}",
        c.app.name(),
        c.cfg.design.name().to_ascii_lowercase(),
        c.cfg.algorithm.name().to_ascii_lowercase(),
        format!("{:?}", c.cfg.trace_kind).to_ascii_lowercase(),
        c.cfg.trace_seed,
        c.cfg.capacitor.capacitance * 1e6,
    )
}
