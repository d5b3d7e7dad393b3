//! `vm_run`: the simulated machine.
//!
//! Two keep-alive connections run a closed loop of `POST /v1/run` for the
//! corpus `barnes_hut` program with seeded `bodies` (16–64), `steps` (1–2)
//! and `pes` lists. No two requests share parameters, so every run misses
//! the cache; the bytecode is compiled by the set-up request and stays
//! cached. The VM runs the sequential program and the strip-mined program
//! at each PE count with conflict detection; the per-PE runs fan out
//! through `query::par`.

use crate::client::{self, Conn};
use crate::gen;
use crate::report::Outcome;
use crate::server::Server;
use crate::stats::{delta, num, WindowSummary, Windows};
use crate::trace::Tracer;
use crate::Ctx;
use adds_machine::compile::CompiledProgram;
use adds_machine::{run_barnes_hut_compiled, uniform_cloud, CostModel};
use adds_query::json::Json;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SETUPS: usize = 21;
/// The particle-cloud seed of `adds_query::runner` (its `CLOUD_SEED`), so
/// in-process runs see the same bodies as the server.
const CLOUD_SEED: u64 = 3;
const THETA: f64 = 0.7;
const DT: f64 = 0.001;
/// Requests replayed in-process by the traced run.
const REPLAY_REQUESTS: u64 = 10;
const STREAM_BODIES: u64 = 10;
const STREAM_STEPS: u64 = 11;
const STREAM_PES: u64 = 12;

/// One `/v1/run` request's parameters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunParams {
    pub bodies: usize,
    pub steps: i64,
    pub pes: Vec<usize>,
}

impl RunParams {
    fn path(&self) -> String {
        let pes: Vec<String> = self.pes.iter().map(|p| p.to_string()).collect();
        format!(
            "/v1/run?bodies={}&steps={}&pes={}",
            self.bodies,
            self.steps,
            pes.join(",")
        )
    }
}

/// The set-up request; it compiles both programs.
fn warmup() -> RunParams {
    RunParams {
        bodies: 16,
        steps: 1,
        pes: vec![2],
    }
}

/// The seeded request sequence. Bodies, steps and PE lists each walk
/// seeded permutations of their ranges (see [`gen::stratified`]), so every
/// stretch of the sequence has the same mix of request costs; a repeated
/// combination is skipped, so no two requests share parameters.
pub struct Sequence {
    seed: u64,
    drawn: u64,
    pe_lists: Vec<Vec<usize>>,
    seen: HashSet<RunParams>,
}

impl Sequence {
    pub fn new(seed: u64) -> Sequence {
        Sequence {
            seed,
            drawn: 0,
            pe_lists: pe_lists(),
            seen: HashSet::from([warmup()]),
        }
    }
}

/// Every PE list of one to three distinct counts from 2 to 8, ascending.
fn pe_lists() -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    for a in 2..=8 {
        out.push(vec![a]);
        for b in a + 1..=8 {
            out.push(vec![a, b]);
            for c in b + 1..=8 {
                out.push(vec![a, b, c]);
            }
        }
    }
    out
}

impl Iterator for Sequence {
    type Item = RunParams;

    fn next(&mut self) -> Option<RunParams> {
        // There are 6174 combinations; a run asks for a few thousand at
        // most, so the search ends quickly or the space is exhausted.
        for _ in 0..100_000 {
            let k = self.drawn;
            self.drawn += 1;
            let pes = gen::stratified(self.seed, STREAM_PES, k, self.pe_lists.len());
            let p = RunParams {
                bodies: 16 + gen::stratified(self.seed, STREAM_BODIES, k, 49),
                steps: 1 + gen::stratified(self.seed, STREAM_STEPS, k, 2) as i64,
                pes: self.pe_lists[pes].clone(),
            };
            if self.seen.insert(p.clone()) {
                return Some(p);
            }
        }
        None
    }
}

/// A checked run report: simulated cycles (sequential plus every PE count)
/// and the sequential cycles, or what was wrong with it.
fn check_report(body: &[u8], p: &RunParams) -> Result<(u64, u64), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let doc = Json::parse(text)?;
    let seq = num(&doc, &["seq_cycles"]) as u64;
    let runs = doc
        .get("parallel")
        .and_then(Json::as_arr)
        .ok_or("no `parallel` array")?;
    if runs.len() != p.pes.len() || seq == 0 {
        return Err(format!("{} parallel runs for {:?}", runs.len(), p.pes));
    }
    let mut cycles = seq;
    for (r, &pes) in runs.iter().zip(&p.pes) {
        if num(r, &["pes"]) as usize != pes {
            return Err(format!(
                "run for {} PEs answered as {}",
                pes,
                num(r, &["pes"])
            ));
        }
        if num(r, &["conflicts"]) != 0.0 {
            return Err(format!("{} conflicts at {pes} PEs", num(r, &["conflicts"])));
        }
        if r.get("physics_matches").and_then(Json::as_bool) != Some(true) {
            return Err(format!("physics mismatch at {pes} PEs"));
        }
        cycles += num(r, &["cycles"]) as u64;
    }
    Ok((cycles, seq))
}

fn barnes_hut() -> &'static str {
    adds_lang::programs::BARNES_HUT
}

/// A server with `vm_run`'s flags: no store, so runs are neither written
/// to disk nor wait on its commits.
fn start_server(ctx: &Ctx) -> std::io::Result<Server> {
    Server::start(&ctx.cli, &["--jobs".to_string(), "2".to_string()])
}

/// What a closed loop of seeded `/v1/run` requests produced.
#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    sim_cycles: u64,
    /// Each answered request's parameters and `seq_cycles`.
    seq_seen: Vec<(RunParams, u64)>,
    reconnects: u64,
    /// `(completion time s, latency ms, simulated cycles)` per request.
    samples: Vec<(f64, f64, f64)>,
}

impl Loop {
    /// Count the loop's requests and failed checks in `out`, and check
    /// every answered `seq_cycles`.
    fn record(&self, out: &mut Outcome) {
        out.attempted += self.attempted;
        out.failed += self.failed;
        for p in &self.problems {
            out.problem(p.clone());
        }
        verify_seq(&self.seq_seen, out);
    }
}

/// A closed loop of the seeded request sequence over two keep-alive
/// connections for the timed phase, every report checked; its figures
/// come from the quiet windows.
///
/// Two connections, not one: measured on a 2-vCPU shared VM, one
/// connection's requests form a single chain of thread hand-offs, and
/// both vCPUs go idle between requests, so how long the host takes to
/// wake or return a vCPU set the figures. Its simulated throughput lost
/// 58% when the host stole a third of the CPU time, against 22% over two
/// connections, and in calm stretches it spread several times as much as
/// `cold_analyze`'s own throughput in the same runs.
fn closed_loop(ctx: &Ctx, server: &Server) -> (Loop, WindowSummary) {
    let src = barnes_hut().as_bytes();
    let seq = Mutex::new(Sequence::new(ctx.seed));
    let all = Mutex::new(Loop::default());
    let mut windows = Windows::new(crate::window_secs(ctx));
    let started = Instant::now();
    let deadline = started + ctx.seconds;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut part = Loop::default();
                let mut conn = Conn::connect(server.addr).ok();
                // A server that stops accepting connections ends the loop.
                while conn.is_some() && Instant::now() < deadline {
                    let Some(p) = seq.lock().expect("no panics").next() else {
                        part.problems
                            .push("ran out of distinct run parameters".into());
                        break;
                    };
                    let t = Instant::now();
                    let resp = conn
                        .as_mut()
                        .map(|c| c.roundtrip(&client::post(&p.path(), src)));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    part.attempted += 1;
                    let checked = match resp {
                        Some(Ok(r)) if r.status == 200 => check_report(&r.body, &p),
                        Some(Ok(r)) => Err(format!("status {}", r.status)),
                        Some(Err(e)) => {
                            if let Some(c) = &conn {
                                part.reconnects += c.reconnects;
                            }
                            conn = Conn::connect(server.addr).ok();
                            Err(e.to_string())
                        }
                        None => Err("no connection".into()),
                    };
                    let done = started.elapsed().as_secs_f64();
                    match checked {
                        Ok((cycles, seq_cycles)) => {
                            part.samples.push((done, ms, cycles as f64));
                            part.sim_cycles += cycles;
                            part.seq_seen.push((p, seq_cycles));
                        }
                        Err(e) => {
                            part.samples.push((done, f64::INFINITY, 0.0));
                            part.failed += 1;
                            part.problems.push(format!("run {p:?}: {e}"));
                        }
                    }
                }
                if let Some(c) = &conn {
                    part.reconnects += c.reconnects;
                }
                let mut all = all.lock().expect("no panics");
                all.attempted += part.attempted;
                all.failed += part.failed;
                all.problems.extend(part.problems);
                all.sim_cycles += part.sim_cycles;
                all.seq_seen.extend(part.seq_seen);
                all.reconnects += part.reconnects;
                all.samples.extend(part.samples);
            });
        }
        // This thread only closes the steal windows.
        while windows.next_boundary() <= ctx.seconds.as_secs_f64() {
            let at = started + Duration::from_secs_f64(windows.next_boundary());
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            windows.tick(started.elapsed().as_secs_f64());
        }
    });
    let mut all = all.into_inner().expect("no panics");
    windows.extend(std::mem::take(&mut all.samples));
    (all, windows.summary())
}

/// `cold_analyze`'s `sim_mcycles_per_s`: after its timed phase, `vm_run`'s
/// loop against a fresh server with `vm_run`'s flags, every answer checked
/// and counted. Not against the cold server: its store writes every run
/// and commits with an `fsync` every 200 ms, and there the figure read
/// about 12% lower and spread wider (2-vCPU shared VM).
pub fn probe(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    let server = start_server(ctx)?;
    let r = Conn::connect(server.addr)?
        .roundtrip(&client::post(&warmup().path(), barnes_hut().as_bytes()))?;
    check_report(&r.body, &warmup()).map_err(std::io::Error::other)?;
    let (l, w) = closed_loop(ctx, &server);
    drop(server);
    out.set("sim_mcycles_per_s", w.work_rate / 1e6);
    out.note(format!(
        "simulated-throughput probe: {} runs, {} simulated cycles; {}",
        l.attempted,
        l.sim_cycles,
        w.describe()
    ));
    l.record(out);
    Ok(())
}

pub fn run(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    let src = barnes_hut().as_bytes();
    let start = |_| -> std::io::Result<(f64, Server)> {
        let t = Instant::now();
        let s = start_server(ctx)?;
        let r = Conn::connect(s.addr)?.roundtrip(&client::post(&warmup().path(), src))?;
        let secs = t.elapsed().as_secs_f64();
        check_report(&r.body, &warmup()).map_err(std::io::Error::other)?;
        Ok((secs, s))
    };
    let (mut setups, server) = crate::setups(SETUPS, start)?;

    let before = server.stats()?;
    let started = Instant::now();
    let (l, w) = closed_loop(ctx, &server);
    let elapsed = started.elapsed().as_secs_f64();
    let after = server.stats()?;
    out.set("req_p50_ms", w.p50_ms);
    out.set("req_p99_ms", w.p99_ms);
    out.set("req_per_s", w.rate);
    out.set("sim_mcycles_per_s", w.work_rate / 1e6);
    out.set("peak_rss_mb", server.peak_rss_mb());
    out.note(format!(
        "{} runs in {elapsed:.2} s, {} simulated cycles; {}",
        l.attempted,
        l.sim_cycles,
        w.describe()
    ));

    // Purity: two compiles (sequential and strip-mined) over the server's
    // life, and one `runs` compute per timed request.
    let compiled = num(&after, &["queries", "compiled"]);
    let runs = delta(&before, &after, &["queries", "runs"]);
    if compiled != 2.0 {
        out.problem(format!("{compiled} `compiled` computes, want 2"));
    }
    if runs != l.attempted as f64 {
        out.problem(format!(
            "{runs} `runs` computes for {} requests",
            l.attempted
        ));
    }
    crate::server_layers(out, &before, &after, l.reconnects);
    drop(server);
    setups.finish(out)?;

    l.record(out);
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    if ctx.trace {
        replay(ctx, out);
    }
    Ok(())
}

/// Each answered `seq_cycles` must equal an in-process sequential run on
/// the same bodies and steps.
fn verify_seq(seen: &[(RunParams, u64)], out: &mut Outcome) {
    let tp = adds_lang::check_source(barnes_hut()).expect("barnes_hut type-checks");
    let seq_prog = CompiledProgram::compile(&tp);
    let mut want: HashMap<(usize, i64), u64> = HashMap::new();
    for (p, got) in seen {
        let w = *want.entry((p.bodies, p.steps)).or_insert_with(|| {
            run_barnes_hut_compiled(
                &seq_prog,
                &uniform_cloud(p.bodies, CLOUD_SEED),
                p.steps,
                THETA,
                DT,
                1,
                CostModel::sequent(),
                false,
            )
            .map_or(0, |r| r.cycles)
        });
        if *got != w {
            out.failed += 1;
            out.problem(format!("run {p:?}: seq_cycles {got}, in-process {w}"));
        }
    }
}

/// The traced run: compile both programs, then replay the first
/// [`REPLAY_REQUESTS`] requests through `run_barnes_hut_compiled`: the
/// sequential run, each PE count with conflict detection, and each PE count
/// without it (the base of `machine.detect_over_plain`). Each step runs
/// untraced and then traced, so both passes see the same machine state.
fn replay(ctx: &Ctx, out: &mut Outcome) {
    let plain = Tracer::new(false);
    let traced = Tracer::new(true);
    let mut wall_ns = [0u128; 2];
    let seq_tp = adds_lang::check_source(barnes_hut()).expect("barnes_hut type-checks");
    let par_src = adds_core::parallelize_to_source(barnes_hut()).expect("barnes_hut parallelizes");
    let par_tp = adds_lang::check_source(&par_src).expect("transformed barnes_hut type-checks");
    let mut progs = Vec::new();
    for (i, tr) in [&plain, &traced].into_iter().enumerate() {
        let t = Instant::now();
        progs.push((
            tr.span("machine.compile", || CompiledProgram::compile(&seq_tp)),
            tr.span("machine.compile", || CompiledProgram::compile(&par_tp)),
        ));
        wall_ns[i] += t.elapsed().as_nanos();
    }
    let (seq_prog, par_prog) = progs.pop().expect("compiled");
    let mut sim_cycles = 0u64;
    for p in Sequence::new(ctx.seed).take(REPLAY_REQUESTS as usize) {
        let bodies = uniform_cloud(p.bodies, CLOUD_SEED);
        for (i, tr) in [&plain, &traced].into_iter().enumerate() {
            let run = |name, prog, pes, detect| {
                tr.span(name, || {
                    run_barnes_hut_compiled(
                        prog,
                        &bodies,
                        p.steps,
                        THETA,
                        DT,
                        pes,
                        CostModel::sequent(),
                        detect,
                    )
                    .map_or(0, |r| r.cycles)
                })
            };
            let t = Instant::now();
            let mut cycles = run("machine.vm_seq", &seq_prog, 1, false);
            for &pes in &p.pes {
                cycles += run("machine.vm_par", &par_prog, pes, true);
                run("machine.vm_par_plain", &par_prog, pes, false);
            }
            wall_ns[i] += t.elapsed().as_nanos();
            if i == 1 {
                sim_cycles += cycles;
            }
        }
    }
    let times = traced.layers();
    let ms = |name: &str| times.get(name).map_or(0.0, |l| l.self_ms());
    let requests = REPLAY_REQUESTS as f64;
    out.set("machine.compile_ms", ms("machine.compile") / 2.0);
    out.set("machine.vm_seq_ms", ms("machine.vm_seq") / requests);
    out.set("machine.vm_par_ms", ms("machine.vm_par") / requests);
    out.set("machine.sim_cycles", sim_cycles as f64);
    out.set(
        "machine.detect_over_plain",
        ms("machine.vm_par") / ms("machine.vm_par_plain"),
    );
    let [plain_ns, traced_ns] = wall_ns.map(|n| n as f64);
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ns - plain_ns) / plain_ns,
    );
}
