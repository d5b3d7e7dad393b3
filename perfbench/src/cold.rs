//! `cold_analyze`: every request is a new program.
//!
//! Two keep-alive connections run a closed loop. Each takes the next seeded
//! program, posts it to `/v1/analyze` and then to `/v1/parallelize` (the
//! user flow: verdicts first, then the strip-mined source). The server runs
//! with `--jobs 2` over a fresh `--store`, so every report misses RAM and
//! disk, and the second request reuses the first one's artifacts. The
//! path-matrix fixpoint does most of the work; the store's write-behind
//! `put` and the flusher's `commit` are the write side of the cache tier.

use crate::client::{self, Conn};
use crate::gen;
use crate::report::Outcome;
use crate::server::Server;
use crate::stats::{delta, median, Windows};
use crate::trace::Tracer;
use crate::Ctx;
use adds_query::report::ProgramReport;
use adds_query::{Session, SessionConfig, Stage};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median. Each starts a server
/// over a fresh store and sends it the set-up program's two requests.
const SETUPS: usize = 21;
/// Entries per cache in the server and in the in-process sessions. Wide
/// programs keep megabytes of per-statement path matrices, so an unbounded
/// cache would grow with the request count; a bound keeps memory flat.
/// It is far above the two programs in flight, so `parallelize` nearly
/// always finds the `analyze` artifacts it reuses.
const CACHE_CAP: usize = 64;
/// Programs replayed in-process by the traced run.
const REPLAY_PROGRAMS: u64 = 150;
/// The replay commits the store once per this many programs, as the
/// server's 200 ms flusher would at the cold request rate.
const COMMIT_EVERY: u64 = 16;

/// One program's two answers.
struct Answered {
    index: u64,
    analyze: Vec<u8>,
    parallelize: Vec<u8>,
    /// HTTP latency of the two requests, ms.
    latency_ms: [f64; 2],
}

/// The user flow for one program: its analyze and parallelize requests.
const FLOW: [&str; 2] = ["/v1/analyze", "/v1/parallelize"];

pub fn run(ctx: &Ctx, out: &mut Outcome) -> std::io::Result<()> {
    // Set-up: server start through the first program's two answers, so the
    // figure holds a path-matrix fixpoint and not only process start.
    let setup = gen::setup_program();
    let want = expected(&session(), &setup.source);
    let start = |k: usize| -> std::io::Result<(f64, Server)> {
        let store = ctx.work.join(format!("cold-store-{k}"));
        let args = vec![
            "--jobs".to_string(),
            "2".to_string(),
            "--cache-cap".to_string(),
            CACHE_CAP.to_string(),
            "--store".to_string(),
            store.display().to_string(),
        ];
        let t = Instant::now();
        let s = Server::start(&ctx.cli, &args)?;
        let mut conn = Conn::connect(s.addr)?;
        let mut got = Vec::new();
        for path in FLOW {
            got.push(conn.roundtrip(&client::post(path, setup.source.as_bytes()))?);
        }
        let secs = t.elapsed().as_secs_f64();
        if got
            .iter()
            .zip(&want)
            .any(|(r, w)| r.status != 200 || r.body != w.as_bytes())
        {
            return Err(std::io::Error::other("wrong answer to the set-up program"));
        }
        Ok((secs, s))
    };
    let (mut setups, server) = crate::setups(SETUPS, start)?;

    let before = server.stats()?;
    let next = AtomicU64::new(0);
    let latencies = Mutex::new(Vec::new());
    let answered = Mutex::new(Vec::new());
    let failed = AtomicU64::new(0);
    let reconnects = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let mut windows = Windows::new(crate::window_secs(ctx));
    let started = Instant::now();
    let deadline = started + ctx.seconds;
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                let mut lat = Vec::new();
                let mut timed = Vec::new();
                let mut done = Vec::new();
                let mut conn = Conn::connect(server.addr).ok();
                // A server that stops accepting connections ends the loop.
                while conn.is_some() && Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let p = gen::program(ctx.seed, index);
                    let mut bodies = Vec::new();
                    let mut ms = [0.0; 2];
                    for (k, path) in FLOW.into_iter().enumerate() {
                        let req = client::post(path, p.source.as_bytes());
                        let t = Instant::now();
                        let resp = match conn.as_mut() {
                            Some(c) => c.roundtrip(&req).ok(),
                            None => None,
                        };
                        match resp {
                            Some(r) if r.status == 200 => {
                                ms[k] = t.elapsed().as_secs_f64() * 1e3;
                                lat.push(ms[k]);
                                timed.push((started.elapsed().as_secs_f64(), ms[k], 1.0));
                                bodies.push(r.body);
                            }
                            _ => {
                                lat.push(f64::INFINITY);
                                timed.push((started.elapsed().as_secs_f64(), f64::INFINITY, 0.0));
                                failed.fetch_add(1, Ordering::Relaxed);
                                conn = Conn::connect(server.addr).ok();
                            }
                        }
                    }
                    if let Ok([analyze, parallelize]) = <[Vec<u8>; 2]>::try_from(bodies) {
                        done.push(Answered {
                            index,
                            analyze,
                            parallelize,
                            latency_ms: ms,
                        });
                    }
                }
                if let Some(c) = &conn {
                    reconnects.fetch_add(c.reconnects, Ordering::Relaxed);
                }
                latencies.lock().expect("no panics").extend(lat);
                samples.lock().expect("no panics").extend(timed);
                answered.lock().expect("no panics").extend(done);
            });
        }
        // This thread only closes the steal windows.
        while windows.next_boundary() <= ctx.seconds.as_secs_f64() {
            let at = started + Duration::from_secs_f64(windows.next_boundary());
            std::thread::sleep(at.saturating_duration_since(Instant::now()));
            windows.tick(started.elapsed().as_secs_f64());
        }
    });
    windows.extend(samples.into_inner().expect("no panics"));
    let elapsed = started.elapsed().as_secs_f64();
    let after = server.stats()?;
    let latencies = latencies.into_inner().expect("no panics");
    let mut answered = answered.into_inner().expect("no panics");
    answered.sort_by_key(|a| a.index);
    let programs = next.load(Ordering::Relaxed);

    out.attempted = latencies.len() as u64;
    out.failed = failed.load(Ordering::Relaxed);
    let w = windows.summary();
    out.set("req_p50_ms", w.p50_ms);
    out.set("req_p99_ms", w.p99_ms);
    out.set("req_per_s", w.rate);
    out.note(format!(
        "{} requests over {programs} programs in {elapsed:.2} s; {}",
        latencies.len(),
        w.describe()
    ));
    out.note(family_shares(&answered));

    // Purity: every report is a miss in RAM and on disk, and each program
    // costs one `analyzed` compute. The bounded cache may evict a fresh
    // artifact before the program's second request, so up to 1% of
    // programs may be analyzed twice; a flow that stops reusing artifacts
    // analyzes every program twice.
    let hits = delta(&before, &after, &["cache", "hits"]);
    let disk = delta(&before, &after, &["cache", "disk_hits"]);
    let analyzed = delta(&before, &after, &["queries", "analyzed"]);
    if hits != 0.0 || disk != 0.0 {
        out.problem(format!(
            "cold reports were cache hits: {hits} RAM, {disk} disk"
        ));
    }
    let programs_done = answered.len() as f64;
    if analyzed < programs_done || analyzed > programs_done * 1.01 {
        out.problem(format!(
            "{analyzed} `analyzed` computes for {} programs",
            answered.len()
        ));
    }
    crate::server_layers(out, &before, &after, reconnects.load(Ordering::Relaxed));
    out.set("peak_rss_mb", server.peak_rss_mb());
    drop(server);
    crate::vm::probe(ctx, out)?;
    setups.finish(out)?;

    verify(ctx, &answered, out);
    out.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    if ctx.trace {
        replay(ctx, &answered, out)?;
    }
    Ok(())
}

/// Each family's share of the answered programs and of their HTTP request
/// time, and its median request latency: which family drives which
/// metric.
fn family_shares(answered: &[Answered]) -> String {
    let total: f64 = answered
        .iter()
        .map(|a| a.latency_ms.iter().sum::<f64>())
        .sum();
    let parts: Vec<String> = gen::FAMILIES
        .iter()
        .map(|&f| {
            let mine: Vec<&Answered> = answered
                .iter()
                .filter(|a| gen::family(a.index) == f)
                .collect();
            let ms: Vec<f64> = mine.iter().flat_map(|a| a.latency_ms).collect();
            format!(
                "{} {:.1}% of programs, {:.1}% of request time, p50 {:.2} ms",
                f.name(),
                100.0 * mine.len() as f64 / answered.len().max(1) as f64,
                100.0 * ms.iter().sum::<f64>() / total.max(f64::MIN_POSITIVE),
                median(&ms)
            )
        })
        .collect();
    format!("families: {}", parts.join("; "))
}

fn session() -> Session {
    Session::with_config(&SessionConfig {
        cache_capacity: CACHE_CAP,
        jobs: 1,
        ..SessionConfig::default()
    })
}

/// The analyze and parallelize answers an in-process session gives for
/// `src`.
fn expected(session: &Session, src: &str) -> [String; 2] {
    let an = session.analyze(src, false);
    let par = session.parallelize(src);
    [
        Session::stage_doc(Stage::Analyze, &an.report, None).pretty(),
        Session::stage_doc(Stage::Parallelize, &par.report, None).pretty(),
    ]
}

/// Per function, per loop: parallelizable, and the sorted reason codes.
type Verdicts = Vec<Vec<(bool, Vec<String>)>>;

/// Loop verdicts of an analyze report: per function, per loop, whether it
/// is parallelizable and its sorted reason codes. Names are left out, so a
/// renamed program compares equal to its original.
fn verdicts(r: &ProgramReport) -> Verdicts {
    let Some(a) = &r.analyze else {
        return Vec::new();
    };
    a.functions
        .iter()
        .map(|f| {
            f.loops
                .iter()
                .map(|l| {
                    let mut codes: Vec<String> = l.reasons.iter().map(|r| r.code.clone()).collect();
                    codes.sort();
                    (l.parallelizable, codes)
                })
                .collect()
        })
        .collect()
}

/// Every answer must be byte-identical to an in-process session's, and a
/// renamed corpus program must keep its original's verdicts. Two threads
/// split the programs; a wrong answer counts as a failed request.
fn verify(ctx: &Ctx, answered: &[Answered], out: &mut Outcome) {
    let originals: HashMap<&str, Verdicts> = gen::corpus()
        .map(|(name, src)| (name, verdicts(&session().analyze(src, false).report)))
        .collect();
    let problems = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for part in 0..2 {
            let problems = &problems;
            let originals = &originals;
            s.spawn(move || {
                let session = session();
                for a in answered.iter().skip(part).step_by(2) {
                    let p = gen::program(ctx.seed, a.index);
                    let [want_an, want_par] = expected(&session, &p.source);
                    let mut bad = Vec::new();
                    if a.analyze != want_an.as_bytes() {
                        bad.push(format!("program {}: analyze answer differs", a.index));
                    }
                    if a.parallelize != want_par.as_bytes() {
                        bad.push(format!("program {}: parallelize answer differs", a.index));
                    }
                    if let Some(orig) = p.original {
                        let an = session.analyze(&p.source, false);
                        if verdicts(&an.report) != originals[orig] {
                            bad.push(format!(
                                "program {}: renamed {orig} changed its verdicts",
                                a.index
                            ));
                        }
                    }
                    problems.lock().expect("no panics").extend(bad);
                }
            });
        }
    });
    for p in problems.into_inner().expect("no panics") {
        out.failed += 1;
        out.problem(p);
    }
}

/// The traced run: replay the first [`REPLAY_PROGRAMS`] programs in-process,
/// once through a session (the request time to account for) and once
/// through each layer's public functions, with and without spans.
fn replay(ctx: &Ctx, answered: &[Answered], out: &mut Outcome) -> std::io::Result<()> {
    let programs: Vec<gen::Program> = (0..REPLAY_PROGRAMS)
        .map(|i| gen::program(ctx.seed, i))
        .collect();

    // Session pass over a fresh store: request time, store writes, commits.
    let store = Arc::new(adds_store::Store::open(ctx.work.join("replay-store"))?);
    let session = Session::with_config(&SessionConfig {
        cache_capacity: CACHE_CAP,
        jobs: 1,
        store: Some(store.clone()),
        ..SessionConfig::default()
    });
    let mut session_ns = 0u128;
    let mut inproc_ms = Vec::new();
    let mut commit_ms = Vec::new();
    let mut reports = Vec::new();
    // Each program's requests are then repeated as warm hits on the same
    // session, before the bounded cache can evict them.
    let hits = Tracer::new(true);
    for (i, p) in programs.iter().enumerate() {
        let t = Instant::now();
        let an = session.analyze(&p.source, false);
        std::hint::black_box(Session::stage_doc(Stage::Analyze, &an.report, None).pretty());
        let an_ns = t.elapsed().as_nanos();
        let t = Instant::now();
        let par = session.parallelize(&p.source);
        std::hint::black_box(Session::stage_doc(Stage::Parallelize, &par.report, None).pretty());
        let par_ns = t.elapsed().as_nanos();
        session_ns += an_ns + par_ns;
        inproc_ms.push([an_ns as f64 / 1e6, par_ns as f64 / 1e6]);
        std::hint::black_box(hits.span("query.hit", || session.analyze(&p.source, false)));
        std::hint::black_box(hits.span("query.hit", || session.parallelize(&p.source)));
        reports.push((an.report, par.report));
        if (i as u64 + 1).is_multiple_of(COMMIT_EVERY) || i + 1 == programs.len() {
            let t = Instant::now();
            store.commit()?;
            commit_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let st = store.stats();
    out.set(
        "store.commit_ms",
        commit_ms.iter().sum::<f64>() / commit_ms.len() as f64,
    );
    out.set("store.puts", st.puts as f64);
    out.set("store.commits", st.commits as f64);
    let hit = hits.layers()["query.hit"];
    out.set("query.hit_us", hit.self_ms() * 1e3 / hit.calls as f64);
    // The network's share: HTTP latency minus the in-process time of the
    // same request.
    let overhead: Vec<f64> = answered
        .iter()
        .filter(|a| a.index < REPLAY_PROGRAMS)
        .flat_map(|a| {
            let local = inproc_ms[a.index as usize];
            [a.latency_ms[0] - local[0], a.latency_ms[1] - local[1]]
        })
        .collect();
    out.set("net.overhead_us", median(&overhead) * 1e3);
    out.set(
        "query.replay_computes",
        session
            .query_computes()
            .iter()
            .map(|(_, n)| *n as f64)
            .sum(),
    );

    // Layer passes, alternating untraced and traced per program so both see
    // the same machine state.
    let plain = Tracer::new(false);
    let traced = Tracer::new(true);
    let (mut plain_ns, mut traced_ns) = (0u128, 0u128);
    let mut cells = 0u64;
    for (p, (an, par)) in programs.iter().zip(&reports) {
        let t = Instant::now();
        layers(&plain, &p.source, an, par);
        plain_ns += t.elapsed().as_nanos();
        let t = Instant::now();
        cells += layers(&traced, &p.source, an, par);
        traced_ns += t.elapsed().as_nanos();
    }
    let requests = 2.0 * programs.len() as f64;
    let times = traced.layers();
    let per_req = |name: &str| times.get(name).map_or(0.0, |l| l.self_ms()) / requests;
    out.set("lang.parse_ms", per_req("lang.parse"));
    out.set("lang.types_ms", per_req("lang.types"));
    out.set("core.summary_ms", per_req("core.summary"));
    out.set("core.analysis_ms", per_req("core.analysis"));
    out.set("core.depend_ms", per_req("core.depend"));
    out.set("core.transform_ms", per_req("core.transform"));
    out.set("query.sha_us", per_req("query.sha") * 1e3);
    out.set("query.render_us", per_req("query.render") * 1e3);
    out.set("core.analysis_pm_cells", cells as f64);
    let layer_ns: u64 = times
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, l)| l.self_ns)
        .sum();
    out.set(
        "trace.coverage_pct",
        100.0 * layer_ns as f64 / session_ns as f64,
    );
    out.set(
        "trace.overhead_pct",
        100.0 * (traced_ns as f64 - plain_ns as f64) / plain_ns as f64,
    );
    let mut breakdown = BTreeMap::new();
    for (name, l) in &times {
        breakdown.insert(*name, format!("{:.3}", l.self_ms() / requests));
    }
    out.note(format!(
        "replay of {} programs: session {:.3} ms/request, layer self ms/request {breakdown:?}",
        programs.len(),
        session_ns as f64 / 1e6 / requests
    ));
    Ok(())
}

/// One program through each layer's public functions, as the session's
/// analyze-then-parallelize flow calls them. Returns the path-matrix cells
/// of every per-statement state (vars² summed over `FnAnalysis::after`).
fn layers(tr: &Tracer, src: &str, an: &ProgramReport, par: &ProgramReport) -> u64 {
    tr.span("request", || {
        std::hint::black_box(tr.span("query.sha", || adds_query::sha::sha256(src.as_bytes())));
        let Ok(program) = tr.span("lang.parse", || adds_lang::parse_program(src)) else {
            return 0;
        };
        let Ok(tp) = tr.span("lang.types", || adds_lang::check(program)) else {
            return 0;
        };
        let sums = tr.span("core.summary", || adds_core::Summaries::compute(&tp));
        let mut analyses = BTreeMap::new();
        let mut cells = 0u64;
        for f in &tp.program.funcs {
            let an = tr.span("core.analysis", || {
                adds_core::analyze_function(&tp, &sums, &f.name)
            });
            if let Some(an) = an {
                cells += an
                    .after
                    .iter()
                    .map(|(_, s)| (s.pm.vars().len() as u64).pow(2))
                    .sum::<u64>();
                analyses.insert(f.name.clone(), an);
            }
        }
        for (name, a) in &analyses {
            std::hint::black_box(tr.span("core.depend", || {
                adds_core::check_function(&tp, &sums, a, name)
            }));
        }
        std::hint::black_box(tr.span("query.render", || {
            Session::stage_doc(Stage::Analyze, an, None).pretty()
        }));
        std::hint::black_box(tr.span("query.sha", || adds_query::sha::sha256(src.as_bytes())));
        let source = tr.span("core.transform", || {
            let (prog, _) =
                adds_core::transform::stripmine::strip_mine_program(&tp, &sums, &analyses);
            adds_lang::pretty::program(&prog)
        });
        // The session re-checks the emitted source.
        if let Ok(p) = tr.span("lang.parse", || adds_lang::parse_program(&source)) {
            std::hint::black_box(tr.span("lang.types", || adds_lang::check(p)).is_ok());
        }
        std::hint::black_box(tr.span("query.render", || {
            Session::stage_doc(Stage::Parallelize, par, None).pretty()
        }));
        cells
    })
}
