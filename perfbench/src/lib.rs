//! End-to-end and per-layer benchmark of the ADDS server.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1 --cli PATH
//! --work DIR` starts `adds-cli serve` (the binary at `--cli`) as a
//! subprocess and drives it from this one process, with at most two load
//! threads and connections. See `perfbench/README.md` for the workloads,
//! the metrics and what each layer is predicted to move.

mod client;
pub mod cold;
pub mod gen;
pub mod report;
mod server;
mod stats;
mod trace;
pub mod vm;

use adds_query::json::Json;
use stats::{delta, num};
use std::path::PathBuf;
use std::time::Duration;

/// One benchmark run's settings.
pub struct Ctx {
    pub cli: PathBuf,
    /// Scratch directory for stores; removed after the run.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Width of the steal windows of a closed-loop timed phase: a twentieth of
/// the phase, one second for the benchmark's 20-second runs. Bursts of
/// stolen time last a few seconds; narrow windows leave them out without
/// leaving out the rest of the phase.
pub(crate) fn window_secs(ctx: &Ctx) -> f64 {
    (ctx.seconds.as_secs_f64() / 20.0).min(1.0)
}

/// Timed set-ups: `start(k)` starts the `k`-th server and returns how long
/// it took to be ready. The first half run before the timed phase, and the
/// last of them serves it; [`Setups::finish`] runs the second half after
/// it, when that server is gone, and reports `setup_s` as the median of
/// all. Spread over the run, the set-ups see the host as the timed phase
/// does, not only in the seconds before it.
pub(crate) fn setups<F>(n: usize, mut start: F) -> std::io::Result<(Setups<F>, server::Server)>
where
    F: FnMut(usize) -> std::io::Result<(f64, server::Server)>,
{
    let first = n.div_ceil(2).max(1);
    let mut secs = Vec::new();
    let mut last = None;
    for k in 0..first {
        drop(last.take());
        let (t, s) = start(k)?;
        secs.push(t);
        last = Some(s);
    }
    let server = last.expect("at least one set-up");
    Ok((Setups { n, start, secs }, server))
}

pub(crate) struct Setups<F> {
    n: usize,
    start: F,
    secs: Vec<f64>,
}

impl<F> Setups<F>
where
    F: FnMut(usize) -> std::io::Result<(f64, server::Server)>,
{
    pub(crate) fn finish(&mut self, out: &mut report::Outcome) -> std::io::Result<()> {
        for k in self.secs.len()..self.n {
            let (t, _) = (self.start)(k)?;
            self.secs.push(t);
        }
        out.set("setup_s", stats::median(&self.secs));
        Ok(())
    }
}

/// Per-layer figures read from the server's `/v1/stats` before and after a
/// timed phase: report hit ratio, parallel-executor work, and the reactor's
/// wake-ups and inline share per request. `reconnects` is the client's
/// count of connections reopened at the keep-alive cap.
pub fn server_layers(out: &mut report::Outcome, before: &Json, after: &Json, reconnects: u64) {
    let d = |path: &[&str]| delta(before, after, path);
    let hits = d(&["cache", "hits"]);
    let lookups = hits + d(&["cache", "misses"]) + d(&["cache", "disk_hits"]);
    out.set(
        "query.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.note(format!(
        "query.hit_ratio base: {lookups} report lookups, {hits} hits"
    ));
    out.set("query.par_tasks", d(&["parallel", "tasks"]));
    out.set("query.par_steals", d(&["parallel", "steals"]));
    out.set(
        "query.par_utilization_pct",
        num(after, &["parallel", "utilization_pct", "p50"]),
    );
    let dispatched = d(&["net", "dispatched"]);
    let inline = d(&["net", "inline"]);
    let frames = dispatched + inline;
    if frames > 0.0 {
        out.set(
            "net.poll_wakeups_per_req",
            d(&["net", "poll_wakeups"]) / frames,
        );
        out.set("net.inline_share", inline / frames);
    }
    out.set("net.reconnects", reconnects as f64);
    out.note(format!(
        "net: {frames} frames, {} connections accepted, {reconnects} client reconnects",
        d(&["net", "accepted"])
    ));
}
