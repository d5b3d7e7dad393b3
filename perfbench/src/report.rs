//! Metric names, units and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`). A layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lang.parse_ms", "ms"),
    ("lang.types_ms", "ms"),
    ("core.summary_ms", "ms"),
    ("core.analysis_ms", "ms"),
    ("core.analysis_pm_cells", "count"),
    ("core.depend_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("query.sha_us", "us"),
    ("query.hit_us", "us"),
    ("query.render_us", "us"),
    ("query.hit_ratio", "ratio"),
    ("query.replay_computes", "count"),
    ("query.par_tasks", "count"),
    ("query.par_steals", "count"),
    ("query.par_utilization_pct", "%"),
    ("machine.compile_ms", "ms"),
    ("machine.vm_seq_ms", "ms"),
    ("machine.vm_par_ms", "ms"),
    ("machine.sim_cycles", "count"),
    ("machine.detect_over_plain", "ratio"),
    ("store.commit_ms", "ms"),
    ("store.puts", "count"),
    ("store.commits", "count"),
    ("net.overhead_us", "us"),
    ("net.poll_wakeups_per_req", "ratio"),
    ("net.inline_share", "ratio"),
    ("net.reconnects", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Answer and purity check failures (the first few, for the log).
    pub problems: Vec<String>,
    pub problem_count: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a failed check. It fails the run.
    pub fn problem(&mut self, what: String) {
        self.problem_count += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.problem_count == 0 && self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table and the final JSON line.
    pub fn render(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload {workload}, seed {seed}, trace {}",
            u8::from(trace)
        );
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "# FAILED CHECK: {p}");
        }
        let fail_ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# fail_ratio {fail_ratio} ({} failed of {} attempted)",
            self.failed, self.attempted
        );
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let _ = writeln!(out, "{name:<28} {value:>16.6} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
        out
    }
}
