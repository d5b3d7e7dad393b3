//! Order statistics and `/v1/stats` field access.

use adds_query::json::Json;

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A numeric field of a JSON document by path (`["cache", "hits"]`).
pub fn num(doc: &Json, path: &[&str]) -> f64 {
    let mut at = doc;
    for key in path {
        match at.get(key) {
            Some(v) => at = v,
            None => return 0.0,
        }
    }
    at.as_f64().unwrap_or(0.0)
}

/// `after - before` of a numeric `/v1/stats` field.
pub fn delta(before: &Json, after: &Json, path: &[&str]) -> f64 {
    num(after, path) - num(before, path)
}

/// The host's cumulative steal time in clock ticks (`/proc/stat`), or 0
/// where the kernel does not report it. Steal is time a virtual CPU wanted
/// to run while the hypervisor ran something else.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Steal a window may have beyond the quietest one and still count as
/// quiet: 2 ticks (20 ms at the usual 100 Hz) is 1% of a one-second window
/// (the width of a 20-second run's windows) on two vCPUs.
const STEAL_SLACK_TICKS: u64 = 2;

/// A closed-loop phase cut into fixed windows, each with the steal time the
/// host took during it. Figures come from the quiet windows (at least the
/// half with the least steal): on a shared virtual machine, stolen time
/// slows every request in a window by a factor the program does not
/// control, while a slower program is slower in every window.
pub struct Windows {
    width: f64,
    /// Cumulative steal ticks at each window boundary, from the start.
    steal: Vec<u64>,
    /// `(completion time s, latency ms, work)` per request.
    samples: Vec<(f64, f64, f64)>,
}

impl Windows {
    pub fn new(width: f64) -> Windows {
        Windows {
            width,
            steal: vec![steal_ticks()],
            samples: Vec::new(),
        }
    }

    /// Close every window that ended by `elapsed` seconds.
    pub fn tick(&mut self, elapsed: f64) {
        while elapsed >= self.steal.len() as f64 * self.width {
            self.steal.push(steal_ticks());
        }
    }

    /// Seconds from the start to the end of the next window still open.
    pub fn next_boundary(&self) -> f64 {
        self.steal.len() as f64 * self.width
    }

    pub fn extend(&mut self, samples: impl IntoIterator<Item = (f64, f64, f64)>) {
        self.samples.extend(samples);
    }

    /// Indices of the quiet closed windows: the half with the least steal,
    /// plus every other window within [`STEAL_SLACK_TICKS`] of the least.
    fn quiet(&self) -> Vec<usize> {
        let n = self.steal.len().saturating_sub(1);
        let stolen = |i: usize| self.steal[i + 1] - self.steal[i];
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (stolen(i), i));
        let least = idx.first().map_or(0, |&i| stolen(i));
        let within = idx
            .iter()
            .filter(|&&i| stolen(i) <= least + STEAL_SLACK_TICKS)
            .count();
        idx.truncate(n.div_ceil(2).max(within));
        idx
    }

    fn window_of(&self, t: f64) -> usize {
        (t / self.width) as usize
    }

    /// Median over the quiet windows of each window's completions per
    /// second and work per second, and the median and p99 latency of the
    /// requests completed in them.
    pub fn summary(&self) -> WindowSummary {
        let quiet = self.quiet();
        // Per window: completion times, work, latencies.
        let mut per: Vec<(Vec<f64>, f64, Vec<f64>)> =
            vec![(Vec::new(), 0.0, Vec::new()); self.steal.len()];
        for &(t, lat, work) in &self.samples {
            let w = self.window_of(t);
            if w < per.len() {
                per[w].0.push(t);
                per[w].1 += work;
                per[w].2.push(lat);
            }
        }
        // Completions per second between a window's first and last
        // completion: continuous, unlike a count over the fixed width.
        let rate = |done: &[f64]| {
            let (first, last) = done
                .iter()
                .fold((f64::INFINITY, 0f64), |(a, b), &t| (a.min(t), b.max(t)));
            if done.len() > 1 && last > first {
                (done.len() - 1) as f64 / (last - first)
            } else {
                done.len() as f64 / self.width
            }
        };
        let rates: Vec<f64> = quiet.iter().map(|&i| rate(&per[i].0)).collect();
        let work: Vec<f64> = quiet.iter().map(|&i| per[i].1 / self.width).collect();
        let p50s: Vec<f64> = quiet.iter().map(|&i| median(&per[i].2)).collect();
        let lats: Vec<f64> = quiet
            .iter()
            .flat_map(|&i| per[i].2.iter().copied())
            .collect();
        let steal: u64 = quiet
            .iter()
            .map(|&i| self.steal[i + 1] - self.steal[i])
            .sum();
        let total = self.steal.last().copied().unwrap_or(0) - self.steal[0];
        WindowSummary {
            rate: median(&rates),
            work_rate: median(&work),
            p50_ms: median(&p50s),
            p99_ms: quantile(&lats, 0.99),
            samples: lats.len(),
            windows: quiet.len(),
            quiet_steal_ticks: steal,
            steal_ticks: total,
        }
    }
}

pub struct WindowSummary {
    pub rate: f64,
    pub work_rate: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub samples: usize,
    pub windows: usize,
    pub quiet_steal_ticks: u64,
    pub steal_ticks: u64,
}

impl WindowSummary {
    pub fn describe(&self) -> String {
        format!(
            "{} quiet windows, {} latency samples; host steal {} ticks in them, {} in the phase",
            self.windows, self.samples, self.quiet_steal_ticks, self.steal_ticks
        )
    }
}
