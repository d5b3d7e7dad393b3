//! Deterministic parallel fan-out for independent queries.
//!
//! The composed-fingerprint query graph ([`crate::fingerprint`]) makes
//! independence explicit: per-function `effects`, per-PE simulation runs,
//! and whole batch items share no mutable state beyond the single-flight
//! caches, which are already safe (and *useful* — concurrent duplicate
//! demands coalesce onto one compute). This module adds the missing
//! piece: an executor that fans such queries out over a bounded worker
//! budget while keeping every observable byte identical to the serial
//! run.
//!
//! Determinism is structural, not scheduled:
//!
//! * **canonical merge order** — [`ParCounters::map_ordered`] writes each
//!   result into the slot of its *input index* and reassembles in input
//!   order, so completion order (which varies run to run) never reaches
//!   the output;
//! * **pure items** — workers run the same memoized queries the serial
//!   path runs; the single-flight cache guarantees one compute per
//!   `(digest, fingerprint)` no matter how many workers demand it;
//! * **no adaptive scheduling in the answer** — work *placement* is
//!   round-robin by index and work *stealing* rebalances stragglers, but
//!   neither ever influences a result value, only wall-clock.
//!
//! Scheduling is per-worker deques with steal-from-the-back: worker *w*
//! owns the indices `w, w+jobs, w+2·jobs, …` and pops from the front;
//! an idle worker steals from the *back* of a neighbor's deque (classic
//! work-stealing shape — owner and thief touch opposite ends). Worker 0
//! runs on the calling thread and the rest are `std::thread::scope`
//! threads, so a panicking item propagates to the caller (after every
//! worker joins) instead of deadlocking the fan-out.
//!
//! Nested fan-outs run inline: a worker that reaches another
//! `map_ordered` (a batch item whose report fans out per-function
//! `effects`, say) executes it sequentially on the spot. The worker
//! budget therefore bounds *threads*, not just top-level tasks, and the
//! fan-out hierarchy cannot explode multiplicatively.

use adds_obs::metrics::{Counter, Histogram};
use adds_obs::trace;
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::Mutex;

thread_local! {
    /// Set while this thread is executing items on behalf of a fan-out;
    /// nested fan-outs observe it and run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Resolve a `--jobs`-style knob: `0` means one worker per available
/// core, anything else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Executor counters, owned by the cache bank so `/v1/stats` per-server
/// numbers stay hermetic (no process-global state).
#[derive(Default)]
pub struct ParCounters {
    fanouts: Counter,
    inline_runs: Counter,
    tasks: Counter,
    steals: Counter,
    utilization: Histogram,
}

impl ParCounters {
    /// Fresh, all-zero counters.
    pub fn new() -> ParCounters {
        ParCounters::default()
    }

    /// Fan-outs that actually went parallel.
    pub fn fanouts(&self) -> u64 {
        self.fanouts.get()
    }

    /// Fan-outs that ran inline (worker budget 1, ≤1 item, or nested
    /// inside another fan-out's worker).
    pub fn inline_runs(&self) -> u64 {
        self.inline_runs.get()
    }

    /// Items executed on fan-out workers (spawned tasks).
    pub fn tasks(&self) -> u64 {
        self.tasks.get()
    }

    /// Items a worker took from another worker's deque.
    pub fn steals(&self) -> u64 {
        self.steals.get()
    }

    /// Per-worker utilization samples: items a worker processed as a
    /// percentage of its fair share (`100` = exactly balanced, `>100` =
    /// the worker absorbed stragglers' work).
    pub fn utilization(&self) -> &Histogram {
        &self.utilization
    }

    /// Map `f` over `items` on up to `jobs` workers (0 = one per core)
    /// and return the results **in input order**.
    ///
    /// The only observable difference from `items.iter().map(f).collect()`
    /// is wall-clock: result order is canonical, and a panicking item
    /// propagates once every worker has joined. Runs inline when the
    /// budget or the item count makes parallelism pointless, and when
    /// nested inside another fan-out.
    pub fn map_ordered<T, R, F>(&self, jobs: usize, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let jobs = effective_jobs(jobs).min(n.max(1));
        if jobs <= 1 || n <= 1 || IN_WORKER.with(|w| w.get()) {
            self.inline_runs.inc();
            return items.iter().map(&f).collect();
        }
        self.fanouts.inc();
        self.tasks.add(n as u64);
        let mut fanout_span = trace::span("par.fanout", "par");
        if let Some(s) = fanout_span.as_mut() {
            s.arg("jobs", jobs.to_string());
            s.arg("items", n.to_string());
        }

        // Worker w owns indices w, w+jobs, w+2·jobs, … (front of its
        // deque); thieves take from the back.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..jobs)
            .map(|w| Mutex::new((w..n).step_by(jobs).collect()))
            .collect();
        // One slot per input index: the canonical merge order is the
        // input order, never completion order.
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        let (deques, slots, f) = (&deques, &slots, &f);
        let work = |w: usize| {
            let _guard = WorkerGuard::enter();
            let mut span = trace::span("par.worker", "par");
            let mut processed = 0u64;
            let mut stolen = 0u64;
            loop {
                let popped = deques[w].lock().expect("par deque").pop_front();
                let idx = match popped {
                    Some(i) => i,
                    None => {
                        // Own deque drained: steal from the back of the
                        // nearest non-empty neighbor.
                        let steal = (1..jobs).find_map(|d| {
                            deques[(w + d) % jobs].lock().expect("par deque").pop_back()
                        });
                        match steal {
                            Some(i) => {
                                stolen += 1;
                                i
                            }
                            None => break,
                        }
                    }
                };
                let result = f(&items[idx]);
                *slots[idx].lock().expect("par slot") = Some(result);
                processed += 1;
            }
            self.steals.add(stolen);
            self.utilization
                .record(processed * jobs as u64 * 100 / n as u64);
            if let Some(s) = span.as_mut() {
                s.arg("worker", w.to_string());
                s.arg("processed", processed.to_string());
                s.arg("stolen", stolen.to_string());
            }
        };
        // Workers 1.. get scoped threads; worker 0 runs on the caller.
        // The scope joins every thread before it re-raises a panic.
        std::thread::scope(|scope| {
            for w in 1..jobs {
                scope.spawn(move || work(w));
            }
            work(0);
        });

        let mut join_span = trace::span("par.join", "par");
        if let Some(s) = join_span.as_mut() {
            s.arg("items", n.to_string());
        }
        slots
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("par slot")
                    .take()
                    .expect("every index was claimed exactly once")
            })
            .collect()
    }
}

/// RAII for the nested-fan-out flag — reset even if an item panics
/// through the worker.
struct WorkerGuard;

impl WorkerGuard {
    fn enter() -> WorkerGuard {
        IN_WORKER.with(|w| w.set(true));
        WorkerGuard
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        IN_WORKER.with(|w| w.set(false));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let par = ParCounters::new();
        let items: Vec<usize> = (0..97).collect();
        for jobs in [1, 2, 3, 8] {
            let out = par.map_ordered(jobs, &items, |&i| i * 10);
            assert_eq!(
                out,
                (0..97).map(|i| i * 10).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
    }

    #[test]
    fn parallel_output_matches_serial_byte_for_byte() {
        let par = ParCounters::new();
        let items: Vec<u32> = (0..64).collect();
        let render = |&i: &u32| format!("item-{i:04}:{}", i.wrapping_mul(2654435761));
        let serial: Vec<String> = items.iter().map(render).collect();
        for jobs in [2, 4, 8] {
            assert_eq!(par.map_ordered(jobs, &items, render), serial);
        }
    }

    #[test]
    fn inline_paths_do_not_spawn() {
        let par = ParCounters::new();
        let one = par.map_ordered(8, &[42], |&x: &i32| x + 1);
        assert_eq!(one, vec![43]);
        let none: Vec<i32> = par.map_ordered(8, &[] as &[i32], |&x| x);
        assert!(none.is_empty());
        let serial = par.map_ordered(1, &[1, 2, 3], |&x: &i32| x * 2);
        assert_eq!(serial, vec![2, 4, 6]);
        assert_eq!(par.fanouts(), 0);
        assert_eq!(par.inline_runs(), 3);
        assert_eq!(par.tasks(), 0);
    }

    #[test]
    fn nested_fanouts_run_inline() {
        let par = ParCounters::new();
        let inner = ParCounters::new();
        let items: Vec<usize> = (0..4).collect();
        let out = par.map_ordered(4, &items, |&i| {
            // A fan-out reached from inside a worker runs sequentially:
            // the worker budget bounds threads globally.
            let sub: Vec<usize> = inner.map_ordered(4, &[i, i + 1], |&j| j * 2);
            sub.into_iter().sum::<usize>()
        });
        assert_eq!(out, vec![2, 6, 10, 14]);
        assert_eq!(par.fanouts(), 1);
        assert_eq!(inner.fanouts(), 0);
        assert_eq!(inner.inline_runs(), 4);
    }

    #[test]
    fn counters_account_for_every_item() {
        let par = ParCounters::new();
        let items: Vec<usize> = (0..50).collect();
        let _ = par.map_ordered(5, &items, |&i| i);
        assert_eq!(par.fanouts(), 1);
        assert_eq!(par.tasks(), 50);
        // Five workers each record one utilization sample.
        assert_eq!(par.utilization().count(), 5);
    }

    #[test]
    fn uneven_items_still_merge_canonically() {
        let par = ParCounters::new();
        let items: Vec<u64> = (0..33).collect();
        let out = par.map_ordered(4, &items, |&i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(15));
            }
            i + 100
        });
        assert_eq!(out, (100..133).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_item_propagates_after_join() {
        let par = ParCounters::new();
        let items: Vec<usize> = (0..16).collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par.map_ordered(4, &items, |&i| {
                if i == 7 {
                    panic!("item 7 exploded");
                }
                i
            })
        }));
        assert!(outcome.is_err(), "panic must propagate out of the fan-out");
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }
}
