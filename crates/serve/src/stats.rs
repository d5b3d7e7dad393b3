//! The counter table: every number `GET /v1/stats`, `GET /v1/metrics`
//! and `adds-cli store stats` report is one [`Row`] of [`rows`] (or
//! [`store_rows`]), and two small renderers walk the table —
//! [`render_json`] into the nested `adds.serve-stats/v5` (or
//! `adds.store-stats/v1`) document, [`render_prom`] into Prometheus text
//! (`adds.metrics/v1`). This is the one place a counter is defined:
//! adding one means adding one row, so the two endpoints cannot drift
//! apart.
//!
//! A row holds its dotted `/v1/stats` path, its Prometheus family (name
//! plus at most one label), and its [`Value`], whose variant is the
//! kind (counter, gauge or histogram). Rows are built per render from
//! the same atomics and snapshots the hot paths already maintain.
//!
//! Every row has both a path and a family except these, which appear on
//! one side only:
//!
//! * stats-only constants: `schema`, `net.engine` and `store.enabled`;
//! * Prometheus-only `adds_request_body_bytes_total` — adding it to the
//!   JSON would change the `v5` document shape.
//!
//! The JSON document has no timestamps: it is a pure function of the
//! counters, so tests can golden it. (`/v2` added `queries.dropped`,
//! `latency`, and `connections` to the `/v1` shape; `/v3` added
//! `parallel`; `/v4` added `cache.disk_hits` and the `store` section;
//! `/v5` added the `net` section for the event-driven engine.)

use crate::json::Json;
use crate::server::{Route, ServerState};
use adds_obs::metrics::{prom_counter, prom_gauge, prom_histogram, Histogram};
use adds_query::QueryKind;
use adds_store::StoreSnapshot;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A row's value; the variant is its Prometheus kind.
pub enum Value<'a> {
    /// A monotonic count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(u64),
    /// A log₂ histogram: a full bucket series in Prometheus, and in the
    /// JSON a `{count, p50, p90, p99}` summary whose quantile keys carry
    /// the given suffix (`p50_us`). Quantiles are bucket upper bounds.
    Histogram(&'a Histogram, &'static str),
    /// A stats-only constant.
    Const(Json),
}

/// One counter: where it sits in each rendering and what it reads.
pub struct Row<'a> {
    /// Dotted `/v1/stats` path (`cache.hits`); `None` for Prometheus-only.
    pub path: Option<String>,
    /// Prometheus family and optional `(key, value)` label; `None` for
    /// stats-only constants.
    pub family: Option<(&'static str, Option<(&'static str, &'static str)>)>,
    /// The value, read when the table was built.
    pub value: Value<'a>,
}

impl<'a> Row<'a> {
    fn new(path: impl Into<String>, family: &'static str, value: Value<'a>) -> Row<'a> {
        Row {
            path: Some(path.into()),
            family: Some((family, None)),
            value,
        }
    }

    fn labelled(mut self, key: &'static str, value: &'static str) -> Row<'a> {
        if let Some((_, label)) = &mut self.family {
            *label = Some((key, value));
        }
        self
    }

    /// A stats-only constant at `path`.
    pub fn constant(path: &str, value: Json) -> Row<'a> {
        Row {
            path: Some(path.to_string()),
            family: None,
            value: Value::Const(value),
        }
    }
}

fn load(a: &AtomicU64) -> u64 {
    a.load(Ordering::Relaxed)
}

fn level(a: &AtomicI64) -> u64 {
    a.load(Ordering::Relaxed).max(0) as u64
}

/// The server's whole table, in `/v1/stats` document order (which keeps
/// each Prometheus family's samples contiguous).
#[rustfmt::skip] // one row per line: this is a table
pub fn rows(st: &ServerState) -> Vec<Row<'_>> {
    use Value::{Counter, Gauge, Histogram};
    let svc = &st.service;
    let (cs, qs, par, db) = (svc.stats(), svc.query_stats(), svc.par_stats(), svc.db());
    let net = &st.net;
    let mut rows = vec![Row::constant("schema", Json::str("adds.serve-stats/v5"))];
    rows.extend(section("cache.", [
        ("hits", "adds_cache_hits_total", Counter(load(&cs.hits))),
        ("misses", "adds_cache_misses_total", Counter(load(&cs.misses))),
        ("coalesced", "adds_cache_coalesced_total", Counter(load(&cs.coalesced))),
        ("disk_hits", "adds_cache_disk_hits_total", Counter(load(&cs.disk_hits))),
        ("in_flight", "adds_cache_in_flight", Gauge(load(&cs.in_flight))),
        ("evicted", "adds_cache_evicted_total", Counter(load(&cs.evicted))),
        ("entries", "adds_cache_entries", Gauge(svc.entries() as u64)),
    ]));
    // Per-layer compute counts, then the artifact caches' own counters —
    // with `--cache-cap`, the memory-heavy artifacts (typed programs,
    // fixpoints, bytecode) evict here, not in the report-level `cache`.
    rows.extend(QueryKind::ALL.iter().map(|&k| {
        let n = Counter(db.total_computes(k));
        Row::new(format!("queries.{}", k.name()), "adds_query_computes_total", n)
            .labelled("layer", k.name())
    }));
    rows.extend(section("queries.", [
        ("entries", "adds_query_artifact_entries", Gauge(db.artifact_entries() as u64)),
        ("hits", "adds_query_cache_hits_total", Counter(load(&qs.hits))),
        ("misses", "adds_query_cache_misses_total", Counter(load(&qs.misses))),
        ("evicted", "adds_query_cache_evicted_total", Counter(load(&qs.evicted))),
        ("dropped", "adds_query_dropped_digests_total", Counter(db.dropped_digest_entries())),
    ]));
    rows.extend(Route::ALL.iter().map(|&r| {
        let n = Counter(st.metrics.requests[r as usize].get());
        Row::new(format!("requests.{}", r.name()), "adds_requests_total", n)
            .labelled("route", r.name())
    }));
    rows.push(Row {
        path: None,
        family: Some(("adds_request_body_bytes_total", None)),
        value: Counter(st.metrics.bytes_in.get()),
    });
    rows.extend(Route::ALL.iter().map(|&r| {
        let h = Histogram(&st.metrics.route_latency[r as usize], "_us");
        Row::new(format!("latency.routes.{}", r.name()), "adds_request_duration_us", h)
            .labelled("route", r.name())
    }));
    rows.extend(QueryKind::ALL.iter().map(|&k| {
        let h = Histogram(db.layer_duration(k), "_us");
        Row::new(format!("latency.layers.{}", k.name()), "adds_query_duration_us", h)
            .labelled("layer", k.name())
    }));
    rows.extend(section("parallel.", [
        // The *configured* budget (0 = one per core), not the resolved
        // count, so the document stays host-independent.
        ("jobs", "adds_par_jobs", Gauge(svc.jobs() as u64)),
        ("fanouts", "adds_par_fanouts_total", Counter(par.fanouts())),
        ("inline", "adds_par_inline_total", Counter(par.inline_runs())),
        ("tasks", "adds_par_tasks_total", Counter(par.tasks())),
        ("steals", "adds_par_steals_total", Counter(par.steals())),
        // Single-flight coalescing across both cache banks: concurrent
        // duplicate demands that shared one compute instead of racing.
        ("coalesced_flights", "adds_par_coalesced_flights_total",
            Counter(load(&qs.coalesced) + load(&cs.coalesced))),
        ("utilization_pct", "adds_par_worker_utilization_pct", Histogram(par.utilization(), "")),
    ]));
    rows.extend(section("connections.", [
        ("open", "adds_connections_open", Gauge(level(&net.open))),
        ("keepalive", "adds_connections_keepalive", Gauge(level(&net.keepalive))),
    ]));
    rows.push(Row::constant("net.engine", Json::str("reactor")));
    rows.extend(section("net.", [
        ("open", "adds_net_open_connections", Gauge(level(&net.open))),
        ("accepted", "adds_net_accepted_total", Counter(load(&net.accepted))),
        ("rejected", "adds_net_rejected_total", Counter(load(&net.rejected))),
        ("dispatched", "adds_net_dispatched_total", Counter(load(&net.dispatched))),
        ("inline", "adds_net_inline_total", Counter(load(&net.inline_served))),
        ("poll_wakeups", "adds_net_poll_wakeups_total", Counter(load(&net.poll_wakeups))),
        ("timer_expirations", "adds_net_timer_expirations_total",
            Counter(load(&net.timer_expirations))),
    ]));
    // The `store` section is present either way so the document shape is
    // stable; its counters only exist with `--store`.
    let store = db.store();
    rows.push(Row::constant("store.enabled", Json::Bool(store.is_some())));
    if let Some(store) = store {
        rows.extend(store_rows("store.", &store.stats()));
    }
    rows
}

/// The persistent store's counters, each path under `prefix` (`store.`
/// in `/v1/stats`, empty in `adds-cli store stats`).
#[rustfmt::skip] // one row per line: this is a table
pub fn store_rows(prefix: &str, s: &StoreSnapshot) -> Vec<Row<'static>> {
    use Value::{Counter, Gauge};
    section(prefix, [
        ("entries", "adds_store_entries", Gauge(s.entries)),
        ("pending", "adds_store_pending", Gauge(s.pending)),
        ("segments", "adds_store_segments", Gauge(s.segments)),
        ("live_bytes", "adds_store_live_bytes", Gauge(s.live_bytes)),
        ("gets", "adds_store_gets_total", Counter(s.gets)),
        ("hits", "adds_store_hits_total", Counter(s.hits)),
        ("misses", "adds_store_misses_total", Counter(s.misses)),
        ("puts", "adds_store_puts_total", Counter(s.puts)),
        ("puts_ignored", "adds_store_puts_ignored_total", Counter(s.puts_ignored)),
        ("commits", "adds_store_commits_total", Counter(s.commits)),
        ("commit_failures", "adds_store_commit_failures_total", Counter(s.commit_failures)),
        ("committed_records", "adds_store_committed_records_total", Counter(s.committed_records)),
        ("committed_bytes", "adds_store_committed_bytes_total", Counter(s.committed_bytes)),
        ("recovered_records", "adds_store_recovered_records_total", Counter(s.recovered_records)),
        ("truncated_bytes", "adds_store_truncated_bytes_total", Counter(s.truncated_bytes)),
        ("quarantined_records", "adds_store_quarantined_records_total",
            Counter(s.quarantined_records)),
        ("rotations", "adds_store_rotations_total", Counter(s.rotations)),
        ("compactions", "adds_store_compactions_total", Counter(s.compactions)),
    ])
}

/// Unlabelled `(key, family, value)` rows, each path `prefix` + key.
fn section<'a, const N: usize>(
    prefix: &str,
    entries: [(&str, &'static str, Value<'a>); N],
) -> Vec<Row<'a>> {
    entries
        .into_iter()
        .map(|(key, family, value)| Row::new(format!("{prefix}{key}"), family, value))
        .collect()
}

/// The rows with a path, nested by path into one JSON object.
pub fn render_json(rows: &[Row<'_>]) -> Json {
    let mut doc = Json::Obj(Vec::new());
    for row in rows {
        let Some(path) = &row.path else { continue };
        let value = match &row.value {
            Value::Counter(n) | Value::Gauge(n) => Json::UInt(*n),
            Value::Histogram(h, unit) => Json::Obj(vec![
                ("count".to_string(), Json::UInt(h.count())),
                (format!("p50{unit}"), Json::UInt(h.quantile(0.5))),
                (format!("p90{unit}"), Json::UInt(h.quantile(0.9))),
                (format!("p99{unit}"), Json::UInt(h.quantile(0.99))),
            ]),
            Value::Const(json) => json.clone(),
        };
        insert(&mut doc, path, value);
    }
    doc
}

/// Place `value` at dotted `path` inside object `obj`, creating (in
/// first-seen order) the intermediate objects it needs.
fn insert(obj: &mut Json, path: &str, value: Json) {
    let Json::Obj(fields) = obj else {
        unreachable!("stats paths only nest into objects")
    };
    let Some((head, rest)) = path.split_once('.') else {
        fields.push((path.to_string(), value));
        return;
    };
    let i = match fields.iter().position(|(k, _)| k == head) {
        Some(i) => i,
        None => {
            fields.push((head.to_string(), Json::Obj(Vec::new())));
            fields.len() - 1
        }
    };
    insert(&mut fields[i].1, rest, value);
}

/// The rows with a family as Prometheus text, headed by the
/// `# adds.metrics/v1` schema comment; each family's `# TYPE` line
/// precedes its (contiguous) samples.
pub fn render_prom(rows: &[Row<'_>]) -> String {
    let mut out = String::from("# adds.metrics/v1\n");
    let mut current = "";
    for row in rows {
        let Some((family, label)) = row.family else {
            continue;
        };
        let kind = match row.value {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Histogram(..) => "histogram",
            Value::Const(_) => continue,
        };
        if family != current {
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            current = family;
        }
        let labels = label.map_or(String::new(), |(k, v)| format!("{k}=\"{v}\""));
        match row.value {
            Value::Counter(n) => prom_counter(&mut out, family, &labels, n),
            Value::Gauge(n) => prom_gauge(&mut out, family, &labels, n as i64),
            Value::Histogram(h, _) => prom_histogram(&mut out, family, &labels, h),
            Value::Const(_) => {}
        }
    }
    out
}
