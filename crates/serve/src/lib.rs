//! # adds-serve — the ADDS pipeline as a long-running service
//!
//! This crate is the HTTP face of the demand-driven analysis session in
//! `adds-query`, with no dependencies beyond `std` (the build environment
//! is offline):
//!
//! * [`cache`] / [`json`] / [`report`] / [`runner`] / [`sha`] — re-exports
//!   of the shared query-layer model, so existing `adds_serve::` paths
//!   keep working: the report model is byte-stable and identical between
//!   the CLI and the server because both render through the same session.
//! * [`pipeline`] — the CLI's input units and the one-shot stage runner,
//!   now thin wrappers over a [`service::Session`].
//! * [`service`] — the session re-export plus the fingerprint contract
//!   (see `adds_query::fingerprint` for the composed per-query table).
//! * [`http`] — a minimal HTTP/1.1 request reader and response
//!   serializer, with keep-alive.
//! * [`logging`] — the structured access-log line (`serve --log`).
//! * [`stats`] — the counter table behind `/v1/stats`, `/v1/metrics` and
//!   `adds-cli store stats`: one row per counter, two renderers.
//! * [`server`] — the `adds-cli serve` engine: the `adds-net` reactor
//!   over a fixed worker pool, routing
//!   `POST /v1/{analyze,parallelize,run,check,parse,batch}`,
//!   `GET /v1/report/{sha256}`, `GET /v1/corpus[/{name}]`,
//!   `GET /v1/stats`, `GET /v1/metrics` (Prometheus text),
//!   `GET /v1/trace` (Chrome `trace_event` JSON, with `--trace`), and
//!   `GET /healthz`.
//!
//! The wire format *is* the CLI report format: `POST /v1/analyze` with a
//! source body answers with a document byte-identical to
//! `adds-cli analyze` on the same bytes (given the same display name), so
//! goldens, scripts, and dashboards can consume either interchangeably.
//! And because every endpoint runs over one shared session, a
//! `parallelize` request after an `analyze` of the same bytes reuses the
//! parse/typecheck/analysis artifacts instead of recomputing them.

#![warn(missing_docs)]

pub use adds_query::cache;
pub use adds_query::json;
pub use adds_query::report;
pub use adds_query::runner;
pub use adds_query::sha;

pub mod corpus;
pub mod http;
pub mod logging;
pub mod pipeline;
pub mod server;
pub mod service;
pub mod stats;
