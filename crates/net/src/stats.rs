//! Reactor counters, exported by the embedding server (stats doc + metrics),
//! which reads the atomics directly.

use std::sync::atomic::{AtomicI64, AtomicU64};

/// Atomic counters describing the life of the event loop. All relaxed: these
/// are monitoring signals, not synchronization.
#[derive(Default)]
pub struct NetStats {
    /// Connections accepted into the reactor (within budget).
    pub accepted: AtomicU64,
    /// Connections turned away with the busy response (budget exhausted).
    pub rejected: AtomicU64,
    /// Currently open connections owned by the reactor.
    pub open: AtomicI64,
    /// Open connections that have completed a keep-alive response and
    /// stay open for the next request.
    pub keepalive: AtomicI64,
    /// Times the poll loop woke up (readiness, waker, or tick timeout).
    pub poll_wakeups: AtomicU64,
    /// Connection deadlines that actually fired (idle/header/write).
    pub timer_expirations: AtomicU64,
    /// Frames handed to the worker pool.
    pub dispatched: AtomicU64,
    /// Frames served inline on the reactor thread (protocol fast path).
    pub inline_served: AtomicU64,
}
