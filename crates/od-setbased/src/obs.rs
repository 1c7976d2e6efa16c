//! Crate-internal observability shim over [`od_obs`].
//!
//! With the `obs` feature (default) every hook forwards to the ambient
//! recorder; without it the hooks are inlined empty functions and a unit span
//! guard, so the instrumented hot paths compile down to exactly the
//! uninstrumented code — the zero-cost disable CI proves by building
//! `--no-default-features --features decider`.
//!
//! All recording happens on the orchestrating thread: worker threads hand
//! their results back (batched verdicts, atomic effort counters) and the
//! caller flushes aggregate counts, so scoped registries capture a traversal
//! completely and thread count never changes what is recorded.

#[cfg(feature = "obs")]
mod hooks {
    /// RAII phase-span guard (records its duration on drop).
    pub type Span = od_obs::SpanGuard;

    #[inline]
    pub fn span(name: &str) -> Span {
        od_obs::span(name)
    }

    /// Span named `level<k>` (allocates only when metrics are compiled in).
    #[inline]
    pub fn level_span(level: usize) -> Span {
        od_obs::span(format!("level{level}"))
    }

    #[inline]
    pub fn add(name: &str, delta: u64) {
        od_obs::add(name, delta);
    }

    #[inline]
    pub fn gauge_max(name: &str, value: u64) {
        od_obs::gauge_max(name, value);
    }

    #[inline]
    pub fn record(name: &str, value: u64) {
        od_obs::record(name, value);
    }

    /// Record every value into one histogram, looked up once.
    #[inline]
    pub fn record_all(name: &str, values: &[u64]) {
        let histogram = od_obs::recorder().histogram(name);
        for &value in values {
            histogram.record(value);
        }
    }
}

#[cfg(not(feature = "obs"))]
mod hooks {
    /// Unit span guard: no state, no `Drop`.
    pub struct Span;

    #[inline(always)]
    pub fn span(_name: &str) -> Span {
        Span
    }

    #[inline(always)]
    pub fn level_span(_level: usize) -> Span {
        Span
    }

    #[inline(always)]
    pub fn add(_name: &str, _delta: u64) {}

    #[inline(always)]
    pub fn gauge_max(_name: &str, _value: u64) {}

    #[inline(always)]
    pub fn record(_name: &str, _value: u64) {}

    #[inline(always)]
    pub fn record_all(_name: &str, _values: &[u64]) {}
}

pub(crate) use hooks::*;
