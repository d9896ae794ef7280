//! Process-wide result cache keyed by [`JobKey`].
//!
//! The determinism contract ([`qsim::job`] module docs) is what makes this
//! sound: equal keys imply bit-identical counts, so a cached result *is*
//! the result — `cached: true` in a `result` reply is an honest latency
//! note, not an approximation flag. Eviction is least-recently-used
//! over a logical access clock: the cache is a [`qsim::lru::Lru`], the
//! same map behind `qsim::plan`'s plan cache.

use qsim::backend::BackendKind;
use qsim::dist::Counts;
use qsim::job::JobKey;
use qsim::lru::Lru;
use std::sync::Arc;

/// A finished job's payload: what the cache remembers per key, shared by
/// `Arc` between the cache and every job-table entry it answers, so a
/// cache hit never copies the counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedResult {
    /// The counts the job produced.
    pub counts: Counts,
    /// The engine that produced them.
    pub backend: BackendKind,
}

/// A fixed-capacity LRU map from [`JobKey`] to finished counts, with the
/// hit, miss and eviction counters every [`Lru`] keeps.
///
/// Not internally synchronized — the server wraps it in its own mutex so
/// lookup-then-insert sequences stay simple.
pub type ResultCache = Lru<JobKey, Arc<CachedResult>>;
