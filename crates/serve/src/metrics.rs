//! Every counter the server keeps, declared once.
//!
//! `stats_table!` below is the one list of `GET /stats` fields, in wire
//! order; each row is a doc, a name and a source. A `counter` row is a
//! relaxed `AtomicU64` in each shard's [`ShardCounters`], bumped on the
//! serving path; a `read` row is sampled from server state when a model
//! group is folded (`ModelGroup::stats`). The macro generates the atomic
//! block, [`StatsSnapshot`], the field list, the per-shard fold and the
//! `/stats` body, so a new counter is one row plus the code that bumps it.

use remix_core::RemixVerdict;
use remix_xai::XaiLevel;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! stats_table {
    ($($(#[$doc:meta])+ $field:ident: $source:ident,)+) => {
        /// One point-in-time view of the server's counters, summed across
        /// every engine shard of every model group (the per-shard atomics are
        /// read with relaxed ordering, so the snapshot is a sum of
        /// individually-consistent counters, not a global atomic cut — fine
        /// for monitoring, which is all `/stats` is for).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])+ pub $field: u64,)+
        }

        impl StatsSnapshot {
            /// Every field, in the order `GET /stats` renders them.
            pub(crate) const FIELDS: &'static [&'static str] = &[$(stringify!($field)),+];

            /// The `GET /stats` body: one JSON object, keys in table order.
            pub(crate) fn body(&self) -> String {
                let values = [$(self.$field),+];
                let pairs: Vec<String> =
                    Self::FIELDS.iter().zip(values).map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!("{{{}}}", pairs.join(","))
            }

            /// The field-wise sum of two snapshots.
            pub(crate) fn plus(self, other: Self) -> Self {
                Self { $($field: self.$field + other.$field),+ }
            }
        }

        shard_counters!([] [] $($(#[$doc])+ $field: $source,)+);
    };
}

/// Collects the `counter` rows of the table into [`ShardCounters`] and its
/// fold; `read` rows have no per-shard atomic.
macro_rules! shard_counters {
    ([$($decl:tt)*] [$($counter:ident)*]) => {
        /// One engine shard's always-on counters (independent of
        /// `remix-trace`, which is opt-in; `/stats` must work on an untraced
        /// server): the table's `counter` rows as relaxed atomics.
        #[derive(Default)]
        pub(crate) struct ShardCounters {
            $($decl)*
        }

        impl ShardCounters {
            /// Adds this shard's counters into `sum`.
            pub(crate) fn add_to(&self, sum: &mut StatsSnapshot) {
                $(sum.$counter += self.$counter.load(Ordering::Relaxed);)*
            }
        }
    };
    ([$($decl:tt)*] [$($counter:ident)*] $(#[$doc:meta])+ $field:ident: counter, $($rest:tt)*) => {
        shard_counters!(
            [$($decl)* $(#[$doc])+ pub $field: AtomicU64,] [$($counter)* $field] $($rest)*
        );
    };
    ([$($decl:tt)*] [$($counter:ident)*] $(#[$doc:meta])+ $field:ident: read, $($rest:tt)*) => {
        shard_counters!([$($decl)*] [$($counter)*] $($rest)*);
    };
}

stats_table! {
    /// Accepted `/predict` requests (shed requests included).
    requests: counter,
    /// Requests answered from the verdict cache.
    cache_hits: counter,
    /// Requests that missed the cache and ran inference.
    cache_misses: counter,
    /// Requests rejected with `429` because a shard queue was full.
    shed: counter,
    /// Requests resolved by the degraded majority-vote fallback.
    degraded: counter,
    /// Engine micro-batches executed.
    batches: counter,
    /// Requests carried by those micro-batches (mean occupancy =
    /// `batched_requests / batches`).
    batched_requests: counter,
    /// Verdicts produced at [`XaiLevel::Skip`]: the unanimous fast path and
    /// the scheduler's majority-vote admissions (degraded verdicts count in
    /// `degraded` only).
    xai_skip: counter,
    /// Verdicts produced at the quarter budget.
    xai_light: counter,
    /// Verdicts produced at the half budget.
    xai_standard: counter,
    /// Verdicts produced at the full budget (the only populated level when
    /// no scheduler is attached).
    xai_full: counter,
    /// Requests served below their scheduler-assigned level because the
    /// batch's XAI bill exceeded the latency budget.
    downgraded: counter,
    /// Verdicts currently held across all cache slices.
    cached_verdicts: read,
    /// Number of engine shards serving (all groups).
    shards: read,
    /// Drift alerts raised by the streaming detectors (zero when drift
    /// detection is disabled).
    drift_alerts: counter,
    /// Hot-swaps triggered by drift alerts (all groups).
    drift_swaps: read,
}

impl ShardCounters {
    pub(crate) fn bump_batch(&self, occupancy: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(occupancy as u64, Ordering::Relaxed);
    }

    /// Counts one delivered verdict: exactly one of its XAI level or
    /// `degraded`, plus `downgraded` when the allowance moved it.
    pub(crate) fn bump_verdict(&self, verdict: &RemixVerdict) {
        let outcome = match verdict.xai_level {
            _ if verdict.degraded => &self.degraded,
            XaiLevel::Skip => &self.xai_skip,
            XaiLevel::Light => &self.xai_light,
            XaiLevel::Standard => &self.xai_standard,
            XaiLevel::Full => &self.xai_full,
        };
        outcome.fetch_add(1, Ordering::Relaxed);
        if verdict.downgraded {
            self.downgraded.fetch_add(1, Ordering::Relaxed);
        }
    }
}
