//! The unified metrics registry.
//!
//! One process-wide (or per-server) [`MetricsRegistry`] gathers job counts,
//! queue wait and per-job synthesis counters: every counter is a relaxed
//! atomic, so recording from worker threads is wait-free and a
//! [`MetricsRegistry::snapshot`] taken mid-run is cheap and always coherent
//! enough for monitoring (each counter is individually exact; the set is
//! read without a global lock). Durations are accumulated in integer
//! microseconds to keep the hot path free of float atomics. This crate sits
//! below the core crate, so the caller names the per-job counters
//! ([`MetricsRegistry::with_counters`]) — the driver registers its stats
//! schema's rows.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a per-job counter accumulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricUnit {
    /// A plain count.
    Count,
    /// A duration in milliseconds (kept as integer microseconds).
    Millis,
}

/// A coherent read of the registry at one point in time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Jobs submitted to the scheduler.
    pub jobs_submitted: u64,
    /// Jobs that produced a result (any verdict, including cancelled).
    pub jobs_completed: u64,
    /// Completed jobs whose run was cancelled (explicitly or by deadline).
    pub jobs_cancelled: u64,
    /// Completed jobs answered from the result cache.
    pub jobs_from_cache: u64,
    /// Completed jobs whose worker panicked (caught at the scheduler's
    /// isolation boundary; the worker survived and the job answered with an
    /// error).
    pub jobs_panicked: u64,
    /// Total time jobs spent queued before a worker picked them up,
    /// milliseconds.
    pub queue_wait_millis: f64,
    /// Every per-job counter's total over all completed jobs, in
    /// registration order (durations in milliseconds).
    pub totals: Vec<(&'static str, f64)>,
}

/// Wait-free accumulation of scheduler and synthesis counters.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_from_cache: AtomicU64,
    jobs_panicked: AtomicU64,
    queue_wait_us: AtomicU64,
    /// One `(name, unit, total)` per caller-named per-job counter.
    counters: Vec<(&'static str, MetricUnit, AtomicU64)>,
}

fn millis_to_us(millis: f64) -> u64 {
    if millis.is_finite() && millis > 0.0 {
        (millis * 1000.0) as u64
    } else {
        0
    }
}

impl MetricsRegistry {
    /// A registry keeping one per-job counter for each `(name, unit)`, in
    /// this order — the order [`job_finished`](Self::job_finished) values
    /// and [`MetricsSnapshot::totals`] follow.
    pub fn with_counters(counters: impl IntoIterator<Item = (&'static str, MetricUnit)>) -> Self {
        MetricsRegistry {
            counters: (counters.into_iter())
                .map(|(name, unit)| (name, unit, AtomicU64::new(0)))
                .collect(),
            ..MetricsRegistry::default()
        }
    }

    /// Records one job entering the scheduler queue.
    pub fn job_submitted(&self) {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the queue wait of a job a worker just picked up.
    pub fn queue_wait_micros(&self, micros: u64) {
        self.queue_wait_us.fetch_add(micros, Ordering::Relaxed);
    }

    /// Records a worker panic caught at the scheduler's isolation boundary
    /// (the job still counts as completed via
    /// [`job_finished`](Self::job_finished)).
    pub fn job_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Merges a landed job into the registry: `values` are its per-job
    /// counters in registration order (durations in milliseconds).
    pub fn job_finished(
        &self,
        values: impl IntoIterator<Item = f64>,
        from_cache: bool,
        cancelled: bool,
    ) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if cancelled {
            self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
        }
        if from_cache {
            self.jobs_from_cache.fetch_add(1, Ordering::Relaxed);
        }
        for ((_, unit, total), value) in self.counters.iter().zip(values) {
            let delta = match unit {
                MetricUnit::Count => value as u64,
                MetricUnit::Millis => millis_to_us(value),
            };
            total.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Reads every counter. Individually exact; taken without a global lock.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            jobs_from_cache: self.jobs_from_cache.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            queue_wait_millis: self.queue_wait_us.load(Ordering::Relaxed) as f64 / 1000.0,
            totals: self
                .counters
                .iter()
                .map(|(name, unit, total)| {
                    let raw = total.load(Ordering::Relaxed) as f64;
                    match unit {
                        MetricUnit::Count => (*name, raw),
                        MetricUnit::Millis => (*name, raw / 1000.0),
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(snap: &MetricsSnapshot, name: &str) -> Option<f64> {
        snap.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn registry() -> MetricsRegistry {
        MetricsRegistry::with_counters([
            ("iterations", MetricUnit::Count),
            ("lp_pivots", MetricUnit::Count),
            ("synthesis_millis", MetricUnit::Millis),
            ("smt_millis", MetricUnit::Millis),
        ])
    }

    #[test]
    fn snapshot_reflects_merged_jobs() {
        let registry = registry();
        registry.job_submitted();
        registry.job_submitted();
        registry.queue_wait_micros(1_500);
        registry.job_finished([3.0, 40.0, 12.5, 4.25], false, false);
        registry.job_finished([1.0, 0.0, 0.0, 0.0], true, true);
        let snap = registry.snapshot();
        assert_eq!(snap.jobs_submitted, 2);
        assert_eq!(snap.jobs_completed, 2);
        assert_eq!(snap.jobs_cancelled, 1);
        assert_eq!(snap.jobs_from_cache, 1);
        assert_eq!(total(&snap, "iterations"), Some(4.0));
        assert_eq!(total(&snap, "lp_pivots"), Some(40.0));
        assert_eq!(total(&snap, "no_such_counter"), None);
        assert!((snap.queue_wait_millis - 1.5).abs() < 1e-9);
        assert!((total(&snap, "synthesis_millis").unwrap() - 12.5).abs() < 1e-3);
        assert!((total(&snap, "smt_millis").unwrap() - 4.25).abs() < 1e-3);
        let names: Vec<&str> = snap.totals.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            ["iterations", "lp_pivots", "synthesis_millis", "smt_millis"],
            "totals keep registration order"
        );
    }

    #[test]
    fn counters_are_monotone_under_concurrent_merges() {
        let registry = std::sync::Arc::new(registry());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = std::sync::Arc::clone(&registry);
                scope.spawn(move || {
                    for _ in 0..250 {
                        registry.job_submitted();
                        registry.job_finished([2.0], false, false);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.jobs_submitted, 1000);
        assert_eq!(snap.jobs_completed, 1000);
        assert_eq!(total(&snap, "iterations"), Some(2000.0));
        assert_eq!(total(&snap, "lp_pivots"), Some(0.0));
    }
}
