//! Splits a job's wall time among layers from its trace.
//!
//! A traced job is a root span on the benchmark's thread plus every span
//! recorded beneath it: the benchmark's own spans around public calls
//! (`ir.parse`, `job.prepare`, `bench.batch`) and the spans the prover
//! already emits (`job`, `ir_opt`, `invariant_init`, `smt_minimize`, ...),
//! possibly on other threads (the scheduler's worker, the portfolio's race
//! lanes).
//!
//! Every instant of the root span is charged to exactly one layer, so the
//! layer times add up to the job's wall time by construction:
//!
//! * on one thread, an instant belongs to the innermost open span (a span's
//!   *self time* is its duration minus what its children cover);
//! * across threads, only the deepest active threads count — a thread that
//!   spawned workers is waiting for them — and an instant is split equally
//!   among them, the share a fair scheduler would give each;
//! * a thread counts as active from its first span's start to its last
//!   span's end; active time outside any span is unattributed.

use std::collections::BTreeMap;

/// The layers a job's time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Ir,
    Job,
    Invariants,
    Smt,
    Lp,
    Service,
    Unattributed,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Ir,
        Layer::Job,
        Layer::Invariants,
        Layer::Smt,
        Layer::Lp,
        Layer::Service,
        Layer::Unattributed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Ir => "ir",
            Layer::Job => "job",
            Layer::Invariants => "invariants",
            Layer::Smt => "smt",
            Layer::Lp => "lp",
            Layer::Service => "service",
            Layer::Unattributed => "unattributed",
        }
    }

    /// The layer a span's self time belongs to. Spans that only wrap other
    /// work (the root, the scheduler's `job` span, the batch call) own no
    /// layer: their self time is glue that no span explains.
    pub fn of_span(name: &str) -> Layer {
        match name {
            "ir.parse" | "ir_opt" => Layer::Ir,
            "job.prepare" => Layer::Job,
            "invariant_init" | "invariant_refine" => Layer::Invariants,
            "smt_minimize" | "smt_check" => Layer::Smt,
            "lp_solve" => Layer::Lp,
            _ => Layer::Unattributed,
        }
    }
}

/// One closed span, in microseconds on a common clock.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: String,
    pub tid: u64,
    pub start: f64,
    pub end: f64,
}

/// Wall time of one job and its split among layers, in microseconds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Split {
    pub wall: f64,
    pub layers: BTreeMap<Layer, f64>,
}

impl Split {
    pub fn get(&self, layer: Layer) -> f64 {
        self.layers.get(&layer).copied().unwrap_or(0.0)
    }

    pub fn add(&mut self, layer: Layer, micros: f64) {
        *self.layers.entry(layer).or_insert(0.0) += micros;
    }

    /// Sum of the layer times; equals `wall` up to rounding.
    pub fn attributed_total(&self) -> f64 {
        self.layers.values().sum()
    }

    /// Absolute difference between the layer sum and the wall time.
    pub fn closure_error(&self) -> f64 {
        (self.attributed_total() - self.wall).abs()
    }

    pub fn merge(&mut self, other: &Split) {
        self.wall += other.wall;
        for (layer, micros) in &other.layers {
            self.add(*layer, *micros);
        }
    }
}

/// Splits the root span's wall time. `depth` ranks threads: the root's
/// thread is 0, threads it hands work to are deeper; at each instant only
/// the deepest active threads are charged.
pub fn split(root: &SpanRec, spans: &[SpanRec], depth: impl Fn(u64) -> usize) -> Split {
    let inside: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| s.end > root.start && s.start < root.end && *s != root)
        .collect();
    let mut threads: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    threads.insert(root.tid, (root.start, root.end));
    for s in &inside {
        let alive = threads.entry(s.tid).or_insert((s.start, s.end));
        alive.0 = alive.0.min(s.start);
        alive.1 = alive.1.max(s.end);
    }
    let mut cuts: Vec<f64> = vec![root.start, root.end];
    for s in &inside {
        cuts.push(s.start.clamp(root.start, root.end));
        cuts.push(s.end.clamp(root.start, root.end));
    }
    for (start, end) in threads.values() {
        cuts.push(start.clamp(root.start, root.end));
        cuts.push(end.clamp(root.start, root.end));
    }
    cuts.sort_by(f64::total_cmp);
    cuts.dedup();

    let mut out = Split {
        wall: root.end - root.start,
        layers: BTreeMap::new(),
    };
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mid = (a + b) / 2.0;
        let active: Vec<u64> = threads
            .iter()
            .filter(|(_, (start, end))| *start <= mid && mid < *end)
            .map(|(tid, _)| *tid)
            .collect();
        let deepest = active.iter().map(|t| depth(*t)).max().unwrap_or(0);
        let charged: Vec<u64> = active
            .into_iter()
            .filter(|t| depth(*t) == deepest)
            .collect();
        let share = (b - a) / charged.len().max(1) as f64;
        for tid in charged {
            // The innermost open span: on one thread spans nest, so it is
            // the shortest one containing the instant.
            let innermost = inside
                .iter()
                .filter(|s| s.tid == tid && s.start <= mid && mid < s.end)
                .min_by(|x, y| (x.end - x.start).total_cmp(&(y.end - y.start)));
            let layer = innermost.map_or(Layer::Unattributed, |s| Layer::of_span(&s.name));
            out.add(layer, share);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, tid: u64, start: f64, end: f64) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            tid,
            start,
            end,
        }
    }

    #[test]
    fn nested_spans_on_one_thread_charge_self_time() {
        let root = span("bench.job", 1, 0.0, 100.0);
        let spans = vec![
            root.clone(),
            span("ir.parse", 1, 0.0, 10.0),
            span("job.prepare", 1, 10.0, 40.0),
            span("ir_opt", 1, 12.0, 20.0),
            span("bench.batch", 1, 40.0, 100.0),
            span("smt_minimize", 1, 50.0, 80.0),
            span("lp_solve", 1, 85.0, 90.0),
        ];
        let s = split(&root, &spans, |_| 0);
        assert_eq!(s.get(Layer::Ir), 18.0);
        assert_eq!(s.get(Layer::Job), 22.0);
        assert_eq!(s.get(Layer::Smt), 30.0);
        assert_eq!(s.get(Layer::Lp), 5.0);
        assert_eq!(s.get(Layer::Unattributed), 25.0);
        assert_eq!(s.wall, 100.0);
        assert!(s.closure_error() < 1e-9);
    }

    #[test]
    fn parallel_lanes_share_the_instant_and_the_waiting_thread_is_not_charged() {
        let root = span("bench.job", 1, 0.0, 100.0);
        let spans = vec![
            span("bench.batch", 1, 0.0, 100.0),
            span("job", 2, 10.0, 90.0),
            // Two lanes: both in invariants for 20 µs, then one in SMT while
            // the other runs code outside any span.
            span("invariant_init", 3, 20.0, 40.0),
            span("invariant_init", 4, 20.0, 40.0),
            span("smt_minimize", 3, 40.0, 80.0),
            span("lp_solve", 4, 70.0, 80.0),
        ];
        let depth = |tid| match tid {
            1 => 0,
            2 => 1,
            _ => 2,
        };
        let s = split(&root, &spans, depth);
        assert_eq!(s.get(Layer::Invariants), 20.0);
        // 40..70: lane 3 in SMT, lane 4 active outside spans; 70..80 both
        // in spans.
        assert_eq!(s.get(Layer::Smt), 15.0 + 5.0);
        assert_eq!(s.get(Layer::Lp), 5.0);
        // 0..20 and 80..100 have no lane active: the root and worker glue.
        assert_eq!(s.get(Layer::Unattributed), 15.0 + 40.0);
        assert!(s.closure_error() < 1e-9);
    }

    #[test]
    fn spans_outside_the_root_are_clipped() {
        let root = span("bench.job", 1, 10.0, 20.0);
        let spans = vec![
            span("smt_check", 1, 0.0, 15.0),
            span("lp_solve", 1, 18.0, 30.0),
        ];
        let s = split(&root, &spans, |_| 0);
        assert_eq!(s.get(Layer::Smt), 5.0);
        assert_eq!(s.get(Layer::Lp), 2.0);
        assert_eq!(s.get(Layer::Unattributed), 3.0);
        assert!(s.closure_error() < 1e-9);
    }

    #[test]
    fn merged_splits_keep_closing() {
        let mut total = Split::default();
        let root = span("bench.job", 1, 0.0, 50.0);
        let spans = vec![span("ir.parse", 1, 0.0, 7.0)];
        total.merge(&split(&root, &spans, |_| 0));
        total.merge(&split(&root, &spans, |_| 0));
        assert_eq!(total.wall, 100.0);
        assert_eq!(total.get(Layer::Ir), 14.0);
        assert!(total.closure_error() < 1e-9);
    }
}
