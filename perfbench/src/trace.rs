//! The traced run: `lcg-obs` on, the benchmark's own spans around its
//! calls into each layer's public functions, and the deltas of the
//! program's existing registry counters. Nothing here adds a span or a
//! counter inside the program.

use crate::report::Metric;
use crate::stats::Ratio;
use crate::timed;
use std::collections::BTreeMap;

/// Prefix of every span this benchmark opens; the program's own spans
/// are drained and dropped.
const SPAN_PREFIX: &str = "bench/";

/// Registry counters the traced run reads, as the program names them.
const COUNTERS: &[&str] = &[
    "graph/bfs/runs",
    "graph/brandes/sources",
    "graph/incremental/recomputed_sources",
    "graph/incremental/cached_sources",
    "graph/edge_delta/recomputed_sources",
    "graph/edge_delta/replayed_sources",
    "graph/edge_delta/reweighted_sources",
    "graph/edge_delta/fallbacks",
    "core/oracle/evaluations",
    "core/eval_cache/hits",
    "core/eval_cache/misses",
    "core/greedy/candidates_scored",
    "core/lazy_greedy/heap_reevaluations",
    "core/exhaustive/divisions",
    "core/delta_eval/revenue_queries",
    "equilibria/explored",
    "equilibria/bound_pruned",
    "equilibria/deviation_cache/hits",
    "equilibria/deviation_cache/misses",
    "sim/htlc/lock_attempts",
    "sim/payments/attempted",
    "sim/payments/succeeded",
    "sim/payments/failed_no_path",
    "sim/payments/failed_capacity",
    "sim/payments/failed_faulted",
    "sim/retry/attempts",
    "sim/retry/recovered",
    "sim/faults/injected_transient",
    "sim/faults/injected_timeouts",
    "sim/faults/offline_rejections",
    "parallel/par_map_calls",
];

/// Metrics timed by the pay replay: not reported when it diverged.
const REPLAY_SPLIT: &[&str] = &[
    "graph.filter_edges.us",
    "graph.bfs.us",
    "sim.route_us",
    "sim.path_sample_us",
    "sim.execute_us",
];

/// Accumulated wall time of one benchmark span name.
#[derive(Debug, Clone, Copy, Default)]
struct SpanTotal {
    calls: u64,
    ns: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    spans: BTreeMap<&'static str, SpanTotal>,
    counters: BTreeMap<&'static str, u64>,
    /// Hops over the payments the traced pay runs delivered.
    pub path_hops: u64,
    /// Payments the traced pay runs delivered.
    pub paths: u64,
    /// Pay slices replayed layer by layer, and those whose replay
    /// diverged from `Simulation::run`.
    pub replayed_ops: u64,
    pub replay_mismatched_ops: u64,
    traced_ops: u64,
    untraced_ms: f64,
    traced_ms: f64,
    traced_first: bool,
}

fn read_counters() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|name| lcg_obs::metrics::counter(name).get())
        .collect()
}

impl Tracer {
    /// Runs one op with observability on and books its counter deltas.
    /// Returns the op's output and its traced time in ms.
    fn traced<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64) {
        let before = read_counters();
        lcg_obs::set_enabled(true);
        let (out, ms) = timed(op);
        lcg_obs::set_enabled(false);
        for ((name, b), a) in COUNTERS.iter().zip(before).zip(read_counters()) {
            *self.counters.entry(name).or_default() += a - b;
        }
        self.traced_ops += 1;
        self.absorb_spans();
        (out, ms)
    }

    /// Runs an op twice, with observability off and then on, or the
    /// other way round on every other call so that neither run is always
    /// the one with warm caches. Returns both outputs and the untraced
    /// time in ms.
    pub fn pair<R, T>(
        &mut self,
        untraced: impl FnOnce() -> R,
        traced: impl FnOnce() -> T,
    ) -> (R, f64, T) {
        self.traced_first = !self.traced_first;
        let (r, ms, t, traced_ms);
        if self.traced_first {
            (t, traced_ms) = self.traced(traced);
            (r, ms) = timed(untraced);
        } else {
            (r, ms) = timed(untraced);
            (t, traced_ms) = self.traced(traced);
        }
        self.untraced_ms += ms;
        self.traced_ms += traced_ms;
        (r, ms, t)
    }

    /// Runs layer probes with observability on; only their benchmark
    /// spans are kept (their counter increments are not booked).
    pub fn probe<R>(&mut self, probes: impl FnOnce() -> R) -> R {
        lcg_obs::set_enabled(true);
        let out = probes();
        lcg_obs::set_enabled(false);
        self.absorb_spans();
        out
    }

    fn absorb_spans(&mut self) {
        for record in lcg_obs::span::drain() {
            if record.name.starts_with(SPAN_PREFIX) {
                let total = self.spans.entry(record.name).or_default();
                total.calls += 1;
                total.ns += record.duration_ns;
            }
        }
    }

    fn span(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Mean duration of one span call in `unit`.
    fn span_mean(&self, name: &'static str, metric: &'static str, unit: &'static str) -> Metric {
        let total = self.span(name);
        let scale = match unit {
            "us" => 1e3,
            "ms" => 1e6,
            other => panic!("span metrics are in us or ms, not {other}"),
        };
        let mean = Ratio::new(total.ns as f64 / scale, total.calls as f64);
        Metric::new(
            metric,
            mean.value(),
            unit,
            format!("mean of {} calls of {name}", total.calls),
        )
    }

    /// A program counter's delta per traced op.
    fn per_op(&self, counter: &'static str, metric: &'static str) -> Metric {
        let r = Ratio::new(self.counter(counter), self.traced_ops as f64);
        Metric::new(
            metric,
            r.value(),
            "count/op",
            format!("{counter}: {} over traced ops", r.base()),
        )
    }

    fn ratio(&self, metric: &'static str, r: Ratio, what: &str) -> Metric {
        Metric::new(metric, r.value(), "ratio", format!("{what} = {}", r.base()))
    }

    fn counter_ratio(
        &self,
        metric: &'static str,
        num: &'static str,
        den: &[&'static str],
    ) -> Metric {
        let den_value = den.iter().map(|d| self.counter(d)).sum();
        self.ratio(
            metric,
            Ratio::new(self.counter(num), den_value),
            &format!("{num} / ({})", den.join(" + ")),
        )
    }

    /// Every per-layer metric, in the order BENCHMARK.json lists them. A
    /// layer the workload does not exercise reads 0. The pay replay's
    /// split (`REPLAY_SPLIT`) is left out unless the replay reproduced
    /// `Simulation::run` bit for bit on every op.
    pub fn per_layer(&self, workers: usize) -> Vec<Metric> {
        let mut metrics = self.all_layers(workers);
        if self.replay_mismatched_ops > 0 {
            metrics.retain(|m| !REPLAY_SPLIT.contains(&m.name));
        }
        metrics
    }

    fn all_layers(&self, workers: usize) -> Vec<Metric> {
        let path_len = Ratio::new(self.path_hops as f64, self.paths as f64);
        vec![
            self.span_mean("bench/graph/filter_edges", "graph.filter_edges.us", "us"),
            self.span_mean("bench/graph/bfs", "graph.bfs.us", "us"),
            self.span_mean(
                "bench/graph/incremental/snapshot",
                "graph.incremental.snapshot_ms",
                "ms",
            ),
            self.span_mean(
                "bench/graph/incremental/query",
                "graph.incremental.query_us",
                "us",
            ),
            self.span_mean("bench/graph/brandes", "graph.brandes.ms", "ms"),
            self.span_mean(
                "bench/graph/edge_delta/revenue_of",
                "graph.edge_delta.query_us",
                "us",
            ),
            self.per_op("graph/bfs/runs", "graph.bfs.runs"),
            self.per_op("graph/brandes/sources", "graph.brandes.sources"),
            self.per_op(
                "graph/incremental/recomputed_sources",
                "graph.incremental.recomputed_sources",
            ),
            self.per_op(
                "graph/incremental/cached_sources",
                "graph.incremental.cached_sources",
            ),
            self.counter_ratio(
                "graph.incremental.skip_ratio",
                "graph/incremental/cached_sources",
                &[
                    "graph/incremental/cached_sources",
                    "graph/incremental/recomputed_sources",
                ],
            ),
            self.per_op(
                "graph/edge_delta/recomputed_sources",
                "graph.edge_delta.recomputed_sources",
            ),
            self.per_op(
                "graph/edge_delta/replayed_sources",
                "graph.edge_delta.replayed_sources",
            ),
            self.per_op(
                "graph/edge_delta/reweighted_sources",
                "graph.edge_delta.reweighted_sources",
            ),
            self.per_op("graph/edge_delta/fallbacks", "graph.edge_delta.fallbacks"),
            self.span_mean(
                "bench/core/oracle/evaluate_miss",
                "core.oracle.evaluate_miss_us",
                "us",
            ),
            self.span_mean(
                "bench/core/oracle/evaluate_hit",
                "core.oracle.evaluate_hit_us",
                "us",
            ),
            self.span_mean("bench/core/greedy", "core.greedy.ms", "ms"),
            self.span_mean("bench/core/lazy", "core.lazy.ms", "ms"),
            self.span_mean("bench/core/exhaustive", "core.exhaustive.ms", "ms"),
            self.per_op("core/oracle/evaluations", "core.oracle.evaluations"),
            self.counter_ratio(
                "core.eval_cache.hit_ratio",
                "core/eval_cache/hits",
                &["core/eval_cache/hits", "core/eval_cache/misses"],
            ),
            self.per_op(
                "core/greedy/candidates_scored",
                "core.greedy.candidates_scored",
            ),
            self.per_op(
                "core/lazy_greedy/heap_reevaluations",
                "core.lazy.heap_reevaluations",
            ),
            self.per_op("core/exhaustive/divisions", "core.exhaustive.divisions"),
            self.per_op(
                "core/delta_eval/revenue_queries",
                "core.delta_eval.revenue_queries",
            ),
            self.span_mean(
                "bench/equilibria/check/star",
                "equilibria.check.star_ms",
                "ms",
            ),
            self.span_mean(
                "bench/equilibria/check/path",
                "equilibria.check.path_ms",
                "ms",
            ),
            self.span_mean(
                "bench/equilibria/check/circle",
                "equilibria.check.circle_ms",
                "ms",
            ),
            self.span_mean(
                "bench/equilibria/eval_context",
                "equilibria.eval_context_ms",
                "ms",
            ),
            self.span_mean(
                "bench/equilibria/best_deviation",
                "equilibria.best_deviation_ms",
                "ms",
            ),
            self.per_op("equilibria/explored", "equilibria.explored"),
            self.per_op("equilibria/bound_pruned", "equilibria.bound_pruned"),
            self.counter_ratio(
                "equilibria.prune_ratio",
                "equilibria/bound_pruned",
                &["equilibria/explored", "equilibria/bound_pruned"],
            ),
            self.counter_ratio(
                "equilibria.deviation_cache.hit_ratio",
                "equilibria/deviation_cache/hits",
                &[
                    "equilibria/deviation_cache/hits",
                    "equilibria/deviation_cache/misses",
                ],
            ),
            self.span_mean("bench/sim/route", "sim.route_us", "us"),
            self.span_mean("bench/sim/path_sample", "sim.path_sample_us", "us"),
            self.span_mean("bench/sim/execute", "sim.execute_us", "us"),
            self.span_mean("bench/sim/snapshot", "sim.snapshot_ms", "ms"),
            self.span_mean("bench/sim/workload", "sim.workload_ms", "ms"),
            self.counter_ratio(
                "sim.htlc.lock_attempts_per_payment",
                "sim/htlc/lock_attempts",
                &["sim/payments/attempted"],
            ),
            self.per_op("sim/retry/attempts", "sim.retry.attempts"),
            self.counter_ratio(
                "sim.retry.useful_ratio",
                "sim/retry/recovered",
                &["sim/retry/attempts"],
            ),
            self.per_op(
                "sim/faults/injected_transient",
                "sim.faults.injected_transient",
            ),
            self.per_op(
                "sim/faults/injected_timeouts",
                "sim.faults.injected_timeouts",
            ),
            self.per_op(
                "sim/faults/offline_rejections",
                "sim.faults.offline_rejections",
            ),
            Metric::new(
                "sim.path_len_mean",
                path_len.value(),
                "hops",
                format!("hops / delivered payments = {}", path_len.base()),
            ),
            self.per_op("sim/payments/succeeded", "sim.payments.succeeded"),
            self.per_op("sim/payments/failed_no_path", "sim.payments.failed_no_path"),
            self.per_op(
                "sim/payments/failed_capacity",
                "sim.payments.failed_capacity",
            ),
            self.per_op("sim/payments/failed_faulted", "sim.payments.failed_faulted"),
            Metric::new(
                "sim.replay.mismatched_ops",
                self.replay_mismatched_ops as f64,
                "count",
                format!("of {} replayed ops", self.replayed_ops),
            ),
            Metric::new(
                "parallel.workers",
                workers as f64,
                "count",
                "lcg_parallel::max_threads()".into(),
            ),
            self.per_op("parallel/par_map_calls", "parallel.par_map_calls"),
            self.ratio(
                "obs.trace_overhead_ratio",
                Ratio::new(self.traced_ms, self.untraced_ms),
                &format!("traced ms / untraced ms over {} ops", self.traced_ops),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(t: &Tracer) -> Vec<(&'static str, f64)> {
        t.per_layer(1)
            .into_iter()
            .filter(|m| REPLAY_SPLIT.contains(&m.name))
            .map(|m| (m.name, m.value))
            .collect()
    }

    #[test]
    fn a_diverged_replay_reports_no_split() {
        let mut t = Tracer::default();
        for name in [
            "bench/graph/filter_edges",
            "bench/graph/bfs",
            "bench/sim/route",
        ] {
            t.spans.insert(
                name,
                SpanTotal {
                    calls: 2,
                    ns: 8_000,
                },
            );
        }
        t.replayed_ops = 3;
        assert_eq!(split(&t).len(), REPLAY_SPLIT.len());
        assert_eq!(split(&t)[0], ("graph.filter_edges.us", 4.0));

        t.replay_mismatched_ops = 1;
        assert!(split(&t).is_empty(), "a diverged split must not read 0");
        let all = t.per_layer(1);
        assert_eq!(all.len(), t.all_layers(1).len() - REPLAY_SPLIT.len());
        let mismatched = all
            .iter()
            .find(|m| m.name == "sim.replay.mismatched_ops")
            .expect("the mismatch count is still reported");
        assert_eq!(mismatched.value, 1.0);
    }
}
