//! `join`: budgeted join queries (Algorithms 1 and 2) on a fresh
//! `UtilityOracle` with default `UtilityParams` (Intermediary revenue).
//!
//! Each catalog instance is a BA-200 host for the two greedy variants and
//! a BA-100 host for the exhaustive search. Greedy scores cold queries;
//! Algorithm 2 answers most of its evaluations from the `EvalCache`.

use crate::golden::bits;
use crate::{same_when_traced, Run, Workload};
use lcg_core::exhaustive::{exhaustive_search, ExhaustiveConfig};
use lcg_core::greedy::greedy_fixed_lock;
use lcg_core::lazy::lazy_greedy_fixed_lock;
use lcg_core::utility::{UtilityOracle, UtilityParams};
use lcg_core::Strategy;
use lcg_graph::betweenness::weighted_node_betweenness;
use lcg_graph::generators::{self, Topology};
use lcg_graph::incremental::IncrementalBetweenness;
use lcg_obs::span::span;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

const CATALOG_SEED: u64 = 0x101A_0000;
const INSTANCES: usize = 3;
const GREEDY_HOST_NODES: usize = 200;
const EXHAUSTIVE_HOST_NODES: usize = 100;
const BA_ATTACHMENT: usize = 2;
const GREEDY_BUDGET: f64 = 8.0;
const GREEDY_LOCK: f64 = 1.0;
const EXHAUSTIVE_BUDGET: f64 = 4.0;
const EXHAUSTIVE_GRANULARITY: f64 = 1.0;

#[derive(Debug, Clone, Copy)]
enum Kind {
    Greedy,
    Lazy,
    Exhaustive,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Greedy, Kind::Lazy, Kind::Exhaustive];

    fn label(self) -> &'static str {
        match self {
            Kind::Greedy => "greedy",
            Kind::Lazy => "lazy",
            Kind::Exhaustive => "exhaustive",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Kind::Greedy => "bench/core/greedy",
            Kind::Lazy => "bench/core/lazy",
            Kind::Exhaustive => "bench/core/exhaustive",
        }
    }

    fn budget(self) -> f64 {
        match self {
            Kind::Greedy | Kind::Lazy => GREEDY_BUDGET,
            Kind::Exhaustive => EXHAUSTIVE_BUDGET,
        }
    }
}

struct Hosts {
    greedy: Topology,
    exhaustive: Topology,
}

pub struct Join {
    hosts: Vec<Hosts>,
}

fn fresh_oracle(host: &Topology) -> UtilityOracle {
    UtilityOracle::new(
        host.clone(),
        vec![1.0; host.node_bound()],
        UtilityParams::default(),
    )
}

/// One op: the join query of `kind` on a fresh oracle over `host`.
fn solve(kind: Kind, host: &Topology) -> (Strategy, f64) {
    let oracle = fresh_oracle(host);
    match kind {
        Kind::Greedy => {
            let r = greedy_fixed_lock(&oracle, GREEDY_BUDGET, GREEDY_LOCK);
            (r.strategy, r.simplified_utility)
        }
        Kind::Lazy => {
            let r = lazy_greedy_fixed_lock(&oracle, GREEDY_BUDGET, GREEDY_LOCK);
            (r.strategy, r.simplified_utility)
        }
        Kind::Exhaustive => {
            let config = ExhaustiveConfig {
                budget: EXHAUSTIVE_BUDGET,
                granularity: EXHAUSTIVE_GRANULARITY,
                max_divisions: None,
            };
            let r = exhaustive_search(&oracle, config);
            (r.strategy, r.simplified_utility)
        }
    }
}

fn canonical(strategy: &Strategy, u: f64) -> String {
    let actions: Vec<String> = strategy
        .iter()
        .map(|a| format!("{}@{}", a.target.index(), a.lock))
        .collect();
    format!("strategy={} u={}", actions.join(","), bits(u))
}

/// The strategy fits the budget, and a fresh oracle scores it to the
/// same `U'` bits the solver reported.
fn check(kind: Kind, host: &Topology, strategy: &Strategy, u: f64) -> bool {
    let onchain_fee = UtilityParams::default().cost.onchain_fee;
    let within_budget = strategy.is_within_budget(onchain_fee, kind.budget());
    let rescored = fresh_oracle(host).evaluate(strategy).simplified;
    if !within_budget {
        eprintln!(
            "join {}: strategy {strategy} exceeds the budget",
            kind.label()
        );
    }
    if rescored.to_bits() != u.to_bits() {
        eprintln!(
            "join {}: re-evaluated U' {rescored} differs from reported {u}",
            kind.label()
        );
    }
    within_budget && rescored.to_bits() == u.to_bits()
}

/// Layer probes on the op's host: the incremental engine's snapshot and
/// 1- and 2-target queries, the full Brandes pass it avoids, and oracle
/// evaluations on a miss and on a hit.
fn probes(host: &Topology, strategy: &Strategy) {
    let oracle = fresh_oracle(host);
    let favg = oracle.params().favg;
    let engine = {
        let _s = span("bench/graph/incremental/snapshot");
        IncrementalBetweenness::new(oracle.host(), |s, r| oracle.model().pair_rate(s, r) * favg)
    };
    let targets = strategy.targets();
    let Some(&first) = targets.first() else {
        return;
    };
    for &t in &targets {
        let _s = span("bench/graph/incremental/query");
        black_box(engine.new_node_score(&[t]));
    }
    for &t in &targets[1..] {
        let _s = span("bench/graph/incremental/query");
        black_box(engine.new_node_score(&[first, t]));
    }
    let augmented = engine.augment(&targets);
    {
        let _s = span("bench/graph/brandes");
        black_box(weighted_node_betweenness(&augmented, |s, r| {
            engine.weight(s, r)
        }));
    }
    // The first evaluation builds the oracle's engine; the timed ones
    // below are then plain memo misses and hits.
    oracle.evaluate(&Strategy::empty());
    let prefixes: Vec<Strategy> = (1..=strategy.len())
        .map(|k| strategy.actions()[..k].iter().copied().collect())
        .collect();
    for p in &prefixes {
        let _s = span("bench/core/oracle/evaluate_miss");
        black_box(oracle.evaluate(p));
    }
    for p in &prefixes {
        let _s = span("bench/core/oracle/evaluate_hit");
        black_box(oracle.evaluate(p));
    }
}

impl Join {
    pub fn setup() -> Join {
        let hosts = (0..INSTANCES)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(CATALOG_SEED + i as u64);
                Hosts {
                    greedy: generators::barabasi_albert(GREEDY_HOST_NODES, BA_ATTACHMENT, &mut rng),
                    exhaustive: generators::barabasi_albert(
                        EXHAUSTIVE_HOST_NODES,
                        BA_ATTACHMENT,
                        &mut rng,
                    ),
                }
            })
            .collect();
        Join { hosts }
    }
}

impl Workload for Join {
    fn instances(&self) -> usize {
        self.hosts.len()
    }

    fn run_instance(&mut self, i: usize, run: &mut Run) {
        for kind in Kind::ALL {
            let hosts = &self.hosts[i];
            let host = match kind {
                Kind::Greedy | Kind::Lazy => &hosts.greedy,
                Kind::Exhaustive => &hosts.exhaustive,
            };
            let ((strategy, u), ms, traced) = run.op(
                || solve(kind, host),
                || {
                    let _s = span(kind.span());
                    solve(kind, host)
                },
            );
            let output = canonical(&strategy, u);
            let ok = check(kind, host, &strategy, u)
                && traced.is_none_or(|(s, u)| same_when_traced(&output, &canonical(&s, u)));
            let key = format!("join/{i}/{}", kind.label());
            run.finish_op(&key, ms, &output, ok);
            if let Some(t) = run.tracer.as_mut() {
                t.probe(|| probes(host, &strategy));
            }
        }
    }

    fn derivation(&self) -> String {
        format!(
            "instance i: StdRng::seed_from_u64({CATALOG_SEED:#x} + i) draws BA-{GREEDY_HOST_NODES} \
             then BA-{EXHAUSTIVE_HOST_NODES} (m={BA_ATTACHMENT}); ops greedy, lazy (budget \
             {GREEDY_BUDGET}, lock {GREEDY_LOCK}) and exhaustive (budget {EXHAUSTIVE_BUDGET}, \
             granularity {EXHAUSTIVE_GRANULARITY}) draw no randomness"
        )
    }
}
