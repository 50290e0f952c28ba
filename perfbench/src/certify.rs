//! `certify`: `NashAnalyzer::new().check` on a fresh analyzer over the
//! Section IV topologies. The 20-leaf star sits in the Thm 7 regime and
//! is certified almost entirely by bound pruning; the 12-node path and
//! circle (default parameters, neither an equilibrium) are dominated by
//! edge-delta evaluations.

use crate::golden::bits;
use crate::{same_when_traced, Run, Workload};
use lcg_core::TransactionModel;
use lcg_equilibria::nash::{DeviationSearch, EvalContext};
use lcg_equilibria::{Game, GameParams, NashAnalyzer, NashReport};
use lcg_graph::edge_delta::EdgeDelta;
use lcg_graph::NodeId;
use lcg_obs::span::span;
use std::hint::black_box;

struct Instance {
    label: &'static str,
    span: &'static str,
    game: Game,
    /// Players whose best deviation and edge-delta queries are probed.
    probe_players: Vec<NodeId>,
}

pub struct Certify {
    instances: Vec<Instance>,
}

fn canonical(report: &NashReport) -> String {
    let devs: Vec<String> = report
        .deviations
        .iter()
        .map(|d| {
            let list = |v: &[NodeId]| {
                v.iter()
                    .map(|n| n.index().to_string())
                    .collect::<Vec<_>>()
                    .join(".")
            };
            format!(
                "{}:-{}:+{}:{}:{}",
                d.player.index(),
                list(&d.remove),
                list(&d.add),
                bits(d.utility_before),
                bits(d.utility_after)
            )
        })
        .collect();
    format!(
        "eq={} candidates={} devs={}",
        report.is_equilibrium,
        report.explored + report.bound_pruned,
        if devs.is_empty() {
            "-".to_string()
        } else {
            devs.join(",")
        }
    )
}

/// Layer probes on the op's game: the shared evaluation snapshot, best
/// deviations of the probe players, and edge-delta revenue queries for
/// a one-channel addition and a one-channel swap by each probe player.
fn probes(instance: &Instance) {
    let game = &instance.game;
    let params = game.params();
    let ctx = {
        let _s = span("bench/equilibria/eval_context");
        EvalContext::new(game, &DeviationSearch::default())
    };
    for &p in &instance.probe_players {
        let _s = span("bench/equilibria/best_deviation");
        black_box(NashAnalyzer::new().best_deviation(game, p));
    }
    for &p in &instance.probe_players {
        let neighbours = game.graph().neighbors(p);
        let Some(add) = game
            .graph()
            .node_ids()
            .find(|&v| v != p && !neighbours.contains(&v))
        else {
            continue;
        };
        let owned = game.owned_channels(p);
        let mut deltas = vec![(Vec::new(), vec![add])];
        if let Some(&drop) = owned.first() {
            deltas.push((vec![drop], vec![add]));
        }
        for (remove, add) in deltas {
            let deviated = game.deviate(p, &remove, &add);
            let delta = EdgeDelta {
                remove: remove.iter().map(|&t| (p, t)).collect(),
                insert: add.iter().map(|&t| (p, t)).collect(),
            };
            let model = TransactionModel::zipf(
                deviated.graph(),
                params.zipf_s,
                params.zipf_variant,
                vec![1.0; deviated.graph().node_bound()],
            );
            let _s = span("bench/graph/edge_delta/revenue_of");
            black_box(ctx.oracle().revenue_of(deviated.graph(), &delta, p, &model));
        }
    }
}

impl Certify {
    pub fn setup() -> Certify {
        let thm7 = GameParams {
            zipf_s: 6.0,
            a: 0.4,
            b: 0.4,
            ..GameParams::default()
        };
        let instances = vec![
            Instance {
                label: "star20",
                span: "bench/equilibria/check/star",
                game: Game::star(20, thm7),
                probe_players: vec![NodeId(0), NodeId(1)],
            },
            Instance {
                label: "path12",
                span: "bench/equilibria/check/path",
                game: Game::path(12, GameParams::default()),
                probe_players: vec![NodeId(0)],
            },
            Instance {
                label: "circle12",
                span: "bench/equilibria/check/circle",
                game: Game::circle(12, GameParams::default()),
                probe_players: vec![NodeId(0)],
            },
        ];
        Certify { instances }
    }
}

impl Workload for Certify {
    fn instances(&self) -> usize {
        self.instances.len()
    }

    fn run_instance(&mut self, i: usize, run: &mut Run) {
        let instance = &self.instances[i];
        let (report, ms, traced) = run.op(
            || NashAnalyzer::new().check(&instance.game),
            || {
                let _s = span(instance.span);
                NashAnalyzer::new().check(&instance.game)
            },
        );
        let output = canonical(&report);
        let ok = traced.is_none_or(|t| same_when_traced(&output, &canonical(&t)));
        let key = format!("certify/{}", instance.label);
        run.finish_op(&key, ms, &output, ok);
        if let Some(t) = run.tracer.as_mut() {
            t.probe(|| probes(instance));
        }
    }

    fn derivation(&self) -> String {
        "fixed games star-20 (zipf_s 6, a = b = 0.4), path-12 and circle-12 (default \
         GameParams); the check draws no randomness, so the seed only orders the passes"
            .to_string()
    }
}
