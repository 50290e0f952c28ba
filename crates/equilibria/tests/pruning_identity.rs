//! Differential suite for the accelerated deviation search: across the
//! Thm 7–11 parameter grid, the bound-pruned search must return
//! the same verdict and the same (bit-identical) deviations as the
//! exhaustive reference walk, and its counters must account for every
//! candidate the reference evaluates. Both evaluate every cache miss with
//! the deviation kernel, so their work is exactly one BFS per live player
//! per miss.

use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::nash::{Deviation, DeviationSearch, NashAnalyzer};
use lcg_graph::NodeId;

fn grid() -> Vec<(&'static str, Game)> {
    let mut games = Vec::new();
    for n in [3usize, 4, 5] {
        for s in [0.5, 2.0, 6.0] {
            for (a, b) in [(0.1, 0.1), (0.1, 0.6), (0.6, 0.1)] {
                for l in [0.25, 1.0] {
                    let params = GameParams {
                        zipf_s: s,
                        a,
                        b,
                        link_cost: l,
                        ..GameParams::default()
                    };
                    games.push(("star", Game::star(n, params)));
                    games.push(("path", Game::path(n, params)));
                    games.push(("circle", Game::circle(n, params)));
                }
            }
        }
    }
    games
}

fn assert_same_deviations(label: &str, got: &[Deviation], want: &[Deviation]) {
    assert_eq!(got.len(), want.len(), "{label}: deviation count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.player, w.player, "{label}");
        assert_eq!(g.remove, w.remove, "{label}");
        assert_eq!(g.add, w.add, "{label}");
        assert_eq!(
            g.utility_before.to_bits(),
            w.utility_before.to_bits(),
            "{label}: utility_before of player {}",
            g.player
        );
        assert_eq!(
            g.utility_after.to_bits(),
            w.utility_after.to_bits(),
            "{label}: utility_after of player {}",
            g.player
        );
    }
}

#[test]
fn accelerated_search_is_verdict_and_deviation_identical_on_the_theorem_grid() {
    let mut total_pruned = 0u64;
    let mut total_explored = 0u64;
    for (shape, game) in grid() {
        let label = format!(
            "{shape} n={} s={} a={} b={} l={}",
            game.graph().node_count(),
            game.params().zipf_s,
            game.params().a,
            game.params().b,
            game.params().link_cost
        );
        let exhaustive = NashAnalyzer::exhaustive().check(&game);
        let pruned = NashAnalyzer::new().check(&game);
        assert_eq!(
            pruned.is_equilibrium, exhaustive.is_equilibrium,
            "{label}: verdict"
        );
        assert_same_deviations(&label, &pruned.deviations, &exhaustive.deviations);
        assert_eq!(
            pruned.explored + pruned.bound_pruned,
            exhaustive.explored,
            "{label}: candidate accounting"
        );
        assert_eq!(
            exhaustive.bound_pruned, 0,
            "{label}: reference never prunes"
        );
        total_pruned += pruned.bound_pruned;
        total_explored += pruned.explored;
    }
    assert!(
        total_pruned > 0,
        "the bound should fire somewhere on the grid"
    );
    assert!(
        total_explored > 0,
        "the search should still evaluate candidates"
    );
}

#[test]
fn each_acceleration_is_independently_identical() {
    // Pruning-only must match the reference on a representative slice of
    // the grid (the full cross product is covered by the combined test
    // above).
    let slice = [
        ("star", Game::star(5, stable_star_params())),
        ("path", Game::path(5, GameParams::default())),
        (
            "circle",
            Game::circle(
                5,
                GameParams {
                    zipf_s: 0.5,
                    a: 1.0,
                    b: 1.0,
                    link_cost: 0.01,
                    ..GameParams::default()
                },
            ),
        ),
    ];
    let configs = [DeviationSearch {
        bound_pruning: true,
    }];
    for (shape, game) in slice {
        let reference = NashAnalyzer::exhaustive().check(&game);
        for config in configs {
            let report = NashAnalyzer::with_search(config).check(&game);
            let label = format!("{shape} under {config:?}");
            assert_eq!(report.is_equilibrium, reference.is_equilibrium, "{label}");
            assert_same_deviations(&label, &report.deviations, &reference.deviations);
            assert_eq!(
                report.explored + report.bound_pruned,
                reference.explored,
                "{label}"
            );
        }
    }
}

#[test]
fn stable_star_regime_prunes_aggressively() {
    // The acceptance regime of the deviation-scaling bench: a Thm 7 stable
    // star at high Zipf bias. The bound should eliminate the vast majority
    // of each leaf's 2 · 2^(n−2) candidates. Every surviving evaluation
    // pays a full Brandes pass over all 11 players, so the Brandes work
    // shrinks by the same factor as the evaluations.
    let game = Game::star(10, stable_star_params());
    let exhaustive = NashAnalyzer::exhaustive().check(&game);
    let pruned = NashAnalyzer::new().check(&game);
    assert!(pruned.is_equilibrium);
    assert!(exhaustive.is_equilibrium);
    assert!(
        pruned.explored * 5 <= exhaustive.explored,
        "expected ≥5× fewer evaluations: {} vs {}",
        pruned.explored,
        exhaustive.explored
    );
    assert!(
        pruned.sources_recomputed * 5 <= exhaustive.sources_recomputed,
        "expected ≥5× fewer Brandes source recomputations: {} vs {}",
        pruned.sources_recomputed,
        exhaustive.sources_recomputed
    );
}

#[test]
fn from_scratch_evaluation_pays_one_pass_per_live_player_per_miss() {
    for (shape, game) in grid() {
        let live = game.graph().node_count() as u64;
        for analyzer in [NashAnalyzer::new(), NashAnalyzer::exhaustive()] {
            let report = analyzer.check(&game);
            assert_eq!(
                report.sources_recomputed,
                analyzer.cache().stats().misses * live,
                "{shape} with {live} players under {:?}",
                analyzer.search()
            );
        }
    }
}

/// `Σ_p (2^owned(p) · 2^addable(p) − 1)`: every non-empty deviation of
/// every player, the count the exhaustive walk evaluates.
fn exhaustive_candidates(game: &Game) -> u64 {
    let graph = game.graph();
    graph
        .node_ids()
        .map(|p: NodeId| {
            let addable = graph.node_count() - 1 - graph.neighbors(p).len();
            (1u64 << (game.owned_channels(p).len() + addable)) - 1
        })
        .sum()
}

#[test]
fn certify_games_account_for_every_candidate_at_any_thread_count() {
    // The end-to-end benchmark's certify games: star-20 is too large for
    // the exhaustive walk, so its candidate count is checked against the
    // closed form instead.
    let games = [
        ("star-20", Game::star(20, stable_star_params())),
        ("path-12", Game::path(12, GameParams::default())),
        ("circle-12", Game::circle(12, GameParams::default())),
    ];
    for (label, game) in games {
        lcg_parallel::set_max_threads(1);
        let sequential = NashAnalyzer::new().check(&game);
        lcg_parallel::set_max_threads(2);
        let parallel = NashAnalyzer::new().check(&game);
        assert_eq!(
            sequential.explored + sequential.bound_pruned,
            exhaustive_candidates(&game),
            "{label}: explored + bound_pruned"
        );
        assert_eq!(sequential, parallel, "{label}: 1 vs 2 workers");
        assert_same_deviations(label, &parallel.deviations, &sequential.deviations);
    }
    lcg_parallel::set_max_threads(0);
}

fn stable_star_params() -> GameParams {
    GameParams {
        zipf_s: 6.0,
        a: 0.4,
        b: 0.4,
        link_cost: 1.0,
        ..GameParams::default()
    }
}
