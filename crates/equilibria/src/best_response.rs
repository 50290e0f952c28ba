//! Iterated best-response dynamics (extension beyond the paper).
//!
//! The paper notes that computing equilibria of the general game is
//! NP-hard (Thm 2 of \[19\]) and analyses fixed topologies only. As a
//! practical complement we provide best-response *dynamics*: players take
//! turns playing an (exhaustively found) best response until nobody can
//! improve or a round limit is hit. If the dynamics stop, the final state
//! is a Nash equilibrium by construction; the experiments use this to
//! discover which topologies the game actually converges to.

use crate::game::Game;
use crate::nash::{search_player, Deviation, DeviationCache, DeviationSearch, NashAnalyzer};
use serde::{Deserialize, Serialize};

/// Outcome of running best-response dynamics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicsReport {
    /// `true` iff a full round passed with no profitable deviation.
    pub converged: bool,
    /// Rounds played (a round = one best-response attempt per player).
    pub rounds: usize,
    /// Deviations actually applied, in order.
    pub applied: Vec<Deviation>,
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped wholesale by the admissible utility upper bound
    /// (see [`NashReport::bound_pruned`](crate::nash::NashReport)).
    #[serde(default)]
    pub bound_pruned: u64,
    /// BFS passes paid for cache-miss utility evaluations: every live
    /// player per miss.
    #[serde(default)]
    pub sources_recomputed: u64,
    /// Utility lookups answered from the shared deviation cache. Rounds
    /// near convergence re-explore mostly unchanged states, so this
    /// approaches `explored` as the dynamics settle.
    pub cache_hits: u64,
}

/// Runs best-response dynamics in place, mutating `game` toward a stable
/// state.
///
/// Each round iterates players in id order; a player with a strictly
/// profitable deviation applies the *best* one immediately (sequential
/// better-response with exact best responses). Stops after a deviation-free
/// round (convergence: the state is then a verified Nash equilibrium) or
/// after `max_rounds`.
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
/// use lcg_equilibria::best_response::run_dynamics;
///
/// let params = GameParams { zipf_s: 10.0, a: 0.1, b: 0.1, link_cost: 1.0,
///                           ..GameParams::default() };
/// let mut game = Game::path(4, params);
/// let report = run_dynamics(&mut game, 20);
/// assert!(report.converged);
/// ```
pub fn run_dynamics(game: &mut Game, max_rounds: usize) -> DynamicsReport {
    run_dynamics_cached(game, max_rounds, &DeviationCache::new())
}

/// [`run_dynamics`] against a caller-owned [`DeviationCache`], letting a
/// subsequent check through the same cache (or further dynamics on the
/// same game) reuse every utility this run computed.
pub fn run_dynamics_cached(
    game: &mut Game,
    max_rounds: usize,
    cache: &DeviationCache,
) -> DynamicsReport {
    run_dynamics_with(game, max_rounds, cache, DeviationSearch::default())
}

/// [`run_dynamics_cached`] under explicit [`DeviationSearch`] knobs.
pub fn run_dynamics_with(
    game: &mut Game,
    max_rounds: usize,
    cache: &DeviationCache,
    search: DeviationSearch,
) -> DynamicsReport {
    let start_hits = cache.stats().hits;
    let mut applied = Vec::new();
    let mut explored = 0;
    let mut bound_pruned = 0;
    let mut sources_recomputed = 0;
    for round in 1..=max_rounds {
        let mut any = false;
        let players: Vec<_> = game.graph().node_ids().collect();
        for player in players {
            let (dev, stats) = search_player(game, player, cache, search);
            explored += stats.explored;
            bound_pruned += stats.bound_pruned;
            sources_recomputed += stats.sources_recomputed;
            if let Some(dev) = dev {
                *game = game.deviate(player, &dev.remove, &dev.add);
                applied.push(dev);
                any = true;
            }
        }
        if !any {
            return DynamicsReport {
                converged: true,
                rounds: round,
                applied,
                explored,
                bound_pruned,
                sources_recomputed,
                cache_hits: cache.stats().hits - start_hits,
            };
        }
    }
    DynamicsReport {
        converged: false,
        rounds: max_rounds,
        applied,
        explored,
        bound_pruned,
        sources_recomputed,
        cache_hits: cache.stats().hits - start_hits,
    }
}

impl NashAnalyzer {
    /// Runs best-response dynamics in place under this analyzer's search
    /// knobs and shared cache, so a [`NashAnalyzer::check`] right after a
    /// converged run answers the final round from the memo.
    pub fn run_dynamics(&self, game: &mut Game, max_rounds: usize) -> DynamicsReport {
        run_dynamics_with(game, max_rounds, self.cache(), self.search())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::GameParams;

    #[test]
    fn converged_dynamics_end_in_equilibrium() {
        let params = GameParams {
            zipf_s: 3.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut game = Game::path(4, params);
        let analyzer = NashAnalyzer::new();
        let report = analyzer.run_dynamics(&mut game, 30);
        if report.converged {
            assert!(analyzer.check(&game).is_equilibrium);
        }
        assert!(report.rounds >= 1);
    }

    #[test]
    fn stable_star_needs_no_moves() {
        let params = GameParams {
            zipf_s: 12.0,
            a: 0.1,
            b: 0.1,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut game = Game::star(5, params);
        let report = run_dynamics(&mut game, 10);
        assert!(report.converged);
        assert!(report.applied.is_empty());
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn path_moves_at_least_once() {
        let mut game = Game::path(5, GameParams::default());
        let report = run_dynamics(&mut game, 10);
        assert!(!report.applied.is_empty(), "Thm 10: path must move");
    }

    #[test]
    fn round_limit_is_respected() {
        let params = GameParams {
            link_cost: 0.0001,
            ..GameParams::default()
        };
        let mut game = Game::circle(7, params);
        let report = run_dynamics(&mut game, 2);
        assert!(report.rounds <= 2);
    }

    #[test]
    fn search_configurations_apply_identical_trajectories() {
        let params = GameParams {
            zipf_s: 3.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let mut accelerated = Game::path(4, params);
        let mut reference = Game::path(4, params);
        let fast = run_dynamics_with(
            &mut accelerated,
            15,
            &DeviationCache::new(),
            DeviationSearch::default(),
        );
        let slow = run_dynamics_with(
            &mut reference,
            15,
            &DeviationCache::new(),
            DeviationSearch::exhaustive(),
        );
        assert_eq!(fast.converged, slow.converged);
        assert_eq!(fast.rounds, slow.rounds);
        assert_eq!(fast.applied, slow.applied);
        assert_eq!(fast.explored + fast.bound_pruned, slow.explored);
        assert_eq!(
            accelerated.canonical_channels(),
            reference.canonical_channels()
        );
    }
}
