//! Differential suite for the Nash checker's deviation kernel: on every
//! candidate `(R, A)` of every player — the empty deviation included — the
//! kernel's utility must equal `game.deviate(p, R, A).utility(p)` bit for
//! bit, and its state key must equal the cache key of the deviated game's
//! `canonical_channels()`. Covers both Zipf variants, both hop chargings,
//! `zipf_s ∈ {0, 1, 6}`, deviations that disconnect the graph (utility
//! `−∞`), and states reached by best-response dynamics, whose edge order
//! is no longer the constructor's.

use lcg_core::utility::HopCharging;
use lcg_core::zipf::ZipfVariant;
use lcg_equilibria::best_response::run_dynamics;
use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::kernel::DeviationKernel;
use lcg_equilibria::nash::state_key;
use lcg_graph::NodeId;

fn param_grid() -> Vec<GameParams> {
    let mut grid = Vec::new();
    for zipf_s in [0.0, 1.0, 6.0] {
        for zipf_variant in [ZipfVariant::Averaged, ZipfVariant::Literal] {
            for hop_charging in [HopCharging::Intermediaries, HopCharging::Distance] {
                grid.push(GameParams {
                    zipf_s,
                    zipf_variant,
                    hop_charging,
                    a: 0.7,
                    b: 1.3,
                    link_cost: 0.4,
                });
            }
        }
    }
    grid
}

/// The items of `items` selected by `mask`, in order.
fn gather(items: &[NodeId], mask: u64) -> Vec<NodeId> {
    (0..items.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| items[i])
        .collect()
}

/// Outcome counts of one sweep, so callers can assert coverage.
#[derive(Default)]
struct Sweep {
    candidates: u64,
    disconnected: u64,
}

/// Checks every candidate of every player of `game`.
fn check_every_candidate(label: &str, game: &Game) -> Sweep {
    let players: Vec<NodeId> = game.graph().node_ids().collect();
    check_candidates(label, game, &players, usize::MAX)
}

/// Checks every candidate of `players` that adds at most `max_add`
/// channels.
fn check_candidates(label: &str, game: &Game, players: &[NodeId], max_add: usize) -> Sweep {
    let mut sweep = Sweep::default();
    let mut key = Vec::new();
    for &player in players {
        let mut kernel = DeviationKernel::new(game, player);
        let owned = game.owned_channels(player);
        let neighbours = game.graph().neighbors(player);
        let addable: Vec<NodeId> = game
            .graph()
            .node_ids()
            .filter(|&v| v != player && !neighbours.contains(&v))
            .collect();
        for r_mask in 0..1u64 << owned.len() {
            let remove = gather(&owned, r_mask);
            for a_mask in 0..1u64 << addable.len() {
                if a_mask.count_ones() as usize > max_add {
                    continue;
                }
                let add = gather(&addable, a_mask);
                let deviated = game.deviate(player, &remove, &add);
                let want = deviated.utility(player);
                let got = kernel.utility(&remove, &add);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{label}: utility of {player} under -{remove:?} +{add:?}: {got} vs {want}"
                );
                kernel.write_state_key(&remove, &add, &mut key);
                assert_eq!(
                    key,
                    state_key(&deviated, player),
                    "{label}: state key of {player} under -{remove:?} +{add:?}"
                );
                sweep.candidates += 1;
                sweep.disconnected += u64::from(want == f64::NEG_INFINITY);
            }
        }
    }
    sweep
}

#[test]
fn kernel_matches_deviate_on_every_candidate_of_the_section_iv_shapes() {
    let mut candidates = 0;
    let mut disconnected = 0;
    for params in param_grid() {
        for (shape, game) in [
            ("star-8", Game::star(8, params)),
            ("path-8", Game::path(8, params)),
            ("circle-8", Game::circle(8, params)),
        ] {
            let sweep = check_every_candidate(&format!("{shape} {params:?}"), &game);
            candidates += sweep.candidates;
            disconnected += sweep.disconnected;
        }
    }
    assert!(candidates > 10_000, "only {candidates} candidates checked");
    assert!(
        disconnected > 0,
        "no candidate disconnected the graph; the −∞ path went unchecked"
    );
}

#[test]
fn kernel_folds_sources_in_the_same_chunks_as_brandes() {
    // Below 10 live players every source falls into one chunk plus at most
    // one single-source chunk, and the fold order is invisible. 10 players
    // make two chunks; 17 make three.
    let literal = GameParams {
        zipf_s: 6.0,
        zipf_variant: ZipfVariant::Literal,
        hop_charging: HopCharging::Distance,
        ..GameParams::default()
    };
    for params in [GameParams::default(), literal] {
        for (shape, game) in [
            ("star-9", Game::star(9, params)),
            ("path-10", Game::path(10, params)),
            ("circle-10", Game::circle(10, params)),
        ] {
            check_every_candidate(&format!("{shape} {params:?}"), &game);
        }
        for (shape, game) in [
            ("star-16", Game::star(16, params)),
            ("path-17", Game::path(17, params)),
            ("circle-17", Game::circle(17, params)),
        ] {
            let players = [NodeId(0), NodeId(1), NodeId(8)];
            check_candidates(&format!("{shape} {params:?}"), &game, &players, 2);
        }
    }
}

#[test]
fn kernel_matches_deviate_on_states_reached_by_dynamics() {
    // Applied deviations append channels after the constructor's, so the
    // adjacency order differs from every fresh topology.
    let mut moved = 0;
    for params in param_grid() {
        for (shape, mut game) in [
            ("star-6", Game::star(6, params)),
            ("path-7", Game::path(7, params)),
            ("circle-7", Game::circle(7, params)),
        ] {
            let report = run_dynamics(&mut game, 2);
            moved += report.applied.len();
            check_every_candidate(&format!("{shape} after dynamics {params:?}"), &game);
        }
    }
    assert!(moved > 0, "dynamics applied no deviation");
}

#[test]
fn kernel_matches_deviate_when_the_base_state_is_disconnected() {
    // An isolated player and a split graph: the base utility is −∞ for
    // everyone, and only some candidates reconnect.
    for params in param_grid() {
        let mut game = Game::new(6, params);
        game.add_channel(NodeId(0), NodeId(1));
        game.add_channel(NodeId(2), NodeId(1));
        game.add_channel(NodeId(3), NodeId(4));
        let sweep = check_every_candidate(&format!("split {params:?}"), &game);
        assert!(sweep.disconnected > 0 && sweep.disconnected < sweep.candidates);
    }
}

#[test]
#[should_panic(expected = "does not own")]
fn kernel_rejects_removing_an_unowned_channel() {
    let game = Game::star(3, GameParams::default());
    DeviationKernel::new(&game, NodeId(0)).utility(&[NodeId(1)], &[]);
}

#[test]
#[should_panic(expected = "already exists")]
fn kernel_rejects_adding_an_existing_channel() {
    let game = Game::star(3, GameParams::default());
    DeviationKernel::new(&game, NodeId(1)).utility(&[], &[NodeId(0)]);
}
