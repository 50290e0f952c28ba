//! Spot check: enabling `lcg-obs` changes no simulation outcome and no
//! routed path.
//!
//! The exhaustive differential suite lives in `crates/obs/tests/identity.rs`;
//! this is the in-crate canary so an engine-side regression fails here too.

use lcg_graph::{EdgeId, NodeId};
use lcg_sim::engine::Simulation;
use lcg_sim::faults::FaultPlan;
use lcg_sim::fees::FeeFunction;
use lcg_sim::network::Pcn;
use lcg_sim::onchain::CostModel;
use lcg_sim::retry::RetryPolicy;
use lcg_sim::route::RouteScratch;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn sim_report_identical_with_obs_enabled() {
    let topo = lcg_graph::generators::star(6);
    // Both legs replay the same stream against a fresh network and a
    // re-seeded rng, so any divergence can only come from the obs switch.
    // Faults and retries are on so their metric emission is exercised too.
    let run = || {
        let mut pcn = Pcn::from_topology(
            &topo,
            50.0,
            CostModel::default(),
            FeeFunction::Constant { fee: 0.01 },
        );
        let mut rng = StdRng::seed_from_u64(11);
        let txs = WorkloadBuilder::new(PairWeights::uniform(7)).generate(150, &mut rng);
        Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(11)
            .faults(
                FaultPlan::none()
                    .transient_edge_failure(0.05)
                    .htlc_timeout(0.02, 3),
            )
            .retry(RetryPolicy::fixed(2, 0.01))
            .run()
    };

    // The router alone, on a BA snapshot with filters: every path plus
    // the next routing draw, so a recording-induced draw would show.
    let routes = || {
        let config = SnapshotConfig {
            nodes: 60,
            ..SnapshotConfig::default()
        };
        let pcn = snapshot::generate(&config, &mut StdRng::seed_from_u64(5));
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(5);
        let paths: Vec<Option<Vec<EdgeId>>> = (0..200)
            .map(|i| {
                pcn.sample_shortest_path_filtered(
                    &mut scratch,
                    NodeId(i % 60),
                    NodeId((i * 7 + 1) % 60),
                    1.0,
                    |e| e.index() % 11 != 0,
                    |v| v.index() % 13 != 5,
                    &mut rng,
                )
            })
            .collect();
        (paths, rng.gen::<u64>())
    };

    lcg_obs::set_enabled(false);
    lcg_obs::reset();
    let off = run();
    let routes_off = routes();
    let quiet = lcg_obs::metrics::snapshot();
    lcg_obs::set_enabled(true);
    lcg_obs::reset();
    let on = run();
    let routes_on = routes();
    let recorded = lcg_obs::metrics::snapshot();
    lcg_obs::set_enabled(false);
    lcg_obs::reset();

    assert_eq!(off, on, "simulation report diverged with obs enabled");
    assert_eq!(routes_off, routes_on, "router diverged with obs enabled");
    assert!(routes_on
        .0
        .iter()
        .any(|p| p.as_ref().is_some_and(|p| p.len() > 1)));
    // Route metrics are recorded only while obs is on.
    let visited = |snap: &lcg_obs::metrics::MetricsSnapshot| {
        snap.counter("sim/route/nodes_visited").unwrap_or(0)
    };
    let samples = |snap: &lcg_obs::metrics::MetricsSnapshot, name: &str| {
        snap.histogram(name).map_or(0, |h| h.count)
    };
    assert_eq!(visited(&quiet), 0);
    assert_eq!(samples(&quiet, "sim/route/path_len"), 0);
    assert!(visited(&recorded) > 0);
    assert!(samples(&recorded, "sim/route/path_len") > 0);
    assert!(samples(&recorded, "sim/route/search_ns") > 0);
}
