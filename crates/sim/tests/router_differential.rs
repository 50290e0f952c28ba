//! Differential suite for the live-graph router.
//!
//! `RouteScratch::sample_shortest_path` (and `Pcn::sample_shortest_path*`,
//! which route through it) must return exactly what the slow public
//! composition returns — `DiGraph::filter_edges`, then `bfs::bfs`, then
//! `sample_path_from_tree` — *and* leave the RNG in the same state. Every
//! check below runs both on identically seeded RNGs, compares the paths,
//! then compares the next `u64` each RNG yields, which proves the draws
//! were consumed draw for draw.

use lcg_graph::{bfs, generators, DiGraph, EdgeId, NodeId};
use lcg_sim::engine::{SimReport, Simulation};
use lcg_sim::faults::FaultPlan;
use lcg_sim::fees::{FeeFunction, TxSizeDistribution};
use lcg_sim::network::{sample_path_from_tree, EdgeBalance, Pcn};
use lcg_sim::onchain::{CloseMode, CostModel};
use lcg_sim::retry::RetryPolicy;
use lcg_sim::route::RouteScratch;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, Tx, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Amounts spanning "every edge qualifies" to "most edges are filtered".
const AMOUNTS: [f64; 4] = [0.1, 1.0, 4.0, 12.0];

/// Route filters on top of capacity: banned edges and offline nodes.
#[derive(Default)]
struct Filters {
    avoid: Vec<EdgeId>,
    offline: Vec<NodeId>,
}

impl Filters {
    fn random(g: &DiGraph<(), EdgeBalance>, rng: &mut StdRng) -> Self {
        Filters {
            avoid: g.edge_ids().filter(|_| rng.gen_bool(0.1)).collect(),
            offline: g.node_ids().filter(|_| rng.gen_bool(0.15)).collect(),
        }
    }

    fn edge_ok(&self, e: EdgeId) -> bool {
        !self.avoid.contains(&e)
    }

    fn node_ok(&self, v: NodeId) -> bool {
        !self.offline.contains(&v)
    }
}

/// What the checks saw, so a suite that silently stopped exercising a
/// case fails instead of passing vacuously.
#[derive(Default, Debug)]
struct Tally {
    unreachable: usize,
    empty: usize,
    one_hop: usize,
    multi_hop: usize,
}

impl Tally {
    fn record(&mut self, path: &Option<Vec<EdgeId>>) {
        match path.as_ref().map(Vec::len) {
            None => self.unreachable += 1,
            Some(0) => self.empty += 1,
            Some(1) => self.one_hop += 1,
            Some(_) => self.multi_hop += 1,
        }
    }
}

/// The slow reference: capacity-and-filter copy, full BFS, backward walk.
fn reference(
    g: &DiGraph<(), EdgeBalance>,
    s: NodeId,
    r: NodeId,
    amount: f64,
    f: &Filters,
    rng: &mut StdRng,
) -> Option<Vec<EdgeId>> {
    let reduced = g.filter_edges(|e, u, v, eb| {
        eb.balance + 1e-9 >= amount && f.edge_ok(e) && f.node_ok(u) && f.node_ok(v)
    });
    let tree = bfs::bfs(&reduced, s);
    sample_path_from_tree(&reduced, &tree, r, rng)
}

/// Router on a bare graph vs the reference; returns the shared answer.
fn check_graph(
    g: &DiGraph<(), EdgeBalance>,
    scratch: &mut RouteScratch,
    (s, r, amount): (NodeId, NodeId, f64),
    f: &Filters,
    seed: u64,
) -> Option<Vec<EdgeId>> {
    let mut want_rng = StdRng::seed_from_u64(seed);
    let want = reference(g, s, r, amount, f, &mut want_rng);
    let mut got_rng = StdRng::seed_from_u64(seed);
    let got = scratch.sample_shortest_path(
        g,
        s,
        r,
        |e, eb| eb.balance + 1e-9 >= amount && f.edge_ok(e),
        |v| f.node_ok(v),
        &mut got_rng,
    );
    assert_eq!(got, want, "path {s}->{r} amount {amount} seed {seed}");
    assert_eq!(
        got_rng.gen::<u64>(),
        want_rng.gen::<u64>(),
        "rng stream diverged after {s}->{r} amount {amount} seed {seed}"
    );
    want
}

/// `Pcn::sample_shortest_path_filtered` vs the reference.
fn check_pcn(
    pcn: &Pcn,
    scratch: &mut RouteScratch,
    (s, r, amount): (NodeId, NodeId, f64),
    f: &Filters,
    seed: u64,
) -> Option<Vec<EdgeId>> {
    let mut want_rng = StdRng::seed_from_u64(seed);
    let want = reference(pcn.graph(), s, r, amount, f, &mut want_rng);
    let mut got_rng = StdRng::seed_from_u64(seed);
    let got = pcn.sample_shortest_path_filtered(
        scratch,
        s,
        r,
        amount,
        |e| f.edge_ok(e),
        |v| f.node_ok(v),
        &mut got_rng,
    );
    assert_eq!(got, want, "pcn path {s}->{r} amount {amount} seed {seed}");
    assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>());
    want
}

/// Unfiltered `Pcn::sample_shortest_path` vs `reduced_graph` + BFS + walk.
fn check_unfiltered(pcn: &Pcn, s: NodeId, r: NodeId, amount: f64, seed: u64) {
    let mut want_rng = StdRng::seed_from_u64(seed);
    let reduced = pcn.reduced_graph(amount);
    let tree = bfs::bfs(&reduced, s);
    let want = sample_path_from_tree(&reduced, &tree, r, &mut want_rng);
    let mut got_rng = StdRng::seed_from_u64(seed);
    let got = pcn.sample_shortest_path(s, r, amount, &mut got_rng);
    assert_eq!(got, want, "unfiltered path {s}->{r} amount {amount}");
    assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>());
}

/// Endpoint pairs for one sweep: random pairs, `s == r`, a one-hop
/// receiver and an isolated receiver, over every amount.
fn endpoint_cases(
    g: &DiGraph<(), EdgeBalance>,
    isolated: Option<NodeId>,
    rng: &mut StdRng,
) -> Vec<(NodeId, NodeId, f64)> {
    let live: Vec<NodeId> = g.node_ids().collect();
    let mut cases = Vec::new();
    for _ in 0..40 {
        let s = live[rng.gen_range(0..live.len())];
        let amount = AMOUNTS[rng.gen_range(0..AMOUNTS.len())];
        let r = live[rng.gen_range(0..live.len())];
        cases.push((s, r, amount));
        cases.push((s, s, amount));
        if let Some(e) = g.out_edges(s).next() {
            cases.push((s, g.edge_endpoints(e).unwrap().1, amount));
        }
        if let Some(lonely) = isolated {
            cases.push((s, lonely, amount));
        }
    }
    cases
}

fn ba_host(seed: u64) -> Pcn {
    let config = SnapshotConfig {
        nodes: 90,
        ..SnapshotConfig::default()
    };
    snapshot::generate(&config, &mut StdRng::seed_from_u64(seed))
}

fn er_host(seed: u64) -> Pcn {
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = generators::connected_erdos_renyi(70, 0.06, &mut rng, 200).expect("connected ER");
    let mut pcn = Pcn::from_topology(
        &topo,
        5.0,
        CostModel::default(),
        FeeFunction::Constant { fee: 0.01 },
    );
    // Uneven balances so the capacity filter bites at every amount.
    let edges: Vec<EdgeId> = pcn.graph().edge_ids().collect();
    for e in edges {
        if rng.gen_bool(0.3) {
            pcn.execute_on_path(&[e], rng.gen_range(0.5..4.9)).unwrap();
        }
    }
    pcn
}

fn workload(pcn: &Pcn, n: usize, seed: u64) -> Vec<Tx> {
    WorkloadBuilder::new(PairWeights::uniform(pcn.node_count()))
        .sizes(TxSizeDistribution::Constant { size: 1.0 })
        .generate(n, &mut StdRng::seed_from_u64(seed))
}

/// Every endpoint case on `pcn`, unfiltered and under `rounds` random
/// filter sets, through both the Pcn entry point and the bare router.
fn sweep(pcn: &Pcn, scratch: &mut RouteScratch, rounds: usize, seed: u64, tally: &mut Tally) {
    let mut rng = StdRng::seed_from_u64(seed);
    let isolated = pcn.graph().node_ids().find(|&v| pcn.graph().degree(v) == 0);
    for round in 0..=rounds {
        let filters = if round == 0 {
            Filters::default()
        } else {
            Filters::random(pcn.graph(), &mut rng)
        };
        for (i, case) in endpoint_cases(pcn.graph(), isolated, &mut rng)
            .into_iter()
            .enumerate()
        {
            let call_seed = seed ^ ((round * 1_000 + i) as u64);
            let path = check_pcn(pcn, scratch, case, &filters, call_seed);
            assert_eq!(
                check_graph(pcn.graph(), scratch, case, &filters, call_seed),
                path
            );
            if round == 0 {
                check_unfiltered(pcn, case.0, case.1, case.2, call_seed);
            }
            tally.record(&path);
        }
    }
}

fn assert_covered(tally: &Tally) {
    assert!(tally.unreachable > 0, "no unreachable receiver: {tally:?}");
    assert!(tally.empty > 0, "no s == r case: {tally:?}");
    assert!(tally.one_hop > 0, "no one-hop route: {tally:?}");
    assert!(tally.multi_hop > 0, "no multi-hop route: {tally:?}");
}

#[test]
fn fresh_balances_on_er_and_ba_hosts() {
    let mut scratch = RouteScratch::new();
    let mut tally = Tally::default();
    for seed in 0..3 {
        let mut ba = ba_host(seed);
        ba.add_node(); // an isolated, hence unreachable, receiver
        sweep(&ba, &mut scratch, 3, 100 + seed, &mut tally);
        let mut er = er_host(seed);
        er.add_node();
        sweep(&er, &mut scratch, 3, 200 + seed, &mut tally);
    }
    assert_covered(&tally);
}

#[test]
fn balances_depleted_by_a_prior_run() {
    let mut scratch = RouteScratch::new();
    let mut tally = Tally::default();
    for seed in 0..2 {
        for mut pcn in [ba_host(seed), er_host(seed)] {
            let txs = workload(&pcn, 3_000, seed);
            let report = Simulation::new(&mut pcn).workload(&txs).seed(seed).run();
            assert!(report.succeeded > 0);
            sweep(&pcn, &mut scratch, 2, 300 + seed, &mut tally);
        }
    }
    assert_covered(&tally);
}

#[test]
fn parallel_channels_and_closed_channels() {
    let mut scratch = RouteScratch::new();
    let mut tally = Tally::default();
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let mut pcn = ba_host(seed);
        // Parallel channels next to existing ones: equal-length routes
        // that differ only in the edge taken.
        let doubled: Vec<_> = pcn
            .channels()
            .into_iter()
            .filter(|_| rng.gen_bool(0.2))
            .collect();
        for id in doubled {
            let (u, v) = pcn.graph().edge_endpoints(id.forward).unwrap();
            pcn.open_channel(u, v, rng.gen_range(0.0..15.0), rng.gen_range(0.0..15.0));
        }
        // Tombstones from closed channels.
        for id in pcn.channels().into_iter().filter(|_| rng.gen_bool(0.15)) {
            pcn.close_channel(id, CloseMode::Collaborative).unwrap();
        }
        assert!(pcn.graph().edge_bound() > pcn.graph().edge_count());
        sweep(&pcn, &mut scratch, 3, 500 + seed, &mut tally);
    }
    assert_covered(&tally);
}

#[test]
fn removed_nodes_and_out_of_range_endpoints() {
    let mut scratch = RouteScratch::new();
    let mut tally = Tally::default();
    for seed in 0..3 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let pcn = er_host(seed);
        let mut g = pcn.graph().clone();
        let removed: Vec<NodeId> = g.node_ids().filter(|_| rng.gen_bool(0.1)).collect();
        for &v in &removed {
            g.remove_node(v);
        }
        let live: Vec<NodeId> = g.node_ids().collect();
        let beyond = NodeId(g.node_bound() + 3);
        for round in 0..4 {
            let filters = if round == 0 {
                Filters::default()
            } else {
                Filters::random(&g, &mut rng)
            };
            for case in endpoint_cases(&g, None, &mut rng) {
                let path = check_graph(&g, &mut scratch, case, &filters, rng.gen());
                tally.record(&path);
            }
            // A removed or out-of-range endpoint routes nowhere, on either
            // side, without panicking or drawing.
            for &gone in removed.iter().chain([&beyond]) {
                let other = live[rng.gen_range(0..live.len())];
                for case in [(other, gone, 1.0), (gone, other, 1.0), (gone, gone, 1.0)] {
                    let path = check_graph(&g, &mut scratch, case, &filters, rng.gen());
                    assert_eq!(path, None);
                }
            }
        }
        // The same through a Pcn: an out-of-range receiver or sender.
        let filters = Filters::default();
        let s = live[0];
        for case in [(s, beyond, 1.0), (beyond, s, 1.0)] {
            assert_eq!(check_pcn(&pcn, &mut scratch, case, &filters, 7), None);
            check_unfiltered(&pcn, case.0, case.1, case.2, 7);
        }
    }
    assert!(tally.multi_hop > 0 && tally.empty > 0, "{tally:?}");
}

#[test]
fn scratch_is_reusable_across_graphs_of_different_sizes() {
    // Alternate a large and a small host through one scratch: stale
    // slots of the large graph must never leak into the small one.
    let mut scratch = RouteScratch::new();
    let mut tally = Tally::default();
    let big = ba_host(9);
    let small = Pcn::from_topology(
        &generators::cycle(8),
        3.0,
        CostModel::default(),
        FeeFunction::Constant { fee: 0.0 },
    );
    for seed in 0..4 {
        sweep(&big, &mut scratch, 1, 700 + seed, &mut tally);
        sweep(&small, &mut scratch, 1, 800 + seed, &mut tally);
    }
    assert!(tally.multi_hop > 0);
}

#[test]
fn engine_runs_with_faults_and_retries_are_reproducible() {
    let run = |seed: u64| -> (SimReport, Vec<u64>) {
        let mut pcn = ba_host(11);
        let txs = workload(&pcn, 2_000, 11);
        let until = txs.last().unwrap().time;
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(seed)
            .faults(
                FaultPlan::none()
                    .transient_edge_failure(0.05)
                    .htlc_timeout(0.02, 4)
                    .churn(0.05, 0.0, until)
                    .random_closures(until / 2.0, 3),
            )
            .retry(RetryPolicy::exponential(4, 0.01, 2.0, 0.1))
            .run();
        let balances = pcn
            .graph()
            .edge_ids()
            .map(|e| pcn.balance(e).unwrap().to_bits())
            .collect();
        (report, balances)
    };
    let (a, bal_a) = run(21);
    let (b, bal_b) = run(21);
    assert_eq!(a, b);
    assert_eq!(bal_a, bal_b);
    assert!(a.faults.retry_attempts > 0 && a.faults.offline_rejections > 0);
    assert!(a.succeeded > 0 && a.failed_no_path + a.failed_faulted > 0);
}
