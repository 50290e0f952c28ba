//! `pay` and `pay_faults`: `Simulation::run` over consecutive
//! 1,000-payment slices of a 20,000-payment stream (uniform pairs, size
//! 0.5) on a BA-500 `snapshot::generate` network. The network is cloned
//! fresh at the start of each stream, so balances deplete across its 20
//! slices. `pay_faults` replays the same slices under a fault plan with
//! exponential-backoff retries.

use crate::{same_when_traced, Run, Workload};
use lcg_graph::bfs;
use lcg_graph::EdgeId;
use lcg_obs::span::span;
use lcg_sim::engine::SimReport;
use lcg_sim::fees::TxSizeDistribution;
use lcg_sim::network::sample_path_from_tree;
use lcg_sim::snapshot::{self, SnapshotConfig};
use lcg_sim::workload::{PairWeights, Tx, WorkloadBuilder};
use lcg_sim::{FaultPlan, Pcn, RetryPolicy, RouteError, Simulation};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CATALOG_SEED: u64 = 0xBA50_0000;
const INSTANCES: usize = 2;
const NODES: usize = 500;
const STREAM: usize = 20_000;
const SLICE: usize = 1_000;
const SLICES: usize = STREAM / SLICE;
const PAYMENT_SIZE: f64 = 0.5;
const TRANSIENT_P: f64 = 0.05;
const TIMEOUT_P: f64 = 0.01;
const TIMEOUT_EVENTS: u64 = 5;
const CHURN_P: f64 = 0.02;
/// Largest drift of a channel's total balance that still counts as
/// conserved (float dust from many settle/fail round trips).
const CONSERVATION_TOLERANCE: f64 = 1e-6;

struct Network {
    pcn: Pcn,
    txs: Vec<Tx>,
    /// `(forward, backward, capacity)` of every channel at generation.
    capacities: Vec<(EdgeId, EdgeId, f64)>,
}

pub struct Pay {
    faults: bool,
    networks: Vec<Network>,
}

/// Seed of `Simulation::run` for slice `j` of stream `i`.
fn op_seed(i: usize, j: usize) -> u64 {
    CATALOG_SEED + (i * SLICES + j) as u64
}

fn fault_plan(txs: &[Tx]) -> FaultPlan {
    let until = txs.last().map_or(1.0, |t| t.time + 1.0);
    FaultPlan::none()
        .transient_edge_failure(TRANSIENT_P)
        .htlc_timeout(TIMEOUT_P, TIMEOUT_EVENTS)
        .churn(CHURN_P, 0.0, until)
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy::exponential(4, 0.01, 2.0, 0.1)
}

fn canonical(report: &SimReport, faults: bool) -> String {
    let mut out = format!(
        "ok={} no_path={} capacity={} invalid={} faulted={}",
        report.succeeded,
        report.failed_no_path,
        report.failed_capacity,
        report.failed_invalid,
        report.failed_faulted
    );
    if faults {
        let f = &report.faults;
        out += &format!(
            " transient={} timeouts={} offline={} retries={} recovered={}",
            f.injected_transient,
            f.injected_timeouts,
            f.offline_rejections,
            f.retry_attempts,
            f.recovered_by_retry
        );
    }
    out
}

/// Every payment lands in exactly one outcome, and every channel still
/// holds its capacity.
fn check(report: &SimReport, slice_len: usize, network: &Network, pcn: &Pcn) -> bool {
    let outcomes = report.succeeded
        + report.failed_no_path
        + report.failed_capacity
        + report.failed_invalid
        + report.failed_faulted;
    let partitioned = report.attempted == slice_len as u64 && outcomes == report.attempted;
    if !partitioned {
        eprintln!(
            "pay: {} outcomes for {} attempted of {slice_len} payments",
            outcomes, report.attempted
        );
    }
    let conserved = network.capacities.iter().all(|&(f, b, cap)| {
        let total = pcn.balance(f).unwrap_or(f64::NAN) + pcn.balance(b).unwrap_or(f64::NAN);
        let ok = (total - cap).abs() <= CONSERVATION_TOLERANCE;
        if !ok {
            eprintln!("pay: channel {f:?}/{b:?} holds {total}, capacity {cap}");
        }
        ok
    });
    partitioned && conserved
}

/// What the layer-by-layer replay of one slice produced.
#[derive(Debug, Default)]
struct Replay {
    attempted: u64,
    succeeded: u64,
    failed_no_path: u64,
    failed_capacity: u64,
    failed_invalid: u64,
    volume_delivered: f64,
    total_fees: f64,
    edge_usage: Vec<u64>,
}

/// Replays a fault-free slice through the public routing steps the
/// engine uses, one span per step: `reduced_graph`, `bfs`,
/// `sample_path_from_tree` (together `sim/route`), then
/// `execute_on_path`, with the op's routing seed.
fn replay(pcn: &mut Pcn, txs: &[Tx], seed: u64) -> Replay {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Replay {
        edge_usage: vec![0; pcn.graph().edge_bound()],
        ..Replay::default()
    };
    for tx in txs {
        out.attempted += 1;
        let amount = tx.size;
        let valid = amount > 0.0
            && amount.is_finite()
            && pcn.graph().contains_node(tx.sender)
            && pcn.graph().contains_node(tx.receiver)
            && tx.sender != tx.receiver;
        if !valid {
            out.failed_invalid += 1;
            continue;
        }
        let path = {
            let _route = span("bench/sim/route");
            let reduced = {
                let _s = span("bench/graph/filter_edges");
                pcn.reduced_graph(amount)
            };
            let tree = {
                let _s = span("bench/graph/bfs");
                bfs::bfs(&reduced, tx.sender)
            };
            let _s = span("bench/sim/path_sample");
            sample_path_from_tree(&reduced, &tree, tx.receiver, &mut rng)
        };
        let Some(path) = path else {
            out.failed_no_path += 1;
            continue;
        };
        let _s = span("bench/sim/execute");
        match pcn.execute_on_path(&path, amount) {
            Ok(receipt) => {
                out.succeeded += 1;
                out.volume_delivered += amount;
                out.total_fees += receipt.fees_paid;
                for e in &path {
                    out.edge_usage[e.index()] += 1;
                }
            }
            Err(RouteError::InsufficientCapacity { .. }) => out.failed_capacity += 1,
            Err(_) => out.failed_invalid += 1,
        }
    }
    out
}

/// The replay reproduced the engine's report and final balances bit for
/// bit.
fn replay_matches(r: &Replay, report: &SimReport, replayed: &Pcn, engine: &Pcn) -> bool {
    let counts = (
        r.attempted,
        r.succeeded,
        r.failed_no_path,
        r.failed_capacity,
        r.failed_invalid,
    ) == (
        report.attempted,
        report.succeeded,
        report.failed_no_path,
        report.failed_capacity,
        report.failed_invalid,
    ) && report.failed_faulted == 0;
    let sums = r.volume_delivered.to_bits() == report.volume_delivered.to_bits()
        && r.total_fees.to_bits() == report.total_fees.to_bits()
        && r.edge_usage == report.edge_usage;
    let balances = engine
        .graph()
        .edge_ids()
        .all(|e| engine.balance(e).map(f64::to_bits) == replayed.balance(e).map(f64::to_bits));
    counts && sums && balances
}

impl Pay {
    pub fn setup(faults: bool) -> Pay {
        let config = SnapshotConfig {
            nodes: NODES,
            ..SnapshotConfig::default()
        };
        let networks = (0..INSTANCES)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(CATALOG_SEED + i as u64);
                let pcn = {
                    let _s = span("bench/sim/snapshot");
                    snapshot::generate(&config, &mut rng)
                };
                let txs = {
                    let _s = span("bench/sim/workload");
                    WorkloadBuilder::new(PairWeights::uniform(pcn.node_count()))
                        .sizes(TxSizeDistribution::Constant { size: PAYMENT_SIZE })
                        .generate(STREAM, &mut rng)
                };
                let capacities = pcn
                    .channels()
                    .iter()
                    .map(|c| {
                        let cap = pcn.balance(c.forward).expect("live channel")
                            + pcn.balance(c.backward).expect("live channel");
                        (c.forward, c.backward, cap)
                    })
                    .collect();
                Network {
                    pcn,
                    txs,
                    capacities,
                }
            })
            .collect();
        Pay { faults, networks }
    }

    fn simulate(&self, pcn: &mut Pcn, txs: &[Tx], seed: u64, stream: &[Tx]) -> SimReport {
        let sim = Simulation::new(pcn).workload(txs).seed(seed);
        if self.faults {
            sim.faults(fault_plan(stream)).retry(retry_policy()).run()
        } else {
            sim.run()
        }
    }
}

impl Workload for Pay {
    fn instances(&self) -> usize {
        self.networks.len()
    }

    fn run_instance(&mut self, i: usize, run: &mut Run) {
        let network = &self.networks[i];
        let name = if self.faults { "pay_faults" } else { "pay" };
        let mut pcn = network.pcn.clone();
        // The traced run keeps its own copies: one for the traced engine
        // run, one for the layer-by-layer replay (fault-free only).
        let mut traced_pcn = run.tracer.is_some().then(|| network.pcn.clone());
        let mut replay_pcn = (run.tracer.is_some() && !self.faults).then(|| network.pcn.clone());
        for j in 0..SLICES {
            if j > 0 && run.expired() {
                break;
            }
            let txs = &network.txs[j * SLICE..(j + 1) * SLICE];
            let seed = op_seed(i, j);
            let (report, ms, traced) = run.op(
                || self.simulate(&mut pcn, txs, seed, &network.txs),
                || {
                    let traced_pcn = traced_pcn.as_mut().expect("traced copy");
                    self.simulate(traced_pcn, txs, seed, &network.txs)
                },
            );
            let output = canonical(&report, self.faults);
            let mut ok = check(&report, txs.len(), network, &pcn)
                && traced
                    .as_ref()
                    .is_none_or(|t| same_when_traced(&output, &canonical(t, self.faults)));
            let key = format!("{name}/{i}/{j}");
            if let (Some(t), Some(traced)) = (run.tracer.as_mut(), traced) {
                t.path_hops += traced.edge_usage.iter().sum::<u64>();
                t.paths += traced.succeeded;
                if let Some(replay_pcn) = replay_pcn.as_mut() {
                    let replayed = t.probe(|| replay(replay_pcn, txs, seed));
                    t.replayed_ops += 1;
                    if !replay_matches(&replayed, &report, replay_pcn, &pcn) {
                        eprintln!("{key}: layer replay diverged from Simulation::run");
                        t.replay_mismatched_ops += 1;
                        ok = false;
                    }
                }
            }
            run.payments += report.attempted;
            run.finish_op(&key, ms, &output, ok);
        }
    }

    fn derivation(&self) -> String {
        format!(
            "stream i: StdRng::seed_from_u64({CATALOG_SEED:#x} + i) draws a BA-{NODES} snapshot \
             then {STREAM} uniform payments of size {PAYMENT_SIZE}; slice j of stream i runs \
             Simulation seed {CATALOG_SEED:#x} + {SLICES}*i + j{}",
            if self.faults {
                format!(
                    " with transient {TRANSIENT_P}, HTLC timeout {TIMEOUT_P} \
                     ({TIMEOUT_EVENTS} events), churn {CHURN_P} and \
                     RetryPolicy::exponential(4, 0.01, 2.0, 0.1); a traced run reports \
                     only the program's counters here, with no layer replay"
                )
            } else {
                String::new()
            }
        )
    }
}
