//! Discrete-event payment simulation.
//!
//! Replays a generated transaction stream against a [`Pcn`], recording the
//! outcome of every payment, per-edge usage counts and per-node fee flows.
//! Experiment E12 uses this engine to validate the paper's analytic rate
//! estimator (`λ_e = N · p_e`, Eq. 2) against observed edge usage: the
//! analytic model assumes capacities never bind, so the engine is run with
//! either generous balances (validation mode) or realistic balances
//! (depletion studies — an extension beyond the paper).
//!
//! Runs are configured through the [`Simulation`] builder, which owns the
//! seed, an optional [`FaultPlan`] and an optional [`RetryPolicy`]. Every
//! payment is executed through the two-phase [`Htlc`] state machine
//! (lock, then settle or fail), so injected faults release locks along
//! the exact protocol path a real network would take. Fault decisions are
//! drawn from a fault-owned RNG stream derived from the seed — an empty
//! plan consumes zero routing draws and reproduces the fault-free engine
//! bit for bit.

use crate::faults::{CompiledFaults, FaultPlan, FaultStats};
use crate::htlc::Htlc;
use crate::network::{Pcn, RouteError};
use crate::retry::RetryPolicy;
use crate::route::RouteScratch;
use crate::workload::Tx;
use lcg_graph::{EdgeId, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Salt xor-ed into the simulation seed to derive the fault RNG stream,
/// keeping fault draws off the routing stream.
const FAULT_STREAM_SALT: u64 = 0x5EED_FA17_C0FF_EE01;

/// Aggregate results of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Transactions attempted.
    pub attempted: u64,
    /// Transactions delivered.
    pub succeeded: u64,
    /// Failures: no route existed in the capacity-reduced graph.
    pub failed_no_path: u64,
    /// Failures: a hop could not carry amount + downstream fees.
    pub failed_capacity: u64,
    /// Failures: malformed transactions (self-payments, zero amounts).
    pub failed_invalid: u64,
    /// Failures: the transaction was hit by an injected fault (transient
    /// hop failure, stuck-HTLC timeout or offline endpoint) and retries,
    /// if any, did not deliver it. Always zero without a [`FaultPlan`].
    #[serde(default)]
    pub failed_faulted: u64,
    /// Total coins delivered end-to-end.
    pub volume_delivered: f64,
    /// Total routing fees paid by senders (= earned by intermediaries).
    pub total_fees: f64,
    /// Number of *successful* payments that traversed each directed edge,
    /// indexed by `EdgeId::index()`.
    pub edge_usage: Vec<u64>,
    /// Fees earned per node over the run, indexed by `NodeId::index()`.
    pub node_revenue: Vec<f64>,
    /// Fees paid per node (as sender) over the run.
    pub node_fees_paid: Vec<f64>,
    /// Simulated time horizon (arrival time of the last transaction).
    pub horizon: f64,
    /// Fault-injection and retry accounting (all zero without a plan).
    #[serde(default)]
    pub faults: FaultStats,
}

impl SimReport {
    /// Fraction of attempted payments that were delivered; 0.0 for an
    /// empty stream (nothing was delivered, so no NaN and no vacuous
    /// 100%).
    pub fn success_rate(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.succeeded as f64 / self.attempted as f64
    }

    /// Observed usage rate of edge `e` (traversals per unit time); compare
    /// against the analytic `λ_e`. 0.0 when the horizon is empty.
    pub fn edge_rate(&self, e: lcg_graph::EdgeId) -> f64 {
        if self.horizon <= 0.0 {
            return 0.0;
        }
        self.edge_usage.get(e.index()).copied().unwrap_or(0) as f64 / self.horizon
    }

    /// Observed fee-revenue rate of `u` per unit time; compare against the
    /// analytic `E^rev_u` (Eq. 3). 0.0 when the horizon is empty.
    pub fn revenue_rate(&self, u: NodeId) -> f64 {
        if self.horizon <= 0.0 {
            return 0.0;
        }
        self.node_revenue.get(u.index()).copied().unwrap_or(0.0) / self.horizon
    }

    /// Failures whose final cause was organic (routing, capacity,
    /// malformed input) rather than an injected fault.
    pub fn organic_failures(&self) -> u64 {
        self.failed_no_path + self.failed_capacity + self.failed_invalid
    }

    /// Failures caused by injected faults (see [`SimReport::failed_faulted`]).
    pub fn injected_failures(&self) -> u64 {
        self.failed_faulted
    }
}

/// Builder for a simulation run: network, workload, seed, faults, retry.
///
/// # Examples
///
/// ```
/// use lcg_sim::engine::Simulation;
/// use lcg_sim::network::Pcn;
/// use lcg_sim::workload::{PairWeights, WorkloadBuilder};
/// use lcg_sim::fees::FeeFunction;
/// use lcg_sim::onchain::CostModel;
/// use rand::SeedableRng;
///
/// let topo = lcg_graph::generators::star(4);
/// let mut pcn = Pcn::from_topology(&topo, 1_000.0, CostModel::default(),
///                                  FeeFunction::Constant { fee: 0.01 });
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let txs = WorkloadBuilder::new(PairWeights::uniform(5)).generate(200, &mut rng);
/// let report = Simulation::new(&mut pcn).workload(&txs).seed(1).run();
/// assert_eq!(report.attempted, 200);
/// assert!(report.success_rate() > 0.99);
/// ```
///
/// With faults and retries:
///
/// ```
/// # use lcg_sim::engine::Simulation;
/// # use lcg_sim::network::Pcn;
/// # use lcg_sim::workload::{PairWeights, WorkloadBuilder};
/// # use lcg_sim::fees::FeeFunction;
/// # use lcg_sim::onchain::CostModel;
/// use lcg_sim::faults::FaultPlan;
/// use lcg_sim::retry::RetryPolicy;
/// # use rand::SeedableRng;
/// # let topo = lcg_graph::generators::star(4);
/// # let mut pcn = Pcn::from_topology(&topo, 1_000.0, CostModel::default(),
/// #                                  FeeFunction::Constant { fee: 0.01 });
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// # let txs = WorkloadBuilder::new(PairWeights::uniform(5)).generate(200, &mut rng);
/// let report = Simulation::new(&mut pcn)
///     .workload(&txs)
///     .seed(1)
///     .faults(FaultPlan::none().transient_edge_failure(0.05))
///     .retry(RetryPolicy::exponential(3, 0.01, 2.0, 0.1))
///     .run();
/// assert_eq!(report.attempted, 200);
/// ```
#[derive(Debug)]
pub struct Simulation<'a> {
    pcn: &'a mut Pcn,
    txs: &'a [Tx],
    seed: u64,
    faults: FaultPlan,
    retry: RetryPolicy,
}

impl<'a> Simulation<'a> {
    /// Starts configuring a run against `pcn` (empty workload, seed 0, no
    /// faults, no retries).
    pub fn new(pcn: &'a mut Pcn) -> Self {
        Simulation {
            pcn,
            txs: &[],
            seed: 0,
            faults: FaultPlan::none(),
            retry: RetryPolicy::none(),
        }
    }

    /// The transaction stream to replay (typically from
    /// [`crate::workload::WorkloadBuilder::generate`]; any slice works,
    /// which the tests use to craft adversarial sequences).
    pub fn workload(mut self, txs: &'a [Tx]) -> Self {
        self.txs = txs;
        self
    }

    /// Seed for the run. The routing stream is seeded with it directly;
    /// the fault stream with a salted variant — so the same seed, plan
    /// and workload reproduce a bit-identical [`SimReport`].
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Faults to inject (default: none).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Retry policy for failed payments (default: no retries).
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Executes the run.
    pub fn run(self) -> SimReport {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let faults = CompiledFaults::compile(&self.faults, self.seed ^ FAULT_STREAM_SALT, self.pcn);
        run_core(self.pcn, self.txs, &mut rng, faults, &self.retry)
    }
}

/// One payment in flight, pending a stuck-HTLC timeout.
struct PendingHtlc {
    htlc: Htlc,
    tx: Tx,
    /// Arrival-event index at which the lock times out.
    deadline: u64,
    /// Arrival-event index at which the lock was taken.
    lock_event: u64,
    /// Attempts consumed so far (including the one that got stuck).
    attempts: u32,
}

/// Outcome of a single routing + lock attempt.
enum Attempt {
    Delivered {
        path: Vec<EdgeId>,
        fees: f64,
    },
    Stuck {
        htlc: Htlc,
    },
    Failed {
        kind: FailKind,
        culprit: Option<EdgeId>,
    },
}

#[derive(Clone, Copy, PartialEq)]
enum FailKind {
    Invalid,
    NoPath,
    Capacity,
    Transient,
    Offline,
}

/// The engine proper: replays `txs` in order, sampling uniformly among
/// shortest paths for each payment.
pub(crate) fn run_core<R: Rng + ?Sized>(
    pcn: &mut Pcn,
    txs: &[Tx],
    rng: &mut R,
    faults: CompiledFaults,
    retry: &RetryPolicy,
) -> SimReport {
    let report = SimReport {
        attempted: 0,
        succeeded: 0,
        failed_no_path: 0,
        failed_capacity: 0,
        failed_invalid: 0,
        failed_faulted: 0,
        volume_delivered: 0.0,
        total_fees: 0.0,
        edge_usage: vec![0; pcn.graph().edge_bound()],
        node_revenue: vec![0.0; pcn.graph().node_bound()],
        node_fees_paid: vec![0.0; pcn.graph().node_bound()],
        horizon: txs.last().map_or(0.0, |t| t.time),
        faults: FaultStats::default(),
    };
    let mut sim_span = lcg_obs::span::span("sim/simulate");
    sim_span.field_u64("transactions", txs.len() as u64);
    sim_span.field_bool("faults", faults.active);
    let observe = sim_span.is_recording();
    let mut run = Run {
        pcn,
        rng,
        faults,
        retry,
        pending: Vec::new(),
        scratch: RouteScratch::new(),
        report,
    };
    let mut events: u64 = 0;
    for tx in txs {
        events += 1;
        run.faults
            .fire_due_closures(run.pcn, tx.time, &mut run.report.faults);
        run.drain_expired(events, false);
        run.report.attempted += 1;
        if observe {
            lcg_obs::counter!("sim/payments/attempted").inc();
        }
        run.attempt_payment(tx, 1, false, events);
    }
    // End of stream: every still-pending HTLC reaches its deadline (and
    // takes any remaining retries), so all attempts resolve and the
    // outcome counters partition `attempted`.
    run.drain_expired(events, true);
    let report = run.report;
    if observe {
        lcg_obs::counter!("sim/payments/succeeded").add(report.succeeded);
        lcg_obs::counter!("sim/payments/failed_no_path").add(report.failed_no_path);
        lcg_obs::counter!("sim/payments/failed_capacity").add(report.failed_capacity);
        lcg_obs::counter!("sim/payments/failed_invalid").add(report.failed_invalid);
        lcg_obs::counter!("sim/payments/failed_faulted").add(report.failed_faulted);
        lcg_obs::counter!("sim/retry/attempts").add(report.faults.retry_attempts);
        lcg_obs::counter!("sim/retry/recovered").add(report.faults.recovered_by_retry);
    }
    report
}

/// The mutable state of one run: the network, both RNG streams (routing
/// here, faults inside `faults`), HTLCs awaiting their timeout, the
/// report being built and the router's reusable buffers.
struct Run<'a, R: Rng + ?Sized> {
    pcn: &'a mut Pcn,
    rng: &'a mut R,
    faults: CompiledFaults,
    retry: &'a RetryPolicy,
    pending: Vec<PendingHtlc>,
    scratch: RouteScratch,
    report: SimReport,
}

impl<R: Rng + ?Sized> Run<'_, R> {
    /// Fails every pending HTLC whose deadline has passed (all of them on
    /// the `final_flush`) through `Htlc::fail`, then lets the payment
    /// spend its remaining retry budget.
    fn drain_expired(&mut self, now: u64, final_flush: bool) {
        let mut i = 0;
        while i < self.pending.len() {
            if !final_flush && self.pending[i].deadline > now {
                i += 1;
                continue;
            }
            let PendingHtlc {
                htlc,
                tx,
                deadline,
                lock_event,
                attempts,
            } = self.pending.remove(i);
            // On the final flush the stream ended before the deadline
            // tick; the lock would have dwelled until exactly its deadline.
            let resolve_at = if final_flush { deadline } else { now };
            let dwell = resolve_at.saturating_sub(lock_event);
            htlc.fail(self.pcn);
            self.report.faults.injected_timeouts += 1;
            self.report.faults.record_dwell(dwell);
            if lcg_obs::enabled() {
                lcg_obs::counter!("sim/faults/injected_timeouts").inc();
                lcg_obs::histogram!("sim/faults/stuck_dwell_events").record(dwell);
            }
            self.attempt_payment(&tx, attempts + 1, true, resolve_at);
        }
    }

    /// Runs a payment from its `first_attempt`-th try until it settles,
    /// gets stuck (deferred to `pending`), or exhausts its retry budget.
    /// Retries re-route while avoiding hops that already failed this
    /// payment.
    fn attempt_payment(&mut self, tx: &Tx, first_attempt: u32, mut faulted: bool, lock_event: u64) {
        let mut avoid: Vec<EdgeId> = Vec::new();
        let mut delay = 0.0;
        let mut attempt = first_attempt;
        loop {
            if attempt > self.retry.max_attempts {
                // Only reachable when a timeout resolved on the last
                // allowed attempt: the budget is gone before this try
                // could run.
                self.report.failed_faulted += 1;
                return;
            }
            if attempt > 1 {
                self.report.faults.retry_attempts += 1;
            }
            if attempt > first_attempt {
                delay += jittered_delay(self.retry, attempt - 1, &mut self.faults);
            }
            let now = tx.time + delay;
            match self.try_once(tx, now, &avoid) {
                Attempt::Delivered { path, fees } => {
                    record_success(&mut self.report, tx, &path, fees, self.pcn);
                    if faulted {
                        self.report.faults.recovered_by_retry += 1;
                    }
                    return;
                }
                Attempt::Stuck { htlc } => {
                    // Resumed as faulted after the timeout, so the tx
                    // counts as faulted from here on.
                    if !faulted {
                        self.report.faults.txs_faulted += 1;
                    }
                    self.pending.push(PendingHtlc {
                        htlc,
                        tx: *tx,
                        deadline: lock_event + self.faults.stuck_timeout,
                        lock_event,
                        attempts: attempt,
                    });
                    return; // outcome resolves at the deadline
                }
                Attempt::Failed { kind, culprit } => {
                    let injected = matches!(kind, FailKind::Transient | FailKind::Offline);
                    if injected && !faulted {
                        faulted = true;
                        self.report.faults.txs_faulted += 1;
                    }
                    // Only capacity failures ban the culprit hop: the edge
                    // deterministically cannot carry the amount, so
                    // retries must re-route around it. Transient failures
                    // are memoryless — the same route may work on the
                    // next try.
                    if kind == FailKind::Capacity {
                        if let Some(e) = culprit {
                            avoid.push(e);
                        }
                    }
                    if kind != FailKind::Invalid && attempt < self.retry.max_attempts {
                        attempt += 1;
                        continue;
                    }
                    // Terminal. A payment that was ever hit by a fault
                    // counts against the plan; pure-organic failures keep
                    // the legacy buckets (so an empty plan reproduces
                    // them exactly).
                    let report = &mut self.report;
                    match kind {
                        FailKind::Invalid => report.failed_invalid += 1,
                        _ if faulted => report.failed_faulted += 1,
                        FailKind::NoPath => report.failed_no_path += 1,
                        FailKind::Capacity => report.failed_capacity += 1,
                        FailKind::Transient | FailKind::Offline => unreachable!("faulted set"),
                    }
                    return;
                }
            }
        }
    }

    /// One routing + HTLC attempt. Validation order matches the legacy
    /// `Pcn::pay_with_rng` exactly (checks before any RNG draw), and the
    /// success path is lock + settle — state-identical to the one-shot
    /// `execute_on_path`.
    fn try_once(&mut self, tx: &Tx, now: f64, avoid: &[EdgeId]) -> Attempt {
        let amount = tx.size;
        if amount <= 0.0 || amount.is_nan() || amount.is_infinite() {
            return Attempt::Failed {
                kind: FailKind::Invalid,
                culprit: None,
            };
        }
        for node in [tx.sender, tx.receiver] {
            if !self.pcn.graph().contains_node(node) {
                return Attempt::Failed {
                    kind: FailKind::Invalid,
                    culprit: None,
                };
            }
        }
        if tx.sender == tx.receiver {
            return Attempt::Failed {
                kind: FailKind::Invalid,
                culprit: None,
            };
        }
        let faults = &mut self.faults;
        if faults.offline_at(tx.sender, now) || faults.offline_at(tx.receiver, now) {
            self.report.faults.offline_rejections += 1;
            if lcg_obs::enabled() {
                lcg_obs::counter!("sim/faults/offline_rejections").inc();
            }
            return Attempt::Failed {
                kind: FailKind::Offline,
                culprit: None,
            };
        }
        let pcn = &mut *self.pcn;
        let Some(path) = pcn.sample_shortest_path_filtered(
            &mut self.scratch,
            tx.sender,
            tx.receiver,
            amount,
            |e| !avoid.contains(&e),
            |v| !faults.offline_at(v, now),
            &mut *self.rng,
        ) else {
            return Attempt::Failed {
                kind: FailKind::NoPath,
                culprit: None,
            };
        };
        match Htlc::lock(pcn, &path, amount) {
            Err(RouteError::InsufficientCapacity { edge, .. }) => Attempt::Failed {
                kind: FailKind::Capacity,
                culprit: Some(edge),
            },
            Err(_) => Attempt::Failed {
                kind: FailKind::Invalid,
                culprit: None,
            },
            Ok(htlc) => {
                if faults.transient_p > 0.0 {
                    for e in &path {
                        if faults.rng.gen_bool(faults.transient_p) {
                            htlc.fail(pcn);
                            self.report.faults.injected_transient += 1;
                            if lcg_obs::enabled() {
                                lcg_obs::counter!("sim/faults/injected_transient").inc();
                            }
                            return Attempt::Failed {
                                kind: FailKind::Transient,
                                culprit: Some(*e),
                            };
                        }
                    }
                }
                if faults.stuck_p > 0.0 && faults.rng.gen_bool(faults.stuck_p) {
                    return Attempt::Stuck { htlc };
                }
                let fees = htlc.total_fees();
                htlc.settle(pcn);
                Attempt::Delivered { path, fees }
            }
        }
    }
}

/// Backoff delay before retry `k`, jittered from the fault RNG stream.
fn jittered_delay(retry: &RetryPolicy, k: u32, faults: &mut CompiledFaults) -> f64 {
    let base = retry.base_delay(k);
    if retry.jitter > 0.0 && base > 0.0 {
        base * faults
            .rng
            .gen_range((1.0 - retry.jitter)..(1.0 + retry.jitter))
    } else {
        base
    }
}

/// Books a delivered payment into the report (same bookkeeping as the
/// legacy engine, with intermediaries read off the settled path).
fn record_success(report: &mut SimReport, tx: &Tx, path: &[EdgeId], fees: f64, pcn: &Pcn) {
    report.succeeded += 1;
    report.volume_delivered += tx.size;
    report.total_fees += fees;
    for e in path {
        if e.index() >= report.edge_usage.len() {
            report.edge_usage.resize(e.index() + 1, 0);
        }
        report.edge_usage[e.index()] += 1;
    }
    let intermediaries: Vec<NodeId> = path
        .iter()
        .skip(1)
        .map(|e| pcn.graph().edge_endpoints(*e).expect("settled edge").0)
        .collect();
    let per_hop = if intermediaries.is_empty() {
        0.0
    } else {
        fees / intermediaries.len() as f64
    };
    for v in &intermediaries {
        report.node_revenue[v.index()] += per_hop;
    }
    report.node_fees_paid[tx.sender.index()] += fees;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fees::{FeeFunction, TxSizeDistribution};
    use crate::onchain::CostModel;
    use crate::workload::{PairWeights, WorkloadBuilder};
    use lcg_graph::generators;

    fn star_pcn(balance: f64, fee: f64) -> Pcn {
        Pcn::from_topology(
            &generators::star(4),
            balance,
            CostModel::default(),
            FeeFunction::Constant { fee },
        )
    }

    fn star_txs(seed: u64, n: usize, size: Option<f64>) -> Vec<Tx> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = WorkloadBuilder::new(PairWeights::uniform(5));
        if let Some(size) = size {
            b = b.sizes(TxSizeDistribution::Constant { size });
        }
        b.generate(n, &mut rng)
    }

    #[test]
    fn generous_balances_deliver_everything() {
        let mut pcn = star_pcn(1_000_000.0, 0.01);
        let txs = star_txs(2, 1_000, Some(1.0));
        let report = Simulation::new(&mut pcn).workload(&txs).seed(2).run();
        assert_eq!(report.succeeded, 1_000);
        assert_eq!(report.success_rate(), 1.0);
        assert!((report.volume_delivered - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn hub_earns_all_fees_in_a_star() {
        let mut pcn = star_pcn(1_000_000.0, 0.5);
        let txs = star_txs(3, 500, None);
        let report = Simulation::new(&mut pcn).workload(&txs).seed(3).run();
        let hub_rev = report.node_revenue[0];
        let total: f64 = report.node_revenue.iter().sum();
        assert!((hub_rev - total).abs() < 1e-9, "non-hub revenue detected");
        assert!((report.total_fees - total).abs() < 1e-9);
        // Leaf-to-leaf payments dominate: 3/4 of receivers are other leaves.
        assert!(hub_rev > 0.0);
    }

    #[test]
    fn tight_balances_cause_capacity_failures() {
        let mut pcn = star_pcn(3.0, 0.0);
        let txs = star_txs(4, 300, Some(2.0));
        let report = Simulation::new(&mut pcn).workload(&txs).seed(4).run();
        assert!(report.succeeded > 0, "some payments should pass");
        assert!(
            report.failed_no_path + report.failed_capacity > 0,
            "depletion must eventually block payments"
        );
        assert_eq!(
            report.attempted,
            report.succeeded
                + report.failed_no_path
                + report.failed_capacity
                + report.failed_invalid
                + report.failed_faulted
        );
        assert_eq!(report.failed_faulted, 0, "no plan, no injected failures");
    }

    #[test]
    fn edge_usage_counts_successful_traversals() {
        let mut pcn = star_pcn(1_000_000.0, 0.0);
        let txs = star_txs(5, 400, None);
        let report = Simulation::new(&mut pcn).workload(&txs).seed(5).run();
        let total_usage: u64 = report.edge_usage.iter().sum();
        // Leaf->leaf = 2 hops, leaf<->hub = 1 hop; every success ≥ 1 hop.
        assert!(total_usage >= report.succeeded);
        assert!(total_usage <= 2 * report.succeeded);
    }

    #[test]
    fn empty_stream_reports_cleanly() {
        let mut pcn = star_pcn(10.0, 0.0);
        let report = Simulation::new(&mut pcn).seed(6).run();
        assert_eq!(report.attempted, 0);
        assert_eq!(report.horizon, 0.0);
        // Regression: empty streams report 0.0 (not NaN, not a vacuous
        // 100%) from every rate accessor.
        assert_eq!(report.success_rate(), 0.0);
        assert_eq!(report.edge_rate(EdgeId(0)), 0.0);
        assert_eq!(report.revenue_rate(NodeId(0)), 0.0);
        assert!(report.success_rate().is_finite());
    }

    #[test]
    fn edge_rate_normalizes_by_horizon() {
        let mut pcn = star_pcn(1_000_000.0, 0.0);
        let mut rng = StdRng::seed_from_u64(7);
        let txs = WorkloadBuilder::new(PairWeights::uniform(5))
            .sender_rates(vec![1.0; 5])
            .generate(2_000, &mut rng);
        let report = Simulation::new(&mut pcn).workload(&txs).seed(7).run();
        // Total traversal rate = sum of edge rates; must be between the
        // arrival rate (all 1-hop) and twice it (all 2-hop), N = 5.
        let total_rate: f64 = pcn.graph().edge_ids().map(|e| report.edge_rate(e)).sum();
        assert!(total_rate > 5.0 * 0.9, "rate {total_rate}");
        assert!(total_rate < 10.0 * 1.1, "rate {total_rate}");
    }

    #[test]
    fn self_payments_count_as_invalid() {
        let mut pcn = star_pcn(10.0, 0.0);
        let txs = vec![Tx {
            time: 1.0,
            sender: NodeId(1),
            receiver: NodeId(1),
            size: 1.0,
        }];
        let report = Simulation::new(&mut pcn).workload(&txs).seed(8).run();
        assert_eq!(report.failed_invalid, 1);
    }

    #[test]
    fn builder_matches_legacy_engine_bit_for_bit() {
        // An empty plan injects nothing, exactly like
        // `CompiledFaults::inert`; the builder must reproduce a direct
        // `run_core` call on the inert faults bit for bit.
        let txs = star_txs(9, 500, None);
        let mut a = star_pcn(20.0, 0.1);
        let report_a = Simulation::new(&mut a).workload(&txs).seed(9).run();
        let mut b = star_pcn(20.0, 0.1);
        let mut rng = StdRng::seed_from_u64(9);
        let report_b = run_core(
            &mut b,
            &txs,
            &mut rng,
            CompiledFaults::inert(),
            &RetryPolicy::none(),
        );
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn transient_faults_fail_payments_without_leaking_balance() {
        let txs = star_txs(10, 400, Some(1.0));
        let mut pcn = star_pcn(1_000_000.0, 0.0);
        let total_before: f64 = pcn
            .graph()
            .edge_ids()
            .map(|e| pcn.balance(e).unwrap())
            .sum();
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(10)
            .faults(FaultPlan::none().transient_edge_failure(0.2))
            .run();
        assert!(report.failed_faulted > 0, "faults must bite at p = 0.2");
        assert!(report.faults.injected_transient > 0);
        assert_eq!(
            report.attempted,
            report.succeeded
                + report.failed_no_path
                + report.failed_capacity
                + report.failed_invalid
                + report.failed_faulted
        );
        // Failed HTLCs release their locks: no coins created or destroyed.
        let total_after: f64 = pcn
            .graph()
            .edge_ids()
            .map(|e| pcn.balance(e).unwrap())
            .sum();
        assert!(
            (total_before - total_after).abs() < 1e-6,
            "coins leaked: {total_before} -> {total_after}"
        );
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let txs = star_txs(11, 600, Some(1.0));
        let run = |retry: RetryPolicy| {
            let mut pcn = star_pcn(1_000_000.0, 0.0);
            Simulation::new(&mut pcn)
                .workload(&txs)
                .seed(11)
                .faults(FaultPlan::none().transient_edge_failure(0.15))
                .retry(retry)
                .run()
        };
        let without = run(RetryPolicy::none());
        let with = run(RetryPolicy::fixed(4, 0.0));
        assert!(with.succeeded > without.succeeded, "retries must help");
        assert!(with.faults.retry_attempts > 0);
        assert!(with.faults.recovered_by_retry > 0);
        assert!(with.faults.recovery_rate() > 0.5);
    }

    #[test]
    fn stuck_htlcs_hold_then_release_liquidity() {
        // Single-channel network, every payment stuck: while pending, the
        // reservation starves the channel; after the timeout the balance
        // is restored and accounting shows pure timeouts.
        let mut pcn = Pcn::new(CostModel::default(), FeeFunction::Constant { fee: 0.0 });
        let a = pcn.add_node();
        let b = pcn.add_node();
        pcn.open_channel(a, b, 10.0, 10.0);
        let e = pcn.graph().find_edge(a, b).unwrap();
        let txs: Vec<Tx> = (0..4)
            .map(|i| Tx {
                time: i as f64,
                sender: a,
                receiver: b,
                size: 4.0,
            })
            .collect();
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(12)
            .faults(FaultPlan::none().htlc_timeout(1.0, 100))
            .run();
        assert_eq!(report.succeeded, 0);
        // 10.0 of balance fits two 4.0 locks; the rest find no path while
        // the locks dwell (their failure is fault-induced starvation).
        assert_eq!(report.faults.injected_timeouts, 2);
        assert_eq!(report.failed_faulted, 2);
        assert_eq!(report.failed_no_path, 2);
        assert!(!report.faults.stuck_dwell.is_empty());
        // After the final flush all locks are released.
        assert!((pcn.balance(e).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn offline_sender_is_rejected_and_counted() {
        let mut pcn = star_pcn(1_000.0, 0.0);
        let txs = vec![Tx {
            time: 5.0,
            sender: NodeId(1),
            receiver: NodeId(2),
            size: 1.0,
        }];
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(13)
            .faults(FaultPlan::none().node_offline(NodeId(1), 0.0, 10.0))
            .run();
        assert_eq!(report.failed_faulted, 1);
        assert_eq!(report.faults.offline_rejections, 1);
    }

    #[test]
    fn offline_hub_reroutes_to_no_path() {
        // Leaf → leaf in a star must cross the hub; with the hub offline
        // routing finds nothing, and the failure counts as fault-induced.
        let mut pcn = star_pcn(1_000.0, 0.0);
        let txs = vec![Tx {
            time: 5.0,
            sender: NodeId(1),
            receiver: NodeId(2),
            size: 1.0,
        }];
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(14)
            .faults(FaultPlan::none().node_offline(NodeId(0), 0.0, 10.0))
            .run();
        assert_eq!(report.succeeded, 0);
        assert_eq!(report.failed_no_path, 1, "organic-looking NoPath bucket");
    }

    #[test]
    fn forced_closures_remove_channels_mid_run() {
        let mut pcn = star_pcn(1_000.0, 0.0);
        // Close the hub–leaf-1 channel before the second payment.
        let txs = vec![
            Tx {
                time: 0.0,
                sender: NodeId(1),
                receiver: NodeId(0),
                size: 1.0,
            },
            Tx {
                time: 2.0,
                sender: NodeId(1),
                receiver: NodeId(0),
                size: 1.0,
            },
        ];
        let report = Simulation::new(&mut pcn)
            .workload(&txs)
            .seed(15)
            .faults(FaultPlan::none().close_channel(1.0, NodeId(0), NodeId(1)))
            .run();
        assert_eq!(report.succeeded, 1);
        assert_eq!(report.failed_no_path, 1);
        assert_eq!(report.faults.closures, 1);
        assert!(pcn.graph().find_edge(NodeId(0), NodeId(1)).is_none());
    }
}
