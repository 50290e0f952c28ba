//! The utility function of a newly joining user (paper §II-C).
//!
//! For a strategy `S = {(v_i, l_i)}` the expected utility is
//!
//! ```text
//! U_uS = E^rev_u − E^fees_u − Σ_{(v,l)∈S} L_u(v, l)
//! ```
//!
//! * `E^rev_u` — expected routing revenue: the sum over host pairs
//!   `(v1, v2)` of the fraction of their shortest paths that pass through
//!   `u`, weighted by `N_{v1} · p_trans(v1,v2) · f_avg` (Section IV's
//!   restatement of Eq. 3 with `u` strictly an intermediary).
//! * `E^fees_u` — expected fees paid:
//!   `N_u · Σ_v hops(d(u,v)) · f^T_avg · p_trans(u,v)`, infinite if any
//!   host is unreachable (`d = +∞` for disconnected pairs).
//! * `L_u(v, l) = C + r·l` — per-channel cost (on-chain fee + opportunity
//!   cost, §II-C).
//!
//! The oracle also exposes the simplified utility `U' = E^rev − E^fees`
//! (the submodular, monotone objective optimized by Algorithms 1–2) and
//! the benefit function `U^b = C_u + U` of §III-D with
//! `C_u = N_u · C / 2`.
//!
//! ### Faithfulness notes
//!
//! * `p_trans` values are computed once on the host network and then held
//!   fixed, exactly as the paper's proofs assume (Thm 1: "we assume that
//!   `p_trans` is a fixed value"); the path fractions, by contrast, are
//!   recomputed on the augmented graph for every evaluated strategy.
//! * The prose formula charges `d(u,v)` fee units for a payment at
//!   distance `d`, but every §IV calculation charges only the
//!   `d−1` intermediaries. [`HopCharging`] selects the reading;
//!   the default is [`HopCharging::Intermediaries`], consistent with the
//!   proofs.
//! * A channel whose lock is below [`UtilityParams::min_usable_lock`] is
//!   treated as unusable (excluded from the augmented graph) — the
//!   capacity-reduced-subgraph rule of §II-B applied at a reference
//!   transaction size. This is what makes the *amount* locked matter to
//!   revenue, not just to cost, and gives Algorithms 2–3 a non-trivial
//!   capital-allocation problem.

use crate::eval_cache::{strategy_key, EvalCache, EvalCacheStats};
use crate::rates::TransactionModel;
use crate::strategy::{Action, Strategy};
use crate::zipf::{self, ZipfVariant};
use lcg_graph::incremental::{IncrementalBetweenness, IncrementalStats};
use lcg_graph::{DiGraph, NodeId};
use lcg_sim::onchain::CostModel;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Host topology type: unit payloads, two directed edges per channel.
pub type Topology = DiGraph<(), ()>;

/// How the expected revenue `E^rev_u` is computed.
///
/// The paper is ambiguous between readings, and its submodularity proof
/// (Thm 1) silently switches to a third: it treats the marginal revenue of
/// a channel `(x, l)` as a *fixed* rate `λ_{xu}·f_avg` independent of the
/// rest of the strategy. The oracle supports all three so the experiments
/// can quantify the differences (E4, E5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RevenueMode {
    /// Section IV semantics: weighted node betweenness of `u` with both
    /// endpoints distinct from `u`, recomputed on the augmented graph.
    /// Realistic (a single channel earns nothing — matching Fig. 2's
    /// intuition) but **not** submodular, so the Thm 4/5 guarantees are
    /// only empirical under this mode.
    #[default]
    Intermediary,
    /// Eq. 3 taken literally: `Σ_{v∈Ne(u)} λ_{uv}·f_avg` over `u`'s
    /// incident edges, recomputed on the augmented graph (includes traffic
    /// `u` itself sends/receives).
    IncidentEdges,
    /// The Thm 1 proof's model: each channel to `v` contributes the fixed
    /// amount `ρ(v)·f_avg`, where `ρ(v)` is estimated once (on the host
    /// with the user attached everywhere — an optimistic parallel-capture
    /// estimate). Revenue is modular by construction, so `U'` is provably
    /// submodular + monotone and the `(1 − 1/e)` guarantees of Thm 4/5
    /// hold exactly.
    FixedPerChannel,
}

/// How many fee units a payment at hop distance `d` costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum HopCharging {
    /// `d − 1` intermediaries each charge one fee (the reading used by all
    /// §IV proofs; a direct channel costs nothing).
    #[default]
    Intermediaries,
    /// `d` fee units, as in the prose formula for `E^fees`.
    Distance,
}

impl HopCharging {
    /// Fee units charged at hop distance `d ≥ 1`.
    pub fn units(self, d: u32) -> f64 {
        match self {
            HopCharging::Intermediaries => d.saturating_sub(1) as f64,
            HopCharging::Distance => d as f64,
        }
    }
}

/// Parameters of the joining user's utility function.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UtilityParams {
    /// Average fee `f_avg` earned per forwarded transaction (§II-A).
    pub favg: f64,
    /// Fee `f^T_avg` the user pays each intermediary on its own payments.
    pub fee_out: f64,
    /// `N_u`: the joining user's outgoing transaction volume per unit time.
    pub new_user_rate: f64,
    /// Zipf parameter `s` of the transaction distribution.
    pub zipf_s: f64,
    /// Which reading of the rank-factor formula to use.
    pub zipf_variant: ZipfVariant,
    /// How distance converts to fee units.
    pub hop_charging: HopCharging,
    /// On-chain fee `C` and opportunity rate `r`.
    pub cost: CostModel,
    /// Reference transaction size: channels locked below this are unusable
    /// (0 disables the capacity rule).
    pub min_usable_lock: f64,
    /// Which revenue reading to use.
    pub revenue_mode: RevenueMode,
}

impl Default for UtilityParams {
    fn default() -> Self {
        UtilityParams {
            favg: 0.1,
            fee_out: 0.1,
            new_user_rate: 1.0,
            zipf_s: 1.0,
            zipf_variant: ZipfVariant::Averaged,
            hop_charging: HopCharging::Intermediaries,
            cost: CostModel::default(),
            min_usable_lock: 0.0,
            revenue_mode: RevenueMode::Intermediary,
        }
    }
}

/// Itemized evaluation of one strategy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilityBreakdown {
    /// Expected routing revenue `E^rev_u`.
    pub revenue: f64,
    /// Expected fees paid `E^fees_u` (`+∞` if disconnected from any host).
    pub expected_fees: f64,
    /// Total channel costs `Σ L_u(v, l) = Σ (C + r·l)`.
    pub channel_cost: f64,
    /// Full utility `U = revenue − fees − channel costs` (`−∞` if
    /// disconnected).
    pub utility: f64,
    /// Simplified utility `U' = revenue − fees` (Algorithms 1–2 objective).
    pub simplified: f64,
    /// Benefit `U^b = C_u + U` (§III-D objective).
    pub benefit: f64,
}

/// Evaluates the utility of any strategy of a user joining a fixed host
/// network under a fixed transaction model.
///
/// # Examples
///
/// ```
/// use lcg_core::utility::{UtilityOracle, UtilityParams};
/// use lcg_core::strategy::Strategy;
/// use lcg_graph::{generators, NodeId};
///
/// let host = generators::star(4);
/// let oracle = UtilityOracle::new(host, vec![1.0; 5], UtilityParams::default());
/// // Connecting to the hub puts every host within 2 hops.
/// let hub_only = Strategy::from_pairs(&[(NodeId(0), 5.0)]);
/// let b = oracle.evaluate(&hub_only);
/// assert!(b.utility.is_finite());
/// // Staying disconnected is infinitely bad.
/// assert_eq!(oracle.evaluate(&Strategy::empty()).utility, f64::NEG_INFINITY);
/// ```
#[derive(Debug)]
pub struct UtilityOracle {
    host: Topology,
    params: UtilityParams,
    model: TransactionModel,
    /// `p_trans(u, ·)` for the joining user, fixed from the host ranking.
    p_out: Vec<f64>,
    /// `ρ(v)` per host node: fixed per-channel capture rates for
    /// [`RevenueMode::FixedPerChannel`] (computed lazily on first use).
    fixed_channel_rates: std::sync::OnceLock<Vec<f64>>,
    /// Delta-aware betweenness over the host, built on the first
    /// evaluation: its distance snapshot prices `E^fees` in every mode,
    /// and it answers the [`RevenueMode::Intermediary`] score by
    /// recomputing only affected sources, bit-identical to the
    /// from-scratch Brandes path.
    incremental: OnceLock<IncrementalBetweenness>,
    /// Strategy-keyed memo of full evaluations (`U`, `U'`, `U^b`).
    cache: EvalCache,
    evaluations: AtomicU64,
}

/// Combined instrumentation of one oracle: call counts, memo behaviour and
/// the incremental engine's pruning effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OracleStats {
    /// Strategy evaluations requested (cache hits included — the paper's
    /// complexity unit counts *calls*, not recomputations).
    pub evaluations: u64,
    /// Evaluation-memo counters.
    pub cache: EvalCacheStats,
    /// Incremental-betweenness counters; `None` until the first
    /// evaluation builds the engine.
    pub incremental: Option<IncrementalStats>,
}

impl UtilityOracle {
    /// Builds an oracle for a user joining `host`, whose existing nodes
    /// send `sender_rates[v]` transactions per unit time (`N_v`).
    ///
    /// # Panics
    ///
    /// Panics if `sender_rates.len() != host.node_bound()` or parameters
    /// are out of range.
    pub fn new(host: Topology, sender_rates: Vec<f64>, params: UtilityParams) -> Self {
        let model = TransactionModel::zipf(&host, params.zipf_s, params.zipf_variant, sender_rates);
        let p_out = zipf::transaction_probabilities(
            &host,
            NodeId(host.node_bound()), // not present: ranks the whole host
            params.zipf_s,
            params.zipf_variant,
        );
        UtilityOracle {
            host,
            params,
            model,
            p_out,
            fixed_channel_rates: std::sync::OnceLock::new(),
            incremental: OnceLock::new(),
            cache: EvalCache::default(),
            evaluations: AtomicU64::new(0),
        }
    }

    /// Builds an oracle with an explicit (possibly non-Zipf) transaction
    /// model; `p_out` must give the joining user's counterparty
    /// probabilities per host node.
    ///
    /// # Panics
    ///
    /// Panics if `p_out.len() != host.node_bound()`.
    pub fn with_model(
        host: Topology,
        model: TransactionModel,
        p_out: Vec<f64>,
        params: UtilityParams,
    ) -> Self {
        assert_eq!(
            p_out.len(),
            host.node_bound(),
            "p_out must cover every host node"
        );
        UtilityOracle {
            host,
            params,
            model,
            p_out,
            fixed_channel_rates: std::sync::OnceLock::new(),
            incremental: OnceLock::new(),
            cache: EvalCache::default(),
            evaluations: AtomicU64::new(0),
        }
    }

    /// The host network (without the joining user).
    pub fn host(&self) -> &Topology {
        &self.host
    }

    /// The utility parameters.
    pub fn params(&self) -> &UtilityParams {
        &self.params
    }

    /// The fixed transaction model over host pairs.
    pub fn model(&self) -> &TransactionModel {
        &self.model
    }

    /// The joining user's counterparty distribution over host nodes.
    pub fn outgoing_probabilities(&self) -> &[f64] {
        &self.p_out
    }

    /// Id the joining user receives in augmented graphs.
    pub fn new_node(&self) -> NodeId {
        NodeId(self.host.node_bound())
    }

    /// Live host nodes — the candidate targets (`Ω`'s vertex set).
    pub fn candidates(&self) -> Vec<NodeId> {
        self.host.node_ids().collect()
    }

    /// Number of full strategy evaluations performed so far — the paper's
    /// complexity unit ("estimations of the λ_{uv} parameter", Thm 4).
    pub fn evaluation_count(&self) -> u64 {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Resets the evaluation counter.
    pub fn reset_evaluation_count(&self) {
        self.evaluations.store(0, Ordering::Relaxed);
    }

    /// Evaluation-memo counters (hits, misses, resident entries).
    pub fn cache_stats(&self) -> EvalCacheStats {
        self.cache.stats()
    }

    /// Drops the evaluation memo and zeroes its counters. The incremental
    /// snapshot is untouched — it depends only on the immutable host.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Incremental-betweenness counters, once the engine exists.
    pub fn incremental_stats(&self) -> Option<IncrementalStats> {
        self.incremental.get().map(|engine| engine.stats())
    }

    /// Combined instrumentation snapshot.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            evaluations: self.evaluation_count(),
            cache: self.cache_stats(),
            incremental: self.incremental_stats(),
        }
    }

    /// The delta-aware betweenness engine over the host, built once on
    /// first use (one BFS per host source for the distance matrix, plus
    /// the pair-weight matrix).
    fn incremental_engine(&self) -> &IncrementalBetweenness {
        self.incremental.get_or_init(|| {
            IncrementalBetweenness::new(&self.host, |s, r| {
                self.model.pair_rate(s, r) * self.params.favg
            })
        })
    }

    /// Host endpoints of the strategy's *usable* channels, in action order
    /// — exactly the channels [`UtilityOracle::augmented`] materializes.
    fn usable_targets(&self, strategy: &Strategy) -> Vec<NodeId> {
        strategy
            .iter()
            .filter(|a| {
                a.lock + 1e-9 >= self.params.min_usable_lock && self.host.contains_node(a.target)
            })
            .map(|a| a.target)
            .collect()
    }

    /// The host graph with the joining user and its usable channels added.
    ///
    /// Channels locked below `min_usable_lock` are omitted (capacity rule);
    /// parallel actions to the same target create parallel channels.
    pub fn augmented(&self, strategy: &Strategy) -> Topology {
        let mut g = self.host.clone();
        let u = g.add_node(());
        debug_assert_eq!(u, self.new_node());
        for a in strategy.iter() {
            if a.lock + 1e-9 >= self.params.min_usable_lock && g.contains_node(a.target) {
                g.add_undirected(u, a.target, ());
            }
        }
        g
    }

    /// Expected fees `E^fees_u` of a user whose usable channels end at
    /// `targets`; `+∞` if any host node it pays is unreachable. Distances
    /// come off the engine's snapshot, `d(u, v) = 1 + min_t d_host(t, v)`,
    /// so no augmented graph is built.
    fn expected_fees(&self, targets: &[NodeId]) -> f64 {
        let engine = self.incremental_engine();
        let mut total = 0.0;
        for v in self.host.node_ids() {
            let p = self.p_out[v.index()];
            if p == 0.0 {
                continue;
            }
            match engine.new_node_distance(targets, v) {
                Some(d) => {
                    total += p * self.params.hop_charging.units(d);
                }
                None => return f64::INFINITY,
            }
        }
        self.params.new_user_rate * self.params.fee_out * total
    }

    /// Fixed per-channel capture rates `ρ(v)`: the rate of host-pair
    /// traffic crossing the channel `{u, v}` when `u` is attached to every
    /// host node at once. Computed once and cached.
    fn fixed_rates(&self) -> &[f64] {
        self.fixed_channel_rates.get_or_init(|| {
            let mut g = self.host.clone();
            let u = g.add_node(());
            let mut edge_of: Vec<Option<(lcg_graph::EdgeId, lcg_graph::EdgeId)>> =
                vec![None; self.host.node_bound()];
            for v in self.host.node_ids() {
                let pair = g.add_undirected(u, v, ());
                edge_of[v.index()] = Some(pair);
            }
            let lambda = self.model.edge_rates(&g);
            edge_of
                .iter()
                .map(|pair| pair.map_or(0.0, |(uv, vu)| lambda[uv.index()] + lambda[vu.index()]))
                .collect()
        })
    }

    /// Expected revenue `E^rev_u` of `strategy`, whose usable channels end
    /// at `targets`, under the configured [`RevenueMode`].
    fn revenue(&self, strategy: &Strategy, targets: &[NodeId]) -> f64 {
        match self.params.revenue_mode {
            RevenueMode::Intermediary => {
                // Delta path: only the sources whose shortest paths the new
                // node can change are recomputed; bit-identical to
                // `self.model.revenue_rates(&self.augmented(strategy), favg)[u]`
                // by construction.
                let (score, _) = self.incremental_engine().new_node_score(targets);
                score
            }
            RevenueMode::IncidentEdges => {
                let g = self.augmented(strategy);
                let scores = self.model.incident_rate_revenue(&g, self.params.favg);
                scores.get(self.new_node().index()).copied().unwrap_or(0.0)
            }
            RevenueMode::FixedPerChannel => {
                let rates = self.fixed_rates();
                strategy
                    .iter()
                    .filter(|a| a.lock + 1e-9 >= self.params.min_usable_lock)
                    .map(|a| rates.get(a.target.index()).copied().unwrap_or(0.0))
                    .sum::<f64>()
                    * self.params.favg
            }
        }
    }

    /// Evaluates a strategy, returning the itemized breakdown.
    ///
    /// An empty (or fully unusable) strategy leaves the user disconnected:
    /// `E^fees = +∞` and `U = −∞`, per the paper's convention.
    pub fn evaluate(&self, strategy: &Strategy) -> UtilityBreakdown {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        if lcg_obs::enabled() {
            lcg_obs::counter!("core/oracle/evaluations").inc();
        }
        let key = strategy_key(strategy);
        if let Some(hit) = self.cache.get(&key) {
            return hit;
        }
        let _miss_timer = lcg_obs::timer!("core/oracle/evaluate_miss_ns");
        let channel_cost: f64 = strategy
            .iter()
            .map(|a| self.params.cost.channel_cost(a.lock))
            .sum();
        let targets = self.usable_targets(strategy);
        let expected_fees = self.expected_fees(&targets);
        let revenue = self.revenue(strategy, &targets);
        let simplified = revenue - expected_fees;
        let utility = simplified - channel_cost;
        let cu = self.params.cost.all_onchain_cost(self.params.new_user_rate);
        let breakdown = UtilityBreakdown {
            revenue,
            expected_fees,
            channel_cost,
            utility,
            simplified,
            benefit: cu + utility,
        };
        self.cache.insert(key, breakdown);
        breakdown
    }

    /// Marginal simplified gain `U'(base + action) − U'(base)` — the
    /// quantity Algorithms 1–2 and the lazy heap compare. Both endpoints
    /// go through the evaluation memo, so re-examined marginals are free.
    pub fn marginal_simplified_gain(&self, base: &Strategy, action: Action) -> f64 {
        self.evaluate(&base.with(action)).simplified - self.evaluate(base).simplified
    }

    /// Shorthand: full utility `U_uS`.
    pub fn utility(&self, strategy: &Strategy) -> f64 {
        self.evaluate(strategy).utility
    }

    /// Shorthand: simplified utility `U' = E^rev − E^fees`.
    pub fn simplified_utility(&self, strategy: &Strategy) -> f64 {
        self.evaluate(strategy).simplified
    }

    /// Shorthand: benefit `U^b = C_u + U`.
    pub fn benefit(&self, strategy: &Strategy) -> f64 {
        self.evaluate(strategy).benefit
    }

    /// The objective selected by `objective`.
    pub fn objective_value(&self, objective: Objective, strategy: &Strategy) -> f64 {
        match objective {
            Objective::Utility => self.utility(strategy),
            Objective::Simplified => self.simplified_utility(strategy),
            Objective::Benefit => self.benefit(strategy),
        }
    }
}

/// Which of the paper's three objectives an optimizer maximizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Objective {
    /// Full utility `U_uS` (non-monotone, may be negative; Thm 2–3).
    Utility,
    /// Simplified `U' = E^rev − E^fees` (submodular + monotone; Thm 1–2,
    /// optimized by Algorithms 1 and 2).
    #[default]
    Simplified,
    /// Benefit `U^b = C_u + U_uS` (§III-D, optimized by the continuous
    /// 1/5-approximation).
    Benefit,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::generators;

    fn star_oracle(leaves: usize) -> UtilityOracle {
        let host = generators::star(leaves);
        let n = host.node_bound();
        UtilityOracle::new(host, vec![1.0; n], UtilityParams::default())
    }

    /// The reference fee path: a BFS from the new node over the
    /// augmented graph, summed over `host.node_ids()` like the oracle.
    fn fees_by_bfs(oracle: &UtilityOracle, strategy: &Strategy) -> f64 {
        let tree = lcg_graph::bfs::bfs(&oracle.augmented(strategy), oracle.new_node());
        let params = oracle.params();
        let mut total = 0.0;
        for v in oracle.host().node_ids() {
            let p = oracle.outgoing_probabilities()[v.index()];
            if p == 0.0 {
                continue;
            }
            match tree.distance(v) {
                Some(d) => total += p * params.hop_charging.units(d),
                None => return f64::INFINITY,
            }
        }
        params.new_user_rate * params.fee_out * total
    }

    #[test]
    fn snapshot_fees_match_bfs_on_the_augmented_graph() {
        // A BA host plus a separate three-node path: strategies that miss
        // the path leave the new node unable to pay it (+∞).
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0xfee);
        let mut host = generators::barabasi_albert(30, 2, &mut rng);
        let island = host.add_nodes(3);
        host.add_undirected(island[0], island[1], ());
        host.add_undirected(island[1], island[2], ());
        let n = host.node_bound();
        let strategies = [
            vec![],
            vec![(NodeId(0), 2.0)],
            vec![(NodeId(4), 2.0), (NodeId(31), 2.0)],
            vec![(NodeId(4), 2.0), (NodeId(31), 1.0)], // island channel unusable
            vec![(NodeId(7), 1.0), (NodeId(12), 1.0)], // nothing usable
            vec![(NodeId(29), 3.0), (NodeId(29), 3.0), (NodeId(32), 2.0)],
            vec![
                (NodeId(1), 2.0),
                (NodeId(20), 1.0),
                (NodeId(30), 5.0),
                (NodeId(9), 2.0),
            ],
        ];
        for revenue_mode in [
            RevenueMode::Intermediary,
            RevenueMode::IncidentEdges,
            RevenueMode::FixedPerChannel,
        ] {
            for hop_charging in [HopCharging::Intermediaries, HopCharging::Distance] {
                let params = UtilityParams {
                    revenue_mode,
                    hop_charging,
                    min_usable_lock: 1.5,
                    ..UtilityParams::default()
                };
                let oracle = UtilityOracle::new(host.clone(), vec![1.0; n], params);
                let mut disconnected = 0;
                for pairs in &strategies {
                    let strategy = Strategy::from_pairs(pairs);
                    let got = oracle.evaluate(&strategy).expected_fees;
                    let expect = fees_by_bfs(&oracle, &strategy);
                    assert_eq!(
                        got.to_bits(),
                        expect.to_bits(),
                        "{revenue_mode:?} {hop_charging:?} {pairs:?}: {got} vs {expect}"
                    );
                    disconnected += usize::from(got == f64::INFINITY);
                }
                assert_eq!(
                    disconnected, 4,
                    "empty, island-less and unusable strategies"
                );
            }
        }
    }

    #[test]
    fn empty_strategy_is_disconnected() {
        let oracle = star_oracle(4);
        let b = oracle.evaluate(&Strategy::empty());
        assert_eq!(b.utility, f64::NEG_INFINITY);
        assert_eq!(b.expected_fees, f64::INFINITY);
        assert_eq!(b.revenue, 0.0);
        assert_eq!(b.channel_cost, 0.0);
    }

    #[test]
    fn connecting_to_hub_yields_finite_utility() {
        let oracle = star_oracle(4);
        let s = Strategy::from_pairs(&[(NodeId(0), 5.0)]);
        let b = oracle.evaluate(&s);
        assert!(b.utility.is_finite());
        // Leaf-only attachment: every host reachable through hub.
        assert!(b.expected_fees > 0.0);
        // A pure leaf forwards nothing.
        assert!(b.revenue.abs() < 1e-9);
        // Channel cost = C + r*l.
        let expect = oracle.params().cost.channel_cost(5.0);
        assert!((b.channel_cost - expect).abs() < 1e-12);
    }

    #[test]
    fn hub_connection_beats_leaf_connection() {
        // Under Zipf, the hub is the likeliest counterparty; connecting to
        // it minimizes expected fees.
        let oracle = star_oracle(5);
        let to_hub = oracle.simplified_utility(&Strategy::from_pairs(&[(NodeId(0), 1.0)]));
        let to_leaf = oracle.simplified_utility(&Strategy::from_pairs(&[(NodeId(1), 1.0)]));
        assert!(to_hub > to_leaf, "hub {to_hub} should beat leaf {to_leaf}");
    }

    #[test]
    fn fees_decrease_when_adding_channels() {
        // U' monotonicity (Thm 2): distances only shrink.
        let oracle = star_oracle(5);
        let s1 = Strategy::from_pairs(&[(NodeId(1), 1.0)]);
        let s2 = s1.with(crate::strategy::Action::new(NodeId(0), 1.0));
        let b1 = oracle.evaluate(&s1);
        let b2 = oracle.evaluate(&s2);
        assert!(b2.expected_fees <= b1.expected_fees + 1e-12);
        assert!(b2.simplified >= b1.simplified - 1e-12);
    }

    #[test]
    fn bridging_two_hubs_earns_revenue() {
        // Two stars joined by u: u intermediates all cross-star pairs.
        let mut host: Topology = DiGraph::new();
        let hub_a = host.add_node(());
        for _ in 0..3 {
            let leaf = host.add_node(());
            host.add_undirected(hub_a, leaf, ());
        }
        let hub_b = host.add_node(());
        for _ in 0..3 {
            let leaf = host.add_node(());
            host.add_undirected(hub_b, leaf, ());
        }
        let n = host.node_bound();
        let oracle = UtilityOracle::new(host, vec![1.0; n], UtilityParams::default());
        let bridge = Strategy::from_pairs(&[(hub_a, 5.0), (hub_b, 5.0)]);
        let b = oracle.evaluate(&bridge);
        assert!(
            b.revenue > 0.0,
            "bridging node must earn routing revenue, got {}",
            b.revenue
        );
        assert!(b.expected_fees.is_finite());
    }

    #[test]
    fn unusable_lock_leaves_user_disconnected() {
        let host = generators::star(3);
        let n = host.node_bound();
        let params = UtilityParams {
            min_usable_lock: 2.0,
            ..UtilityParams::default()
        };
        let oracle = UtilityOracle::new(host, vec![1.0; n], params);
        let too_small = Strategy::from_pairs(&[(NodeId(0), 1.0)]);
        assert_eq!(oracle.utility(&too_small), f64::NEG_INFINITY);
        let big_enough = Strategy::from_pairs(&[(NodeId(0), 2.0)]);
        assert!(oracle.utility(&big_enough).is_finite());
        // The unusable channel still costs money.
        assert!(oracle.evaluate(&too_small).channel_cost > 0.0);
    }

    #[test]
    fn hop_charging_variants_differ_by_rate() {
        let host = generators::star(4);
        let n = host.node_bound();
        let mk = |hc| {
            let params = UtilityParams {
                hop_charging: hc,
                ..UtilityParams::default()
            };
            UtilityOracle::new(host.clone(), vec![1.0; n], params)
        };
        let s = Strategy::from_pairs(&[(NodeId(0), 1.0)]);
        let inter = mk(HopCharging::Intermediaries).evaluate(&s).expected_fees;
        let dist = mk(HopCharging::Distance).evaluate(&s).expected_fees;
        // Distance charges exactly one extra unit per counterparty:
        // Σ p(v)·d vs Σ p(v)·(d−1) differ by Nu·fee_out·Σp = Nu·fee_out.
        let params = UtilityParams::default();
        let gap = params.new_user_rate * params.fee_out;
        assert!(
            ((dist - inter) - gap).abs() < 1e-9,
            "gap {} expected {gap}",
            dist - inter
        );
    }

    #[test]
    fn benefit_shifts_utility_by_onchain_constant() {
        let oracle = star_oracle(3);
        let s = Strategy::from_pairs(&[(NodeId(0), 1.0)]);
        let b = oracle.evaluate(&s);
        let cu = oracle
            .params()
            .cost
            .all_onchain_cost(oracle.params().new_user_rate);
        assert!((b.benefit - (b.utility + cu)).abs() < 1e-12);
    }

    #[test]
    fn evaluation_counter_tracks_calls() {
        let oracle = star_oracle(3);
        assert_eq!(oracle.evaluation_count(), 0);
        let s = Strategy::from_pairs(&[(NodeId(0), 1.0)]);
        oracle.utility(&s);
        oracle.simplified_utility(&s);
        assert_eq!(oracle.evaluation_count(), 2);
        oracle.reset_evaluation_count();
        assert_eq!(oracle.evaluation_count(), 0);
    }

    #[test]
    fn parallel_actions_create_parallel_channels() {
        let oracle = star_oracle(3);
        let s = Strategy::from_pairs(&[(NodeId(0), 1.0), (NodeId(0), 2.0)]);
        let g = oracle.augmented(&s);
        assert_eq!(g.out_degree(oracle.new_node()), 2);
        // Cost counts both channels.
        let b = oracle.evaluate(&s);
        let expect =
            oracle.params().cost.channel_cost(1.0) + oracle.params().cost.channel_cost(2.0);
        assert!((b.channel_cost - expect).abs() < 1e-12);
    }

    #[test]
    fn objective_selector_matches_shorthands() {
        let oracle = star_oracle(3);
        let s = Strategy::from_pairs(&[(NodeId(0), 1.0)]);
        assert_eq!(
            oracle.objective_value(Objective::Utility, &s),
            oracle.utility(&s)
        );
        assert_eq!(
            oracle.objective_value(Objective::Simplified, &s),
            oracle.simplified_utility(&s)
        );
        assert_eq!(
            oracle.objective_value(Objective::Benefit, &s),
            oracle.benefit(&s)
        );
    }
}
