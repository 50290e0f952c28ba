//! Transaction workload generation (paper §II-B).
//!
//! Each user `u` emits on average `N_u` transactions per unit of time; the
//! receiver is drawn from a per-sender distribution (uniform in the prior
//! work \[19\], degree-rank Zipf in this paper); sizes come from the global
//! size distribution. Arrivals form a Poisson process, realized here by
//! exponential inter-arrival times at the aggregate rate
//! `N = Σ_u N_u`.
//!
//! # Sampling
//!
//! Senders and receivers are drawn by one reference rule: `pick` is
//! uniform on `[0, total)`, then a scan walks the positive weights in
//! index order, returning the first with `pick < w` and otherwise
//! subtracting it (`pick -= w`). [`WorkloadBuilder::generate`] follows it
//! with less work. Row totals are cached, so a stored receiver row costs
//! one scan, and the uniform row none. Senders are found by a binary
//! search over the `n + 1` running sums of the rates, accepted only when
//! `pick` lies more than `4(n + 1)·ε·total` from both running sums around
//! it. The scan and the running sums each drift at most `n·ε/2·total`
//! from exact arithmetic, so outside that margin they must agree; inside
//! it the scan decides. Every stream is therefore identical, draw for
//! draw, to [`WorkloadBuilder::generate_reference`].

use crate::fees::TxSizeDistribution;
use lcg_graph::NodeId;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One generated transaction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tx {
    /// Arrival time (unit-of-time scale).
    pub time: f64,
    /// Sender.
    pub sender: NodeId,
    /// Receiver.
    pub receiver: NodeId,
    /// Transaction size in coins.
    pub size: f64,
}

/// Guard margin for a running-sum search over `len` non-negative terms
/// that sum to `total`.
///
/// The scan and the running sums each add at most `len` roundings of at
/// most `ε/2·total`, so they disagree only within `len·ε·total` of a
/// boundary. The margin is four times that (with `len + 1`), which also
/// covers the rounding of the guard's own subtractions.
fn margin(len: usize, total: f64) -> f64 {
    4.0 * (len + 1) as f64 * f64::EPSILON * total
}

/// The running sums of `values` in index order from `+0.0`:
/// `values.len() + 1` entries, the last being the whole sum.
///
/// `Iterator::sum` may start at `-0.0` instead; the two differ only for a
/// zero total, which is never drawn from.
fn prefix_sums(values: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    let mut sums = Vec::with_capacity(values.len() + 1);
    sums.push(acc);
    for &w in values {
        acc += w;
        sums.push(acc);
    }
    sums
}

/// The guarded search: finds the entry `j` with running sums
/// `sums[j] <= pick < sums[j + 1]` and returns it only if `pick` lies more
/// than `eps` from both, where [`scan`] must agree. `None` leaves the draw
/// to the scan.
fn search(sums: &[f64], pick: f64, eps: f64) -> Option<usize> {
    // `sums[0] == 0.0 <= pick`, so `j` exists unless `sums` is empty.
    let j = sums.partition_point(|&p| p <= pick).checked_sub(1)?;
    let (lo, hi) = (sums[j], *sums.get(j + 1)?);
    (pick - lo > eps && hi - pick > eps).then_some(j)
}

/// The reference draw: walks `values` in order, skipping index `skip` and
/// zero entries, and returns the first entry with `pick < w`, subtracting
/// each passed entry from `pick`. If rounding carries `pick` past the end,
/// returns the last positive entry; `None` if there is none.
fn scan(values: &[f64], skip: Option<usize>, mut pick: f64) -> Option<usize> {
    for (j, &w) in values.iter().enumerate() {
        if Some(j) == skip || w == 0.0 {
            continue;
        }
        if pick < w {
            return Some(j);
        }
        pick -= w;
    }
    (0..values.len())
        .rev()
        .find(|&j| Some(j) != skip && values[j] > 0.0)
}

/// The off-diagonal total of row `s`, summed in column order.
fn row_total(row: &[f64], s: usize) -> f64 {
    row.iter()
        .enumerate()
        .filter(|&(j, _)| j != s)
        .map(|(_, &w)| w)
        .sum()
}

/// A per-sender receiver distribution: `weight(s, r)` is proportional to
/// the probability that `s` transacts with `r` (diagonal entries ignored).
///
/// Rows need not be normalized; the sampler normalizes on the fly. This is
/// the bridge between `lcg-core`'s analytic `p_trans` and the simulator.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairWeights {
    n: usize,
    /// The stored matrix; `None` for [`PairWeights::uniform`], whose
    /// off-diagonal weights are all 1.
    dense: Option<Dense>,
}

/// A stored weight matrix with its row totals.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    weights: Vec<Vec<f64>>,
    /// [`row_total`] of each row.
    totals: Vec<f64>,
}

impl PairWeights {
    /// Builds pair weights from a dense matrix.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square, any weight is negative, NaN or
    /// infinite, or a row's weights sum to infinity.
    pub fn new(weights: Vec<Vec<f64>>) -> Self {
        let n = weights.len();
        let mut totals = Vec::with_capacity(n);
        for (i, row) in weights.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has length {} != {n}", row.len());
            for (j, &w) in row.iter().enumerate() {
                assert!(
                    w >= 0.0 && w.is_finite(),
                    "weight[{i}][{j}] must be finite and non-negative, got {w}"
                );
            }
            let total = row_total(row, i);
            assert!(total.is_finite(), "row {i}'s weights sum to {total}");
            totals.push(total);
        }
        PairWeights {
            n,
            dense: Some(Dense { weights, totals }),
        }
    }

    /// Uniform receiver choice over the other `n-1` nodes — the transaction
    /// model of \[19\], kept as an ablation baseline. Stores no matrix.
    pub fn uniform(n: usize) -> Self {
        PairWeights { n, dense: None }
    }

    /// Number of users covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Entry `(s, r)` of the matrix, diagonal included; both in range.
    fn entry(&self, s: usize, r: usize) -> f64 {
        match &self.dense {
            Some(d) => d.weights[s][r],
            None => f64::from(u8::from(s != r)),
        }
    }

    /// Off-diagonal total of row `s` (in range).
    fn total(&self, s: usize) -> f64 {
        match &self.dense {
            Some(d) => d.totals[s],
            None => self.n.saturating_sub(1) as f64,
        }
    }

    /// Weight of the ordered pair `(s, r)`.
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        if s == r || s.index() >= self.n || r.index() >= self.n {
            return 0.0;
        }
        self.entry(s.index(), r.index())
    }

    /// Normalized probability that `s` transacts with `r` given that `s`
    /// sends a transaction.
    pub fn probability(&self, s: NodeId, r: NodeId) -> f64 {
        assert!(s.index() < self.n, "sender {} out of range", s.index());
        let total = self.total(s.index());
        if total <= 0.0 {
            0.0
        } else {
            self.weight(s, r) / total
        }
    }

    /// Samples a receiver for sender `s`.
    ///
    /// Returns `None` if all of `s`'s weights are zero.
    pub fn sample_receiver<R: Rng + ?Sized>(&self, s: NodeId, rng: &mut R) -> Option<NodeId> {
        let s = s.index();
        if s >= self.n {
            return None;
        }
        let total = self.total(s);
        if total <= 0.0 {
            return None;
        }
        let pick = rng.gen_range(0.0..total);
        let Some(d) = &self.dense else {
            // Unit weights: each `pick -= 1.0` of the scan is exact below
            // 2^53, so it stops at the `floor(pick)`-th column after `s`'s.
            let k = pick as usize;
            return Some(NodeId(k + usize::from(k >= s)));
        };
        scan(&d.weights[s], Some(s), pick).map(NodeId)
    }

    /// The reference receiver draw: re-sums `s`'s row, then scans it.
    fn scan_receiver<R: Rng + ?Sized>(&self, s: usize, rng: &mut R) -> Option<NodeId> {
        if s >= self.n {
            return None;
        }
        let row: Vec<f64> = (0..self.n).map(|r| self.entry(s, r)).collect();
        let total = row_total(&row, s);
        if total <= 0.0 {
            return None;
        }
        scan(&row, Some(s), rng.gen_range(0.0..total)).map(NodeId)
    }
}

/// Matrices are equal when they cover the same users with the same
/// entries, however they are stored.
impl PartialEq for PairWeights {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
            && (0..self.n).all(|s| (0..self.n).all(|r| self.entry(s, r) == other.entry(s, r)))
    }
}

/// Poisson transaction stream over a fixed user population.
///
/// # Examples
///
/// ```
/// use lcg_sim::workload::{PairWeights, WorkloadBuilder};
/// use lcg_sim::fees::TxSizeDistribution;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let txs = WorkloadBuilder::new(PairWeights::uniform(5))
///     .sender_rates(vec![1.0; 5])
///     .sizes(TxSizeDistribution::Constant { size: 1.0 })
///     .generate(100, &mut rng);
/// assert_eq!(txs.len(), 100);
/// assert!(txs.windows(2).all(|w| w[0].time <= w[1].time));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    pairs: PairWeights,
    sender_rates: Vec<f64>,
    sizes: TxSizeDistribution,
}

impl WorkloadBuilder {
    /// Starts a workload over the users covered by `pairs`, with unit
    /// sender rates (`N_u = 1`) and unit-size transactions.
    pub fn new(pairs: PairWeights) -> Self {
        let n = pairs.len();
        WorkloadBuilder {
            pairs,
            sender_rates: vec![1.0; n],
            sizes: TxSizeDistribution::default(),
        }
    }

    /// Sets per-sender mean transaction counts per unit time (`N_u`).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the user count or any rate is
    /// negative, NaN or infinite.
    pub fn sender_rates(mut self, rates: Vec<f64>) -> Self {
        assert_eq!(
            rates.len(),
            self.pairs.len(),
            "need one rate per user ({} != {})",
            rates.len(),
            self.pairs.len()
        );
        for (i, &r) in rates.iter().enumerate() {
            assert!(
                r >= 0.0 && r.is_finite(),
                "rate[{i}] must be finite and >= 0, got {r}"
            );
        }
        self.sender_rates = rates;
        self
    }

    /// Sets the transaction-size distribution.
    pub fn sizes(mut self, sizes: TxSizeDistribution) -> Self {
        self.sizes = sizes;
        self
    }

    /// Aggregate rate `N = Σ_u N_u`.
    pub fn total_rate(&self) -> f64 {
        self.sender_rates.iter().sum()
    }

    /// Generates `count` transactions in arrival order.
    ///
    /// Senders are drawn proportionally to `N_u` and arrival gaps are
    /// `Exp(N)`, which realizes the superposition of the per-user Poisson
    /// processes. A slot whose sender has no receiver weight is skipped.
    ///
    /// # Panics
    ///
    /// Panics if every sender rate is zero, the rates sum to infinity, or
    /// no sender with a positive rate has a positive receiver weight (no
    /// transaction could ever occur).
    pub fn generate<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Tx> {
        self.generate_counted(count, rng).0
    }

    /// [`Self::generate`], also returning how many sender draws landed
    /// within the guard margin of a boundary and were decided by the
    /// reference scan.
    pub fn generate_counted<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> (Vec<Tx>, usize) {
        let rates = &self.sender_rates;
        let sums = prefix_sums(rates);
        let total = self.total_rate();
        let eps = margin(rates.len(), total);
        let mut fallbacks = 0;
        let txs = self.stream(count, rng, |rng| {
            let pick = rng.gen_range(0.0..total);
            let sender = search(&sums, pick, eps)
                .or_else(|| {
                    fallbacks += 1;
                    scan(rates, None, pick)
                })
                .expect("a positive rate");
            (
                NodeId(sender),
                self.pairs.sample_receiver(NodeId(sender), rng),
            )
        });
        (txs, fallbacks)
    }

    /// The slow reference for [`Self::generate`]: every draw re-sums its
    /// total and scans, in `O(n)`. Returns the same stream, bit for bit,
    /// and leaves `rng` in the same state; kept for differential tests.
    pub fn generate_reference<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> Vec<Tx> {
        self.stream(count, rng, |rng| {
            let pick = rng.gen_range(0.0..self.total_rate());
            let sender = scan(&self.sender_rates, None, pick).expect("a positive rate");
            (NodeId(sender), self.pairs.scan_receiver(sender, rng))
        })
    }

    /// The arrival loop shared by both samplers: `draw` picks a slot's
    /// sender and, if it has one, receiver.
    fn stream<R: Rng + ?Sized>(
        &self,
        count: usize,
        rng: &mut R,
        mut draw: impl FnMut(&mut R) -> (NodeId, Option<NodeId>),
    ) -> Vec<Tx> {
        let total = self.total_rate();
        assert!(total > 0.0, "all sender rates are zero");
        assert!(total.is_finite(), "sender rates sum to {total}");
        assert!(
            self.sender_rates
                .iter()
                .enumerate()
                .any(|(s, &r)| r > 0.0 && self.pairs.total(s) > 0.0),
            "no sender with a positive rate has a positive receiver weight"
        );
        let mut out = Vec::with_capacity(count);
        let mut time = 0.0f64;
        while out.len() < count {
            let u: f64 = rng.gen_range(0.0..1.0f64);
            time += -(1.0 - u).ln() / total;
            let (sender, receiver) = draw(rng);
            let Some(receiver) = receiver else {
                continue; // sender with no counterparties: skip the slot
            };
            out.push(Tx {
                time,
                sender,
                receiver,
                size: self.sizes.sample(rng),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_pairs_have_equal_probabilities() {
        let pw = PairWeights::uniform(4);
        for s in 0..4 {
            for r in 0..4 {
                let p = pw.probability(NodeId(s), NodeId(r));
                if s == r {
                    assert_eq!(p, 0.0);
                } else {
                    assert!((p - 1.0 / 3.0).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn probabilities_row_normalize() {
        let pw = PairWeights::new(vec![
            vec![0.0, 3.0, 1.0],
            vec![2.0, 0.0, 2.0],
            vec![0.0, 0.0, 0.0],
        ]);
        assert!((pw.probability(NodeId(0), NodeId(1)) - 0.75).abs() < 1e-12);
        assert!((pw.probability(NodeId(0), NodeId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(pw.probability(NodeId(2), NodeId(0)), 0.0);
    }

    #[test]
    fn sample_receiver_matches_weights() {
        let pw = PairWeights::new(vec![
            vec![0.0, 9.0, 1.0],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let mut hits = 0;
        for _ in 0..trials {
            if pw.sample_receiver(NodeId(0), &mut rng) == Some(NodeId(1)) {
                hits += 1;
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!((frac - 0.9).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn zero_weight_sender_yields_none() {
        let pw = PairWeights::new(vec![vec![0.0, 0.0], vec![1.0, 0.0]]);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(pw.sample_receiver(NodeId(0), &mut rng), None);
        assert_eq!(pw.sample_receiver(NodeId(1), &mut rng), Some(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_panics() {
        PairWeights::new(vec![vec![0.0, -1.0], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_weight_panics() {
        PairWeights::new(vec![vec![0.0, f64::INFINITY], vec![1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "sum to inf")]
    fn overflowing_row_panics() {
        PairWeights::new(vec![
            vec![0.0, f64::MAX, f64::MAX],
            vec![1.0, 0.0, 1.0],
            vec![1.0, 1.0, 0.0],
        ]);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn infinite_rate_panics() {
        WorkloadBuilder::new(PairWeights::uniform(2)).sender_rates(vec![1.0, f64::INFINITY]);
    }

    #[test]
    fn scan_walks_positive_entries_in_order() {
        let rates = [0.0, 2.0, 0.0, 1.0, 3.0];
        assert_eq!(scan(&rates, None, 0.0), Some(1));
        assert_eq!(scan(&rates, None, 2.5), Some(3));
        assert_eq!(scan(&rates, None, 5.999), Some(4));
        assert_eq!(scan(&rates, Some(3), 2.5), Some(4));
        assert_eq!(scan(&[0.0, 0.0], None, 0.0), None);
        assert_eq!(scan(&[0.0, 1.0], Some(1), 0.0), None);
    }

    #[test]
    fn scan_falls_back_to_the_last_positive_entry() {
        // `pick >= total`, as rounding can leave it: the zero-rate last
        // sender must not be returned.
        let rates = [1.0, 2.0, 0.0];
        assert_eq!(scan(&rates, None, 3.0), Some(1));
        assert_eq!(scan(&rates, None, 7.5), Some(1));
        // A receiver row never falls back to its own (skipped) column.
        assert_eq!(scan(&[1.0, 2.0, 4.0], Some(2), 9.0), Some(1));
    }

    /// `x` moved by `d` units in the last place (`x > 0`).
    fn nudge(x: f64, d: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + d) as u64)
    }

    #[test]
    fn guarded_search_agrees_with_the_scan_near_every_boundary() {
        let mut rng = StdRng::seed_from_u64(5);
        let (mut checked, mut unguarded_misses) = (0, 0);
        for n in [3, 16, 17, 40, 100] {
            for _ in 0..40 {
                let values: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..4) {
                        0 => 0.0,
                        1 => rng.gen_range(0.0..1e-9),
                        _ => rng.gen_range(0.0..1.0),
                    })
                    .collect();
                let sums = prefix_sums(&values);
                let total = sums[n];
                if total <= 0.0 {
                    continue;
                }
                let eps = margin(n, total);
                for &acc in &sums[1..] {
                    // Picks a few ulps from the running sum, just inside and
                    // just outside the margin, and anywhere.
                    let ulps = (-6..=6).map(|d| if acc > 0.0 { nudge(acc, d) } else { 0.0 });
                    let margins = [-1.5, -1.01, 1.01, 1.5].map(|t| acc + t * eps);
                    let anywhere = rng.gen_range(0.0..total);
                    for pick in ulps.chain(margins).chain([anywhere]) {
                        if !(0.0..total).contains(&pick) {
                            continue;
                        }
                        let scanned = scan(&values, None, pick);
                        if let Some(found) = search(&sums, pick, eps) {
                            assert_eq!(Some(found), scanned, "pick {pick} in {values:?}");
                            checked += 1;
                        }
                        if search(&sums, pick, 0.0).is_some_and(|found| Some(found) != scanned) {
                            unguarded_misses += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 0);
        // Without the margin the search does disagree with the scan here.
        assert!(unguarded_misses > 0, "no pick needed the guard");
    }

    #[test]
    fn uniform_equals_its_dense_matrix() {
        let ones = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect();
        assert_eq!(PairWeights::uniform(4), PairWeights::new(ones));
        assert_ne!(PairWeights::uniform(4), PairWeights::uniform(3));
    }

    #[test]
    fn generated_transactions_are_time_ordered_and_valid() {
        let mut rng = StdRng::seed_from_u64(17);
        let txs = WorkloadBuilder::new(PairWeights::uniform(6))
            .sender_rates(vec![2.0; 6])
            .sizes(TxSizeDistribution::Uniform { max: 5.0 })
            .generate(500, &mut rng);
        assert_eq!(txs.len(), 500);
        for w in txs.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        for tx in &txs {
            assert_ne!(tx.sender, tx.receiver);
            assert!(tx.size >= 0.0 && tx.size <= 5.0);
        }
    }

    #[test]
    fn sender_frequency_tracks_rates() {
        let mut rng = StdRng::seed_from_u64(23);
        let txs = WorkloadBuilder::new(PairWeights::uniform(3))
            .sender_rates(vec![8.0, 1.0, 1.0])
            .generate(20_000, &mut rng);
        let from0 = txs.iter().filter(|t| t.sender == NodeId(0)).count();
        let frac = from0 as f64 / txs.len() as f64;
        assert!((frac - 0.8).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn arrival_rate_matches_total() {
        let mut rng = StdRng::seed_from_u64(29);
        let total_rate = 10.0;
        let txs = WorkloadBuilder::new(PairWeights::uniform(5))
            .sender_rates(vec![2.0; 5])
            .generate(20_000, &mut rng);
        let horizon = txs.last().unwrap().time;
        let empirical = txs.len() as f64 / horizon;
        assert!(
            (empirical - total_rate).abs() / total_rate < 0.05,
            "empirical rate {empirical} vs {total_rate}"
        );
    }

    #[test]
    #[should_panic(expected = "all sender rates are zero")]
    fn all_zero_rates_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::uniform(2))
            .sender_rates(vec![0.0, 0.0])
            .generate(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no sender with a positive rate")]
    fn single_user_panics_instead_of_hanging() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::uniform(1)).generate(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no sender with a positive rate")]
    fn all_zero_rows_panic_instead_of_hanging() {
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::new(vec![vec![0.0; 3]; 3])).generate(1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "no sender with a positive rate")]
    fn senders_without_receivers_panic_instead_of_hanging() {
        // Only sender 1 has receivers, and it never sends.
        let mut rng = StdRng::seed_from_u64(1);
        WorkloadBuilder::new(PairWeights::new(vec![vec![0.0, 0.0], vec![1.0, 0.0]]))
            .sender_rates(vec![1.0, 0.0])
            .generate(1, &mut rng);
    }
}
