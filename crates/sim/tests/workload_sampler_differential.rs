//! Differential suite for the payment-stream sampler.
//!
//! `WorkloadBuilder::generate` draws senders by a guarded prefix-sum
//! search and receivers by one scan against a cached row total (or a
//! closed form for uniform rows); `WorkloadBuilder::generate_reference`
//! re-sums every total and walks the subtracting scan. Every check below runs both on
//! identically seeded RNGs and asserts that every `Tx` is equal bit for
//! bit (time, sender, receiver, size) and that the next `u64` each RNG
//! yields is equal, which proves the draws were consumed draw for draw.

use lcg_core::zipf::ZipfVariant;
use lcg_core::TransactionModel;
use lcg_graph::generators::{self, Topology};
use lcg_sim::fees::TxSizeDistribution;
use lcg_sim::workload::{PairWeights, Tx, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Transactions per stream.
const COUNT: usize = 1_500;

/// Generates `COUNT` transactions both ways from `seed`, asserts they are
/// identical and returns how many sender draws the guard handed to the
/// scan.
fn assert_same_stream(builder: &WorkloadBuilder, seed: u64, label: &str) -> usize {
    assert_same_stream_with(builder, || StdRng::seed_from_u64(seed), label)
}

fn assert_same_stream_with<R: RngCore>(
    builder: &WorkloadBuilder,
    rng: impl Fn() -> R,
    label: &str,
) -> usize {
    let (mut fast_rng, mut slow_rng) = (rng(), rng());
    let (fast, fallbacks) = builder.generate_counted(COUNT, &mut fast_rng);
    let slow = builder.generate_reference(COUNT, &mut slow_rng);
    assert_eq!(fast.len(), COUNT, "{label}");
    assert_eq!(slow.len(), COUNT, "{label}");
    for (i, (a, b)) in fast.iter().zip(&slow).enumerate() {
        assert!(same_tx(a, b), "{label}: tx {i} differs: {a:?} vs {b:?}");
    }
    assert_eq!(
        fast_rng.next_u64(),
        slow_rng.next_u64(),
        "{label}: RNG streams diverged"
    );
    fallbacks
}

fn same_tx(a: &Tx, b: &Tx) -> bool {
    a.time.to_bits() == b.time.to_bits()
        && a.sender == b.sender
        && a.receiver == b.receiver
        && a.size.to_bits() == b.size.to_bits()
}

/// Rates with zeros, non-integer values and a spread of magnitudes; user
/// 0 always sends so a stream exists whenever row 0 has receivers.
fn uneven_rates(n: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..n)
        .map(|i| match (i, rng.gen_range(0..4)) {
            (0, _) => 1.5,
            (_, 0) => 0.0,
            (_, 1) => rng.gen_range(0.0..0.01),
            _ => rng.gen_range(0.0..20.0),
        })
        .collect()
}

/// ER and BA hosts of the sizes the experiments and perfbench use.
fn hosts() -> Vec<(String, Topology)> {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut out = Vec::new();
    for n in [2, 9, 60, 170] {
        let g = generators::erdos_renyi(n, 0.1, &mut rng);
        out.push((format!("ER-{n}"), g));
    }
    for n in [17, 120, 500] {
        let g = generators::barabasi_albert(n, 2, &mut rng);
        out.push((format!("BA-{n}"), g));
    }
    out
}

fn ones(n: usize) -> PairWeights {
    PairWeights::new(
        (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0.0 } else { 1.0 }).collect())
            .collect(),
    )
}

#[test]
fn uniform_weights_match_the_scan_on_er_and_ba_hosts() {
    for (name, host) in hosts() {
        let n = host.node_bound();
        let mut rng = StdRng::seed_from_u64(n as u64);
        let rates = uneven_rates(n, &mut rng);
        for (pairs, kind) in [
            (PairWeights::uniform(n), "uniform"),
            (ones(n), "dense ones"),
        ] {
            let unit =
                WorkloadBuilder::new(pairs.clone()).sizes(TxSizeDistribution::Uniform { max: 3.0 });
            assert_same_stream(&unit, 11, &format!("{name} {kind}, unit rates"));
            let uneven = WorkloadBuilder::new(pairs).sender_rates(rates.clone());
            assert_same_stream(&uneven, 12, &format!("{name} {kind}, uneven rates"));
        }
        // The implicit uniform matrix and its stored copy draw alike.
        let mut a = StdRng::seed_from_u64(13);
        let mut b = StdRng::seed_from_u64(13);
        assert_eq!(
            WorkloadBuilder::new(PairWeights::uniform(n)).generate(COUNT, &mut a),
            WorkloadBuilder::new(ones(n)).generate(COUNT, &mut b),
            "{name}: uniform vs dense ones"
        );
    }
}

#[test]
fn zipf_weights_from_the_transaction_model_match_the_scan() {
    for (name, host) in hosts() {
        let n = host.node_bound();
        let mut rng = StdRng::seed_from_u64(100 + n as u64);
        for variant in [ZipfVariant::Averaged, ZipfVariant::Literal] {
            for s in [0.0, 0.8, 2.0, 6.0] {
                let rates = uneven_rates(n, &mut rng);
                let model = TransactionModel::zipf(&host, s, variant, rates);
                let builder = WorkloadBuilder::new(model.to_pair_weights())
                    .sender_rates(model.sender_rates())
                    .sizes(TxSizeDistribution::TruncatedExp {
                        mean: 1.0,
                        max: 4.0,
                    });
                let label = format!("{name} Zipf s={s} {variant:?}");
                assert_same_stream(&builder, 200 + n as u64, &label);
            }
        }
    }
}

#[test]
fn zero_containing_non_integer_rows_match_the_scan() {
    let mut rng = StdRng::seed_from_u64(7);
    for n in [2, 3, 16, 17, 33, 90] {
        for round in 0..4 {
            let weights: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let empty_row = i > 0 && rng.gen_bool(0.2);
                    (0..n)
                        .map(|j| match rng.gen_range(0..5) {
                            _ if empty_row && i != j => 0.0,
                            0 | 1 => 0.0,
                            2 => rng.gen_range(0.0..1e-3),
                            _ => rng.gen_range(0.0..10.0),
                        })
                        .collect()
                })
                .collect();
            // Sender 0 always has a receiver.
            let mut weights = weights;
            weights[0][n - 1] = 0.75;
            let rates = uneven_rates(n, &mut rng);
            let builder = WorkloadBuilder::new(PairWeights::new(weights)).sender_rates(rates);
            assert_same_stream(&builder, round, &format!("random n={n} round {round}"));
        }
    }
}

#[test]
fn weights_spanning_six_hundred_decades_match_the_scan() {
    let mut rng = StdRng::seed_from_u64(9);
    for n in [5, 40, 130] {
        let weights: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..n)
                    .map(|_| {
                        if rng.gen_bool(0.2) {
                            0.0
                        } else {
                            10f64.powf(rng.gen_range(-300.0..300.0))
                        }
                    })
                    .collect()
            })
            .collect();
        let rates = (0..n)
            .map(|_| 10f64.powf(rng.gen_range(-300.0..300.0)))
            .collect();
        let builder = WorkloadBuilder::new(PairWeights::new(weights)).sender_rates(rates);
        assert_same_stream(&builder, n as u64, &format!("1e-300..1e300, n={n}"));
    }
}

/// An RNG whose `u64`s keep only their top five bits, so every
/// `gen_range(0.0..total)` is a multiple of `total / 32`: on integer
/// weights the picks land exactly on running-sum boundaries.
struct CoarseRng(StdRng);

impl RngCore for CoarseRng {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64() & !((1 << 59) - 1)
    }
}

#[test]
fn boundary_picks_and_sub_margin_entries_fall_back_to_the_scan() {
    const TINY: f64 = 1e-300;
    // 16 users. Rates sum to 32, with a sub-margin rate in the middle and
    // zero last. A running sum stays exactly integer across a tiny entry,
    // so a pick on that integer selects the tiny entry in the scan (it is
    // the first with `pick < w` after the subtraction reaches 0.0) while
    // the prefix search lands on the next entry. Receiver rows mix unit
    // and tiny columns the same way.
    let n = 16;
    let weights = (0..n)
        .map(|_| {
            (0..n)
                .map(|j| if j % 2 == 0 { 1.0 } else { TINY })
                .collect()
        })
        .collect();
    let mut rates = vec![2.0; n];
    rates[5] = TINY;
    rates[n - 1] = 0.0;
    rates[0] = 6.0;
    let builder = WorkloadBuilder::new(PairWeights::new(weights)).sender_rates(rates);
    let fallbacks = assert_same_stream_with(
        &builder,
        || CoarseRng(StdRng::seed_from_u64(21)),
        "coarse picks on integer sums",
    );
    assert!(fallbacks > 0, "the guard never handed a draw to the scan");

    let mut rng = CoarseRng(StdRng::seed_from_u64(21));
    let txs = builder.generate(COUNT, &mut rng);
    assert!(
        txs.iter().any(|t| t.sender.index() == 5),
        "no pick selected the sub-margin sender"
    );
    assert!(
        txs.iter().any(|t| t.receiver.index() % 2 == 1),
        "no pick selected a sub-margin receiver"
    );
    assert!(txs.iter().all(|t| t.sender.index() != n - 1));

    // Uniform weights under the same RNG: the closed form meets the scan
    // on exact integer picks too.
    for n in [2, 5, 33] {
        let uniform = WorkloadBuilder::new(PairWeights::uniform(n));
        assert_same_stream_with(
            &uniform,
            || CoarseRng(StdRng::seed_from_u64(n as u64)),
            &format!("coarse picks, uniform({n})"),
        );
    }
}
