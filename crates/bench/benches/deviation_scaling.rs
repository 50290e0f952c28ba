//! Bound-pruned deviation search vs the exhaustive reference on the §IV
//! star game, across n.
//!
//! Head-to-head legs (n = 6, 8, 10) run both configurations, assert
//! verdict- and deviation-identity, and record candidate/Brandes-source
//! counters plus wall clock. An extended pruned-only sweep (n = 12 … 24)
//! demonstrates the regime the exhaustive walk cannot reach: a leaf of the
//! n = 24 star owns 1 channel and can add up to 22, i.e. 2 · 2²² ≈ 8.4M
//! candidates per player exhaustively, while the class-level bound leaves
//! a few dozen evaluations.
//!
//! Beyond the criterion timings, the bench writes a machine-readable
//! `BENCH_deviation.json` at the repo root; CI smoke-runs the bench and
//! validates the JSON. Hard claims checked here (issue acceptance): at
//! n = 10 the accelerated search performs ≥ 5× fewer Brandes source
//! recomputations than the exhaustive walk, and the extended sweep
//! completes through n ≥ 20.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lcg_equilibria::game::{Game, GameParams};
use lcg_equilibria::nash::{DeviationSearch, NashAnalyzer, NashReport};
use lcg_obs::json::Json;
use std::time::Instant;

/// The Thm 7 stable-star regime: Zipf bias strong enough that leaves keep
/// their hub channel and no chord pays.
fn star_params() -> GameParams {
    GameParams {
        zipf_s: 6.0,
        a: 0.4,
        b: 0.4,
        link_cost: 1.0,
        ..GameParams::default()
    }
}

struct HeadToHead {
    n: usize,
    exhaustive: NashReport,
    pruned: NashReport,
    exhaustive_ms: f64,
    pruned_ms: f64,
}

struct SweepPoint {
    n: usize,
    report: NashReport,
    ms: f64,
}

fn timed_check(game: &Game, search: DeviationSearch) -> (NashReport, f64) {
    let start = Instant::now();
    let report = NashAnalyzer::with_search(search).check(game);
    (report, start.elapsed().as_secs_f64() * 1e3)
}

fn run_head_to_head(n: usize) -> HeadToHead {
    let game = Game::star(n, star_params());
    let (exhaustive, exhaustive_ms) = timed_check(&game, DeviationSearch::exhaustive());
    let (pruned, pruned_ms) = timed_check(&game, DeviationSearch::default());
    assert_eq!(
        pruned.is_equilibrium, exhaustive.is_equilibrium,
        "n = {n}: verdicts diverged"
    );
    assert_eq!(
        pruned.deviations, exhaustive.deviations,
        "n = {n}: deviations diverged"
    );
    assert_eq!(
        pruned.explored + pruned.bound_pruned,
        exhaustive.explored,
        "n = {n}: candidate accounting"
    );
    HeadToHead {
        n,
        exhaustive,
        pruned,
        exhaustive_ms,
        pruned_ms,
    }
}

/// The machine-readable artifact as a `lcg_obs::json::Json` document:
/// rendering rejects non-finite numbers, so a NaN'd timing can no longer
/// slip an invalid artifact past CI (the old hand-rolled `format!` writer
/// happily emitted literal `NaN`).
fn json_for(head: &[HeadToHead], sweep: &[SweepPoint]) -> Json {
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let head_to_head: Vec<Json> = head
        .iter()
        .map(|h| {
            Json::object([
                ("n".to_string(), Json::U64(h.n as u64)),
                (
                    "is_equilibrium".to_string(),
                    Json::Bool(h.pruned.is_equilibrium),
                ),
                (
                    "exhaustive_explored".to_string(),
                    Json::U64(h.exhaustive.explored),
                ),
                ("pruned_explored".to_string(), Json::U64(h.pruned.explored)),
                ("bound_pruned".to_string(), Json::U64(h.pruned.bound_pruned)),
                (
                    "exhaustive_sources".to_string(),
                    Json::U64(h.exhaustive.sources_recomputed),
                ),
                (
                    "pruned_sources".to_string(),
                    Json::U64(h.pruned.sources_recomputed),
                ),
                (
                    "source_factor".to_string(),
                    Json::F64(
                        h.exhaustive.sources_recomputed as f64
                            / h.pruned.sources_recomputed.max(1) as f64,
                    ),
                ),
                ("exhaustive_ms".to_string(), Json::F64(h.exhaustive_ms)),
                ("pruned_ms".to_string(), Json::F64(h.pruned_ms)),
                (
                    "wall_clock_speedup".to_string(),
                    Json::F64(h.exhaustive_ms / h.pruned_ms.max(1e-9)),
                ),
            ])
        })
        .collect();
    let pruned_sweep: Vec<Json> = sweep
        .iter()
        .map(|p| {
            Json::object([
                ("n".to_string(), Json::U64(p.n as u64)),
                (
                    "is_equilibrium".to_string(),
                    Json::Bool(p.report.is_equilibrium),
                ),
                ("candidates".to_string(), Json::U64(p.report.candidates())),
                ("explored".to_string(), Json::U64(p.report.explored)),
                ("bound_pruned".to_string(), Json::U64(p.report.bound_pruned)),
                (
                    "sources_recomputed".to_string(),
                    Json::U64(p.report.sources_recomputed),
                ),
                ("ms".to_string(), Json::F64(p.ms)),
            ])
        })
        .collect();
    Json::object([
        (
            "bench".to_string(),
            Json::Str("deviation_scaling".to_string()),
        ),
        ("hardware_threads".to_string(), Json::U64(hw as u64)),
        (
            "game".to_string(),
            Json::object([
                ("topology".to_string(), Json::Str("star".to_string())),
                ("zipf_s".to_string(), Json::F64(6.0)),
                ("a".to_string(), Json::F64(0.4)),
                ("b".to_string(), Json::F64(0.4)),
                ("link_cost".to_string(), Json::F64(1.0)),
            ]),
        ),
        (
            "acceptance".to_string(),
            Json::object([
                ("n".to_string(), Json::U64(10)),
                (
                    "min_source_recomputation_factor".to_string(),
                    Json::F64(5.0),
                ),
                ("sweep_reaches_n".to_string(), Json::U64(20)),
            ]),
        ),
        ("head_to_head".to_string(), Json::Array(head_to_head)),
        ("pruned_sweep".to_string(), Json::Array(pruned_sweep)),
    ])
}

fn bench_deviation_scaling(c: &mut Criterion) {
    let head: Vec<HeadToHead> = [6, 8, 10].into_iter().map(run_head_to_head).collect();
    for h in &head {
        println!(
            "deviation: n={} evals {} -> {} (pruned {}), sources {} -> {} ({:.1}x fewer), wall {:.1}ms -> {:.1}ms",
            h.n,
            h.exhaustive.explored,
            h.pruned.explored,
            h.pruned.bound_pruned,
            h.exhaustive.sources_recomputed,
            h.pruned.sources_recomputed,
            h.exhaustive.sources_recomputed as f64 / h.pruned.sources_recomputed.max(1) as f64,
            h.exhaustive_ms,
            h.pruned_ms,
        );
    }

    let n10 = head.iter().find(|h| h.n == 10).expect("n = 10 leg present");
    assert!(
        n10.pruned.sources_recomputed * 5 <= n10.exhaustive.sources_recomputed,
        "acceptance: n = 10 must recompute >= 5x fewer Brandes sources, got {} vs {}",
        n10.pruned.sources_recomputed,
        n10.exhaustive.sources_recomputed
    );

    let sweep: Vec<SweepPoint> = [12, 16, 20, 24]
        .into_iter()
        .map(|n| {
            let game = Game::star(n, star_params());
            let (report, ms) = timed_check(&game, DeviationSearch::default());
            println!(
                "deviation sweep: n={} candidates={} explored={} pruned={} sources={} wall {:.1}ms ({})",
                n,
                report.explored + report.bound_pruned,
                report.explored,
                report.bound_pruned,
                report.sources_recomputed,
                ms,
                if report.is_equilibrium { "equilibrium" } else { "unstable" },
            );
            SweepPoint { n, report, ms }
        })
        .collect();
    assert!(
        sweep.iter().any(|p| p.n >= 20),
        "acceptance: the pruned sweep must reach n >= 20"
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_deviation.json");
    if let Err(e) = lcg_obs::json::write_file(path, &json_for(&head, &sweep)) {
        eprintln!("bench: {e}");
        std::process::exit(1);
    }
    println!("bench: wrote {path}");

    // Criterion timings on the n = 8 head-to-head game.
    let game = Game::star(8, star_params());
    let mut group = c.benchmark_group("deviation_scaling");
    group.sample_size(10);
    group.bench_with_input(BenchmarkId::new("exhaustive", 8), &game, |b, g| {
        b.iter(|| NashAnalyzer::exhaustive().check(g))
    });
    group.bench_with_input(BenchmarkId::new("pruned", 8), &game, |b, g| {
        b.iter(|| NashAnalyzer::new().check(g))
    });
    group.finish();
}

criterion_group!(benches, bench_deviation_scaling);
criterion_main!(benches);
