//! Computational Nash-equilibrium verification by deviation enumeration.
//!
//! The paper analyses star, path and circle topologies by hand-enumerating
//! the deviations of a single node (Thm 8's six strategies, Thm 10's
//! endpoint rewiring, Thm 11's opposite chord). This module mechanizes the
//! check: for each player it enumerates *every* combination of
//! removing owned channels and adding channels to non-neighbors and tests
//! whether any strictly improves the player's utility. Exponential in the
//! degree and anti-degree — exactly what the paper's NP-hardness citation
//! (Thm 2 of \[19\]) predicts — so the raw enumeration is only viable for
//! the small `n` of §IV.
//!
//! Two things keep the enumeration affordable, and neither changes a
//! verdict or a single output bit:
//!
//! * **Branch-and-bound pruning** (on by default, opt-out via
//!   [`DeviationSearch`]). Candidates are enumerated lazily by
//!   bitmask, grouped into classes that share a remove-set and an add-set
//!   *size*. Every member of a class has the same link bill and the same
//!   degree envelope, so an admissible upper bound on the post-deviation
//!   utility (revenue capped by the Zipf mass the player can possibly
//!   intermediate, fees bounded below by one guaranteed hop, link costs
//!   exact) holds for the whole class. A class whose bound cannot beat the
//!   incumbent is skipped wholesale and counted in
//!   [`NashReport::bound_pruned`]; since the bound is admissible the
//!   surviving incumbent — and hence the verdict — is identical to the
//!   exhaustive walk's.
//! * **Memoised single-player evaluation.** Every utility the walk needs
//!   goes through the [`DeviationCache`]; a miss runs the player's
//!   [`DeviationKernel`], which splices the candidate into a flat copy of
//!   the base adjacency, ranks each sender's Zipf row from degree counts
//!   and accumulates only the player's own Brandes dependency: one BFS per
//!   live player, counted in [`NashReport::sources_recomputed`], with the
//!   same utility bits as [`Game::utility`] on the deviated game. No
//!   incremental engine sits behind it: on the §IV games (at most about 25
//!   nodes) one player's rewiring reshapes almost every shortest-path tree,
//!   so affected-source pruning saved no work (DESIGN.md, "Scaling the
//!   deviation search").

use crate::game::Game;
use crate::kernel::DeviationKernel;
use lcg_core::delta_eval::DeltaRevenueOracle;
use lcg_core::eval_cache::EvalCacheStats;
use lcg_core::zipf::{generalized_harmonic, ZipfVariant};
use lcg_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A profitable unilateral deviation found by the checker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Deviation {
    /// The deviating player.
    pub player: NodeId,
    /// Owned channels the player closes.
    pub remove: Vec<NodeId>,
    /// New channels the player creates.
    pub add: Vec<NodeId>,
    /// Utility before the deviation.
    pub utility_before: f64,
    /// Utility after the deviation.
    pub utility_after: f64,
}

impl Deviation {
    /// Strict improvement margin.
    pub fn gain(&self) -> f64 {
        self.utility_after - self.utility_before
    }
}

/// Outcome of a full equilibrium check.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NashReport {
    /// `true` iff no player has a strictly profitable deviation.
    pub is_equilibrium: bool,
    /// The most profitable deviation per player that has one.
    pub deviations: Vec<Deviation>,
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped wholesale because their class's admissible
    /// utility upper bound could not beat the incumbent.
    /// `explored + bound_pruned` equals the exhaustive candidate count.
    #[serde(default)]
    pub bound_pruned: u64,
    /// BFS passes paid for cache-miss utility evaluations across all
    /// players: every live player per miss (each other player as a Brandes
    /// source, the deviating player for its fees).
    #[serde(default)]
    pub sources_recomputed: u64,
    /// Utility lookups answered from the deviation cache (non-zero when
    /// the caller shares a cache across checks, e.g. after dynamics).
    pub cache_hits: u64,
}

impl NashReport {
    /// Total candidates the exhaustive walk would enumerate:
    /// `explored + bound_pruned`.
    pub fn candidates(&self) -> u64 {
        self.explored + self.bound_pruned
    }

    /// Fraction of candidates skipped wholesale by the class bound.
    pub fn pruned_fraction(&self) -> f64 {
        lcg_obs::stats::part_of_total(self.bound_pruned, self.explored)
    }
}

/// Memo from `(player, game state)` to utility, shared across deviation
/// enumerations. The same states recur constantly — best-response rounds
/// re-explore every non-moving player's neighborhood, and a converged
/// run's final round repeats the previous one verbatim — so the memo
/// turns those repeats into hash lookups. Thread-safe: the parallel
/// per-player checks share one cache by reference.
///
/// A cache is only valid for games over one player set and one
/// [`GameParams`](crate::game::GameParams); sharing it across different
/// games returns stale utilities.
///
/// Keys are packed `(player id, channel set)` state fingerprints (see
/// [`state_key`]).
#[derive(Debug)]
pub struct DeviationCache {
    map: Mutex<HashMap<Box<[u64]>, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    capacity: usize,
}

/// The deviation cache's key for `player` in `game`: the player id in word
/// 0, then two bits per unordered node pair `{a < b}` at pair index
/// `b(b − 1)/2 + a` — 0 for no channel, 1 if `a` owns it, 2 if `b` does, 3
/// if nobody does — with trailing zero words trimmed. Two states over the
/// same player set get the same key iff their
/// [`Game::canonical_channels`] are equal, and a key is a few words where
/// the channel list would be a dozen triples.
pub fn state_key(game: &Game, player: NodeId) -> Vec<u64> {
    let mut key = vec![player.index() as u64];
    for (a, b, owner) in game.canonical_channels() {
        let code = match owner {
            o if o == a => 1,
            o if o == b => 2,
            _ => 3,
        };
        set_channel(&mut key, a as usize, b as usize, code);
    }
    trim_key(&mut key);
    key
}

/// Sets the two bits of the pair `{a < b}` in `key` to `code`.
pub(crate) fn set_channel(key: &mut Vec<u64>, a: usize, b: usize, code: u64) {
    let bit = 2 * (b * (b - 1) / 2 + a);
    let word = 1 + bit / 64;
    if key.len() <= word {
        key.resize(word + 1, 0);
    }
    let shift = bit % 64;
    key[word] = (key[word] & !(3 << shift)) | (code << shift);
}

/// Drops trailing zero words, so equal channel sets give equal keys.
pub(crate) fn trim_key(key: &mut Vec<u64>) {
    while key.len() > 1 && key.last() == Some(&0) {
        key.pop();
    }
}

impl Default for DeviationCache {
    fn default() -> Self {
        DeviationCache::with_capacity(1 << 18)
    }
}

impl DeviationCache {
    /// An empty cache (default capacity bound).
    pub fn new() -> Self {
        DeviationCache::default()
    }

    /// An empty cache bounded to `capacity` resident states.
    pub fn with_capacity(capacity: usize) -> Self {
        DeviationCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            capacity,
        }
    }

    /// `player`'s utility in `game`, memoized on the state fingerprint. A
    /// miss runs [`Game::utility`].
    pub fn utility_of(&self, game: &Game, player: NodeId) -> f64 {
        self.lookup(&state_key(game, player), || game.utility(player))
            .0
    }

    /// The value memoised under `key`, or `compute()` stored under it on a
    /// miss; also says whether the lookup missed. `key` is copied only
    /// when it is stored.
    fn lookup(&self, key: &[u64], compute: impl FnOnce() -> f64) -> (f64, bool) {
        let found = self
            .map
            .lock()
            .expect("deviation cache poisoned")
            .get(key)
            .copied();
        if let Some(value) = found {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if lcg_obs::enabled() {
                lcg_obs::counter!("equilibria/deviation_cache/hits").inc();
            }
            return (value, false);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if lcg_obs::enabled() {
            lcg_obs::counter!("equilibria/deviation_cache/misses").inc();
        }
        let value = compute();
        let mut map = self.map.lock().expect("deviation cache poisoned");
        if map.len() < self.capacity || map.contains_key(key) {
            map.insert(key.into(), value);
        }
        (value, true)
    }

    /// Current counters (entries = resident states).
    pub fn stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.map.lock().expect("deviation cache poisoned").len(),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        self.map.lock().expect("deviation cache poisoned").clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

/// Tolerance below which a utility change does not count as profitable
/// (guards floating-point noise in the harmonic sums).
pub const GAIN_EPSILON: f64 = 1e-9;

/// Relative slack absorbing floating-point error in the admissible bound
/// (harmonic normalizers and probability row sums are computed in floats).
const BOUND_SLACK: f64 = 1e-9;

/// Knobs for the deviation search. The default turns bound pruning on;
/// [`DeviationSearch::exhaustive`] is the reference configuration the
/// differential tests compare against. Both return the same verdict and
/// the same deviations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationSearch {
    /// Skip whole remove-set × add-size classes whose admissible utility
    /// upper bound cannot beat the incumbent (counted in
    /// [`NashReport::bound_pruned`]).
    pub bound_pruning: bool,
}

impl Default for DeviationSearch {
    fn default() -> Self {
        DeviationSearch {
            bound_pruning: true,
        }
    }
}

impl DeviationSearch {
    /// The unaccelerated reference: enumerate and evaluate everything.
    pub fn exhaustive() -> Self {
        DeviationSearch {
            bound_pruning: false,
        }
    }
}

/// Per-player search counters, summed in player order so reports are
/// identical at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Deviations actually evaluated.
    pub explored: u64,
    /// Candidates skipped by the class-level upper bound.
    pub bound_pruned: u64,
    /// BFS passes paid on cache misses: every live player per miss.
    pub sources_recomputed: u64,
}

impl SearchStats {
    fn absorb(&mut self, other: SearchStats) {
        self.explored += other.explored;
        self.bound_pruned += other.bound_pruned;
        self.sources_recomputed += other.sources_recomputed;
    }
}

/// A [`DeltaRevenueOracle`] under `game`'s revenue weight `b`.
///
/// Exists only for the `certify` probe of the end-to-end benchmark; the
/// search itself evaluates through [`DeviationKernel`].
#[derive(Debug)]
pub struct EvalContext {
    oracle: DeltaRevenueOracle,
}

impl EvalContext {
    /// The oracle for `game`'s parameters; `search` is ignored.
    pub fn new(game: &Game, _search: &DeviationSearch) -> Self {
        EvalContext {
            oracle: DeltaRevenueOracle::new(game.params().b),
        }
    }

    /// The revenue oracle.
    pub fn oracle(&self) -> &DeltaRevenueOracle {
        &self.oracle
    }
}

/// Yields the `mask < 2^n` bitmasks of popcount `k` in ascending numeric
/// order (Gosper's hack), lazily — the search never materializes a power
/// set.
fn sized_masks(n: usize, k: usize) -> impl Iterator<Item = u64> {
    assert!(n < 64, "mask enumeration bounded to 63 items");
    let limit = 1u64 << n;
    let mut next = if k > n {
        None
    } else if k == 0 {
        Some(0)
    } else {
        Some((1u64 << k) - 1)
    };
    std::iter::from_fn(move || {
        let mask = next?;
        next = if mask == 0 {
            None
        } else {
            let carry = mask & mask.wrapping_neg();
            let ripple = mask + carry;
            let successor = (((ripple ^ mask) >> 2) / carry) | ripple;
            (successor < limit).then_some(successor)
        };
        Some(mask)
    })
}

/// The items selected by `mask`, in slice order.
fn gather<T: Copy>(items: &[T], mask: u64) -> Vec<T> {
    (0..items.len())
        .filter(|i| mask & (1 << i) != 0)
        .map(|i| items[i])
        .collect()
}

/// Exact `C(n, k)` (intermediates in `u128`; every prefix product of the
/// multiplicative formula is an integer).
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 0..k {
        c = c * (n - i) as u128 / (i as u128 + 1);
    }
    c as u64
}

/// The utility a candidate must strictly exceed (by [`GAIN_EPSILON`]) to
/// be accepted, mirroring the acceptance test exactly; `None` means no
/// finite threshold exists yet (the player is at `−∞` and anything finite
/// wins), so nothing may be pruned.
fn prune_threshold(before: f64, best: &Option<Deviation>) -> Option<f64> {
    match (before == f64::NEG_INFINITY, best) {
        (true, None) => None,
        (true, Some(b)) => Some(b.utility_after),
        (false, None) => Some(before),
        (false, Some(b)) => Some(before.max(b.utility_after)),
    }
}

/// Admissible per-class upper bound on one player's post-deviation
/// utility.
///
/// A class fixes the remove-set `R` and the add-set *size* `k`, which pins
/// the player's post-deviation degree `deg(p) − |R| + k` and link bill
/// `l · (owned − |R| + k)` exactly. Revenue is bounded by noting that a
/// sender `s` routes no revenue through `p` for receivers adjacent to `s`
/// (one-hop pairs have no intermediary) nor for the pair `(s, p)` itself,
/// so `p`'s take from `s` is at most `b · (1 − Σ_{r ∈ N(s)\{p}} P'(s, r)
/// − P'(s, p))`. Each subtracted probability is lower-bounded through the
/// Zipf rank machinery: a pessimistic (largest possible) degree rank for
/// the receiver — receivers may lose at most their channel to `p`, rivals
/// may gain at most one channel from `p` — gives a smallest possible rank
/// factor, divided by the harmonic normalizer padded with
/// [`BOUND_SLACK`] to absorb float rounding in the real model's
/// normalization. Expected fees are bounded below by one guaranteed hop,
/// `a · units(1)` (every receiver is at distance ≥ 1; unreachable
/// receivers only push fees to `+∞`). Only valid for the
/// [`ZipfVariant::Averaged`] reading with non-negative `a`, `b`, `l`;
/// otherwise there is no bound and nothing is pruned.
///
/// The rivals' largest degrees depend only on the sender and on whether
/// the class adds any channel, so their suffix counts are tabulated once
/// per player; a class then costs one lookup per (sender, receiver) pair,
/// `O(n + m)`, and every rank — hence every float operation — is the one
/// a full scan over the nodes would give.
struct UtilityBound {
    player: usize,
    b: f64,
    link_cost: f64,
    fee_floor: f64,
    /// `rank_mass[r] = r^(−s) / h_den`: the smallest probability a
    /// receiver of pessimistic rank `r` can carry.
    rank_mass: Vec<f64>,
    deg: Vec<i64>,
    adj: Vec<Vec<bool>>,
    /// Base neighbours of every node, ascending.
    neighbours: Vec<Vec<NodeId>>,
    addable: Vec<bool>,
    senders: Vec<NodeId>,
    /// `rivals[(s · 2 + gain) · stride + d]`: live nodes other than `s`
    /// and the player whose largest degree in `G' \ {s}` is at least `d`,
    /// where `gain` says whether the class adds any channel.
    rivals: Vec<usize>,
    stride: usize,
    /// The class's remove-set as a mask (scratch).
    removed: Vec<bool>,
}

impl UtilityBound {
    /// The bound for `player`'s classes, or `None` where it is not
    /// admissible.
    fn new(game: &Game, player: NodeId) -> Option<Self> {
        let graph = game.graph();
        let params = game.params();
        let n_live = graph.node_count();
        let finite = [params.a, params.b, params.link_cost, params.zipf_s]
            .iter()
            .all(|x| x.is_finite());
        let enabled = finite
            && params.a >= 0.0
            && params.b >= 0.0
            && params.link_cost >= 0.0
            && params.zipf_s >= 0.0
            && params.zipf_variant == ZipfVariant::Averaged
            && n_live >= 2;
        if !enabled {
            return None;
        }
        let bound = graph.node_bound();
        let mut deg = vec![0i64; bound];
        let mut adj = vec![vec![false; bound]; bound];
        let mut neighbours = vec![Vec::new(); bound];
        for v in graph.node_ids() {
            deg[v.index()] = graph.in_degree(v) as i64;
            neighbours[v.index()] = graph.neighbors(v);
            for &w in &neighbours[v.index()] {
                adj[v.index()][w.index()] = true;
            }
        }
        let mut addable = vec![false; bound];
        for v in graph.node_ids() {
            if v != player && !adj[player.index()][v.index()] {
                addable[v.index()] = true;
            }
        }
        let h_den = generalized_harmonic(n_live - 1, params.zipf_s) * (1.0 + BOUND_SLACK);
        let rank_mass = (0..=n_live)
            .map(|r| (r as f64).powf(-params.zipf_s) / h_den)
            .collect();
        let mut this = UtilityBound {
            player: player.index(),
            b: params.b,
            link_cost: params.link_cost,
            fee_floor: params.a * params.hop_charging.units(1) * (1.0 - BOUND_SLACK),
            rank_mass,
            deg,
            adj,
            neighbours,
            addable,
            senders: graph.node_ids().collect(),
            // Degrees stay below `bound`; a rival gains at most one.
            rivals: vec![0; bound * 2 * (bound + 2)],
            stride: bound + 2,
            removed: vec![false; bound],
        };
        for &s in &this.senders {
            for gain in [false, true] {
                let row = (s.index() * 2 + usize::from(gain)) * this.stride;
                for &v in &this.senders {
                    if v != s && v != player {
                        let d = this.rival_degree(v.index(), s.index(), gain) as usize;
                        this.rivals[row + d] += 1;
                    }
                }
                for d in (0..this.stride - 1).rev() {
                    this.rivals[row + d] += this.rivals[row + d + 1];
                }
            }
        }
        Some(this)
    }

    /// Largest degree a rival `v` can reach in the deviated `G' \ {s}`:
    /// it may gain one channel from the player if the class adds any.
    fn rival_degree(&self, v: usize, s: usize, gain: bool) -> i64 {
        self.deg[v] - i64::from(self.adj[v][s]) + i64::from(gain && self.addable[v])
    }

    /// Upper bound over every deviation that removes exactly `removed` and
    /// adds channels to any `k` distinct addable targets.
    fn upper_bound(&mut self, removed: &[NodeId], k: usize, owned_len: usize) -> f64 {
        let p = self.player;
        for &r in removed {
            self.removed[r.index()] = true;
        }
        let gain = k >= 1;
        let deg_p_after = self.deg[p] - removed.len() as i64 + k as i64;
        let mut cap = 0.0f64;
        for &s in &self.senders {
            let si = s.index();
            if si == p {
                continue;
            }
            let row = (si * 2 + usize::from(gain)) * self.stride;
            let rivals = &self.rivals[row..row + self.stride];
            let rivals_at_least = |d: i64| rivals.get(d.max(0) as usize).copied().unwrap_or(0);
            // The player's own degree in `G' \ {s}` is pinned by the class.
            let kept_to_s = self.adj[p][si] && !self.removed[si];
            let deg_p = deg_p_after - i64::from(kept_to_s);
            let mut mass = 1.0 + BOUND_SLACK;
            // Base neighbors of `s` other than `p` stay adjacent in every
            // deviation, so their pairs never pay `p`. Each receiver of
            // guaranteed min-degree `dmin` can fall to the worst (largest)
            // rank among the live nodes of `G' \ {s}`.
            for &r in &self.neighbours[si] {
                let ri = r.index();
                if ri == p {
                    continue;
                }
                let dmin = self.deg[ri] - 1 - i64::from(self.removed[ri]);
                let others = rivals_at_least(dmin) + usize::from(deg_p >= dmin)
                    - usize::from(self.rival_degree(ri, si, gain) >= dmin);
                mass -= self.rank_mass[1 + others];
            }
            // The pair (s, p) is excluded from p's revenue regardless of
            // adjacency.
            mass -= self.rank_mass[1 + rivals_at_least(deg_p_after - 1)];
            cap += mass.max(0.0);
        }
        for &r in removed {
            self.removed[r.index()] = false;
        }
        let links = (owned_len - removed.len() + k) as f64;
        self.b * cap * (1.0 + BOUND_SLACK) + BOUND_SLACK - self.fee_floor - self.link_cost * links
    }
}

/// The per-player deviation search behind [`NashAnalyzer`]: explicit
/// [`DeviationSearch`] knobs and the per-player [`SearchStats`].
///
/// Both configurations return the same `Option<Deviation>`: the bound is
/// admissible, and pruned and exhaustive walks share one enumeration
/// order, so the incumbent trajectory — including [`GAIN_EPSILON`]
/// tie-breaks — is identical.
pub(crate) fn search_player(
    game: &Game,
    player: NodeId,
    cache: &DeviationCache,
    search: DeviationSearch,
) -> (Option<Deviation>, SearchStats) {
    // Per-player wall time: one span per enumeration, annotated with the
    // masks explored and bound-pruned classes once the walk finishes.
    let mut player_span = lcg_obs::span::span("equilibria/player_deviation");
    player_span.field_u64("player", player.index() as u64);

    let n_live = game.graph().node_count() as u64;
    let mut stats = SearchStats::default();
    // Utility lookup through the cache, keyed without building the
    // deviated game; a miss runs the kernel, one BFS per live player.
    let mut kernel = DeviationKernel::new(game, player);
    let mut key = Vec::new();
    let mut evaluate = |remove: &[NodeId], add: &[NodeId], stats: &mut SearchStats| -> f64 {
        kernel.write_state_key(remove, add, &mut key);
        let (value, computed) = cache.lookup(&key, || kernel.utility(remove, add));
        if computed {
            stats.sources_recomputed += n_live;
        }
        value
    };

    let before = evaluate(&[], &[], &mut stats);
    let owned = game.owned_channels(player);
    let neighbors = game.graph().neighbors(player);
    let addable: Vec<NodeId> = game
        .graph()
        .node_ids()
        .filter(|&v| v != player && !neighbors.contains(&v))
        .collect();
    assert!(owned.len() < 64, "subset enumeration bounded to 63 items");

    let mut bound = search
        .bound_pruning
        .then(|| UtilityBound::new(game, player))
        .flatten();

    let mut best: Option<Deviation> = None;
    for r_mask in 0..(1u64 << owned.len()) {
        let remove = gather(&owned, r_mask);
        for k in 0..=addable.len() {
            if let Some(bound) = bound.as_mut() {
                let class = binomial(addable.len(), k) - u64::from(r_mask == 0 && k == 0);
                if class > 0 {
                    if let Some(threshold) = prune_threshold(before, &best) {
                        if bound.upper_bound(&remove, k, owned.len()) <= threshold + GAIN_EPSILON {
                            stats.bound_pruned += class;
                            continue;
                        }
                    }
                }
            }
            for a_mask in sized_masks(addable.len(), k) {
                if r_mask == 0 && a_mask == 0 {
                    continue;
                }
                stats.explored += 1;
                let add = gather(&addable, a_mask);
                let after = evaluate(&remove, &add, &mut stats);
                let improves = if before == f64::NEG_INFINITY {
                    after > f64::NEG_INFINITY
                } else {
                    after > before + GAIN_EPSILON
                };
                if improves
                    && best
                        .as_ref()
                        .is_none_or(|b| after > b.utility_after + GAIN_EPSILON)
                {
                    best = Some(Deviation {
                        player,
                        remove: remove.clone(),
                        add,
                        utility_before: before,
                        utility_after: after,
                    });
                }
            }
        }
    }
    if player_span.is_recording() {
        player_span.field_u64("explored", stats.explored);
        player_span.field_u64("bound_pruned", stats.bound_pruned);
        player_span.field_bool("found_deviation", best.is_some());
    }
    (best, stats)
}

/// The whole-game equilibrium check behind [`NashAnalyzer::check`].
///
/// Players deviate independently, so each player's enumeration
/// fans out to its own core when the `parallel` feature is on; results
/// come back in player order and are folded sequentially, so the report —
/// counters included — is identical at any thread count.
pub(crate) fn check_impl(
    game: &Game,
    cache: &DeviationCache,
    search: DeviationSearch,
) -> NashReport {
    let mut check_span = lcg_obs::span::span("equilibria/check");
    check_span.field_u64("players", game.graph().node_count() as u64);
    let start_hits = cache.stats().hits;
    let players: Vec<NodeId> = game.graph().node_ids().collect();
    let check_player = |&player: &NodeId| search_player(game, player, cache, search);
    #[cfg(feature = "parallel")]
    let per_player = lcg_parallel::par_map(&players, check_player);
    #[cfg(not(feature = "parallel"))]
    let per_player: Vec<(Option<Deviation>, SearchStats)> =
        players.iter().map(check_player).collect();

    let mut deviations = Vec::new();
    let mut stats = SearchStats::default();
    for (dev, player_stats) in per_player {
        stats.absorb(player_stats);
        if let Some(dev) = dev {
            deviations.push(dev);
        }
    }
    let report = NashReport {
        is_equilibrium: deviations.is_empty(),
        deviations,
        explored: stats.explored,
        bound_pruned: stats.bound_pruned,
        sources_recomputed: stats.sources_recomputed,
        cache_hits: cache.stats().hits - start_hits,
    };
    // Mirror the report counters into the global registry so RunReports
    // aggregate deviation-search effort across every check in a run.
    if check_span.is_recording() {
        check_span.field_bool("is_equilibrium", report.is_equilibrium);
        lcg_obs::counter!("equilibria/checks").inc();
        lcg_obs::counter!("equilibria/explored").add(report.explored);
        lcg_obs::counter!("equilibria/bound_pruned").add(report.bound_pruned);
        lcg_obs::counter!("equilibria/sources_recomputed").add(report.sources_recomputed);
    }
    report
}

/// The single entry point for deviation search and equilibrium checking.
///
/// Owns the [`DeviationSearch`] knobs and a [`DeviationCache`]: build an
/// analyzer, reuse it across checks, and every repeated
/// `(player, state)` utility is a hash lookup.
///
/// An analyzer is only valid for games over one player set and one
/// [`GameParams`](crate::game::GameParams) — the same caveat as
/// [`DeviationCache`].
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
/// use lcg_equilibria::nash::NashAnalyzer;
///
/// // A very biased Zipf (s large) with moderate link costs: the star is
/// // stable (Thm 7).
/// let params = GameParams { zipf_s: 12.0, a: 0.1, b: 0.1, link_cost: 1.0,
///                           ..GameParams::default() };
/// let report = NashAnalyzer::new().check(&Game::star(5, params));
/// assert!(report.is_equilibrium);
/// ```
#[derive(Debug, Default)]
pub struct NashAnalyzer {
    search: DeviationSearch,
    cache: DeviationCache,
}

impl NashAnalyzer {
    /// An analyzer with the default (fully accelerated) search and a
    /// fresh cache.
    pub fn new() -> Self {
        NashAnalyzer::default()
    }

    /// An analyzer under explicit [`DeviationSearch`] knobs.
    pub fn with_search(search: DeviationSearch) -> Self {
        NashAnalyzer {
            search,
            cache: DeviationCache::new(),
        }
    }

    /// The unaccelerated reference analyzer (exhaustive enumeration) the
    /// differential tests compare against.
    pub fn exhaustive() -> Self {
        NashAnalyzer::with_search(DeviationSearch::exhaustive())
    }

    /// The search configuration this analyzer runs.
    pub fn search(&self) -> DeviationSearch {
        self.search
    }

    /// The utility memo shared by every check this analyzer runs.
    pub fn cache(&self) -> &DeviationCache {
        &self.cache
    }

    /// Finds the best unilateral deviation of `player`, if any strictly
    /// profitable one exists.
    ///
    /// Lazily enumerates every subset of owned channels to remove × every
    /// subset of addable targets (non-neighbors; re-adding a removed
    /// neighbor is equivalent to not removing it, so such sets are
    /// excluded) — up to `2^owned · 2^addable` candidates, minus whatever
    /// the configured [`DeviationSearch`] prunes.
    pub fn best_deviation(&self, game: &Game, player: NodeId) -> (Option<Deviation>, SearchStats) {
        search_player(game, player, &self.cache, self.search)
    }

    /// Checks whether the current game state is a (pure) Nash
    /// equilibrium.
    ///
    /// Within a single check every `(player, state)` pair is distinct, so
    /// the cache pays off across calls: a check right after converged
    /// dynamics (or a repeated check) re-walks states the previous pass
    /// explored and answers them from the memo.
    pub fn check(&self, game: &Game) -> NashReport {
        check_impl(game, &self.cache, self.search)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::GameParams;

    #[test]
    fn star_with_extreme_zipf_is_stable() {
        // Thm 7: s with 1/2^s ≈ 0 and ≥ 4 leaves ⇒ star is a NE.
        let params = GameParams {
            zipf_s: 14.0,
            a: 0.2,
            b: 0.2,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::star(5, params));
        assert!(
            report.is_equilibrium,
            "deviations found: {:?}",
            report.deviations
        );
    }

    #[test]
    fn path_is_never_an_equilibrium() {
        // Thm 10: for any s ≥ 0 the endpoint prefers rewiring inward.
        for s in [0.0, 1.0, 2.0] {
            let params = GameParams {
                zipf_s: s,
                ..GameParams::default()
            };
            let report = NashAnalyzer::new().check(&Game::path(5, params));
            assert!(
                !report.is_equilibrium,
                "path unexpectedly stable at s = {s}"
            );
        }
    }

    #[test]
    fn path_endpoint_has_profitable_rewiring() {
        let params = GameParams::default();
        let game = Game::path(5, params);
        let (dev, stats) = NashAnalyzer::new().best_deviation(&game, NodeId(0));
        let dev = dev.expect("endpoint must deviate");
        assert!(dev.gain() > 0.0);
        assert!(stats.explored > 0);
    }

    #[test]
    fn large_circle_is_unstable() {
        // Thm 11: beyond some n₀ a chord deviation pays off. With cheap
        // links the threshold is small.
        let params = GameParams {
            link_cost: 0.01,
            a: 1.0,
            b: 1.0,
            zipf_s: 0.5,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(9, params));
        assert!(!report.is_equilibrium, "9-circle should admit a chord");
    }

    #[test]
    fn small_circle_is_stable_in_the_intermediate_cost_band() {
        // The circle is stable only for intermediate link costs: cheap
        // enough that nobody drops their ring edge (staying connected the
        // long way round and saving l), expensive enough that no chord
        // pays. (l = 50 at a = b = 0.1 is *unstable*: dropping the owned
        // edge saves 50 at a tiny fee increase.)
        let params = GameParams {
            link_cost: 0.6,
            a: 1.0,
            b: 1.0,
            zipf_s: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(4, params));
        assert!(report.is_equilibrium, "deviations: {:?}", report.deviations);
    }

    #[test]
    fn circle_with_exorbitant_links_collapses_by_edge_dropping() {
        let params = GameParams {
            link_cost: 50.0,
            a: 0.1,
            b: 0.1,
            zipf_s: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::circle(4, params));
        assert!(!report.is_equilibrium);
        // The profitable move is dropping the owned edge, not adding one.
        assert!(report
            .deviations
            .iter()
            .all(|d| d.add.is_empty() && !d.remove.is_empty()));
    }

    #[test]
    fn disconnected_player_always_deviates() {
        let mut game = Game::new(3, GameParams::default());
        game.add_channel(NodeId(0), NodeId(1));
        let report = NashAnalyzer::new().check(&game);
        assert!(!report.is_equilibrium);
        // Node 2 must connect somewhere (−∞ → finite).
        assert!(report.deviations.iter().any(|d| d.player == NodeId(2)));
    }

    #[test]
    fn deviation_gain_is_positive_by_construction() {
        let game = Game::path(4, GameParams::default());
        let report = NashAnalyzer::new().check(&game);
        for dev in &report.deviations {
            assert!(dev.gain() > 0.0 || dev.utility_before == f64::NEG_INFINITY);
        }
    }

    #[test]
    fn state_keys_tell_owners_apart_and_ignore_channel_order() {
        let params = GameParams::default();
        let star = Game::star(3, params);
        let mut reversed = Game::new(4, params);
        for leaf in (1..=3).rev() {
            reversed.add_channel(NodeId(leaf), NodeId(0));
        }
        let mut hub_owned = Game::new(4, params);
        for leaf in 1..=3 {
            hub_owned.add_channel(NodeId(0), NodeId(leaf));
        }
        let key = state_key(&star, NodeId(0));
        assert_eq!(key, state_key(&reversed, NodeId(0)));
        assert_ne!(key, state_key(&hub_owned, NodeId(0)));
        assert_ne!(key, state_key(&star, NodeId(1)));
        assert_eq!(state_key(&Game::new(4, params), NodeId(2)), vec![2]);
    }

    #[test]
    fn sized_masks_partition_the_power_set() {
        let n = 5;
        let mut seen = Vec::new();
        for k in 0..=n {
            let masks: Vec<u64> = sized_masks(n, k).collect();
            assert_eq!(masks.len() as u64, binomial(n, k), "k = {k}");
            assert!(masks.windows(2).all(|w| w[0] < w[1]), "ascending at {k}");
            assert!(masks.iter().all(|m| m.count_ones() as usize == k));
            seen.extend(masks);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..1u64 << n).collect::<Vec<_>>());
        assert_eq!(sized_masks(3, 4).count(), 0);
        assert_eq!(sized_masks(0, 0).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn binomial_matches_pascal() {
        for n in 0..20usize {
            for k in 0..=n {
                let pascal = if k == 0 || k == n {
                    1
                } else {
                    binomial(n - 1, k - 1) + binomial(n - 1, k)
                };
                assert_eq!(binomial(n, k), pascal, "C({n}, {k})");
            }
        }
        assert_eq!(binomial(63, 31), 916_312_070_471_295_267);
    }

    #[test]
    fn every_search_configuration_agrees() {
        // The accelerations must never change the verdict, the chosen
        // deviations, or the exhaustive candidate count.
        let configs = [DeviationSearch::default(), DeviationSearch::exhaustive()];
        for game in [
            Game::path(5, GameParams::default()),
            Game::star(
                5,
                GameParams {
                    zipf_s: 6.0,
                    a: 0.4,
                    b: 0.4,
                    link_cost: 1.0,
                    ..GameParams::default()
                },
            ),
            Game::circle(
                5,
                GameParams {
                    link_cost: 0.01,
                    a: 1.0,
                    b: 1.0,
                    zipf_s: 0.5,
                    ..GameParams::default()
                },
            ),
        ] {
            let reference = NashAnalyzer::exhaustive().check(&game);
            for config in configs {
                let report = NashAnalyzer::with_search(config).check(&game);
                assert_eq!(
                    report.is_equilibrium, reference.is_equilibrium,
                    "{config:?}"
                );
                assert_eq!(report.deviations, reference.deviations, "{config:?}");
                assert_eq!(
                    report.explored + report.bound_pruned,
                    reference.explored,
                    "{config:?}"
                );
            }
        }
    }

    #[test]
    fn stable_star_prunes_most_of_the_candidate_space() {
        let params = GameParams {
            zipf_s: 6.0,
            a: 0.4,
            b: 0.4,
            link_cost: 1.0,
            ..GameParams::default()
        };
        let report = NashAnalyzer::new().check(&Game::star(6, params));
        assert!(report.is_equilibrium);
        assert!(
            report.bound_pruned > report.explored,
            "expected the bound to dominate: explored = {}, pruned = {}",
            report.explored,
            report.bound_pruned
        );
        assert!(report.sources_recomputed > 0);
    }
}
