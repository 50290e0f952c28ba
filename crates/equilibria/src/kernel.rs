//! One player's post-deviation utility, evaluated on flat buffers.
//!
//! The Nash checker needs `game.deviate(p, R, A).utility(p)` for every
//! candidate `(R, A)` of one player `p`. [`Game::utility`] answers that by
//! cloning the game, building one `G' \ {s}` copy per sender to rank the
//! Zipf degrees, and running a Brandes pass that accumulates every node's
//! dependency. [`DeviationKernel`] snapshots the base state once per player
//! and evaluates each candidate without building a graph:
//!
//! * **Splice.** The deviation is written into a copy of the base
//!   adjacency in the order [`Game::deviate`] leaves it: the player's list
//!   is the base list minus `R`, then `A` in order; each added target gets
//!   the player appended, and each removed target loses it.
//! * **Zipf rows from degree counts.** In `G' \ {s}` a node's degree is its
//!   degree minus one if it is adjacent to `s`. A degree class's rank factor
//!   depends only on its best rank and its size ([`class_factor`]), so one
//!   degree histogram per sender ranks every receiver, and a per-player
//!   table memoises the factors.
//! * **Only `δ_s[p]`.** Brandes' single-node variant (Brandes 2008, *On
//!   variants of shortest-path betweenness*): each source's backward sweep
//!   stops once the nodes left are no farther from the source than `p`,
//!   since only farther nodes feed `δ_s[p]`. Sources run in
//!   [`SOURCE_CHUNK`] chunks folded in chunk order, as
//!   [`weighted_node_betweenness`](lcg_graph::betweenness::weighted_node_betweenness)
//!   folds them.
//! * **Fees from `p`'s own BFS**, which is also the one source the revenue
//!   skips.
//!
//! Every floating-point operation that reaches the utility runs on the same
//! operands in the same order as on the slow path, so the result equals
//! `game.deviate(p, R, A).utility(p)` bit for bit, and
//! [`DeviationKernel::write_state_key`] equals the deviated game's
//! [`state_key`] without building it. `tests/deviation_kernel.rs` checks
//! both on every candidate of small games.

use crate::game::{Game, GameParams};
use crate::nash::{set_channel, state_key, trim_key};
use lcg_core::zipf::{class_factor, ZipfVariant};
use lcg_graph::betweenness::SOURCE_CHUNK;
use lcg_graph::NodeId;

/// `dist` of a node the current BFS has not reached.
const UNREACHED: u32 = u32::MAX;

/// How a node's channel to the player changes under the candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Splice {
    Kept,
    Removed,
    Added,
}

/// Rank factors [`class_factor`]`(r0, count)` of one game's Zipf
/// parameters, computed on first use.
#[derive(Debug)]
struct FactorTable {
    zipf_s: f64,
    variant: ZipfVariant,
    stride: usize,
    memo: Vec<Option<f64>>,
}

impl FactorTable {
    fn new(ranks: usize, zipf_s: f64, variant: ZipfVariant) -> Self {
        assert!(
            zipf_s >= 0.0 && !zipf_s.is_nan(),
            "zipf parameter must be >= 0, got {zipf_s}"
        );
        let stride = ranks + 1;
        FactorTable {
            zipf_s,
            variant,
            stride,
            memo: vec![None; stride * stride],
        }
    }

    fn get(&mut self, r0: usize, count: usize) -> f64 {
        let (s, variant) = (self.zipf_s, self.variant);
        *self.memo[r0 * self.stride + count]
            .get_or_insert_with(|| class_factor(r0, count, s, variant))
    }
}

/// Evaluates one player's deviations of one base state.
///
/// Build it once per player and state; every [`DeviationKernel::utility`]
/// call reuses its buffers, so a candidate costs one BFS per live player
/// and no allocation.
///
/// # Examples
///
/// ```
/// use lcg_equilibria::game::{Game, GameParams};
/// use lcg_equilibria::kernel::DeviationKernel;
/// use lcg_graph::NodeId;
///
/// let game = Game::path(5, GameParams::default());
/// let mut kernel = DeviationKernel::new(&game, NodeId(0));
/// let (remove, add) = ([NodeId(1)], [NodeId(2)]);
/// let slow = game.deviate(NodeId(0), &remove, &add).utility(NodeId(0));
/// assert_eq!(kernel.utility(&remove, &add).to_bits(), slow.to_bits());
/// ```
#[derive(Debug)]
pub struct DeviationKernel {
    player: usize,
    params: GameParams,
    /// Live nodes in index order: the Brandes sources and Zipf receivers.
    live: Vec<usize>,
    /// Base out-neighbours of every node in `EdgeId` order (CSR rows).
    base_start: Vec<usize>,
    base_adj: Vec<usize>,
    /// Channels the player owns in the base state, ascending.
    owned: Vec<NodeId>,
    /// Nodes the player may open a channel to: live, not itself, not a
    /// base neighbour.
    addable: Vec<bool>,
    /// The base state's [`state_key`] for the player.
    base_key: Vec<u64>,
    factors: FactorTable,
    // Per-candidate scratch, overwritten by every evaluation.
    splice: Vec<Splice>,
    adj_start: Vec<usize>,
    adj: Vec<usize>,
    /// Deviated-degree histogram over the live nodes.
    hist: Vec<usize>,
    factor_of_degree: Vec<f64>,
    near_sender: Vec<bool>,
    /// Row `s` holds `p_trans(s, ·)` on the deviated state.
    prob: Vec<f64>,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    order: Vec<usize>,
}

impl DeviationKernel {
    /// Snapshots `game` for evaluating `player`'s deviations.
    ///
    /// # Panics
    ///
    /// Panics if `player` is not a live node or the Zipf parameter is
    /// negative or NaN.
    pub fn new(game: &Game, player: NodeId) -> Self {
        let graph = game.graph();
        assert!(graph.contains_node(player), "{player} is not a player");
        let bound = graph.node_bound();
        let mut base_start = Vec::with_capacity(bound + 1);
        let mut base_adj = Vec::with_capacity(graph.edge_count());
        for u in 0..bound {
            base_start.push(base_adj.len());
            base_adj.extend(graph.out_neighbors(NodeId(u)).map(NodeId::index));
        }
        base_start.push(base_adj.len());
        let neighbours = graph.neighbors(player);
        let mut addable = vec![false; bound];
        for v in graph.node_ids() {
            addable[v.index()] = v != player && !neighbours.contains(&v);
        }
        let live: Vec<usize> = graph.node_ids().map(NodeId::index).collect();
        let params = *game.params();
        DeviationKernel {
            player: player.index(),
            factors: FactorTable::new(live.len(), params.zipf_s, params.zipf_variant),
            params,
            base_start,
            base_adj,
            owned: game.owned_channels(player),
            addable,
            base_key: state_key(game, player),
            splice: vec![Splice::Kept; bound],
            adj_start: Vec::with_capacity(bound + 1),
            adj: Vec::with_capacity(graph.edge_count() + 2 * bound),
            hist: vec![0; bound + 1],
            factor_of_degree: vec![0.0; bound + 1],
            near_sender: vec![false; bound],
            prob: vec![0.0; bound * bound],
            dist: vec![UNREACHED; bound],
            sigma: vec![0.0; bound],
            delta: vec![0.0; bound],
            order: Vec::with_capacity(bound),
            live,
        }
    }

    /// The player's utility after closing its channels to `remove` and
    /// opening channels to `add`, in that order: bit-identical to
    /// `game.deviate(player, remove, add).utility(player)`.
    ///
    /// # Panics
    ///
    /// Panics if `remove` names a channel the player does not own, `add`
    /// names the player or a current neighbour, or either names a target
    /// twice.
    pub fn utility(&mut self, remove: &[NodeId], add: &[NodeId]) -> f64 {
        self.splice(remove, add);
        self.zipf_rows();
        let revenue = self.revenue();
        let fees = self.fees();
        let links = self.owned.len() - remove.len() + add.len();
        revenue - fees - self.params.link_cost * links as f64
    }

    /// Writes [`state_key`]`(&game.deviate(player, remove, add), player)`
    /// — the deviation cache's key — into `out`, from the base key and the
    /// delta alone.
    pub fn write_state_key(&self, remove: &[NodeId], add: &[NodeId], out: &mut Vec<u64>) {
        let p = self.player;
        out.clear();
        out.extend_from_slice(&self.base_key);
        for &t in remove {
            let t = t.index();
            set_channel(out, p.min(t), p.max(t), 0);
        }
        for &t in add {
            let t = t.index();
            // The player owns every channel it opens.
            set_channel(out, p.min(t), p.max(t), if p < t { 1 } else { 2 });
        }
        trim_key(out);
    }

    /// Builds the deviated adjacency in `adj_start`/`adj`.
    fn splice(&mut self, remove: &[NodeId], add: &[NodeId]) {
        let p = self.player;
        for &t in remove {
            assert!(
                self.owned.contains(&t) && self.splice[t.index()] == Splice::Kept,
                "{} does not own a channel to {t}",
                NodeId(p)
            );
            self.splice[t.index()] = Splice::Removed;
        }
        for &t in add {
            assert!(
                self.addable.get(t.index()) == Some(&true)
                    && self.splice[t.index()] == Splice::Kept,
                "channel {}-{t} already exists or is a self-channel",
                NodeId(p)
            );
            self.splice[t.index()] = Splice::Added;
        }
        let splice = &self.splice;
        self.adj.clear();
        self.adj_start.clear();
        for u in 0..self.base_start.len() - 1 {
            self.adj_start.push(self.adj.len());
            let base = &self.base_adj[self.base_start[u]..self.base_start[u + 1]];
            if u == p {
                self.adj
                    .extend(base.iter().filter(|&&v| splice[v] != Splice::Removed));
                self.adj.extend(add.iter().map(|t| t.index()));
            } else {
                let drops_player = splice[u] == Splice::Removed;
                self.adj
                    .extend(base.iter().filter(|&&v| !(drops_player && v == p)));
                if splice[u] == Splice::Added {
                    self.adj.push(p);
                }
            }
        }
        self.adj_start.push(self.adj.len());
        for &t in remove.iter().chain(add) {
            self.splice[t.index()] = Splice::Kept;
        }
    }

    /// Deviated degree of `u`: every channel is a pair of opposite edges,
    /// so the out-list length is the in-degree Zipf ranks by.
    fn degree(&self, u: usize) -> usize {
        self.adj_start[u + 1] - self.adj_start[u]
    }

    /// Fills `prob` with every live sender's `p_trans(s, ·)` on the
    /// deviated state, as `lcg_core::zipf::pair_probabilities` computes it
    /// on `G' \ {s}`.
    fn zipf_rows(&mut self) {
        let bound = self.dist.len();
        self.hist.fill(0);
        for i in 0..self.live.len() {
            let d = self.degree(self.live[i]);
            self.hist[d] += 1;
        }
        for i in 0..self.live.len() {
            let s = self.live[i];
            // Rank in G' \ {s}: s leaves, and its neighbours lose a degree.
            let deg_s = self.degree(s);
            self.hist[deg_s] -= 1;
            for j in self.adj_start[s]..self.adj_start[s + 1] {
                let v = self.adj[j];
                let d = self.degree(v);
                self.hist[d] -= 1;
                self.hist[d - 1] += 1;
                self.near_sender[v] = true;
            }
            // A class of `count` nodes below `above` higher-degree nodes
            // holds ranks `above + 1 ..= above + count`.
            let mut above = 0;
            for d in (0..=bound).rev() {
                let count = self.hist[d];
                if count > 0 {
                    self.factor_of_degree[d] = self.factors.get(above + 1, count);
                    above += count;
                }
            }
            let row = &mut self.prob[s * bound..(s + 1) * bound];
            row.fill(0.0);
            for &v in &self.live {
                if v != s {
                    let d = self.adj_start[v + 1] - self.adj_start[v];
                    row[v] = self.factor_of_degree[d - usize::from(self.near_sender[v])];
                }
            }
            let total: f64 = row.iter().sum();
            if total > 0.0 {
                for w in row.iter_mut() {
                    *w /= total;
                }
            }
            self.hist[deg_s] += 1;
            for j in self.adj_start[s]..self.adj_start[s + 1] {
                let v = self.adj[j];
                let d = self.degree(v);
                self.hist[d - 1] -= 1;
                self.hist[d] += 1;
                self.near_sender[v] = false;
            }
        }
    }

    /// Shortest-path BFS from `source` over the deviated adjacency:
    /// `dist`, `sigma` and the visit `order`, exactly as `lcg_graph::bfs`
    /// visits the deviated graph.
    fn bfs(&mut self, source: usize) {
        let (adj, adj_start) = (&self.adj[..], &self.adj_start[..]);
        let (dist, sigma, order) = (&mut self.dist[..], &mut self.sigma[..], &mut self.order);
        for &v in order.iter() {
            dist[v] = UNREACHED;
        }
        order.clear();
        dist[source] = 0;
        sigma[source] = 1.0;
        order.push(source);
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            let du = dist[u];
            for &v in &adj[adj_start[u]..adj_start[u + 1]] {
                if dist[v] == UNREACHED {
                    dist[v] = du + 1;
                    sigma[v] = sigma[u];
                    order.push(v);
                } else if dist[v] == du + 1 {
                    sigma[v] += sigma[u];
                }
            }
        }
    }

    /// The player's revenue: `b`-weighted node betweenness, summed over
    /// sources in `SOURCE_CHUNK` chunks.
    fn revenue(&mut self) -> f64 {
        let mut revenue = 0.0;
        for start in (0..self.live.len()).step_by(SOURCE_CHUNK) {
            let end = (start + SOURCE_CHUNK).min(self.live.len());
            let mut partial = 0.0;
            for i in start..end {
                let s = self.live[i];
                if s != self.player {
                    partial += self.player_dependency(s);
                }
            }
            revenue += partial;
        }
        revenue
    }

    /// `δ_s[p]`: the weighted share of `s`'s shortest paths that pass
    /// through the player.
    fn player_dependency(&mut self, s: usize) -> f64 {
        self.bfs(s);
        let p = self.player;
        let dp = self.dist[p];
        if dp == UNREACHED {
            return 0.0;
        }
        let bound = self.dist.len();
        let row = &self.prob[s * bound..(s + 1) * bound];
        let (adj, adj_start) = (&self.adj[..], &self.adj_start[..]);
        let (dist, sigma, delta) = (&self.dist[..], &self.sigma[..], &mut self.delta[..]);
        for &v in &self.order {
            delta[v] = 0.0;
        }
        for &w in self.order.iter().rev() {
            let dw = dist[w];
            // Only nodes farther than p push dependency onto it.
            if dw <= dp {
                break;
            }
            let coeff = (row[w] * self.params.b + delta[w]) / sigma[w];
            for &v in &adj[adj_start[w]..adj_start[w + 1]] {
                if dist[v] == dw - 1 {
                    delta[v] += sigma[v] * coeff;
                }
            }
        }
        delta[p]
    }

    /// `a`-weighted expected hop charges of the player's own payments;
    /// `+∞` when it cannot reach a receiver it pays with nonzero
    /// probability.
    fn fees(&mut self) -> f64 {
        let p = self.player;
        self.bfs(p);
        let bound = self.dist.len();
        let row = &self.prob[p * bound..(p + 1) * bound];
        let mut total = 0.0;
        for &w in &self.live {
            if w == p || row[w] == 0.0 {
                continue;
            }
            match self.dist[w] {
                UNREACHED => return f64::INFINITY,
                d => total += row[w] * self.params.hop_charging.units(d),
            }
        }
        self.params.a * total
    }
}
