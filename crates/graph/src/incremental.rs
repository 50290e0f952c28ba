//! Incremental weighted node betweenness for single-node augmentations.
//!
//! Algorithm 1/2 candidate scoring asks, for every candidate strategy,
//! for weighted Brandes betweenness on an *augmented* graph that differs
//! from the host by exactly one node `u` and a handful of channels.
//! [`IncrementalBetweenness`] snapshots the host once — all-pairs hop
//! distances in one flat matrix plus a CSR copy of its out- and
//! in-adjacency — and then answers "betweenness on
//! `host + {u, channels(u)}`" by recomputing only the sources whose
//! shortest-path structure the new node can actually change.
//!
//! ## The affected-source condition
//!
//! Fix a source `s` and let `T` be the host endpoints of `u`'s channels.
//! Write `a(s) = min_{t∈T} d(s, t)` and `b(r) = min_{t∈T} d(t, r)`, all
//! distances measured *in the host*. Any `s → r` path through `u` enters
//! `u` from some `t₁ ∈ T` and leaves toward some `t₂ ∈ T`, so its length
//! is at least `a(s) + 2 + b(r)`; conversely the walk
//! `s ⇝ t₁ → u → t₂ ⇝ r` realizes exactly that length. Hence the source
//! `s` is **affected** — some host node's distance or shortest-path count
//! from `s` changes, or `u` intermediates some `(s, r)` pair — if and
//! only if
//!
//! ```text
//! ∃ r ≠ s :  a(s) + 2 + b(r) ≤ d(s, r)        (∞ = unreachable)
//! ```
//!
//! (`<` means a distance drops, `=` means new equal-length shortest paths
//! appear and `σ` grows; when the minima are realized by the same `t` the
//! triangle inequality gives `a + 2 + b ≥ d + 2`, so the condition can
//! only trigger through a genuine simple path.) The test is *exact*: no
//! false positives, no false negatives. Unaffected sources contribute to
//! the augmented betweenness exactly what they contribute to the host's:
//! `+0.0` to `u`, and a cached dependency vector to everyone else.
//!
//! ## The new-node kernel
//!
//! [`IncrementalBetweenness::new_node_score`] never builds the augmented
//! graph. Each affected source runs one Brandes pass over the host CSR
//! with `u` spliced in virtually, in the exact edge order of
//! [`IncrementalBetweenness::augment`]: `u`'s out-neighbours are the live
//! targets in query order, and each target lists `u` after its host
//! out-neighbours, once per channel (in-adjacency likewise). The pass
//! keeps epoch-stamped `dist`/`σ`/`δ` slots and the BFS order in a
//! run-owned scratch and stores no predecessor lists: the backward sweep
//! walks each node's in-edges and keeps those with
//! `dist[v] + 1 == dist[w]`, which is exactly the multiset of
//! predecessor edges `bfs` would have recorded.
//!
//! Only `u`'s *cone* matters: `u` and every node that some shortest path
//! from `s` reaches through `u`. Each shortest-path successor of a cone
//! node is itself in the cone, so a cone node's `δ` only ever receives
//! additions from cone nodes. The forward pass marks the cone as it goes
//! and stops after the first fully discovered layer without a cone node;
//! the backward sweep visits cone nodes only and stops once the layer
//! `dist[u] + 1` is done, because `δ[u]` is final from then on.
//!
//! ## Bit-identity
//!
//! Results are guaranteed bit-identical to
//! [`weighted_node_betweenness`](crate::betweenness::weighted_node_betweenness)
//! on the augmented graph, not merely numerically close:
//!
//! * the kernel discovers nodes in the same order as [`bfs`] and sums `σ`
//!   in that discovery order, and its backward sweep visits `w` in the
//!   same reverse BFS order as
//!   [`node_dependencies`](crate::betweenness::node_dependencies); within
//!   one `w`, every predecessor `v` receives its own independent
//!   `δ[v] += σ[v]·coeff`, so the order in which predecessors are listed
//!   changes no bit, and skipping the nodes outside the cone drops no
//!   addition that a cone node's `δ` would have received;
//! * unaffected sources replay cached dependency vectors that are
//!   bit-equal to what the from-scratch kernel would produce (the new
//!   node only ever adds exact `+0.0` terms to their accumulation);
//! * partial sums keep the exact [`SOURCE_CHUNK`] boundaries and chunk
//!   order of the from-scratch reduction.
//!
//! The only caller obligation is the one the paper's model already
//! satisfies: pair weights are **non-negative** and pairs involving the
//! new node weigh **zero** (`p_trans` covers host pairs only).
//!
//! The full-vector [`IncrementalBetweenness::node_betweenness`] is the
//! reference path: it recomputes affected sources with [`bfs`] and
//! `node_dependencies` on [`IncrementalBetweenness::augment`]. On an empty
//! host there is nothing to prune, and both queries run the full Brandes
//! path, which is bit-identical by construction.

use crate::betweenness::{node_dependencies, weighted_node_betweenness, NodeScores, SOURCE_CHUNK};
use crate::bfs::bfs;
use crate::graph::{DiGraph, NodeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Distance sentinel for "unreachable" in the pruning arithmetic.
const INF: u64 = u64::MAX / 4;

/// "Unreachable" in the snapshotted host distance matrix.
const UNREACHABLE: u32 = u32::MAX;

/// Per-query breakdown returned alongside incremental results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Sources whose dependency trees had to be recomputed (excluding the
    /// new node itself).
    pub recomputed_sources: usize,
    /// Sources replayed from the snapshot.
    pub cached_sources: usize,
    /// `true` if the query bypassed pruning and ran full Brandes.
    pub fell_back: bool,
}

/// Cumulative counters across the lifetime of one engine.
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    recomputed_sources: AtomicU64,
    cached_sources: AtomicU64,
    fallbacks: AtomicU64,
}

/// Snapshot of the cumulative counters (plain integers, cheap to copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Queries answered (both incremental and fallback).
    pub queries: u64,
    /// Total sources recomputed with the full kernel. Fallback queries
    /// count every live source plus the new node.
    pub recomputed_sources: u64,
    /// Total sources replayed from the snapshot.
    pub cached_sources: u64,
    /// Queries that bypassed pruning entirely.
    pub fallbacks: u64,
}

impl IncrementalStats {
    /// Fraction of per-source work skipped: `cached / (cached + recomputed)`.
    pub fn pruning_ratio(&self) -> f64 {
        lcg_obs::stats::part_of_total(self.cached_sources, self.recomputed_sources)
    }
}

/// One adjacency direction of the host in compressed sparse rows: the
/// neighbours of `v` are `nodes[offsets[v]..offsets[v + 1]]`, one entry
/// per edge (parallel edges repeat), in the host's edge order.
#[derive(Debug)]
struct Csr {
    offsets: Vec<usize>,
    nodes: Vec<u32>,
}

impl Csr {
    fn build<I>(n: usize, neighbours: impl Fn(NodeId) -> I) -> Csr
    where
        I: Iterator<Item = NodeId>,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nodes = Vec::new();
        offsets.push(0);
        for v in 0..n {
            nodes.extend(neighbours(NodeId(v)).map(|w| node_u32(w.index())));
            offsets.push(nodes.len());
        }
        Csr { offsets, nodes }
    }

    fn row(&self, v: usize) -> &[u32] {
        &self.nodes[self.offsets[v]..self.offsets[v + 1]]
    }
}

fn node_u32(v: usize) -> u32 {
    u32::try_from(v).expect("node ids fit in u32")
}

/// Run-owned buffers of the new-node kernel over the host plus the
/// virtual new node (slot `n`). Slots are valid only where `stamp`
/// equals the current epoch, so sources reuse them without clearing.
struct Scratch {
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<u32>,
    sigma: Vec<f64>,
    delta: Vec<f64>,
    /// BFS discovery order; doubles as the forward queue.
    order: Vec<u32>,
    /// Channels from the new node to each host node (0 for non-targets).
    channels: Vec<u32>,
    /// Epoch stamp of the nodes in the new node's cone (module docs).
    cone: Vec<u32>,
    /// Whether the layer being discovered holds a cone node yet.
    cone_ahead: bool,
}

impl Scratch {
    /// Scratch for a host with `n` slots and the new node's live targets.
    fn new(n: usize, live_targets: &[NodeId]) -> Scratch {
        let mut channels = vec![0; n];
        for t in live_targets {
            channels[t.index()] += 1;
        }
        Scratch {
            epoch: 0,
            stamp: vec![0; n + 1],
            dist: vec![0; n + 1],
            sigma: vec![0.0; n + 1],
            delta: vec![0.0; n + 1],
            order: Vec::with_capacity(n + 1),
            channels,
            cone: vec![0; n + 1],
            cone_ahead: false,
        }
    }

    fn seen(&self, v: usize) -> bool {
        self.stamp[v] == self.epoch
    }

    /// One `bfs` edge relaxation from a node at distance `dv` with path
    /// count `sv`; a shortest-path edge out of the cone extends it.
    fn relax(&mut self, w: usize, dv: u32, sv: f64, cone: bool) {
        if !self.seen(w) {
            self.stamp[w] = self.epoch;
            self.dist[w] = dv + 1;
            self.sigma[w] = sv;
            self.delta[w] = 0.0;
            self.order.push(node_u32(w));
        } else if self.dist[w] == dv + 1 {
            self.sigma[w] += sv;
        } else {
            return;
        }
        if cone {
            self.cone[w] = self.epoch;
            self.cone_ahead = true;
        }
    }
}

/// Incremental evaluator of weighted node betweenness on
/// `host + {u, channels(u)}` augmentations.
///
/// Built once per (host, weight) pair; each query names only the host
/// endpoints of the new node's channels. See the module docs for the
/// affected-source condition and the bit-identity guarantee.
///
/// # Examples
///
/// ```
/// use lcg_graph::{generators, NodeId};
/// use lcg_graph::betweenness::weighted_node_betweenness;
/// use lcg_graph::incremental::IncrementalBetweenness;
///
/// let host = generators::star(5);
/// let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
/// let targets = [NodeId(0), NodeId(2)];
/// let (scores, _) = engine.node_betweenness(&targets);
/// let full = weighted_node_betweenness(&engine.augment(&targets), |s, r| {
///     engine.weight(s, r)
/// });
/// assert!(scores.iter().zip(&full).all(|(a, b)| a.to_bits() == b.to_bits()));
/// ```
#[derive(Debug)]
pub struct IncrementalBetweenness<N = (), E = ()> {
    host: DiGraph<N, E>,
    /// Host-pair weights, `weight[s * n + r]`; zero on self-pairs and
    /// tombstones.
    weight: Vec<f64>,
    /// Host hop distances, `dist[s * n + v]`, [`UNREACHABLE`] where `v`
    /// cannot be reached from `s` (and on every row of a tombstone).
    dist: Vec<u32>,
    out_adj: Csr,
    in_adj: Csr,
    /// Live host sources in index order (the from-scratch source order).
    sources: Vec<NodeId>,
    /// Per-source host dependency vectors (lazily built; only needed by
    /// full-vector queries, not by the new-node fast path).
    contributions: OnceLock<Vec<Vec<f64>>>,
    counters: Counters,
}

impl<N, E> IncrementalBetweenness<N, E>
where
    N: Clone + Default + Sync,
    E: Clone + Default + Sync,
{
    /// Snapshots `host` under the pair weight `weight`: the CSR
    /// adjacency, then one BFS per live source for the distance matrix
    /// (`O(n(n+m))` once, amortized over every query).
    ///
    /// `weight` is consulted for ordered live host pairs `s ≠ r` and must
    /// be non-negative; pairs involving the future new node are defined
    /// to weigh zero, matching the paper's fixed `p_trans` convention.
    pub fn new<W>(host: &DiGraph<N, E>, weight: W) -> Self
    where
        W: Fn(NodeId, NodeId) -> f64 + Sync,
    {
        let n = host.node_bound();
        let mut weight_matrix = vec![0.0; n * n];
        for s in host.node_ids() {
            for r in host.node_ids() {
                if s != r {
                    weight_matrix[s.index() * n + r.index()] = weight(s, r);
                }
            }
        }
        let sources: Vec<NodeId> = host.node_ids().collect();
        let mut engine = IncrementalBetweenness {
            host: host.clone(),
            weight: weight_matrix,
            dist: Vec::new(),
            out_adj: Csr::build(n, |v| host.out_neighbors(v)),
            in_adj: Csr::build(n, |v| host.in_neighbors(v)),
            sources,
            contributions: OnceLock::new(),
            counters: Counters::default(),
        };
        // Host distances come from the kernel's forward pass with no
        // channels, so `u` stays unreached.
        let chunks: Vec<&[NodeId]> = engine.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |chunk: &&[NodeId]| {
            let mut scratch = Scratch::new(n, &[]);
            let mut rows = vec![UNREACHABLE; chunk.len() * n];
            for (&s, row) in chunk.iter().zip(rows.chunks_mut(n)) {
                engine.forward(s, &[], &mut scratch);
                for &v in &scratch.order {
                    row[v as usize] = scratch.dist[v as usize];
                }
            }
            rows
        };
        #[cfg(feature = "parallel")]
        let rows = lcg_parallel::par_map(&chunks, run_chunk);
        #[cfg(not(feature = "parallel"))]
        let rows: Vec<Vec<u32>> = chunks.iter().map(run_chunk).collect();
        let mut dist = vec![UNREACHABLE; n * n];
        let live_rows = rows.iter().flat_map(|r| r.chunks(n));
        for (s, row) in engine.sources.iter().zip(live_rows) {
            dist[s.index() * n..(s.index() + 1) * n].copy_from_slice(row);
        }
        engine.dist = dist;
        engine
    }

    /// The snapshotted host (without the new node).
    pub fn host(&self) -> &DiGraph<N, E> {
        &self.host
    }

    /// Id the new node receives in augmented graphs.
    pub fn new_node(&self) -> NodeId {
        NodeId(self.host.node_bound())
    }

    /// The snapshotted pair weight (zero on self-pairs, tombstones and
    /// anything outside the host — including the new node).
    pub fn weight(&self, s: NodeId, r: NodeId) -> f64 {
        let n = self.host.node_bound();
        if s.index() < n && r.index() < n {
            self.weight[s.index() * n + r.index()]
        } else {
            0.0
        }
    }

    /// Host hop distance from `s` to `v` out of the snapshot; `None` if
    /// unreachable, tombstoned or outside the host.
    fn host_distance(&self, s: NodeId, v: NodeId) -> Option<u32> {
        let n = self.host.node_bound();
        if s.index() >= n || v.index() >= n {
            return None;
        }
        Some(self.dist[s.index() * n + v.index()]).filter(|&d| d != UNREACHABLE)
    }

    /// Hop distance from the new node to host node `v` in
    /// [`IncrementalBetweenness::augment`]`(targets)`, read off the
    /// snapshot: `1 + min_t d_host(t, v)`, since a shortest path leaves
    /// `u` once and never returns. `None` if unreachable.
    pub fn new_node_distance(&self, targets: &[NodeId], v: NodeId) -> Option<u32> {
        targets
            .iter()
            .filter_map(|&t| self.host_distance(t, v))
            .min()
            .map(|d| d + 1)
    }

    /// Cumulative query counters.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            queries: self.counters.queries.load(Ordering::Relaxed),
            recomputed_sources: self.counters.recomputed_sources.load(Ordering::Relaxed),
            cached_sources: self.counters.cached_sources.load(Ordering::Relaxed),
            fallbacks: self.counters.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Resets the cumulative counters.
    pub fn reset_stats(&self) {
        self.counters.queries.store(0, Ordering::Relaxed);
        self.counters.recomputed_sources.store(0, Ordering::Relaxed);
        self.counters.cached_sources.store(0, Ordering::Relaxed);
        self.counters.fallbacks.store(0, Ordering::Relaxed);
    }

    /// The host plus the new node and one undirected channel per entry of
    /// `targets`, added in order (duplicates create parallel channels;
    /// dead targets are skipped) — the exact augmentation every query
    /// evaluates, with edge ids matching what any caller building the
    /// same graph the same way would produce.
    pub fn augment(&self, targets: &[NodeId]) -> DiGraph<N, E> {
        let mut g = self.host.clone();
        let u = g.add_node(N::default());
        debug_assert_eq!(u, self.new_node());
        for &t in targets {
            if g.contains_node(t) && t != u {
                g.add_undirected(u, t, E::default());
            }
        }
        g
    }

    /// The targets [`IncrementalBetweenness::augment`] keeps, in order.
    fn live_targets(&self, targets: &[NodeId]) -> Vec<NodeId> {
        targets
            .iter()
            .copied()
            .filter(|&t| self.host.contains_node(t))
            .collect()
    }

    /// The host row `dist[s * n ..][..n]`.
    fn dist_row(&self, s: NodeId) -> &[u32] {
        let n = self.host.node_bound();
        &self.dist[s.index() * n..(s.index() + 1) * n]
    }

    /// Marks the live host sources whose shortest-path structure the new
    /// node can change (see the module docs for the exact condition).
    /// Indexed by `NodeId::index()`; tombstoned slots stay `false`.
    pub fn affected_sources(&self, targets: &[NodeId]) -> Vec<bool> {
        let n = self.host.node_bound();
        let mut affected = vec![false; n];
        let live_targets = self.live_targets(targets);
        if live_targets.is_empty() {
            return affected;
        }
        let widen = |d: u32| if d == UNREACHABLE { INF } else { u64::from(d) };
        // b[r] = min over targets t of d(t, r).
        let mut b = vec![INF; n];
        for &t in &live_targets {
            for (br, &d) in b.iter_mut().zip(self.dist_row(t)) {
                *br = (*br).min(widen(d));
            }
        }
        for &s in &self.sources {
            let row = self.dist_row(s);
            // a(s) = min over targets t of d(s, t) = d(s, u) − 1.
            let a = live_targets
                .iter()
                .map(|&t| widen(row[t.index()]))
                .min()
                .unwrap_or(INF);
            if a >= INF {
                continue; // u unreachable from s: nothing can change
            }
            affected[s.index()] = row.iter().zip(&b).enumerate().any(|(r, (&d, &br))| {
                let detour = a + 2 + br;
                r != s.index() && detour <= widen(d) && detour < INF
            });
        }
        affected
    }

    /// The forward half of the new-node kernel: `bfs` from host source
    /// `s` over the host CSR with the new node (slot `n`) spliced in
    /// behind `live_targets`, leaving `dist`, `σ`, the cone and the BFS
    /// order in `scratch`. Stops early only once `u` is reached and a
    /// whole layer holds no cone node, so with no targets it is a full
    /// host BFS.
    fn forward(&self, s: NodeId, live_targets: &[NodeId], scratch: &mut Scratch) {
        let u = self.host.node_bound();
        scratch.epoch = scratch.epoch.wrapping_add(1);
        if scratch.epoch == 0 {
            scratch.stamp.fill(0);
            scratch.cone.fill(0);
            scratch.epoch = 1;
        }
        scratch.order.clear();
        scratch.stamp[s.index()] = scratch.epoch;
        scratch.dist[s.index()] = 0;
        scratch.sigma[s.index()] = 1.0;
        scratch.delta[s.index()] = 0.0;
        scratch.order.push(node_u32(s.index()));
        let mut head = 0;
        let mut layer_end = 1;
        while let Some(&v) = scratch.order.get(head) {
            if head == layer_end {
                // The next layer is fully discovered.
                if scratch.seen(u) && !scratch.cone_ahead {
                    break;
                }
                scratch.cone_ahead = false;
                layer_end = scratch.order.len();
            }
            head += 1;
            let v = v as usize;
            let (dv, sv) = (scratch.dist[v], scratch.sigma[v]);
            if v == u {
                for t in live_targets {
                    scratch.relax(t.index(), dv, sv, true);
                }
                continue;
            }
            let cone = scratch.cone[v] == scratch.epoch;
            for &w in self.out_adj.row(v) {
                scratch.relax(w as usize, dv, sv, cone);
            }
            for _ in 0..scratch.channels[v] {
                scratch.relax(u, dv, sv, true);
            }
        }
    }

    /// Dependency `δ_s(u)` of host source `s` on the new node: what
    /// `node_dependencies` over `bfs(&self.augment(targets), s)` leaves in
    /// `delta[u]`, computed by the same floating-point operations in the
    /// same order (see the module docs).
    fn new_node_dependency(
        &self,
        s: NodeId,
        live_targets: &[NodeId],
        scratch: &mut Scratch,
    ) -> f64 {
        let n = self.host.node_bound();
        let u = n;
        self.forward(s, live_targets, scratch);
        if !scratch.seen(u) {
            return 0.0;
        }
        // Every successor of u sits on layer dist[u] + 1; once that layer
        // has been swept, nothing can add to delta[u] any more. The break
        // also keeps u itself, which has no host in-adjacency row, out.
        let cut = scratch.dist[u] + 1;
        let weights = &self.weight[s.index() * n..(s.index() + 1) * n];
        for i in (0..scratch.order.len()).rev() {
            let w = scratch.order[i] as usize;
            let dw = scratch.dist[w];
            if dw < cut {
                break;
            }
            if scratch.cone[w] != scratch.epoch {
                continue;
            }
            let coeff = (weights[w] + scratch.delta[w]) / scratch.sigma[w];
            for &v in self.in_adj.row(w) {
                let v = v as usize;
                if scratch.cone[v] == scratch.epoch && scratch.dist[v] + 1 == dw {
                    scratch.delta[v] += scratch.sigma[v] * coeff;
                }
            }
            if scratch.dist[u] + 1 == dw {
                for _ in 0..scratch.channels[w] {
                    scratch.delta[u] += scratch.sigma[u] * coeff;
                }
            }
        }
        scratch.delta[u]
    }

    /// Per-source host dependency vectors, built on first use.
    fn contributions(&self) -> &Vec<Vec<f64>> {
        self.contributions.get_or_init(|| {
            let run_source = |&s: &NodeId| {
                let tree = bfs(&self.host, s);
                let mut delta = vec![0.0; self.host.node_bound()];
                node_dependencies(&self.host, &tree, &|a, b| self.weight(a, b), &mut delta);
                // The from-scratch reduction never adds a source's own
                // dependency; zero it so replaying the vector is exact.
                delta[s.index()] = 0.0;
                delta
            };
            #[cfg(feature = "parallel")]
            let vectors = lcg_parallel::par_map(&self.sources, run_source);
            #[cfg(not(feature = "parallel"))]
            let vectors: Vec<Vec<f64>> = self.sources.iter().map(run_source).collect();
            let mut out: Vec<Vec<f64>> = (0..self.host.node_bound()).map(|_| Vec::new()).collect();
            for (s, v) in self.sources.iter().zip(vectors) {
                out[s.index()] = v;
            }
            out
        })
    }

    fn record(&self, stats: QueryStats) {
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        self.counters
            .recomputed_sources
            .fetch_add(stats.recomputed_sources as u64, Ordering::Relaxed);
        self.counters
            .cached_sources
            .fetch_add(stats.cached_sources as u64, Ordering::Relaxed);
        if stats.fell_back {
            self.counters.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // Mirror the per-engine counters into the global registry so
        // RunReports see affected-source pruning without threading engine
        // handles through callers.
        if lcg_obs::enabled() {
            lcg_obs::counter!("graph/incremental/queries").inc();
            lcg_obs::counter!("graph/incremental/recomputed_sources")
                .add(stats.recomputed_sources as u64);
            lcg_obs::counter!("graph/incremental/cached_sources").add(stats.cached_sources as u64);
            if stats.fell_back {
                lcg_obs::counter!("graph/incremental/fallbacks").inc();
            }
        }
    }

    /// Decides between pruning and the full-Brandes fallback, which only
    /// an empty host takes.
    fn plan(&self, targets: &[NodeId]) -> (Vec<bool>, usize, bool) {
        let affected = self.affected_sources(targets);
        let affected_count = affected.iter().filter(|&&a| a).count();
        (affected, affected_count, self.sources.is_empty())
    }

    /// Weighted node betweenness of the full augmented graph, plus the
    /// query breakdown. Bit-identical to
    /// [`weighted_node_betweenness`](crate::betweenness::weighted_node_betweenness)
    /// over [`IncrementalBetweenness::augment`] with the same weight.
    pub fn node_betweenness(&self, targets: &[NodeId]) -> (NodeScores, QueryStats) {
        let aug = self.augment(targets);
        let (affected, affected_count, fall_back) = self.plan(targets);
        if fall_back {
            let stats = QueryStats {
                recomputed_sources: self.sources.len() + 1,
                cached_sources: 0,
                fell_back: true,
            };
            self.record(stats);
            let scores = weighted_node_betweenness(&aug, |s, r| self.weight(s, r));
            return (scores, stats);
        }
        let u = self.new_node();
        let out_len = aug.node_bound();
        let aug_sources: Vec<NodeId> = aug.node_ids().collect();
        let contributions = self.contributions();
        let chunks: Vec<&[NodeId]> = aug_sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |chunk: &&[NodeId]| {
            let mut partial = vec![0.0; out_len];
            let mut delta = vec![0.0; out_len];
            for &s in *chunk {
                if s != u && !affected[s.index()] {
                    // Replay the snapshot: bit-equal to what the kernel
                    // would produce on the augmented graph (the new node
                    // only contributes exact zeros for this source).
                    for (p, c) in partial.iter_mut().zip(&contributions[s.index()]) {
                        *p += *c;
                    }
                } else {
                    let tree = bfs(&aug, s);
                    node_dependencies(&aug, &tree, &|a, b| self.weight(a, b), &mut delta);
                    for v in aug.node_ids() {
                        if v != s {
                            partial[v.index()] += delta[v.index()];
                        }
                    }
                }
            }
            partial
        };
        #[cfg(feature = "parallel")]
        let partials = lcg_parallel::par_map(&chunks, run_chunk);
        #[cfg(not(feature = "parallel"))]
        let partials: Vec<Vec<f64>> = chunks.iter().map(run_chunk).collect();
        let scores = lcg_parallel::sum_vecs(vec![0.0; out_len], partials);
        let stats = QueryStats {
            recomputed_sources: affected_count + 1,
            cached_sources: self.sources.len() - affected_count,
            fell_back: false,
        };
        self.record(stats);
        (scores, stats)
    }

    /// The new node's own betweenness score — the quantity every oracle
    /// evaluation needs — computed from affected sources only, by the
    /// new-node kernel on the snapshot (no augmented graph is built).
    pub fn new_node_score(&self, targets: &[NodeId]) -> (f64, QueryStats) {
        let (affected, affected_count, fall_back) = self.plan(targets);
        if fall_back {
            let stats = QueryStats {
                recomputed_sources: self.sources.len() + 1,
                cached_sources: 0,
                fell_back: true,
            };
            self.record(stats);
            let scores =
                weighted_node_betweenness(&self.augment(targets), |s, r| self.weight(s, r));
            return (scores[self.new_node().index()], stats);
        }
        // Unaffected sources contribute exactly +0.0 to the new node, and
        // the new node (as a source) contributes nothing to itself, so
        // only affected host sources matter. The new node comes last in
        // the augmented source order, so chunking the host sources keeps
        // the from-scratch chunk boundaries; at most it drops a final
        // chunk of `u` alone, whose +0.0 partial changes no bit.
        let n = self.host.node_bound();
        let live_targets = self.live_targets(targets);
        let chunks: Vec<&[NodeId]> = self.sources.chunks(SOURCE_CHUNK).collect();
        let run_chunk = |chunk: &&[NodeId]| -> f64 {
            let mut partial = 0.0;
            let mut scratch = None;
            for &s in chunk.iter().filter(|s| affected[s.index()]) {
                let scratch = scratch.get_or_insert_with(|| Scratch::new(n, &live_targets));
                partial += self.new_node_dependency(s, &live_targets, scratch);
            }
            partial
        };
        #[cfg(feature = "parallel")]
        let partials = lcg_parallel::par_map(&chunks, run_chunk);
        #[cfg(not(feature = "parallel"))]
        let partials: Vec<f64> = chunks.iter().map(run_chunk).collect();
        let mut score = 0.0;
        for p in partials {
            score += p;
        }
        let stats = QueryStats {
            recomputed_sources: affected_count,
            cached_sources: self.sources.len() - affected_count,
            fell_back: false,
        };
        self.record(stats);
        (score, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::betweenness::weighted_node_betweenness;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bit_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    fn check_host(host: &generators::Topology, targets: &[NodeId]) {
        let weight = |s: NodeId, r: NodeId| 1.0 + 0.1 * s.index() as f64 + 0.01 * r.index() as f64;
        let engine = IncrementalBetweenness::new(host, weight);
        let aug = engine.augment(targets);
        let expect = weighted_node_betweenness(&aug, |s, r| engine.weight(s, r));
        let (scores, _) = engine.node_betweenness(targets);
        assert!(bit_eq(&scores, &expect), "full vector diverged");
        let (score, _) = engine.new_node_score(targets);
        assert_eq!(
            score.to_bits(),
            expect[engine.new_node().index()].to_bits(),
            "new-node score diverged"
        );
    }

    #[test]
    fn star_attachments_match_full_brandes() {
        let host = generators::star(6);
        for targets in [
            vec![NodeId(0)],
            vec![NodeId(1)],
            vec![NodeId(1), NodeId(4)],
            vec![NodeId(0), NodeId(1), NodeId(2)],
        ] {
            check_host(&host, &targets);
        }
    }

    #[test]
    fn leaf_attachment_prunes_most_sources() {
        // Attaching to a single star leaf creates no shortcut for anyone
        // except pairs ending at the new node (weight 0): only the leaf's
        // own tree gains equal-length paths… in fact none do.
        let host = generators::star(8);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        let affected = engine.affected_sources(&[NodeId(3)]);
        let count = affected.iter().filter(|&&a| a).count();
        assert!(
            count < host.node_count(),
            "pruning must skip at least one source, kept {count}"
        );
        // And the pruned answer still matches the full recomputation.
        check_host(&host, &[NodeId(3)]);
    }

    #[test]
    fn bridging_disconnected_components_is_detected() {
        let mut host: generators::Topology = DiGraph::new();
        let ns = host.add_nodes(6);
        host.add_undirected(ns[0], ns[1], ());
        host.add_undirected(ns[1], ns[2], ());
        host.add_undirected(ns[3], ns[4], ());
        host.add_undirected(ns[4], ns[5], ());
        // Bridging the two paths affects every source.
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        let affected = engine.affected_sources(&[ns[0], ns[3]]);
        assert!(affected.iter().all(|&a| a), "bridge affects everyone");
        check_host(&host, &[ns[0], ns[3]]);
        // A channel into one component leaves the other unaffected.
        let one_side = engine.affected_sources(&[ns[0]]);
        assert!(!one_side[ns[3].index()] && !one_side[ns[4].index()]);
        check_host(&host, &[ns[0]]);
    }

    #[test]
    fn random_hosts_and_channel_counts_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(1203);
        for trial in 0..6 {
            let host = match generators::connected_erdos_renyi(14, 0.25, &mut rng, 200) {
                Some(g) => g,
                None => continue,
            };
            for channels in 1..=5 {
                let targets: Vec<NodeId> = (0..channels)
                    .map(|i| NodeId((i * 3 + trial) % 14))
                    .collect();
                check_host(&host, &targets);
            }
        }
        let host = generators::barabasi_albert(30, 2, &mut rng);
        check_host(&host, &[NodeId(0), NodeId(7), NodeId(19)]);
    }

    #[test]
    fn degenerate_queries_fall_back_or_prune_cleanly() {
        // Single-node host: the only source never routes anything.
        let host = generators::path(1);
        check_host(&host, &[NodeId(0)]);
        // Empty target set: u is isolated, nothing changes.
        let host = generators::cycle(5);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        let (scores, stats) = engine.node_betweenness(&[]);
        let expect = weighted_node_betweenness(&engine.augment(&[]), |s, r| engine.weight(s, r));
        assert!(bit_eq(&scores, &expect));
        assert_eq!(stats.recomputed_sources, 1, "only the new node runs");
        // Dead / out-of-range targets are skipped like the oracle does.
        check_host(&host, &[NodeId(99), NodeId(1)]);
    }

    #[test]
    fn parallel_channels_count_multiply() {
        let host = generators::path(4);
        check_host(&host, &[NodeId(1), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let host = generators::star(5);
        let engine = IncrementalBetweenness::new(&host, |_, _| 1.0);
        engine.new_node_score(&[NodeId(0)]);
        engine.new_node_score(&[NodeId(1)]);
        let stats = engine.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(
            stats.cached_sources + stats.recomputed_sources,
            2 * host.node_count() as u64
        );
        engine.reset_stats();
        assert_eq!(engine.stats(), IncrementalStats::default());
    }
}
