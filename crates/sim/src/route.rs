//! Payment routing: uniform shortest-path sampling on the live graph.
//!
//! A payment of size `x` takes one of the `m(s, r)` shortest paths of the
//! capacity-reduced graph `G'(x)`, drawn uniformly at random (§II-B,
//! Eq. 2). [`RouteScratch::sample_shortest_path`] draws that path without
//! building `G'(x)`: it runs a σ-counting BFS directly on the live graph,
//! applying the edge and node predicates inline as it walks each
//! out-edge, stops as soon as the receiver's predecessors are known, and
//! then walks the predecessor DAG backwards exactly as
//! [`crate::network::sample_path_from_tree`] does.
//!
//! The BFS runs layer by layer. Before it expands layer `L` (every node
//! at distance `L` discovered, with final `σ` and predecessor lists), it
//! scans the receiver's in-edges: if some accepted edge comes from layer
//! `L`, then `d(r) = L + 1` and those edges are exactly `r`'s
//! predecessors, so layer `L` — usually the largest one reached — is
//! never expanded. This is an earlier exit than stopping when `r` is
//! dequeued, which would come after expanding all of layer `L` and part
//! of layer `L + 1`.
//!
//! The result and the RNG draws are identical to the reference
//! composition `DiGraph::filter_edges` → `lcg_graph::bfs::bfs` →
//! `sample_path_from_tree` (`crates/sim/tests/router_differential.rs`
//! pins this), because:
//!
//! * `DiGraph::out_edges` yields ascending edge ids on the live graph
//!   and on a filtered copy alike, so predecessors are appended in the
//!   same order (BFS discovery order, then out-edge order), and the
//!   receiver's in-edges are sorted into that same order (tail's queue
//!   position, then edge id);
//! * the backward walk reads only `r`'s predecessor list and those of
//!   nodes closer than `r`, all final when the search stops;
//! * the walk sums predecessor weights in list order and draws with the
//!   same `gen_range(0.0..total)`.

use lcg_graph::{DiGraph, EdgeId, NodeId};
use rand::Rng;

/// End-of-list marker in the predecessor arena.
const NIL: usize = usize::MAX;

/// Per-node routing state; each field is valid only in the epoch stamped
/// next to it, so a new route needs no clearing pass.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Epoch in which `dist`, `sigma`, `pos`, `head` and `tail` are
    /// valid (the node has been discovered; the receiver gets no `sigma`,
    /// which the backward walk never reads).
    seen: u32,
    /// Epoch in which `ok` holds this route's `node_ok` verdict.
    checked: u32,
    ok: bool,
    dist: u32,
    sigma: f64,
    /// Position in the BFS queue (discovery order).
    pos: usize,
    /// First and last entry of the node's predecessor list in the arena.
    head: usize,
    tail: usize,
}

/// One shortest-path predecessor edge `tail → node`, linked to the next
/// predecessor of the same node.
#[derive(Debug, Clone, Copy)]
struct Pred {
    edge: EdgeId,
    tail: NodeId,
    next: usize,
}

/// Reusable buffers for [`RouteScratch::sample_shortest_path`].
///
/// One scratch serves any number of routes on graphs of any size: the
/// per-node arrays are epoch-stamped (a new route bumps the epoch instead
/// of clearing them), the predecessor lists share one flat arena and the
/// BFS queue is a plain `Vec`, so a route allocates only the returned
/// path once the buffers have grown to the graph. The simulation engine
/// keeps one scratch per run.
#[derive(Debug, Default)]
pub struct RouteScratch {
    epoch: u32,
    slots: Vec<Slot>,
    preds: Vec<Pred>,
    queue: Vec<NodeId>,
    /// `(queue position of tail, edge)` of the receiver's last hops.
    last_hop: Vec<(usize, EdgeId)>,
}

impl RouteScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples one shortest `s → r` path uniformly at random among all
    /// shortest paths of the subgraph of `g` made of the edges accepted
    /// by `edge_ok` whose endpoints are both accepted by `node_ok`.
    ///
    /// Both predicates must be pure: `node_ok` is evaluated at most once
    /// per node per route, and edges that cannot lie on a shortest path
    /// are skipped without asking `edge_ok`. Returns `Some(vec![])` when
    /// `s == r` is live, and `None` when either endpoint is missing from
    /// `g` or `r` is unreachable; neither case draws from `rng`.
    ///
    /// # Examples
    ///
    /// ```
    /// use lcg_graph::{generators, NodeId};
    /// use lcg_sim::route::RouteScratch;
    /// use rand::SeedableRng;
    ///
    /// let g = generators::cycle(6);
    /// let mut scratch = RouteScratch::new();
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    /// let path = scratch
    ///     .sample_shortest_path(&g, NodeId(0), NodeId(3), |_, _| true, |_| true, &mut rng)
    ///     .unwrap();
    /// assert_eq!(path.len(), 3); // one of the two ways round
    /// ```
    pub fn sample_shortest_path<N, E, R: Rng + ?Sized>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        r: NodeId,
        edge_ok: impl Fn(EdgeId, &E) -> bool,
        node_ok: impl Fn(NodeId) -> bool,
        rng: &mut R,
    ) -> Option<Vec<EdgeId>> {
        if !g.contains_node(s) || !g.contains_node(r) {
            return None;
        }
        let _timer = lcg_obs::timer!("sim/route/search_ns");
        let visited = self.search(g, s, r, edge_ok, node_ok);
        let path = self.sample_back(s, r, rng);
        if lcg_obs::enabled() {
            lcg_obs::counter!("sim/route/nodes_visited").add(visited);
            if let Some(path) = &path {
                lcg_obs::histogram!("sim/route/path_len").record(path.len() as u64);
            }
        }
        path
    }

    /// Starts a new route on a graph with `node_bound` node slots.
    fn begin(&mut self, node_bound: usize) {
        if self.slots.len() < node_bound {
            self.slots.resize(node_bound, Slot::default());
        }
        if self.epoch == u32::MAX {
            for slot in &mut self.slots {
                slot.seen = 0;
                slot.checked = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.preds.clear();
        self.queue.clear();
    }

    /// `node_ok(v)`, evaluated at most once per route.
    fn node_ok(&mut self, v: NodeId, node_ok: &impl Fn(NodeId) -> bool) -> bool {
        let slot = &mut self.slots[v.index()];
        if slot.checked != self.epoch {
            slot.checked = self.epoch;
            slot.ok = node_ok(v);
        }
        slot.ok
    }

    /// σ-counting BFS from `s` over the accepted subgraph, one layer at a
    /// time, stopping before the layer in front of `r` would be expanded:
    /// `r`'s predecessors are then read off its in-edges instead. Returns
    /// the number of nodes whose out-edges were scanned.
    fn search<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        s: NodeId,
        r: NodeId,
        edge_ok: impl Fn(EdgeId, &E) -> bool,
        node_ok: impl Fn(NodeId) -> bool,
    ) -> u64 {
        self.begin(g.node_bound());
        let epoch = self.epoch;
        self.slots[s.index()] = Slot {
            seen: epoch,
            dist: 0,
            sigma: 1.0,
            pos: 0,
            head: NIL,
            tail: NIL,
            ..self.slots[s.index()]
        };
        self.queue.push(s);
        // Every edge out of a rejected `s` or into a rejected `r` is
        // rejected; later layers hold only nodes reached through accepted
        // edges, so their own `node_ok` is known to pass.
        if s == r || !self.node_ok(s, &node_ok) || !self.node_ok(r, &node_ok) {
            return 0;
        }
        // The queue holds layer `depth` in `start..end`.
        let (mut start, mut depth) = (0, 0);
        while start < self.queue.len() {
            let end = self.queue.len();
            if self.link_receiver(g, r, depth, &edge_ok) {
                break;
            }
            for at in start..end {
                let u = self.queue[at];
                self.expand(g, u, &edge_ok, &node_ok);
            }
            (start, depth) = (end, depth + 1);
        }
        start as u64
    }

    /// Appends `u`'s accepted shortest-path out-edges to the predecessor
    /// lists of their heads, discovering new nodes into the next layer.
    fn expand<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        u: NodeId,
        edge_ok: &impl Fn(EdgeId, &E) -> bool,
        node_ok: &impl Fn(NodeId) -> bool,
    ) {
        let epoch = self.epoch;
        let Slot {
            dist: du,
            sigma: sigma_u,
            ..
        } = self.slots[u.index()];
        for e in g.out_edges(u) {
            let (_, v) = g.edge_endpoints(e).expect("live out-edge");
            let slot = self.slots[v.index()];
            let fresh = slot.seen != epoch;
            if !fresh && slot.dist != du + 1 {
                continue;
            }
            if !edge_ok(e, g.edge(e).expect("live out-edge")) || !self.node_ok(v, node_ok) {
                continue;
            }
            let id = self.preds.len();
            self.preds.push(Pred {
                edge: e,
                tail: u,
                next: NIL,
            });
            let slot = &mut self.slots[v.index()];
            if fresh {
                slot.seen = epoch;
                slot.dist = du + 1;
                slot.sigma = sigma_u;
                slot.pos = self.queue.len();
                slot.head = id;
                self.queue.push(v);
            } else {
                slot.sigma += sigma_u;
                self.preds[slot.tail].next = id;
            }
            slot.tail = id;
        }
    }

    /// If `r` has accepted in-edges from the fully discovered layer
    /// `depth`, makes them `r`'s predecessor list — in the order
    /// expanding the layer would have appended them: by the tail's queue
    /// position, then by edge id — and returns `true`.
    fn link_receiver<N, E>(
        &mut self,
        g: &DiGraph<N, E>,
        r: NodeId,
        depth: u32,
        edge_ok: &impl Fn(EdgeId, &E) -> bool,
    ) -> bool {
        let epoch = self.epoch;
        self.last_hop.clear();
        for e in g.in_edges(r) {
            let (u, _) = g.edge_endpoints(e).expect("live in-edge");
            let slot = self.slots[u.index()];
            if slot.seen == epoch
                && slot.dist == depth
                && edge_ok(e, g.edge(e).expect("live in-edge"))
            {
                self.last_hop.push((slot.pos, e));
            }
        }
        if self.last_hop.is_empty() {
            return false;
        }
        self.last_hop.sort_unstable();
        let head = self.preds.len();
        for &(pos, edge) in &self.last_hop {
            self.preds.push(Pred {
                edge,
                tail: self.queue[pos],
                next: self.preds.len() + 1,
            });
        }
        let tail = self.preds.len() - 1;
        self.preds[tail].next = NIL;
        let slot = &mut self.slots[r.index()];
        slot.seen = epoch;
        slot.dist = depth + 1;
        slot.head = head;
        slot.tail = tail;
        true
    }

    /// Predecessors of a discovered node `v`, in the order they were found.
    fn preds_of(&self, v: NodeId) -> impl Iterator<Item = Pred> + '_ {
        let mut at = self.slots[v.index()].head;
        std::iter::from_fn(move || {
            let p = *self.preds.get(at)?;
            at = p.next;
            Some(p)
        })
    }

    /// Walks the predecessor DAG back from `r` with probabilities
    /// `σ(tail)/σ(node)`, draw for draw like `sample_path_from_tree`.
    fn sample_back<R: Rng + ?Sized>(
        &self,
        s: NodeId,
        r: NodeId,
        rng: &mut R,
    ) -> Option<Vec<EdgeId>> {
        let slot = self.slots[r.index()];
        if slot.seen != self.epoch {
            return None;
        }
        let mut path = vec![EdgeId(0); slot.dist as usize];
        let mut cur = r;
        for hop in path.iter_mut().rev() {
            let sigma = |p: &Pred| self.slots[p.tail.index()].sigma;
            let total: f64 = self.preds_of(cur).map(|p| sigma(&p)).sum();
            let mut pick = rng.gen_range(0.0..total);
            let mut chosen = self.preds[self.slots[cur.index()].tail];
            for p in self.preds_of(cur) {
                let w = sigma(&p);
                if pick < w {
                    chosen = p;
                    break;
                }
                pick -= w;
            }
            *hop = chosen.edge;
            cur = chosen.tail;
        }
        debug_assert_eq!(cur, s, "backward walk ends at the source");
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcg_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn route(
        scratch: &mut RouteScratch,
        g: &DiGraph,
        s: usize,
        r: usize,
        seed: u64,
    ) -> Option<Vec<EdgeId>> {
        let mut rng = StdRng::seed_from_u64(seed);
        scratch.sample_shortest_path(g, NodeId(s), NodeId(r), |_, _| true, |_| true, &mut rng)
    }

    #[test]
    fn epoch_wraparound_forgets_stale_slots() {
        let g = generators::cycle(10);
        let mut old = RouteScratch::new();
        old.epoch = u32::MAX - 3;
        for i in 0..8 {
            let (s, r) = (i % 10, (i * 7 + 3) % 10);
            let want = route(&mut RouteScratch::new(), &g, s, r, i as u64);
            assert_eq!(route(&mut old, &g, s, r, i as u64), want, "route {i}");
        }
        assert!(old.epoch < 8, "epoch wrapped");
    }

    #[test]
    fn search_stops_before_expanding_the_receivers_last_layer() {
        let mut g = generators::path(20);
        let lonely = g.add_node(());
        let mut scratch = RouteScratch::new();
        // Nodes 0 and 1 are expanded; node 2's edge into 3 is read off
        // 3's in-edges.
        let expanded = scratch.search(&g, NodeId(0), NodeId(3), |_, _| true, |_| true);
        assert_eq!(expanded, 2);
        let expanded = scratch.search(&g, NodeId(0), NodeId(1), |_, _| true, |_| true);
        assert_eq!(expanded, 0, "a one-hop receiver is linked from the source");
        let expanded = scratch.search(&g, NodeId(0), lonely, |_, _| true, |_| true);
        assert_eq!(expanded, 20, "an unreachable receiver explores everything");
    }

    #[test]
    fn node_predicate_runs_once_per_node() {
        let g = generators::complete(8);
        let calls = std::cell::Cell::new(0);
        let mut scratch = RouteScratch::new();
        let mut rng = StdRng::seed_from_u64(3);
        let path = scratch.sample_shortest_path(
            &g,
            NodeId(0),
            NodeId(7),
            |_, _| true,
            |v| {
                calls.set(calls.get() + 1);
                v != NodeId(7)
            },
            &mut rng,
        );
        assert_eq!(path, None);
        assert!(
            calls.get() <= 8,
            "{} node_ok calls for 8 nodes",
            calls.get()
        );
    }
}
