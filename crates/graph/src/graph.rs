//! Directed multigraph with stable indices.
//!
//! Payment channel networks are modelled in the paper as directed graphs in
//! which every bidirectional channel contributes **two** directed edges, one
//! per direction, because the two channel ends can hold different balances
//! (paper §II-A). This module provides the small, dependency-free graph core
//! that the rest of the workspace builds on: node/edge storage with stable
//! identifiers, O(1) endpoint lookup, and per-node in/out adjacency.
//!
//! Nodes and edges are tombstoned on removal so that identifiers held by
//! callers (e.g. channel handles in `lcg-sim`) never dangle silently:
//! accessing a removed entity returns `None`.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node (a PCN user) inside a [`DiGraph`].
///
/// Node ids are dense indices assigned in insertion order and are stable
/// across edge mutations; removing a node tombstones the slot without
/// shifting other ids.
///
/// # Examples
///
/// ```
/// use lcg_graph::{DiGraph, NodeId};
///
/// let mut g: DiGraph<(), ()> = DiGraph::new();
/// let a = g.add_node(());
/// assert_eq!(a, NodeId(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(i)
    }
}

/// Identifier of a directed edge inside a [`DiGraph`].
///
/// Edge ids are dense indices assigned in insertion order; removing an edge
/// tombstones the slot. A bidirectional payment channel is represented by two
/// edges with opposite directions (see [`DiGraph::add_bidirected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

impl EdgeId {
    /// Returns the underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<usize> for EdgeId {
    fn from(i: usize) -> Self {
        EdgeId(i)
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct EdgeRecord<E> {
    src: NodeId,
    dst: NodeId,
    data: E,
}

/// A directed multigraph with tombstoned removal and stable ids.
///
/// `N` is the per-node payload, `E` the per-edge payload. Both default to
/// `()` for purely structural graphs. Parallel edges and self-loops are
/// permitted at this layer (the paper's action set Ω may contain several
/// channels with the same endpoints, §II-C); higher layers impose their own
/// restrictions.
///
/// # Examples
///
/// ```
/// use lcg_graph::DiGraph;
///
/// let mut g: DiGraph<(), f64> = DiGraph::new();
/// let a = g.add_node(());
/// let b = g.add_node(());
/// let (ab, ba) = g.add_bidirected(a, b, 10.0, 7.0);
/// assert_eq!(g.edge_endpoints(ab), Some((a, b)));
/// assert_eq!(g.edge_endpoints(ba), Some((b, a)));
/// assert_eq!(g.node_count(), 2);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiGraph<N = (), E = ()> {
    nodes: Vec<Option<N>>,
    edges: Vec<Option<EdgeRecord<E>>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    live_nodes: usize,
    live_edges: usize,
}

impl<N, E> Default for DiGraph<N, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<N, E> DiGraph<N, E> {
    /// Creates an empty graph.
    pub fn new() -> Self {
        DiGraph {
            nodes: Vec::new(),
            edges: Vec::new(),
            out_edges: Vec::new(),
            in_edges: Vec::new(),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Creates an empty graph with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        DiGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
            live_nodes: 0,
            live_edges: 0,
        }
    }

    /// Number of live (non-removed) nodes.
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live (non-removed) directed edges.
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound (exclusive) on node indices ever allocated, including
    /// tombstones. Useful for sizing side tables indexed by [`NodeId`].
    pub fn node_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Upper bound (exclusive) on edge indices ever allocated, including
    /// tombstones. Useful for sizing side tables indexed by [`EdgeId`].
    pub fn edge_bound(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.live_nodes == 0
    }

    /// Adds a node carrying `data` and returns its id.
    pub fn add_node(&mut self, data: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(data));
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.live_nodes += 1;
        id
    }

    /// Returns `true` if `node` exists and has not been removed.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.get(node.0).is_some_and(Option::is_some)
    }

    /// Returns a reference to the payload of `node`, or `None` if removed or
    /// out of bounds.
    pub fn node(&self, node: NodeId) -> Option<&N> {
        self.nodes.get(node.0)?.as_ref()
    }

    /// Returns a mutable reference to the payload of `node`.
    pub fn node_mut(&mut self, node: NodeId) -> Option<&mut N> {
        self.nodes.get_mut(node.0)?.as_mut()
    }

    /// Adds a directed edge `src -> dst` carrying `data`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist (programming error: edges
    /// must connect live nodes).
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, data: E) -> EdgeId {
        assert!(
            self.contains_node(src),
            "add_edge: source {src} not in graph"
        );
        assert!(
            self.contains_node(dst),
            "add_edge: target {dst} not in graph"
        );
        let id = EdgeId(self.edges.len());
        self.edges.push(Some(EdgeRecord { src, dst, data }));
        self.out_edges[src.0].push(id);
        self.in_edges[dst.0].push(id);
        self.live_edges += 1;
        id
    }

    /// Adds the two directed edges of a bidirectional channel and returns
    /// `(forward, backward)` edge ids.
    ///
    /// The paper models each channel `{u, v}` as the edge pair `(u, v)` and
    /// `(v, u)`, each with its own payload (e.g. each end's balance).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_bidirected(&mut self, u: NodeId, v: NodeId, uv: E, vu: E) -> (EdgeId, EdgeId) {
        let f = self.add_edge(u, v, uv);
        let b = self.add_edge(v, u, vu);
        (f, b)
    }

    /// Returns `true` if `edge` exists and has not been removed.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.get(edge.0).is_some_and(Option::is_some)
    }

    /// Returns `(src, dst)` for a live edge.
    pub fn edge_endpoints(&self, edge: EdgeId) -> Option<(NodeId, NodeId)> {
        let rec = self.edges.get(edge.0)?.as_ref()?;
        Some((rec.src, rec.dst))
    }

    /// Returns a reference to the payload of `edge`.
    pub fn edge(&self, edge: EdgeId) -> Option<&E> {
        Some(&self.edges.get(edge.0)?.as_ref()?.data)
    }

    /// Returns a mutable reference to the payload of `edge`.
    pub fn edge_mut(&mut self, edge: EdgeId) -> Option<&mut E> {
        Some(&mut self.edges.get_mut(edge.0)?.as_mut()?.data)
    }

    /// Finds the first live edge `src -> dst`, if any.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_edges
            .get(src.0)?
            .iter()
            .copied()
            .find(|&e| self.edges[e.0].as_ref().is_some_and(|rec| rec.dst == dst))
    }

    /// Returns `true` if at least one live edge `src -> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId) -> bool {
        self.find_edge(src, dst).is_some()
    }

    /// Removes a directed edge, returning its payload.
    ///
    /// Removal is O(out-degree + in-degree) of the endpoints.
    pub fn remove_edge(&mut self, edge: EdgeId) -> Option<E> {
        let rec = self.edges.get_mut(edge.0)?.take()?;
        self.out_edges[rec.src.0].retain(|&e| e != edge);
        self.in_edges[rec.dst.0].retain(|&e| e != edge);
        self.live_edges -= 1;
        Some(rec.data)
    }

    /// Removes both directions between `u` and `v` (first match each way).
    ///
    /// Returns the payloads `(uv, vu)` that were removed, if found. Used to
    /// close a bidirectional channel.
    pub fn remove_bidirected(&mut self, u: NodeId, v: NodeId) -> (Option<E>, Option<E>) {
        let uv = self.find_edge(u, v).and_then(|e| self.remove_edge(e));
        let vu = self.find_edge(v, u).and_then(|e| self.remove_edge(e));
        (uv, vu)
    }

    /// Removes a node and all incident edges, returning its payload.
    pub fn remove_node(&mut self, node: NodeId) -> Option<N> {
        let data = self.nodes.get_mut(node.0)?.take()?;
        let incident: Vec<EdgeId> = self.out_edges[node.0]
            .iter()
            .chain(self.in_edges[node.0].iter())
            .copied()
            .collect();
        for e in incident {
            self.remove_edge(e);
        }
        self.live_nodes -= 1;
        Some(data)
    }

    /// Iterates over live node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| NodeId(i)))
    }

    /// Iterates over live edge ids in index order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|_| EdgeId(i)))
    }

    /// Iterates over `(edge, src, dst, &data)` for all live edges.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId, &E)> + '_ {
        self.edges.iter().enumerate().filter_map(|(i, e)| {
            e.as_ref()
                .map(|rec| (EdgeId(i), rec.src, rec.dst, &rec.data))
        })
    }

    /// Out-edges of `node` (live only). Empty iterator if node is removed.
    ///
    /// Edges come in ascending [`EdgeId`] order, on the graph itself and on
    /// any [`DiGraph::filter_edges`] copy of it: ids are handed out in
    /// increasing order and removal keeps the order of the rest. Callers
    /// rely on this — `lcg_sim`'s live-graph router matches a BFS over a
    /// filtered copy draw for draw only because both see the same order.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges
            .get(node.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// In-edges of `node` (live only). Empty iterator if node is removed.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_edges
            .get(node.0)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
            .iter()
            .copied()
    }

    /// Out-neighbors of `node`, with multiplicity for parallel edges.
    pub fn out_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.out_edges(node)
            .filter_map(move |e| self.edge_endpoints(e).map(|(_, d)| d))
    }

    /// In-neighbors of `node`, with multiplicity for parallel edges.
    pub fn in_neighbors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.in_edges(node)
            .filter_map(move |e| self.edge_endpoints(e).map(|(s, _)| s))
    }

    /// All distinct in- and out-neighbors of `node` (the paper's `Ne(u)`),
    /// in ascending id order, without duplicates.
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        let mut ns: Vec<NodeId> = self
            .out_neighbors(node)
            .chain(self.in_neighbors(node))
            .collect();
        ns.sort_unstable();
        ns.dedup();
        ns
    }

    /// Out-degree of `node` (number of live out-edges).
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges.get(node.0).map_or(0, Vec::len)
    }

    /// In-degree of `node` (number of live in-edges).
    ///
    /// The paper's modified Zipf distribution ranks nodes by in-degree
    /// (§II-B); for the two-directed-edges-per-channel encoding this equals
    /// the number of channels incident to the node.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges.get(node.0).map_or(0, Vec::len)
    }

    /// Total degree (in + out).
    pub fn degree(&self, node: NodeId) -> usize {
        self.in_degree(node) + self.out_degree(node)
    }

    /// Builds a copy of the graph keeping only edges accepted by `keep`.
    ///
    /// Node ids are preserved (tombstones included), so side tables and ids
    /// remain valid across the copy. This is the "reduced subgraph with
    /// updated capacities" operation of §II-B: for a payment of size `x`,
    /// keep only edges with enough balance to forward `x`.
    pub fn filter_edges<F>(&self, mut keep: F) -> DiGraph<N, E>
    where
        N: Clone,
        E: Clone,
        F: FnMut(EdgeId, NodeId, NodeId, &E) -> bool,
    {
        let mut g = DiGraph {
            nodes: self.nodes.clone(),
            edges: vec![None; self.edges.len()],
            out_edges: vec![Vec::new(); self.out_edges.len()],
            in_edges: vec![Vec::new(); self.in_edges.len()],
            live_nodes: self.live_nodes,
            live_edges: 0,
        };
        for (id, src, dst, data) in self.edges() {
            if keep(id, src, dst, data) {
                g.edges[id.0] = Some(EdgeRecord {
                    src,
                    dst,
                    data: data.clone(),
                });
                g.out_edges[src.0].push(id);
                g.in_edges[dst.0].push(id);
                g.live_edges += 1;
            }
        }
        g
    }

    /// Builds a copy with node `u` and all incident edges removed, keeping
    /// ids stable. This is the paper's `G' = G \ {u}` used when ranking the
    /// other nodes for the modified Zipf distribution.
    pub fn without_node(&self, u: NodeId) -> DiGraph<N, E>
    where
        N: Clone,
        E: Clone,
    {
        let mut g = self.filter_edges(|_, s, d, _| s != u && d != u);
        if g.contains_node(u) {
            g.nodes[u.0] = None;
            g.live_nodes -= 1;
        }
        g
    }

    /// Maps edge payloads, preserving structure and ids.
    pub fn map_edges<E2, F>(&self, mut f: F) -> DiGraph<N, E2>
    where
        N: Clone,
        F: FnMut(EdgeId, &E) -> E2,
    {
        DiGraph {
            nodes: self.nodes.clone(),
            edges: self
                .edges
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    e.as_ref().map(|rec| EdgeRecord {
                        src: rec.src,
                        dst: rec.dst,
                        data: f(EdgeId(i), &rec.data),
                    })
                })
                .collect(),
            out_edges: self.out_edges.clone(),
            in_edges: self.in_edges.clone(),
            live_nodes: self.live_nodes,
            live_edges: self.live_edges,
        }
    }
}

impl<N: Default, E> DiGraph<N, E> {
    /// Adds `count` nodes with default payloads, returning their ids.
    pub fn add_nodes(&mut self, count: usize) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node(N::default())).collect()
    }
}

impl<N, E: Clone> DiGraph<N, E> {
    /// Adds a bidirectional channel with the same payload on both directions.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint does not exist.
    pub fn add_undirected(&mut self, u: NodeId, v: NodeId, data: E) -> (EdgeId, EdgeId) {
        self.add_bidirected(u, v, data.clone(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (DiGraph<(), u32>, Vec<NodeId>) {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut g = DiGraph::new();
        let ns = g.add_nodes(4);
        g.add_edge(ns[0], ns[1], 1);
        g.add_edge(ns[1], ns[3], 2);
        g.add_edge(ns[0], ns[2], 3);
        g.add_edge(ns[2], ns[3], 4);
        (g, ns)
    }

    #[test]
    fn empty_graph_has_no_nodes_or_edges() {
        let g: DiGraph = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_bound(), 0);
    }

    #[test]
    fn add_node_assigns_dense_ids() {
        let mut g: DiGraph<u8, ()> = DiGraph::new();
        assert_eq!(g.add_node(7), NodeId(0));
        assert_eq!(g.add_node(9), NodeId(1));
        assert_eq!(g.node(NodeId(0)), Some(&7));
        assert_eq!(g.node(NodeId(1)), Some(&9));
        assert_eq!(g.node(NodeId(2)), None);
    }

    #[test]
    fn add_edge_updates_adjacency_and_counts() {
        let (g, ns) = diamond();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.out_degree(ns[0]), 2);
        assert_eq!(g.in_degree(ns[3]), 2);
        assert_eq!(g.out_degree(ns[3]), 0);
        let outs: Vec<_> = g.out_neighbors(ns[0]).collect();
        assert_eq!(outs, vec![ns[1], ns[2]]);
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn add_edge_to_missing_node_panics() {
        let mut g: DiGraph = DiGraph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }

    #[test]
    fn find_edge_and_has_edge() {
        let (g, ns) = diamond();
        assert!(g.has_edge(ns[0], ns[1]));
        assert!(!g.has_edge(ns[1], ns[0]));
        let e = g.find_edge(ns[0], ns[2]).unwrap();
        assert_eq!(g.edge(e), Some(&3));
    }

    #[test]
    fn remove_edge_tombstones_and_retains_other_ids() {
        let (mut g, ns) = diamond();
        let e = g.find_edge(ns[0], ns[1]).unwrap();
        assert_eq!(g.remove_edge(e), Some(1));
        assert_eq!(g.edge_count(), 3);
        assert!(!g.contains_edge(e));
        assert!(g.has_edge(ns[0], ns[2]));
        // Removing again is a no-op.
        assert_eq!(g.remove_edge(e), None);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn remove_node_removes_incident_edges() {
        let (mut g, ns) = diamond();
        g.remove_node(ns[1]);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert!(!g.has_edge(ns[0], ns[1]));
        assert!(g.has_edge(ns[0], ns[2]));
        // Node ids of the others are unchanged.
        assert!(g.contains_node(ns[3]));
    }

    #[test]
    fn bidirected_channels_add_two_edges() {
        let mut g: DiGraph<(), f64> = DiGraph::new();
        let ns = g.add_nodes(2);
        let (f, b) = g.add_bidirected(ns[0], ns[1], 10.0, 7.0);
        assert_eq!(g.edge(f), Some(&10.0));
        assert_eq!(g.edge(b), Some(&7.0));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(ns[0]), vec![ns[1]]);
        let (uv, vu) = g.remove_bidirected(ns[0], ns[1]);
        assert_eq!((uv, vu), (Some(10.0), Some(7.0)));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn neighbors_dedups_parallel_and_reverse_edges() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ns = g.add_nodes(3);
        g.add_undirected(ns[0], ns[1], ());
        g.add_undirected(ns[0], ns[1], ()); // parallel channel
        g.add_edge(ns[2], ns[0], ());
        assert_eq!(g.neighbors(ns[0]), vec![ns[1], ns[2]]);
        assert_eq!(g.out_degree(ns[0]), 2);
        assert_eq!(g.in_degree(ns[0]), 3);
    }

    #[test]
    fn filter_edges_preserves_ids() {
        let (g, ns) = diamond();
        let reduced = g.filter_edges(|_, _, _, &w| w >= 3);
        assert_eq!(reduced.edge_count(), 2);
        assert_eq!(reduced.node_count(), 4);
        assert!(reduced.has_edge(ns[0], ns[2]));
        assert!(!reduced.has_edge(ns[0], ns[1]));
        // Surviving edge keeps its id from the original graph.
        let e = g.find_edge(ns[2], ns[3]).unwrap();
        assert_eq!(reduced.edge_endpoints(e), Some((ns[2], ns[3])));
    }

    #[test]
    fn without_node_drops_node_and_incident_edges() {
        let (g, ns) = diamond();
        let g2 = g.without_node(ns[1]);
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.edge_count(), 2);
        assert!(!g2.contains_node(ns[1]));
        assert!(g2.contains_node(ns[0]));
        // Original untouched.
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn map_edges_transforms_payloads_in_place() {
        let (g, ns) = diamond();
        let doubled = g.map_edges(|_, &w| w * 2);
        let e = doubled.find_edge(ns[0], ns[2]).unwrap();
        assert_eq!(doubled.edge(e), Some(&6));
        assert_eq!(doubled.edge_count(), 4);
    }

    #[test]
    fn node_and_edge_iterators_skip_tombstones() {
        let (mut g, ns) = diamond();
        let e = g.find_edge(ns[0], ns[1]).unwrap();
        g.remove_edge(e);
        g.remove_node(ns[2]);
        let nodes: Vec<_> = g.node_ids().collect();
        assert_eq!(nodes, vec![ns[0], ns[1], ns[3]]);
        let edges: Vec<_> = g.edge_ids().collect();
        assert_eq!(edges.len(), g.edge_count());
        for e in edges {
            assert!(g.contains_edge(e));
        }
    }

    #[test]
    fn out_edges_stay_ascending_under_arbitrary_mutation() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut g: DiGraph<(), ()> = DiGraph::new();
        g.add_nodes(12);
        for step in 0..2_000 {
            let live: Vec<NodeId> = g.node_ids().collect();
            if live.len() < 2 {
                g.add_nodes(4);
                continue;
            }
            let u = live[rng.gen_range(0..live.len())];
            let v = live[rng.gen_range(0..live.len())];
            match rng.gen_range(0..10) {
                0..=4 => {
                    g.add_edge(u, v, ());
                }
                5 | 6 => {
                    let edges: Vec<EdgeId> = g.edge_ids().collect();
                    if !edges.is_empty() {
                        g.remove_edge(edges[rng.gen_range(0..edges.len())]);
                    }
                }
                7 => {
                    g.remove_bidirected(u, v);
                }
                8 => {
                    g.remove_node(u);
                }
                _ => {
                    g.add_node(());
                }
            }
            for n in 0..g.node_bound() {
                let out: Vec<EdgeId> = g.out_edges(NodeId(n)).collect();
                assert!(
                    out.windows(2).all(|w| w[0] < w[1]),
                    "step {step}: out-edges of n{n} not ascending: {out:?}"
                );
            }
        }
        assert!(g.edge_count() > 0, "the sequence must leave edges to check");
        // A filtered copy lists the surviving out-edges in the same order.
        let keep = |e: EdgeId| !e.index().is_multiple_of(3);
        let copy = g.filter_edges(|e, _, _, _| keep(e));
        for n in g.node_ids() {
            let live: Vec<EdgeId> = g.out_edges(n).filter(|&e| keep(e)).collect();
            assert_eq!(copy.out_edges(n).collect::<Vec<_>>(), live);
        }
    }

    #[test]
    fn display_formats_are_nonempty() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(EdgeId(11).to_string(), "e11");
    }

    #[test]
    fn degree_counts_match_channel_count_for_undirected_encoding() {
        let mut g: DiGraph<(), ()> = DiGraph::new();
        let ns = g.add_nodes(4);
        // star with center 0
        for &leaf in &ns[1..] {
            g.add_undirected(ns[0], leaf, ());
        }
        assert_eq!(g.in_degree(ns[0]), 3);
        assert_eq!(g.out_degree(ns[0]), 3);
        for &leaf in &ns[1..] {
            assert_eq!(g.in_degree(leaf), 1);
        }
    }
}
