//! A from-scratch revenue query shaped like an edge-delta lookup.
//!
//! Nothing in the workspace evaluates revenue incrementally under channel
//! rewirings: the deviation search recomputes each candidate graph from
//! scratch (see DESIGN.md, "Scaling the deviation search").
//! [`DeltaRevenueOracle`] is kept only because the `certify` probe of the
//! end-to-end benchmark (`perfbench/`) calls it.

use crate::rates::TransactionModel;
use crate::utility::Topology;
use lcg_graph::edge_delta::EdgeDelta;
use lcg_graph::NodeId;

/// Intermediary revenue of one node on a rewired graph, computed from
/// scratch under a fixed revenue weight per routed pair.
///
/// Exists only for the `certify` probe of the end-to-end benchmark.
///
/// # Examples
///
/// ```
/// use lcg_core::delta_eval::DeltaRevenueOracle;
/// use lcg_core::rates::TransactionModel;
/// use lcg_graph::edge_delta::EdgeDelta;
/// use lcg_graph::{generators, NodeId};
///
/// let mut updated = generators::cycle(6);
/// updated.add_undirected(NodeId(0), NodeId(3), ());
/// let model = TransactionModel::uniform(&updated, vec![1.0; updated.node_bound()]);
/// let delta = EdgeDelta { insert: vec![(NodeId(0), NodeId(3))], remove: vec![] };
/// let rev = DeltaRevenueOracle::new(1.0).revenue_of(&updated, &delta, NodeId(0), &model);
/// assert_eq!(rev.to_bits(), model.revenue_rates(&updated, 1.0)[0].to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaRevenueOracle {
    favg: f64,
}

impl DeltaRevenueOracle {
    /// An oracle weighting each routed pair by `favg` (§IV's `b` with
    /// unit volumes).
    pub fn new(favg: f64) -> Self {
        DeltaRevenueOracle { favg }
    }

    /// `model.revenue_rates(updated, favg)[v]`; `delta` is ignored.
    pub fn revenue_of(
        &self,
        updated: &Topology,
        _delta: &EdgeDelta,
        v: NodeId,
        model: &TransactionModel,
    ) -> f64 {
        model.revenue_rates(updated, self.favg)[v.index()]
    }
}
