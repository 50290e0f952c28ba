//! The [`EdgeDelta`] data type: a batch of channel edits between existing
//! nodes.
//!
//! Nothing in the workspace evaluates deltas incrementally; the deviation
//! search recomputes each candidate graph from scratch (see DESIGN.md,
//! "Scaling the deviation search"). The type is kept only because the
//! `certify` probe of the end-to-end benchmark (`perfbench/`) builds one.

use crate::graph::NodeId;

/// A batch of undirected channel edits between existing nodes: removals
/// first, then insertions, each as an unordered endpoint pair.
///
/// Exists only for the `certify` probe of the end-to-end benchmark.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeDelta {
    /// Channels to insert, as unordered endpoint pairs.
    pub insert: Vec<(NodeId, NodeId)>,
    /// Channels to remove, as unordered endpoint pairs.
    pub remove: Vec<(NodeId, NodeId)>,
}
