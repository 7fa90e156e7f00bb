//! The dynamic-forest trait family: the capability surface the DynSLD stack charges to its
//! dynamic-tree substrate, factored out so forest implementations are interchangeable
//! *policies* rather than hard-wired types.
//!
//! The paper charges its update and query costs to an abstract dynamic-tree structure
//! (Section 2.4, Table 1); which concrete structure backs it is an implementation policy.
//! This module splits that surface into three capabilities:
//!
//! * [`DynamicForest`] — the core `link` / `cut` / `connected` contract every backend must
//!   provide. Implementations choose their own node and edge handle types: the
//!   [`LinkCutTree`] addresses nodes by [`LctNodeId`]
//!   and needs no edge handle (`Edge = ()`), while the
//!   [`EulerTourForest`] addresses vertices directly and keys each
//!   edge by an [`EdgeId`].
//! * [`PathOps`] — path aggregates between two nodes: maximum-key node, path length, and
//!   path weight search (the Section 4.1 primitive). Provided by the link-cut tree.
//! * [`ComponentOps`] — whole-component queries: size, representative, and member
//!   iteration, the operations replacement-edge search and cluster reporting need.
//!   Provided by the Euler-tour forest.
//!
//! [`ExpandableForest`] adds uniform construction/growth so a generic container can own a
//! dynamically sized family of forests behind a type parameter.

use crate::euler::EulerTourForest;
use crate::lct::{LctNodeId, LinkCutTree};
use dynsld_forest::{EdgeId, RankKey, VertexId};

/// Core dynamic-forest contract: maintain a forest under edge links and cuts, and answer
/// connectivity queries.
///
/// Methods take `&mut self` even for queries because self-adjusting implementations
/// (splay-based link-cut trees) restructure on reads.
pub trait DynamicForest {
    /// Handle addressing a node of the forest.
    type Node: Copy + Eq;
    /// Handle addressing an edge of the forest (`()` when the implementation identifies
    /// edges by their endpoints).
    type Edge: Copy + Eq;

    /// Links the trees containing `u` and `v` with an edge. The endpoints must be in
    /// different trees.
    fn link(&mut self, u: Self::Node, v: Self::Node, edge: Self::Edge);

    /// Cuts the edge `{u, v}` (addressed by endpoints, by handle, or both — whichever the
    /// implementation keys on). The edge must be present.
    fn cut(&mut self, u: Self::Node, v: Self::Node, edge: Self::Edge);

    /// Returns true if `u` and `v` are in the same tree.
    fn connected(&mut self, u: Self::Node, v: Self::Node) -> bool;
}

/// Path aggregates between two nodes of the same tree.
pub trait PathOps: DynamicForest {
    /// The node with the maximum key on the `u`–`v` path, or `None` if no node on the path
    /// carries a key (or the endpoints are disconnected).
    fn path_max(&mut self, u: Self::Node, v: Self::Node) -> Option<Self::Node>;

    /// Number of nodes on the `u`–`v` path (including both endpoints; 0 if disconnected).
    fn path_len(&mut self, u: Self::Node, v: Self::Node) -> usize;

    /// Path weight search (the paper's Definition 4.1 primitive): the node with the
    /// **maximum key strictly below** `key` on the `u`–`v` path, or `None` if every key on
    /// the path is at or above it.
    ///
    /// Precondition (inherited from the spine layout this query serves): every node on the
    /// path carries a key and keys increase monotonically from `u` towards `v`.
    fn path_search_below(
        &mut self,
        u: Self::Node,
        v: Self::Node,
        key: RankKey,
    ) -> Option<Self::Node>;
}

/// Whole-component queries over the forest.
pub trait ComponentOps: DynamicForest {
    /// An identifier of the tree containing `v`, stable while the tree is not relinked:
    /// `component_id(u) == component_id(v)` iff `u` and `v` are connected.
    fn component_id(&mut self, v: Self::Node) -> usize;

    /// Number of nodes in the tree containing `v`.
    fn component_size(&mut self, v: Self::Node) -> usize;

    /// The nodes of the tree containing `v` (implementation-defined order).
    fn component_vertices(&mut self, v: Self::Node) -> Vec<Self::Node>;
}

/// Uniform construction and growth, so generic containers can own families of forests.
pub trait ExpandableForest: DynamicForest {
    /// Creates a forest of `n` isolated nodes. `seed` parameterizes any internal
    /// randomization (ignored by deterministic implementations).
    fn with_nodes(n: usize, seed: u64) -> Self;

    /// Adds `k` isolated nodes with the next consecutive ids.
    fn add_nodes(&mut self, k: usize);
}

impl DynamicForest for EulerTourForest {
    type Node = VertexId;
    type Edge = EdgeId;

    fn link(&mut self, u: VertexId, v: VertexId, edge: EdgeId) {
        EulerTourForest::link(self, u, v, edge);
    }

    fn cut(&mut self, _u: VertexId, _v: VertexId, edge: EdgeId) {
        EulerTourForest::cut(self, edge);
    }

    fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        EulerTourForest::connected(self, u, v)
    }
}

impl ComponentOps for EulerTourForest {
    fn component_id(&mut self, v: VertexId) -> usize {
        EulerTourForest::component_repr(self, v)
    }

    fn component_size(&mut self, v: VertexId) -> usize {
        EulerTourForest::component_size(self, v)
    }

    fn component_vertices(&mut self, v: VertexId) -> Vec<VertexId> {
        EulerTourForest::component_vertices(self, v)
    }
}

impl ExpandableForest for EulerTourForest {
    fn with_nodes(n: usize, seed: u64) -> Self {
        EulerTourForest::with_seed(n, seed)
    }

    fn add_nodes(&mut self, k: usize) {
        self.add_vertices(k);
    }
}

impl DynamicForest for LinkCutTree {
    type Node = LctNodeId;
    type Edge = ();

    fn link(&mut self, u: LctNodeId, v: LctNodeId, _edge: ()) {
        self.link_edge(u, v);
    }

    fn cut(&mut self, u: LctNodeId, v: LctNodeId, _edge: ()) {
        self.cut_edge(u, v);
    }

    fn connected(&mut self, u: LctNodeId, v: LctNodeId) -> bool {
        LinkCutTree::connected(self, u, v)
    }
}

impl PathOps for LinkCutTree {
    fn path_max(&mut self, u: LctNodeId, v: LctNodeId) -> Option<LctNodeId> {
        self.path_max_node(u, v)
    }

    fn path_len(&mut self, u: LctNodeId, v: LctNodeId) -> usize {
        LinkCutTree::path_len(self, u, v)
    }

    fn path_search_below(&mut self, u: LctNodeId, v: LctNodeId, key: RankKey) -> Option<LctNodeId> {
        self.evert(v);
        self.path_to_root_search_below(u, key)
    }
}

impl ExpandableForest for LinkCutTree {
    fn with_nodes(n: usize, _seed: u64) -> Self {
        let mut lct = LinkCutTree::with_capacity(n);
        lct.add_nodes(n);
        lct
    }

    fn add_nodes(&mut self, k: usize) {
        for _ in 0..k {
            self.add_node(None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld_forest::Weight;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    fn e(i: u32) -> EdgeId {
        EdgeId(i)
    }

    /// Exercises the core contract through the trait object surface only, so any future
    /// backend can reuse the same checklist.
    fn core_contract<F: DynamicForest + ExpandableForest>(
        nodes: &[F::Node],
        edges: &[F::Edge],
        forest: &mut F,
    ) {
        let (a, b, c, d) = (nodes[0], nodes[1], nodes[2], nodes[3]);
        assert!(!forest.connected(a, b));
        forest.link(a, b, edges[0]);
        forest.link(b, c, edges[1]);
        assert!(forest.connected(a, c));
        assert!(!forest.connected(a, d));
        forest.cut(b, c, edges[1]);
        assert!(forest.connected(a, b));
        assert!(!forest.connected(a, c));
        // Relink elsewhere: the cut edge handle is reusable.
        forest.link(c, d, edges[1]);
        assert!(forest.connected(c, d));
    }

    #[test]
    fn euler_tour_forest_implements_the_core_contract() {
        let mut ett = <EulerTourForest as ExpandableForest>::with_nodes(4, 42);
        core_contract(&[v(0), v(1), v(2), v(3)], &[e(0), e(1)], &mut ett);
    }

    #[test]
    fn link_cut_tree_implements_the_core_contract() {
        let mut lct = <LinkCutTree as ExpandableForest>::with_nodes(4, 0);
        core_contract(&[0, 1, 2, 3], &[(), ()], &mut lct);
    }

    #[test]
    fn component_ops_cover_size_id_and_iteration() {
        let mut ett = EulerTourForest::new(5);
        ett.link(v(0), v(1), e(0));
        ett.link(v(1), v(2), e(1));
        assert_eq!(ComponentOps::component_size(&mut ett, v(0)), 3);
        assert_eq!(ComponentOps::component_size(&mut ett, v(3)), 1);
        assert_eq!(ett.component_id(v(0)), ett.component_id(v(2)));
        assert_ne!(ett.component_id(v(0)), ett.component_id(v(3)));
        let mut members = ComponentOps::component_vertices(&mut ett, v(1));
        members.sort();
        assert_eq!(members, vec![v(0), v(1), v(2)]);
    }

    #[test]
    fn path_ops_cover_max_and_len() {
        // Path a - e0 - b - e1 - c with keyed edge nodes, as DynSld lays out its input LCT.
        let mut lct = LinkCutTree::new();
        let key = |w: Weight, i: u32| Some(RankKey::new(w, EdgeId(i)));
        let a = lct.add_node(None);
        let b = lct.add_node(None);
        let c = lct.add_node(None);
        let e0 = lct.add_node(key(5.0, 0));
        let e1 = lct.add_node(key(2.0, 1));
        for (x, y) in [(a, e0), (e0, b), (b, e1), (e1, c)] {
            DynamicForest::link(&mut lct, x, y, ());
        }
        assert_eq!(lct.path_max(a, c), Some(e0));
        assert_eq!(PathOps::path_len(&mut lct, a, c), 5);
    }

    #[test]
    fn path_ops_weight_search_on_a_monotone_spine() {
        // A fully keyed spine with ranks increasing towards the far endpoint — the layout
        // dendrogram spines use and the weight-search precondition requires.
        let mut lct = LinkCutTree::new();
        let keys: Vec<RankKey> = (0..4)
            .map(|i| RankKey::new(i as Weight, EdgeId(i)))
            .collect();
        let spine: Vec<LctNodeId> = keys.iter().map(|&k| lct.add_node(Some(k))).collect();
        for w in spine.windows(2) {
            DynamicForest::link(&mut lct, w[0], w[1], ());
        }
        let (lo, hi) = (spine[0], spine[3]);
        // Maximum key strictly below rank 2 is the rank-1 node.
        assert_eq!(lct.path_search_below(lo, hi, keys[2]), Some(spine[1]));
        // Nothing lies strictly below the smallest rank.
        assert_eq!(lct.path_search_below(lo, hi, keys[0]), None);
    }
}
