//! Batch entry points for [`DynamicGraphClustering`].
//!
//! The paper's Theorem 1.5 gives batch-parallel dendrogram updates for *forest* batches in
//! which every inserted edge links two distinct components and the batch's incidence graph is a
//! forest, and for arbitrary sets of tree-edge deletions. A stream of *graph* updates does not
//! satisfy those preconditions directly — inserted edges may close cycles, and deleted tree
//! edges need replacement edges promoted from the reserve. This module does the routing:
//!
//! * [`DynamicGraphClustering::batch_insert_edges`] classifies the batch with a Kruskal-style
//!   union-find pass over current components (rank order, deterministic): edges that join
//!   distinct components ride [`DynSld::batch_insert`] in one shot; cycle-closing edges fall
//!   back to the per-edge insert (path-maximum comparison, possible eviction).
//! * [`DynamicGraphClustering::batch_delete_edges`] strips non-tree deletions out of the batch
//!   (reserve bookkeeping only), removes all tree edges with one [`DynSld::batch_delete`], then
//!   restores the MSF by a single Kruskal pass over the reserve edges incident to the affected
//!   components — the promoted edges again enter through [`DynSld::batch_insert`], because by
//!   construction they link distinct components and form an incidence forest.
//!
//! Both entry points validate the whole batch before mutating anything, process edges in rank
//! order (`(weight, endpoint pair)` — fully deterministic), and report per-edge [`MsfChange`]s
//! in *input* order so callers can correlate outcomes with submissions.

use crate::{component_members, pair, DynamicGraphClustering, MsfChange};
use dynsld::{DynSld, DynSldError};
use dynsld_forest::{Dsu, VertexId, Weight};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The result of applying one batch of graph updates.
#[derive(Clone, Debug, PartialEq)]
pub struct BatchOutcome {
    /// How the MSF changed, per input edge, in input order.
    pub changes: Vec<MsfChange>,
    /// Number of updates that rode the Theorem-1.5 batch fast path (including promoted
    /// replacement edges on deletion).
    pub fast_path: usize,
    /// Number of updates applied through the per-edge fallback.
    pub fallback: usize,
    /// Reserve edges promoted into the MSF by a deletion batch, in promotion order.
    pub promoted: Vec<(VertexId, VertexId)>,
    /// Wall time spent classifying the batch: the Kruskal-style union-find pass on insert,
    /// and the tree/non-tree split plus replacement-candidate search on delete.
    pub classify_time: Duration,
    /// The portion of [`classify_time`](Self::classify_time) spent in the replacement search
    /// on deletion batches (candidate gathering plus promotion attribution) — a *child* of
    /// the classify segment, not an additional one.
    pub replacement_time: Duration,
    /// Wall time spent mutating the structure: `batch_insert`/`batch_delete`, per-edge
    /// fallbacks, promotions, and membership bookkeeping.
    pub apply_time: Duration,
}

/// Maps arbitrary component representatives (as returned by [`DynSld::component_repr`]) to
/// dense local indices, so a small [`Dsu`] can run over just the components a batch touches.
#[derive(Default)]
struct LocalComponents {
    index: HashMap<usize, u32>,
}

impl LocalComponents {
    fn local(&mut self, sld: &DynSld, v: VertexId) -> VertexId {
        let repr = sld.component_repr(v);
        let next = self.index.len() as u32;
        VertexId(*self.index.entry(repr).or_insert(next))
    }

    fn len(&self) -> usize {
        self.index.len()
    }
}

/// Sorts batch indices into rank order: `(weight, normalised endpoint pair)` ascending. Using
/// the endpoint pair (not the insertion-assigned edge id) as tie-breaker keeps the order a pure
/// function of the batch content.
fn rank_order(edges: &[(VertexId, VertexId, Weight)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by(|&a, &b| {
        edges[a]
            .2
            .total_cmp(&edges[b].2)
            .then_with(|| pair(edges[a].0, edges[a].1).cmp(&pair(edges[b].0, edges[b].1)))
    });
    order
}

impl DynamicGraphClustering {
    /// Inserts a batch of graph edges and updates the MSF and dendrogram.
    ///
    /// Edges joining two distinct components (accounting for merges performed by lighter batch
    /// edges) are applied with one [`DynSld::batch_insert`]; the rest fall back to the per-edge
    /// path. The resulting MSF equals the one produced by inserting the edges one at a time in
    /// rank order. The whole batch is validated first — on `Err` nothing was changed.
    pub fn batch_insert_edges(
        &mut self,
        edges: &[(VertexId, VertexId, Weight)],
    ) -> Result<BatchOutcome, DynSldError> {
        // ---- validation (no mutation before this passes) ---------------------------------
        let mut batch_seen = std::collections::HashSet::new();
        for &(u, v, _) in edges {
            if u == v {
                return Err(DynSldError::SelfLoop(u));
            }
            for x in [u, v] {
                if x.index() >= self.num_vertices() {
                    return Err(DynSldError::VertexOutOfRange(x));
                }
            }
            let key = pair(u, v);
            if self.membership.contains_key(&key) {
                return Err(DynSldError::EdgeAlreadyExists(u, v));
            }
            if !batch_seen.insert(key) {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
        }

        // ---- classify: Kruskal over (current components ∪ lighter batch edges) ----------
        let classify_start = Instant::now();
        let order = rank_order(edges);
        let mut comps = LocalComponents::default();
        let locals: Vec<(VertexId, VertexId)> = edges
            .iter()
            .map(|&(u, v, _)| (comps.local(&self.sld, u), comps.local(&self.sld, v)))
            .collect();
        let mut dsu = Dsu::new(comps.len());
        let mut forest_batch: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut fallback_idx: Vec<usize> = Vec::new();
        let mut changes: Vec<Option<MsfChange>> = vec![None; edges.len()];
        for &i in &order {
            let (a, b) = locals[i];
            if dsu.union(a, b) {
                forest_batch.push(edges[i]);
                changes[i] = Some(MsfChange::Inserted);
            } else {
                fallback_idx.push(i);
            }
        }

        let classify_time = classify_start.elapsed();

        // ---- fast path: all forest edges in one Theorem-1.5 batch ------------------------
        let apply_start = Instant::now();
        if !forest_batch.is_empty() {
            self.sld
                .batch_insert(&forest_batch)
                .expect("classified forest batch satisfies the batch_insert precondition");
            for &(u, v, w) in &forest_batch {
                self.membership.insert(pair(u, v), true);
                self.weights.insert(pair(u, v), w);
            }
        }

        // ---- fallback: cycle-closing edges, per edge, in rank order ----------------------
        let fallback = fallback_idx.len();
        for i in fallback_idx {
            let (u, v, w) = edges[i];
            let change = self
                .insert_edge(u, v, w)
                .expect("validated batch edge cannot fail to insert");
            changes[i] = Some(change);
        }

        Ok(BatchOutcome {
            changes: changes
                .into_iter()
                .map(|c| c.expect("every batch edge classified"))
                .collect(),
            fast_path: forest_batch.len(),
            fallback,
            promoted: Vec::new(),
            classify_time,
            // Insert batches run no deletion-side replacement search.
            replacement_time: Duration::ZERO,
            apply_time: apply_start.elapsed(),
        })
    }

    /// Deletes a batch of graph edges (addressed by endpoints) and updates the MSF and
    /// dendrogram, promoting replacement edges from the reserve where cuts can be reconnected.
    ///
    /// Non-tree deletions touch only the reserve index. All tree deletions are applied with one
    /// [`DynSld::batch_delete`]; the replacement search then runs a single deterministic
    /// Kruskal pass over the reserve edges incident to the affected components, and the
    /// accepted promotions enter through [`DynSld::batch_insert`]. The resulting MSF equals
    /// per-edge deletion in any order. The whole batch is validated first — on `Err` nothing
    /// was changed.
    pub fn batch_delete_edges(
        &mut self,
        pairs: &[(VertexId, VertexId)],
    ) -> Result<BatchOutcome, DynSldError> {
        // ---- validation (no mutation before this passes) ---------------------------------
        let mut batch_seen = std::collections::HashSet::new();
        for &(u, v) in pairs {
            let key = pair(u, v);
            if !self.membership.contains_key(&key) {
                return Err(DynSldError::EdgeNotFound(u, v));
            }
            if !batch_seen.insert(key) {
                return Err(DynSldError::ConflictingBatch(u, v));
            }
        }

        let mut changes: Vec<Option<MsfChange>> = vec![None; pairs.len()];

        // Classify/apply wall time is accumulated across the interleaved segments below:
        // classify = tree/non-tree split + replacement-candidate search; apply = the
        // Theorem-1.5 batch delete, bookkeeping, and promotions.
        let mut classify_time = Duration::ZERO;
        let mut apply_time = Duration::ZERO;

        // ---- non-tree deletions: reserve bookkeeping only --------------------------------
        let split_start = Instant::now();
        let mut tree_idx: Vec<usize> = Vec::new();
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let key = pair(u, v);
            if self.membership[&key] {
                tree_idx.push(i);
            } else {
                self.reserve_remove(u, v);
                self.membership.remove(&key);
                self.weights.remove(&key);
                changes[i] = Some(MsfChange::RemovedNonTree);
            }
        }
        classify_time += split_start.elapsed();
        if tree_idx.is_empty() {
            return Ok(BatchOutcome {
                changes: changes
                    .into_iter()
                    .map(|c| c.expect("classified"))
                    .collect(),
                fast_path: 0,
                fallback: 0,
                promoted: Vec::new(),
                classify_time,
                replacement_time: Duration::ZERO,
                apply_time,
            });
        }

        // ---- tree deletions: one Theorem-1.5 batch ---------------------------------------
        let delete_start = Instant::now();
        let tree_pairs: Vec<(VertexId, VertexId)> = tree_idx.iter().map(|&i| pairs[i]).collect();
        self.sld
            .batch_delete(&tree_pairs)
            .expect("validated tree edges are alive forest edges");
        for &(u, v) in &tree_pairs {
            let key = pair(u, v);
            self.membership.remove(&key);
            self.weights.remove(&key);
        }
        apply_time += delete_start.elapsed();

        // ---- replacement search ----------------------------------------------------------
        // One deterministic Kruskal pass over the reserve edges incident to the affected
        // components. Affected components are the post-deletion components of the deleted
        // edges' endpoints. Every reserve edge is intra-tree, so a candidate crossing a cut
        // connects two affected pieces of the *same original tree*. Per original tree, scan
        // every piece except the largest (a crossing edge cannot have both endpoints in its
        // tree's largest piece): this finds every candidate while keeping the scan on the
        // small sides, as in the per-edge path — skipping only the single global largest would
        // fully enumerate the big side of every other tree touched by the batch.
        let search_start = Instant::now();
        let mut comps = LocalComponents::default();
        let deleted_locals: Vec<(VertexId, VertexId)> = tree_pairs
            .iter()
            .map(|&(u, v)| (comps.local(&self.sld, u), comps.local(&self.sld, v)))
            .collect();
        self.counters.replacement_searches += tree_pairs.len() as u64;
        let mut seeds: Vec<(VertexId, VertexId)> = Vec::new(); // (vertex, local id) per piece
        {
            let mut seen = std::collections::HashSet::new();
            for &(u, v) in &tree_pairs {
                for x in [u, v] {
                    let local = comps.local(&self.sld, x);
                    if seen.insert(local) {
                        seeds.push((x, local));
                    }
                }
            }
        }
        // Group the pieces by original tree: the deleted edges connect exactly the pieces of
        // one original tree (they formed its spanning structure), so a DSU over the pieces
        // with one union per deleted edge recovers the per-tree grouping.
        let mut tree_of_piece = Dsu::new(comps.len());
        for &(lu, lv) in &deleted_locals {
            tree_of_piece.union(lu, lv);
        }
        let mut largest_of_tree: HashMap<u32, (usize, u32)> = HashMap::new(); // root -> (size, piece)
        for &(x, local) in &seeds {
            let root = tree_of_piece.find(local).0;
            let size = self.sld.component_size(x);
            let entry = largest_of_tree.entry(root).or_insert((size, local.0));
            if (size, local.0) > *entry {
                *entry = (size, local.0);
            }
        }
        let mut candidates: Vec<(Weight, (VertexId, VertexId))> = Vec::new();
        let mut candidate_seen = std::collections::HashSet::new();
        for &(seed, local) in &seeds {
            let root = tree_of_piece.find(local).0;
            if largest_of_tree[&root].1 == local.0 {
                continue; // largest piece of this tree: every candidate is reachable elsewhere
            }
            for member in component_members(&self.sld, seed) {
                for &(a, b) in &self.reserve[member.index()] {
                    self.counters.replacement_edges_scanned += 1;
                    if self.sld.connected(a, b) || !candidate_seen.insert(pair(a, b)) {
                        continue;
                    }
                    candidates.push((self.weights[&pair(a, b)], pair(a, b)));
                }
            }
        }
        candidates.sort_by(|x, y| x.0.total_cmp(&y.0).then_with(|| x.1.cmp(&y.1)));

        // Accept candidates greedily over the local component DSU; attribute each accepted
        // promotion to the deleted edges whose endpoints it (transitively) reconnects.
        let mut promoted: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut dsu = {
            // Candidate endpoints touching components outside `seeds` is impossible (reserve
            // edges are intra-tree), but register them defensively before sizing the DSU.
            for &(_, (a, b)) in &candidates {
                comps.local(&self.sld, a);
                comps.local(&self.sld, b);
            }
            Dsu::new(comps.len())
        };
        let mut pending: Vec<usize> = (0..tree_idx.len()).collect();
        for (w, (a, b)) in candidates {
            let la = comps.local(&self.sld, a);
            let lb = comps.local(&self.sld, b);
            if !dsu.union(la, lb) {
                continue;
            }
            promoted.push((a, b, w));
            pending.retain(|&j| {
                let (lu, lv) = deleted_locals[j];
                if dsu.connected(lu, lv) {
                    changes[tree_idx[j]] =
                        Some(MsfChange::RemovedWithReplacement { promoted: (a, b) });
                    false
                } else {
                    true
                }
            });
        }
        for j in pending {
            changes[tree_idx[j]] = Some(MsfChange::RemovedAndSplit);
        }
        let replacement_time = search_start.elapsed();
        classify_time += replacement_time;

        // ---- promotions ride the batch fast path -----------------------------------------
        let promote_start = Instant::now();
        if !promoted.is_empty() {
            self.sld
                .batch_insert(&promoted)
                .expect("accepted promotions link distinct components and form a forest");
            for &(a, b, w) in &promoted {
                self.reserve_remove(a, b);
                self.membership.insert(pair(a, b), true);
                self.weights.insert(pair(a, b), w);
            }
        }

        apply_time += promote_start.elapsed();

        Ok(BatchOutcome {
            changes: changes
                .into_iter()
                .map(|c| c.expect("classified"))
                .collect(),
            fast_path: tree_pairs.len() + promoted.len(),
            fallback: 0,
            promoted: promoted.iter().map(|&(a, b, _)| (a, b)).collect(),
            classify_time,
            replacement_time,
            apply_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynsld::static_sld_kruskal;
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn v(i: u32) -> VertexId {
        VertexId(i)
    }

    /// Kruskal MSF over an explicit edge list — the oracle.
    fn msf_oracle(n: usize, edges: &[(VertexId, VertexId, Weight)]) -> Vec<(VertexId, VertexId)> {
        let mut order: Vec<usize> = (0..edges.len()).collect();
        order.sort_by(|&a, &b| {
            edges[a]
                .2
                .total_cmp(&edges[b].2)
                .then_with(|| pair(edges[a].0, edges[a].1).cmp(&pair(edges[b].0, edges[b].1)))
        });
        let mut dsu = Dsu::new(n);
        let mut out = Vec::new();
        for i in order {
            let (a, b, _) = edges[i];
            if dsu.union(a, b) {
                out.push(pair(a, b));
            }
        }
        out.sort();
        out
    }

    fn assert_consistent(g: &DynamicGraphClustering, alive: &[(VertexId, VertexId, Weight)]) {
        let mut tree: Vec<(VertexId, VertexId)> = g
            .graph_edges()
            .into_iter()
            .filter(|&(_, _, _, t)| t)
            .map(|(a, b, _, _)| pair(a, b))
            .collect();
        tree.sort();
        assert_eq!(tree, msf_oracle(g.num_vertices(), alive), "MSF diverged");
        assert_eq!(
            g.sld().dendrogram().canonical_parents(),
            static_sld_kruskal(g.sld().forest()).canonical_parents(),
            "dendrogram diverged"
        );
        g.sld().check_invariants().expect("invariants");
    }

    #[test]
    fn batch_insert_routes_forest_edges_to_fast_path() {
        let mut g = DynamicGraphClustering::new(6);
        let batch = [
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(3), v(4), 3.0),
            (v(0), v(2), 10.0), // closes a cycle -> fallback, stored non-tree
        ];
        let outcome = g.batch_insert_edges(&batch).unwrap();
        assert_eq!(outcome.fast_path, 3);
        assert_eq!(outcome.fallback, 1);
        assert_eq!(outcome.changes[0], MsfChange::Inserted);
        assert_eq!(outcome.changes[3], MsfChange::StoredNonTree);
        assert_consistent(&g, batch.as_ref());
    }

    #[test]
    fn batch_insert_cycle_edge_can_evict_heavier_tree_edge() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 100.0).unwrap();
        let batch = [(v(1), v(2), 1.0), (v(0), v(2), 2.0)];
        let outcome = g.batch_insert_edges(&batch).unwrap();
        // (0,2,2.0) closes the cycle {0-1, 1-2, 0-2} and evicts the weight-100 edge.
        assert_eq!(
            outcome.changes[1],
            MsfChange::Replaced {
                evicted: (v(0), v(1))
            }
        );
        assert_consistent(
            &g,
            &[(v(0), v(1), 100.0), (v(1), v(2), 1.0), (v(0), v(2), 2.0)],
        );
    }

    #[test]
    fn batch_insert_validates_before_mutating() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        let before = g.graph_edges();
        // Second edge is a duplicate of an existing edge: whole batch must be rejected.
        let err = g
            .batch_insert_edges(&[(v(1), v(2), 2.0), (v(0), v(1), 9.0)])
            .unwrap_err();
        assert_eq!(err, DynSldError::EdgeAlreadyExists(v(0), v(1)));
        assert_eq!(g.graph_edges(), before);
        // In-batch duplicates are rejected too.
        assert!(g
            .batch_insert_edges(&[(v(1), v(2), 2.0), (v(2), v(1), 3.0)])
            .is_err());
        assert!(g.batch_insert_edges(&[(v(2), v(2), 1.0)]).is_err());
    }

    #[test]
    fn batch_delete_promotes_replacements_across_cuts() {
        let mut g = DynamicGraphClustering::new(6);
        // Path 0-1-2-3-4-5 plus two heavy reserve edges bridging across.
        g.batch_insert_edges(&[
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(2), v(3), 3.0),
            (v(3), v(4), 4.0),
            (v(4), v(5), 5.0),
        ])
        .unwrap();
        g.insert_edge(v(0), v(3), 10.0).unwrap(); // reserve
        g.insert_edge(v(2), v(5), 20.0).unwrap(); // reserve
        let outcome = g.batch_delete_edges(&[(v(1), v(2)), (v(3), v(4))]).unwrap();
        // Both cuts are reconnected by the reserve edges.
        assert_eq!(
            outcome.changes[0],
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(3))
            }
        );
        assert_eq!(
            outcome.changes[1],
            MsfChange::RemovedWithReplacement {
                promoted: (v(2), v(5))
            }
        );
        assert_eq!(outcome.promoted, vec![(v(0), v(3)), (v(2), v(5))]);
        assert_eq!(outcome.fast_path, 4); // 2 deletions + 2 promotions
        assert_consistent(
            &g,
            &[
                (v(0), v(1), 1.0),
                (v(2), v(3), 3.0),
                (v(4), v(5), 5.0),
                (v(0), v(3), 10.0),
                (v(2), v(5), 20.0),
            ],
        );
    }

    #[test]
    fn batch_delete_finds_replacements_in_every_affected_tree() {
        // Two separate trees, each losing a tree edge in the same batch, each with a reserve
        // edge bridging its cut. The replacement search must find both promotions — including
        // the one in the tree whose pieces are all smaller than the *other* tree's largest
        // piece (the case a single global largest-component exclusion would still scan, and a
        // per-tree exclusion handles on the small side).
        let mut g = DynamicGraphClustering::new(9);
        // Tree A: path 0-1-2-3-4 (big), tree B: path 5-6-7-8 (small).
        g.batch_insert_edges(&[
            (v(0), v(1), 1.0),
            (v(1), v(2), 2.0),
            (v(2), v(3), 3.0),
            (v(3), v(4), 4.0),
            (v(5), v(6), 1.0),
            (v(6), v(7), 2.0),
            (v(7), v(8), 3.0),
        ])
        .unwrap();
        g.insert_edge(v(0), v(4), 10.0).unwrap(); // reserve across tree A
        g.insert_edge(v(5), v(8), 20.0).unwrap(); // reserve across tree B
        let outcome = g.batch_delete_edges(&[(v(1), v(2)), (v(6), v(7))]).unwrap();
        assert_eq!(
            outcome.changes[0],
            MsfChange::RemovedWithReplacement {
                promoted: (v(0), v(4))
            }
        );
        assert_eq!(
            outcome.changes[1],
            MsfChange::RemovedWithReplacement {
                promoted: (v(5), v(8))
            }
        );
        assert_consistent(
            &g,
            &[
                (v(0), v(1), 1.0),
                (v(2), v(3), 3.0),
                (v(3), v(4), 4.0),
                (v(5), v(6), 1.0),
                (v(7), v(8), 3.0),
                (v(0), v(4), 10.0),
                (v(5), v(8), 20.0),
            ],
        );
    }

    #[test]
    fn batch_delete_mixes_tree_nontree_and_splits() {
        let mut g = DynamicGraphClustering::new(5);
        g.batch_insert_edges(&[(v(0), v(1), 1.0), (v(1), v(2), 2.0), (v(3), v(4), 3.0)])
            .unwrap();
        g.insert_edge(v(0), v(2), 9.0).unwrap(); // reserve
        let outcome = g
            .batch_delete_edges(&[(v(0), v(2)), (v(3), v(4)), (v(0), v(1))])
            .unwrap();
        assert_eq!(outcome.changes[0], MsfChange::RemovedNonTree);
        assert_eq!(outcome.changes[1], MsfChange::RemovedAndSplit);
        assert_eq!(outcome.changes[2], MsfChange::RemovedAndSplit);
        assert!(!g.sld().connected(v(3), v(4)));
        assert_consistent(&g, &[(v(1), v(2), 2.0)]);
    }

    #[test]
    fn batch_delete_validates_before_mutating() {
        let mut g = DynamicGraphClustering::new(3);
        g.insert_edge(v(0), v(1), 1.0).unwrap();
        let err = g
            .batch_delete_edges(&[(v(0), v(1)), (v(1), v(2))])
            .unwrap_err();
        assert_eq!(err, DynSldError::EdgeNotFound(v(1), v(2)));
        assert_eq!(g.num_graph_edges(), 1);
        assert!(g.batch_delete_edges(&[(v(0), v(1)), (v(1), v(0))]).is_err());
        assert_eq!(g.num_graph_edges(), 1);
    }

    #[test]
    fn randomized_batches_match_kruskal_oracle() {
        let n = 32usize;
        let mut rng = SmallRng::seed_from_u64(7);
        let mut candidates: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut used = HashSet::new();
        while candidates.len() < 160 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b || !used.insert(pair(v(a), v(b))) {
                continue;
            }
            candidates.push((v(a), v(b), rng.gen::<f64>() * 50.0));
        }
        candidates.shuffle(&mut rng);

        let mut g = DynamicGraphClustering::new(n);
        let mut alive: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        for round in 0..40 {
            if alive.len() < 120 && (alive.is_empty() || rng.gen_bool(0.6)) {
                let batch_size = rng.gen_range(1..12usize);
                let batch: Vec<(VertexId, VertexId, Weight)> = candidates
                    .iter()
                    .filter(|c| !alive.iter().any(|a| pair(a.0, a.1) == pair(c.0, c.1)))
                    .take(batch_size)
                    .copied()
                    .collect();
                if batch.is_empty() {
                    continue;
                }
                let outcome = g.batch_insert_edges(&batch).unwrap();
                assert_eq!(outcome.changes.len(), batch.len());
                alive.extend_from_slice(&batch);
            } else {
                let batch_size = rng.gen_range(1..10usize).min(alive.len());
                let mut idx: Vec<usize> = (0..alive.len()).collect();
                idx.shuffle(&mut rng);
                idx.truncate(batch_size);
                idx.sort_unstable_by(|a, b| b.cmp(a)); // remove from the back first
                let mut batch = Vec::new();
                for i in idx {
                    let (a, b, _) = alive.swap_remove(i);
                    batch.push((a, b));
                }
                let outcome = g.batch_delete_edges(&batch).unwrap();
                assert_eq!(outcome.changes.len(), batch.len());
            }
            assert_consistent(&g, &alive);
            let _ = round;
        }
    }

    #[test]
    fn batch_and_single_application_agree() {
        // The same update sequence applied (a) per edge and (b) in batches must yield
        // identical MSFs and dendrograms.
        let n = 24usize;
        let mut rng = SmallRng::seed_from_u64(13);
        let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
        let mut used = HashSet::new();
        while edges.len() < 80 {
            let a = rng.gen_range(0..n as u32);
            let b = rng.gen_range(0..n as u32);
            if a == b || !used.insert(pair(v(a), v(b))) {
                continue;
            }
            edges.push((v(a), v(b), rng.gen::<f64>() * 10.0));
        }
        let mut single = DynamicGraphClustering::new(n);
        let mut batched = DynamicGraphClustering::new(n);
        for chunk in edges.chunks(8) {
            for &(a, b, w) in chunk {
                single.insert_edge(a, b, w).unwrap();
            }
            batched.batch_insert_edges(chunk).unwrap();
        }
        let deletions: Vec<(VertexId, VertexId)> =
            edges.iter().step_by(3).map(|&(a, b, _)| (a, b)).collect();
        for chunk in deletions.chunks(5) {
            for &(a, b) in chunk {
                single.delete_edge(a, b).unwrap();
            }
            batched.batch_delete_edges(chunk).unwrap();
        }
        let canon = |g: &DynamicGraphClustering| {
            let mut e = g.graph_edges();
            e.sort_by_key(|x| pair(x.0, x.1));
            e
        };
        assert_eq!(canon(&single), canon(&batched));
        assert_eq!(
            single.sld().export_snapshot().nodes.len(),
            batched.sld().export_snapshot().nodes.len()
        );
    }
}
