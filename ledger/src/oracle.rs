//! The correctness gate: a static oracle built from the final live edge set, and the
//! bit-identity check of a wire mirror against the published view. Runs outside the timed
//! region; any mismatch fails the run.

use dynsld::FlatClustering;
use dynsld_engine::{GraphUpdate, ServiceSnapshot};
use dynsld_forest::VertexId;
use dynsld_serve::Mirror;
use std::collections::HashMap;

/// The live edge set of a valid stream prefix, keyed by normalised endpoint pair.
#[derive(Clone, Debug, Default)]
pub struct LiveEdges {
    edges: HashMap<(u32, u32), f64>,
}

impl LiveEdges {
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.edges.contains_key(&key(u, v))
    }

    /// Applies one event. The generators only emit valid streams, so an event that does not
    /// fit the current set is a generator bug.
    pub fn apply(&mut self, event: &GraphUpdate) {
        match *event {
            GraphUpdate::Insert { u, v, weight } => {
                let prev = self.edges.insert(key(u, v), weight);
                assert!(prev.is_none(), "generator inserted a present edge");
            }
            GraphUpdate::Delete { u, v } => {
                let prev = self.edges.remove(&key(u, v));
                assert!(prev.is_some(), "generator deleted an absent edge");
            }
            GraphUpdate::Reweight { u, v, weight } => {
                let slot = self.edges.get_mut(&key(u, v));
                *slot.expect("generator re-weighted an absent edge") = weight;
            }
        }
    }

    /// The flat clustering at `tau` by union-find over the live edges of weight `<= tau`, in
    /// the service's canonical form: clusters numbered by smallest member, members ascending.
    pub fn clustering(&self, n: usize, tau: f64) -> FlatClustering {
        let mut parent: Vec<u32> = (0..n as u32).collect();
        for (&(u, v), &w) in &self.edges {
            if w <= tau {
                let (a, b) = (find(&mut parent, u), find(&mut parent, v));
                if a != b {
                    parent[a.max(b) as usize] = a.min(b);
                }
            }
        }
        let mut label_of_root = vec![usize::MAX; n];
        let mut labels = vec![0; n];
        let mut clusters: Vec<Vec<VertexId>> = Vec::new();
        for v in 0..n as u32 {
            let root = find(&mut parent, v) as usize;
            if label_of_root[root] == usize::MAX {
                label_of_root[root] = clusters.len();
                clusters.push(Vec::new());
            }
            labels[v as usize] = label_of_root[root];
            clusters[label_of_root[root]].push(VertexId(v));
        }
        FlatClustering { labels, clusters }
    }
}

fn key(u: VertexId, v: VertexId) -> (u32, u32) {
    (u.0.min(v.0), u.0.max(v.0))
}

fn find(parent: &mut [u32], x: u32) -> u32 {
    let mut root = x;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = x;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// Checks the published view against the static oracle at every threshold in `taus` (plus
/// infinity for the component count), and the wire mirror against the published view.
pub fn gate(
    live: &LiveEdges,
    view: &ServiceSnapshot,
    mirror: &Mirror,
    taus: &[f64],
) -> Result<(), String> {
    let n = view.num_vertices();
    if view.num_graph_edges() != live.len() {
        return Err(format!(
            "published view holds {} edges, the stream leaves {} live",
            view.num_graph_edges(),
            live.len()
        ));
    }
    let everything = live.clustering(n, f64::INFINITY);
    if view.num_components() != everything.num_clusters() {
        return Err(format!(
            "published view has {} components, the oracle {}",
            view.num_components(),
            everything.num_clusters()
        ));
    }
    if mirror.revision() != view.revision() || mirror.epochs() != view.epochs().as_slice() {
        return Err(format!(
            "mirror at revision {} {:?}, published view at {} {:?}",
            mirror.revision(),
            mirror.epochs(),
            view.revision(),
            view.epochs()
        ));
    }
    let shards = view.shard_snapshots();
    if mirror.shards().len() != shards.len()
        || mirror
            .shards()
            .iter()
            .zip(shards)
            .any(|(m, s)| m != s.dendrogram())
    {
        return Err("mirror dendrogram records differ from the published view".into());
    }
    for &tau in taus.iter().chain([f64::INFINITY].iter()) {
        let served = view.flat_clustering(tau);
        if *served != live.clustering(n, tau) {
            return Err(format!(
                "published clustering at tau={tau} differs from the oracle"
            ));
        }
        if *mirror.flat_clustering(tau) != *served {
            return Err(format!(
                "mirror clustering at tau={tau} differs from the published view"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustering_is_canonical() {
        let mut live = LiveEdges::default();
        let v = VertexId;
        for e in [
            GraphUpdate::Insert {
                u: v(3),
                v: v(1),
                weight: 1.0,
            },
            GraphUpdate::Insert {
                u: v(0),
                v: v(2),
                weight: 5.0,
            },
            GraphUpdate::Insert {
                u: v(2),
                v: v(4),
                weight: 1.5,
            },
            GraphUpdate::Reweight {
                u: v(2),
                v: v(0),
                weight: 0.5,
            },
        ] {
            live.apply(&e);
        }
        let c = live.clustering(5, 1.0);
        assert_eq!(c.labels, vec![0, 1, 0, 1, 2]);
        assert_eq!(c.clusters[1], vec![v(1), v(3)]);
        assert_eq!(live.clustering(5, 2.0).num_clusters(), 2);
    }

    #[test]
    fn gate_rejects_a_view_that_disagrees_with_the_stream() {
        use dynsld_engine::{FlushPolicy, ServiceBuilder};
        use dynsld_serve::Subscriber;

        let service = ServiceBuilder::new()
            .vertices(4)
            .shards(2)
            .flush_policy(FlushPolicy::OnRead)
            .build()
            .unwrap();
        let ingest = service.ingest_handle();
        let mut sub = Subscriber::new(service.read_handle());
        let read = service.read_handle();
        let mut driver = service.into_driver();
        let events = [
            GraphUpdate::Insert {
                u: VertexId(0),
                v: VertexId(1),
                weight: 1.0,
            },
            GraphUpdate::Insert {
                u: VertexId(2),
                v: VertexId(3),
                weight: 3.0,
            },
        ];
        let mut live = LiveEdges::default();
        for e in &events {
            ingest.submit(*e).unwrap();
            live.apply(e);
        }
        driver.pump().unwrap();
        sub.sync();
        let view = read.snapshot();
        assert_eq!(gate(&live, &view, sub.view(), &[2.0]), Ok(()));

        // Same edge count, different weight: the view must no longer pass.
        live.apply(&GraphUpdate::Reweight {
            u: VertexId(3),
            v: VertexId(2),
            weight: 1.5,
        });
        assert!(gate(&live, &view, sub.view(), &[2.0]).is_err());
    }
}
