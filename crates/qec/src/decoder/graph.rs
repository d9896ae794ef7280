//! The decoding graph shared by every decoder.

use crate::surface::SurfaceCode;
use std::collections::VecDeque;

/// An edge in the decoding graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edge {
    /// First endpoint (node index).
    pub a: usize,
    /// Second endpoint, or `None` for the virtual boundary.
    pub b: Option<usize>,
    /// The data qubit this edge corresponds to, or `None` for a
    /// measurement-error (time-like) edge.
    pub qubit: Option<usize>,
}

/// A decoding graph: nodes are detection-event sites, edges are error
/// mechanisms, and the boundary absorbs unmatched defects.
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_nodes: usize,
    edges: Vec<Edge>,
    /// adjacency: per node, (edge index, neighbour or boundary).
    adj: Vec<Vec<(usize, Option<usize>)>>,
}

impl DecodingGraph {
    /// Builds a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics when an edge endpoint is out of range.
    pub fn new(num_nodes: usize, edges: Vec<Edge>) -> Self {
        let mut adj = vec![Vec::new(); num_nodes];
        for (idx, e) in edges.iter().enumerate() {
            assert!(e.a < num_nodes, "edge endpoint out of range");
            adj[e.a].push((idx, e.b));
            if let Some(b) = e.b {
                assert!(b < num_nodes, "edge endpoint out of range");
                adj[b].push((idx, Some(e.a)));
            }
        }
        DecodingGraph {
            num_nodes,
            edges,
            adj,
        }
    }

    /// Number of detection-event nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Adjacency of `node`: `(edge index, neighbour)` pairs; `None`
    /// neighbour means the boundary.
    pub fn neighbors(&self, node: usize) -> &[(usize, Option<usize>)] {
        &self.adj[node]
    }

    /// Code-capacity X-error graph of a surface code: one node per Z
    /// stabilizer, one edge per data qubit (boundary edge when the qubit
    /// belongs to a single Z stabilizer).
    pub fn code_capacity_x(code: &SurfaceCode) -> Self {
        let z_stabs = code.z_stabilizers();
        let num_nodes = z_stabs.len();
        let mut owners: Vec<Vec<usize>> = vec![Vec::new(); code.num_data()];
        for (i, s) in z_stabs.iter().enumerate() {
            for &q in &s.support {
                owners[q].push(i);
            }
        }
        let mut edges = Vec::new();
        for (q, own) in owners.iter().enumerate() {
            match own.as_slice() {
                [a] => edges.push(Edge {
                    a: *a,
                    b: None,
                    qubit: Some(q),
                }),
                [a, b] => edges.push(Edge {
                    a: *a,
                    b: Some(*b),
                    qubit: Some(q),
                }),
                [] => {
                    // A data qubit in no Z stabilizer cannot occur in a valid
                    // rotated layout; keep the invariant loud in debug builds.
                    debug_assert!(false, "qubit {q} not covered by any Z stabilizer");
                }
                more => {
                    debug_assert!(false, "qubit {q} in {} Z stabilizers", more.len());
                }
            }
        }
        DecodingGraph::new(num_nodes, edges)
    }

    /// Space-time X-error graph over `rounds` measurement rounds: node
    /// `(stab, t)` is flattened to `t * num_stabs + stab`. Spatial edges
    /// repeat the code-capacity graph per round; temporal edges (weight-1
    /// measurement errors) connect consecutive rounds of the same
    /// stabilizer and carry no qubit.
    pub fn spacetime_x(code: &SurfaceCode, rounds: usize) -> Self {
        assert!(rounds >= 1);
        let base = Self::code_capacity_x(code);
        let per_round = base.num_nodes;
        let num_nodes = per_round * rounds;
        let mut edges = Vec::new();
        for t in 0..rounds {
            let off = t * per_round;
            for e in base.edges() {
                edges.push(Edge {
                    a: e.a + off,
                    b: e.b.map(|b| b + off),
                    qubit: e.qubit,
                });
            }
        }
        for t in 0..rounds.saturating_sub(1) {
            for s in 0..per_round {
                edges.push(Edge {
                    a: t * per_round + s,
                    b: Some((t + 1) * per_round + s),
                    qubit: None,
                });
            }
        }
        DecodingGraph::new(num_nodes, edges)
    }

    /// The decoding graph of an `n`-bit repetition code: nodes are the
    /// `n-1` parity checks, edges the data bits (ends are boundary edges).
    pub fn repetition(n: usize) -> Self {
        assert!(n >= 2);
        let num_nodes = n - 1;
        let mut edges = Vec::new();
        // Bit 0 touches only check 0; bit n-1 only check n-2.
        edges.push(Edge {
            a: 0,
            b: None,
            qubit: Some(0),
        });
        for bit in 1..n - 1 {
            edges.push(Edge {
                a: bit - 1,
                b: Some(bit),
                qubit: Some(bit),
            });
        }
        edges.push(Edge {
            a: n - 2,
            b: None,
            qubit: Some(n - 1),
        });
        DecodingGraph::new(num_nodes, edges)
    }

    /// BFS from `start`: returns per-node distance and the incoming edge
    /// index on a shortest path, plus the shortest boundary distance and
    /// the node from which the boundary is reached.
    pub fn bfs(&self, start: usize) -> BfsResult {
        let mut dist = vec![u32::MAX; self.num_nodes];
        let mut via = vec![usize::MAX; self.num_nodes];
        let mut boundary_dist = u32::MAX;
        let mut boundary_via: Option<(usize, usize)> = None; // (node, edge)
        dist[start] = 0;
        let mut queue = VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            for &(edge_idx, nb) in &self.adj[u] {
                match nb {
                    Some(v) => {
                        if dist[v] == u32::MAX {
                            dist[v] = dist[u] + 1;
                            via[v] = edge_idx;
                            queue.push_back(v);
                        }
                    }
                    None => {
                        if dist[u] + 1 < boundary_dist {
                            boundary_dist = dist[u] + 1;
                            boundary_via = Some((u, edge_idx));
                        }
                    }
                }
            }
        }
        BfsResult {
            start,
            dist,
            via,
            boundary_dist,
            boundary_via,
        }
    }

    /// Reconstructs the edge list of the shortest path from `bfs.start` to
    /// `target` using the BFS parent pointers.
    pub fn path_edges(&self, bfs: &BfsResult, target: usize) -> Vec<usize> {
        let mut edges = Vec::new();
        let mut cur = target;
        while cur != bfs.start {
            let e = bfs.via[cur];
            debug_assert_ne!(e, usize::MAX, "target unreachable");
            edges.push(e);
            let edge = &self.edges[e];
            cur = if edge.a == cur {
                edge.b.expect("interior path edge")
            } else {
                edge.a
            };
        }
        edges
    }

    /// The edges of the shortest path from `bfs.start` to the boundary.
    pub fn boundary_path_edges(&self, bfs: &BfsResult) -> Vec<usize> {
        let Some((node, edge)) = bfs.boundary_via else {
            return Vec::new();
        };
        let mut edges = self.path_edges(bfs, node);
        edges.push(edge);
        edges
    }

    /// Computes the syndrome (flagged node set) of a qubit-error pattern:
    /// node parity = number of incident error edges mod 2. Only meaningful
    /// for single-round graphs where each qubit maps to one edge.
    pub fn syndrome_of(&self, qubit_errors: &[bool]) -> Vec<usize> {
        let mut parity = vec![false; self.num_nodes];
        for e in &self.edges {
            if let Some(q) = e.qubit {
                if qubit_errors.get(q).copied().unwrap_or(false) {
                    parity[e.a] = !parity[e.a];
                    if let Some(b) = e.b {
                        parity[b] = !parity[b];
                    }
                }
            }
        }
        parity
            .into_iter()
            .enumerate()
            .filter_map(|(i, p)| p.then_some(i))
            .collect()
    }
}

/// The result of a BFS sweep (distances, parents, boundary reach).
#[derive(Debug, Clone)]
pub struct BfsResult {
    /// BFS source node.
    pub start: usize,
    /// Distance to every node (`u32::MAX` when unreachable).
    pub dist: Vec<u32>,
    /// Incoming edge index on a shortest path.
    pub via: Vec<usize>,
    /// Distance to the virtual boundary.
    pub boundary_dist: u32,
    /// `(node, edge)` through which the boundary is reached.
    pub boundary_via: Option<(usize, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_capacity_graph_covers_every_qubit() {
        let code = SurfaceCode::new(3);
        let g = DecodingGraph::code_capacity_x(&code);
        assert_eq!(g.num_nodes(), 4); // (d^2-1)/2 Z stabilizers
        assert_eq!(g.edges().len(), 9); // one edge per data qubit
        let boundary_edges = g.edges().iter().filter(|e| e.b.is_none()).count();
        assert!(boundary_edges > 0, "rotated code must have boundary edges");
    }

    #[test]
    fn repetition_graph_shape() {
        let g = DecodingGraph::repetition(5);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.edges().len(), 5);
        assert_eq!(g.edges().iter().filter(|e| e.b.is_none()).count(), 2);
    }

    #[test]
    fn bfs_distances_on_repetition() {
        let g = DecodingGraph::repetition(5);
        let bfs = g.bfs(0);
        assert_eq!(bfs.dist[3], 3);
        assert_eq!(bfs.boundary_dist, 1);
        let path = g.path_edges(&bfs, 3);
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn boundary_path_reconstruction() {
        let g = DecodingGraph::repetition(4);
        let bfs = g.bfs(1);
        // Node 1 is one hop from node 0, which has a boundary edge:
        // boundary dist = 2.
        assert_eq!(bfs.boundary_dist, 2);
        let edges = g.boundary_path_edges(&bfs);
        assert_eq!(edges.len(), 2);
    }

    #[test]
    fn syndrome_of_matches_surface_code() {
        let code = SurfaceCode::new(3);
        let g = DecodingGraph::code_capacity_x(&code);
        let mut errors = vec![false; code.num_data()];
        errors[code.data_at(1, 1)] = true;
        let from_graph = g.syndrome_of(&errors);
        let from_code: Vec<usize> = code
            .z_syndrome(&errors)
            .into_iter()
            .enumerate()
            .filter_map(|(i, b)| b.then_some(i))
            .collect();
        assert_eq!(from_graph, from_code);
    }

    #[test]
    fn spacetime_graph_has_temporal_edges() {
        let code = SurfaceCode::new(3);
        let g = DecodingGraph::spacetime_x(&code, 3);
        assert_eq!(g.num_nodes(), 12); // 4 stabs x 3 rounds
        let temporal = g.edges().iter().filter(|e| e.qubit.is_none()).count();
        assert_eq!(temporal, 8); // 4 stabs x 2 gaps
    }
}
