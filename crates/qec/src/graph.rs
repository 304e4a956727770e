//! Precomputed space-time decoding graph for the union-find decoder.
//!
//! The graph is built once per ([`RotatedSurfaceCode`], block length) and
//! reused for every block: nodes are stabilizer × round pairs laid out
//! layer-major (`round * n_stabs + stab`), plus two virtual boundary nodes
//! (west and east) shared by every layer. Edges carry a uniform weight of
//! [`EDGE_WEIGHT`] half-steps:
//!
//! * **spatial** edges between stabilizers at [`RotatedSurfaceCode::stab_distance`]
//!   1 in the same round (the plaquette lattice's diagonal neighbours — each
//!   pair shares exactly one data qubit, so one edge = one data-qubit flip);
//! * **temporal** edges between the same stabilizer in consecutive rounds
//!   (one measurement flip);
//! * **boundary** edges from stabilizers at `dist_west == 1` (resp.
//!   `dist_east == 1`) to the west (resp. east) virtual node.
//!
//! Along any path, spatial and temporal steps add, so the graph metric
//! equals the matcher metric `stab_distance + |Δround|` used by the exact
//! blossom matcher ([`crate::matching`]). Spatial adjacency is layer-uniform, so it is stored
//! once per stabilizer and shared by all layers.
//!
//! # Half-edge slot layout
//!
//! Union-find growth tracks per-node half-edge support in fixed slots
//! ([`MAX_SLOTS`] per node): slot 0 is the temporal edge to round `t−1`,
//! slot 1 to round `t+1`, slot 2 the west boundary edge, slot 3 the east
//! boundary edge, and slots 4.. the (≤ 4) spatial neighbours in adjacency
//! order. Each spatial neighbour entry records the *reverse* slot — the
//! index of this stabilizer in the neighbour's adjacency list — so the two
//! halves of one edge find each other in O(1). Boundary nodes never grow;
//! a boundary edge is full when the stabilizer side alone reaches
//! [`EDGE_WEIGHT`].

use crate::layout::RotatedSurfaceCode;

/// Half-edge slots per node: 2 temporal + 2 boundary + up to 4 spatial.
pub const MAX_SLOTS: usize = 8;

/// First spatial slot (after temporal down/up and west/east boundary).
pub const SPATIAL_SLOT0: usize = 4;

/// Uniform edge weight in half-steps: each endpoint can contribute
/// [`EDGE_WEIGHT`]/2 units per growth round, so an edge between two active
/// clusters fills in one round and an edge grown from one side in two.
pub const EDGE_WEIGHT: u8 = 2;

/// One spatial neighbour of a stabilizer: the neighbour's index and the
/// reverse adjacency slot (index of *this* stabilizer in the neighbour's
/// list), offset into the half-edge layout by [`SPATIAL_SLOT0`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpatialNeighbor {
    /// Neighbouring stabilizer index.
    pub stab: u32,
    /// Half-edge slot of the reverse direction (`SPATIAL_SLOT0 + k` where
    /// `k` is this stabilizer's position in the neighbour's list).
    pub rev_slot: u8,
}

/// The precomputed decoding graph of one code at one block length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodingGraph {
    distance: usize,
    n_stabs: usize,
    /// Time layers: `rounds + 1` (detection events carry rounds in
    /// `0..=rounds`, the last being the terminating perfect round).
    layers: usize,
    /// CSR offsets into `adj`, one row per stabilizer (`n_stabs + 1`).
    adj_off: Vec<u32>,
    /// Concatenated spatial neighbour lists.
    adj: Vec<SpatialNeighbor>,
    /// Whether the stabilizer has a west boundary edge (`dist_west == 1`).
    west1: Vec<bool>,
    /// Whether the stabilizer has an east boundary edge (`dist_east == 1`).
    east1: Vec<bool>,
    /// Per-stabilizer plaquette coordinates, for the matching metric.
    rc: Vec<(i16, i16)>,
    /// Per-stabilizer boundary distances (`dist_west`, `dist_east`).
    dw: Vec<u16>,
    de: Vec<u16>,
}

impl DecodingGraph {
    /// Builds the graph for blocks of `rounds` noisy rounds (event rounds
    /// `0..=rounds` — the graph has `rounds + 1` time layers).
    pub fn new(code: &RotatedSurfaceCode, rounds: usize) -> Self {
        let n_stabs = code.n_stabilizers();
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); n_stabs];
        for (a, list) in lists.iter_mut().enumerate() {
            for b in 0..n_stabs {
                if a != b && code.stab_distance(a, b) == 1 {
                    list.push(b as u32);
                }
            }
            debug_assert!(
                list.len() <= MAX_SLOTS - SPATIAL_SLOT0,
                "stabilizer {a} has {} spatial neighbours",
                list.len()
            );
        }
        let mut adj_off = Vec::with_capacity(n_stabs + 1);
        let mut adj = Vec::new();
        adj_off.push(0u32);
        for (a, list) in lists.iter().enumerate() {
            for &b in list {
                let rev = lists[b as usize]
                    .iter()
                    .position(|&x| x as usize == a)
                    .expect("spatial adjacency is symmetric");
                adj.push(SpatialNeighbor {
                    stab: b,
                    rev_slot: (SPATIAL_SLOT0 + rev) as u8,
                });
            }
            adj_off.push(adj.len() as u32);
        }
        let west1 = (0..n_stabs).map(|s| code.dist_west(s) == 1).collect();
        let east1 = (0..n_stabs).map(|s| code.dist_east(s) == 1).collect();
        let rc = code
            .stabilizers()
            .iter()
            .map(|st| (st.row as i16, st.col as i16))
            .collect();
        let dw = (0..n_stabs).map(|s| code.dist_west(s) as u16).collect();
        let de = (0..n_stabs).map(|s| code.dist_east(s) as u16).collect();
        DecodingGraph {
            distance: code.distance(),
            n_stabs,
            layers: rounds + 1,
            adj_off,
            adj,
            west1,
            east1,
            rc,
            dw,
            de,
        }
    }

    /// The code distance the graph was built for.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// Stabilizers per layer.
    pub fn n_stabs(&self) -> usize {
        self.n_stabs
    }

    /// Time layers (`rounds + 1`).
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Real (stabilizer × round) nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_stabs * self.layers
    }

    /// Index of the virtual west boundary node.
    pub fn west_node(&self) -> usize {
        self.n_nodes()
    }

    /// Index of the virtual east boundary node.
    pub fn east_node(&self) -> usize {
        self.n_nodes() + 1
    }

    /// Node index of stabilizer `stab` in round `round`.
    pub fn node(&self, stab: usize, round: usize) -> usize {
        debug_assert!(stab < self.n_stabs && round < self.layers);
        round * self.n_stabs + stab
    }

    /// Stabilizer of a real node.
    pub fn stab_of(&self, node: usize) -> usize {
        node % self.n_stabs
    }

    /// Round of a real node.
    pub fn round_of(&self, node: usize) -> usize {
        node / self.n_stabs
    }

    /// Spatial neighbours of stabilizer `s` (layer-uniform).
    pub fn spatial(&self, s: usize) -> &[SpatialNeighbor] {
        &self.adj[self.adj_off[s] as usize..self.adj_off[s + 1] as usize]
    }

    /// Whether stabilizer `s` has a west boundary edge.
    pub fn has_west_edge(&self, s: usize) -> bool {
        self.west1[s]
    }

    /// Whether stabilizer `s` has an east boundary edge.
    pub fn has_east_edge(&self, s: usize) -> bool {
        self.east1[s]
    }

    /// Matching distance from stabilizer `s` to the west boundary
    /// (same values as [`RotatedSurfaceCode::dist_west`]).
    pub fn dist_west(&self, s: usize) -> usize {
        self.dw[s] as usize
    }

    /// Matching distance from stabilizer `s` to the east boundary.
    pub fn dist_east(&self, s: usize) -> usize {
        self.de[s] as usize
    }

    /// Spatial matching distance between two stabilizers (diagonal steps on
    /// the plaquette lattice — same values as
    /// [`RotatedSurfaceCode::stab_distance`]).
    pub fn stab_distance(&self, a: usize, b: usize) -> usize {
        let (ra, ca) = self.rc[a];
        let (rb, cb) = self.rc[b];
        let dr = (ra - rb).unsigned_abs() as usize;
        let dc = (ca - cb).unsigned_abs() as usize;
        dr.max(dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spatial_adjacency_is_symmetric_and_shares_one_qubit() {
        for d in [3, 5, 7] {
            let code = RotatedSurfaceCode::new(d);
            let graph = DecodingGraph::new(&code, d);
            for a in 0..code.n_stabilizers() {
                for nb in graph.spatial(a) {
                    let b = nb.stab as usize;
                    assert_eq!(code.stab_distance(a, b), 1);
                    // The reverse slot points back at `a`.
                    let k = nb.rev_slot as usize - SPATIAL_SLOT0;
                    assert_eq!(graph.spatial(b)[k].stab as usize, a);
                    // Exactly one shared data qubit: the edge's flip qubit.
                    let sa = &code.stabilizers()[a];
                    let sb = &code.stabilizers()[b];
                    let shared = sa.support.iter().filter(|q| sb.support.contains(q)).count();
                    assert_eq!(shared, 1, "stabs {a},{b} share {shared} qubits");
                }
            }
        }
    }

    #[test]
    fn boundary_edges_cover_first_and_last_plaquette_columns() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        for s in 0..code.n_stabilizers() {
            assert_eq!(graph.has_west_edge(s), code.dist_west(s) == 1);
            assert_eq!(graph.has_east_edge(s), code.dist_east(s) == 1);
        }
        assert!((0..code.n_stabilizers()).any(|s| graph.has_west_edge(s)));
        assert!((0..code.n_stabilizers()).any(|s| graph.has_east_edge(s)));
    }

    #[test]
    fn node_indexing_round_trips() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 4);
        assert_eq!(graph.layers(), 5);
        for round in 0..graph.layers() {
            for stab in 0..graph.n_stabs() {
                let n = graph.node(stab, round);
                assert_eq!(graph.stab_of(n), stab);
                assert_eq!(graph.round_of(n), round);
            }
        }
        assert_eq!(graph.west_node(), graph.n_nodes());
        assert_eq!(graph.east_node(), graph.n_nodes() + 1);
    }
}
