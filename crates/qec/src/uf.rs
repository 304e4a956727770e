//! Union-find decoder: cluster growth, boundary absorption, and peeling.
//!
//! The decoder grows clusters around detection events on the precomputed
//! [`DecodingGraph`] in synchronous half-step rounds (Delfosse–Nickerson
//! style): every node of an *active* cluster — odd defect parity, no
//! boundary contact — adds half a step of support to each of its unsaturated
//! half-edges; an edge whose support reaches [`EDGE_WEIGHT`] merges its
//! endpoints (weighted union by cluster size with path compression, the
//! virtual boundary nodes carrying effectively infinite size so they always
//! remain roots). A cluster that touches the west or east boundary is
//! absorbed — it stops growing, its parity no longer matters. Growth stops
//! when no active cluster remains.
//!
//! The union steps record a spanning forest of the grown clusters. Peeling
//! roots each tree at its boundary node (west first, then east, then the
//! first-touched real node for interior clusters) and walks it bottom-up:
//! a node whose accumulated defect parity is odd puts its parent edge into
//! the correction and flips its parent; boundary nodes absorb whatever
//! parity reaches them. Only west boundary edges can flip the logical `X`
//! class (west-column data qubits touch exactly one Z-stabilizer — see
//! [`crate::decoder`]), so the correction's weight along any interior path
//! is irrelevant and the decoder just counts committed west edges.
//!
//! Tree peeling alone routes a cluster's parity out whichever boundary the
//! growth touched *first*, which on co-optimal configurations can disagree
//! with minimum-weight matching (e.g. three merged defects where pairing
//! two and exiting the third east beats routing everything west — or two
//! defects in *different* clusters whose direct pairing ties both clusters'
//! independent boundary exits). So after peeling assigns commit components,
//! events are linked into **interaction groups** — same component, or
//! within the interaction radius `d + 1` of each other (far enough that a
//! direct pairing can never tie two independent boundary resolutions
//! beyond it) — and every group with at most [`LOCAL_EXACT_LIMIT`] events
//! has its west count *refined* by the exact canonical blossom matcher
//! ([`crate::matching`]) over the group — the identical metric and
//! min-cost/min-west tie-break as [`crate::decoder::decode_block_exact`].
//! Clusters and their groups are small with overwhelming probability, so
//! the refinement costs a few microseconds; a group beyond the limit keeps
//! the sum of its components' peeled answers.
//!
//! Growth and peeling cost time in the nodes the clusters touch, not in the
//! graph size. A growth round walks a member bitset — the defects plus
//! every real node a union has joined — in ascending node index, re-reading
//! each word after a node grows, so a node that joins above the cursor is
//! grown in the same round and one that joins below it waits for the next.
//! That is exactly the order of a sweep over every node (whose non-members
//! are even singletons that never grow), so merges, recorded tree edges,
//! peeling and west counts are those of the full sweep; `tests/uf_golden.rs`
//! pins them. The active-cluster count is kept up to date by the unions
//! instead of being recounted, and peeling walks per-node half-edge lists of
//! the recorded forest. The per-decode reset stays a set of plain fills over
//! the node arrays: at d = 7 they are a few hundred bytes each, and
//! restoring only the touched entries measured no faster.
//!
//! Everything runs against a caller-owned [`UnionFindScratch`]: once sized
//! for a graph (see [`UnionFindScratch::for_graph`]) a decode performs no
//! heap allocation, preserving the streaming engine's warm zero-allocation
//! contract.
//!
//! Processing order — node-index order within each growth round,
//! recorded-edge order for interior traversal roots — is fixed, so the
//! decode is deterministic and independent of the order events are listed
//! in.

use crate::graph::{DecodingGraph, EDGE_WEIGHT, MAX_SLOTS, SPATIAL_SLOT0};
use crate::matching::{canonical_match, Matcher};
use crate::syndrome::DetectionEvent;

const NO_NODE: u32 = u32::MAX;

/// Interaction groups with at most this many events are re-matched exactly
/// by the blossom matcher; larger ones keep the peeled correction.
///
/// This is a latency threshold, not a feasibility ceiling: the matcher is
/// polynomial and exact at any size, and matching the larger groups too
/// would lower the logical error rate. It stays at 14 because blossom on
/// the 20–25-event groups of dense blocks would multiply the median decode
/// time two- to threefold, while every block of up to 14 events is already
/// decoded exactly.
pub const LOCAL_EXACT_LIMIT: usize = 14;

/// One recorded spanning-forest edge (endpoints as graph node indices; the
/// second endpoint may be a virtual boundary node).
#[derive(Debug, Clone, Copy)]
struct TreeEdge {
    a: u32,
    b: u32,
}

/// Caller-owned working memory for union-find decoding. Node-indexed
/// buffers cover the graph's node count plus the two boundary nodes; a
/// scratch pre-sized with [`UnionFindScratch::for_graph`] never allocates
/// during [`decode_events`] / [`decode_events_commit`].
#[derive(Debug, Clone, Default)]
pub struct UnionFindScratch {
    parent: Vec<u32>,
    size: Vec<u32>,
    /// Per-root defect parity of the cluster.
    parity: Vec<bool>,
    /// Per-root boundary-contact flag (absorbed clusters stop growing).
    boundary: Vec<bool>,
    /// Per-node defect marks; consumed as the carry during peeling.
    defect: Vec<bool>,
    /// Per-node half-edge support, [`MAX_SLOTS`] slots per node.
    growth: Vec<u8>,
    /// Cluster members (defects and every real node a union has joined),
    /// one bit per node: the growth sweep's node set, in index order.
    member: Vec<u64>,
    /// Active clusters (odd defect parity, no boundary contact), kept up to
    /// date by the unions.
    active: usize,
    /// Spanning-forest edges recorded by the unions.
    tree: Vec<TreeEdge>,
    /// Forest adjacency as per-node linked lists of half-edges: half-edge
    /// `2e` leaves `tree[e].a`, `2e + 1` leaves `tree[e].b`.
    head: Vec<u32>,
    next: Vec<u32>,
    /// Peeling traversal state.
    visited: Vec<bool>,
    order: Vec<u32>,
    parent_node: Vec<u32>,
    stack: Vec<u32>,
    /// Commit component id per node: trees are split at boundary nodes, so
    /// each physically separate cluster commits independently even when
    /// several absorbed the same virtual boundary.
    comp: Vec<u32>,
    /// Per-component (indexed by component id) first event, for grouping.
    comp_first: Vec<u32>,
    /// Per-component (indexed by component id) highest node index; nodes
    /// are layer-major, so its round is the component's latest round.
    comp_max_node: Vec<u32>,
    /// Per-component committed west-boundary edges (peeled; the group
    /// refinement overrides these through `group_west`).
    comp_west: Vec<u32>,
    /// Event-level union-find over interaction groups.
    ev_parent: Vec<u32>,
    /// Commit component of each event.
    ev_comp: Vec<u32>,
    /// Per-group (indexed by representative event) event count.
    group_len: Vec<u32>,
    /// Per-group (indexed by representative event) west count.
    group_west: Vec<u32>,
    /// Per-group highest node touched by any member component's tree.
    group_max_node: Vec<u32>,
    /// Per-group commit flag for [`decode_events_commit`].
    group_commit: Vec<bool>,
    /// One interaction group's events, gathered for the matcher.
    group_events: Vec<DetectionEvent>,
    /// Blossom matcher for the group refinement, sized for
    /// [`LOCAL_EXACT_LIMIT`] events.
    matcher: Matcher,
}

impl UnionFindScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        UnionFindScratch::default()
    }

    /// A scratch pre-sized for `graph`, so decoding any block on it is
    /// allocation-free.
    pub fn for_graph(graph: &DecodingGraph) -> Self {
        let mut scratch = UnionFindScratch::new();
        scratch.ensure(graph);
        scratch
    }

    /// Grows every buffer to the graph's node count (no-op when already
    /// large enough — the warm path).
    fn ensure(&mut self, graph: &DecodingGraph) {
        let n = graph.n_nodes() + 2;
        if self.parent.len() < n {
            self.parent.resize(n, 0);
            self.size.resize(n, 0);
            self.parity.resize(n, false);
            self.boundary.resize(n, false);
            self.defect.resize(n, false);
            self.growth.resize(graph.n_nodes() * MAX_SLOTS, 0);
            self.member.resize(n.div_ceil(64), 0);
            self.head.resize(n, NO_NODE);
            self.visited.resize(n, false);
            self.parent_node.resize(n, NO_NODE);
            self.comp.resize(n, NO_NODE);
            self.comp_first.resize(n, NO_NODE);
            self.comp_max_node.resize(n, 0);
            self.comp_west.resize(n, 0);
            // Every union records ≤ 1 tree edge and each union shrinks the
            // cluster count, so the forest can never exceed n edges.
            self.tree.reserve(n.saturating_sub(self.tree.capacity()));
            self.next
                .reserve((2 * n).saturating_sub(self.next.capacity()));
            self.order.reserve(n.saturating_sub(self.order.capacity()));
            self.stack.reserve(n.saturating_sub(self.stack.capacity()));
            // Event-indexed buffers: a block has at most one event per node.
            self.ev_parent
                .reserve(n.saturating_sub(self.ev_parent.capacity()));
            self.ev_comp
                .reserve(n.saturating_sub(self.ev_comp.capacity()));
            self.group_len
                .reserve(n.saturating_sub(self.group_len.capacity()));
            self.group_west
                .reserve(n.saturating_sub(self.group_west.capacity()));
            self.group_max_node
                .reserve(n.saturating_sub(self.group_max_node.capacity()));
            self.group_commit
                .reserve(n.saturating_sub(self.group_commit.capacity()));
            self.group_events.reserve(LOCAL_EXACT_LIMIT);
            self.matcher = Matcher::for_events(LOCAL_EXACT_LIMIT);
        }
    }

    /// Adds real node `u` to the cluster members (idempotent).
    fn join(&mut self, u: usize) {
        self.member[u / 64] |= 1u64 << (u % 64);
    }
}

/// Iterative find with path halving.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Decodes a set of detection events on `graph`: grows clusters, peels, and
/// returns the number of west-boundary edges in the correction. The west
/// count's parity is the correction's logical `X` contribution.
pub fn decode_events(
    graph: &DecodingGraph,
    events: &[DetectionEvent],
    scratch: &mut UnionFindScratch,
) -> usize {
    decode_inner(graph, events, scratch);
    let mut west = 0usize;
    for i in 0..events.len() {
        if find(&mut scratch.ev_parent, i as u32) == i as u32 {
            west += scratch.group_west[i] as usize;
        }
    }
    west
}

/// [`decode_events`] with a commit horizon, for sliding-window streaming:
/// interaction groups whose member clusters' spanning trees touch only
/// rounds `≤ horizon_round` are *committed* — their west-edge count is
/// returned — while events belonging to groups that reach past the horizon
/// are appended to `deferred` (preserving input order) for re-decoding once
/// more rounds have arrived. Returns `(committed_west_edges,
/// committed_groups)`.
pub fn decode_events_commit(
    graph: &DecodingGraph,
    events: &[DetectionEvent],
    horizon_round: usize,
    scratch: &mut UnionFindScratch,
    deferred: &mut Vec<DetectionEvent>,
) -> (usize, usize) {
    decode_inner(graph, events, scratch);
    let mut west = 0usize;
    let mut committed = 0usize;
    for i in 0..events.len() {
        if find(&mut scratch.ev_parent, i as u32) == i as u32 {
            let commit = graph.round_of(scratch.group_max_node[i] as usize) <= horizon_round;
            scratch.group_commit[i] = commit;
            if commit {
                west += scratch.group_west[i] as usize;
                committed += 1;
            }
        }
    }
    for (i, ev) in events.iter().enumerate() {
        let rep = find(&mut scratch.ev_parent, i as u32);
        if !scratch.group_commit[rep as usize] {
            deferred.push(*ev);
        }
    }
    (west, committed)
}

/// Cluster growth, peeling and group refinement; fills the per-group
/// tables [`decode_events`] / [`decode_events_commit`] read.
fn decode_inner(graph: &DecodingGraph, events: &[DetectionEvent], scratch: &mut UnionFindScratch) {
    scratch.ensure(graph);
    let n_nodes = graph.n_nodes();
    let n_stabs = graph.n_stabs();
    let west_node = graph.west_node() as u32;
    let east_node = graph.east_node() as u32;
    let total = n_nodes + 2;

    // Reset: plain fills, a few hundred bytes per array at d = 7.
    for i in 0..total {
        scratch.parent[i] = i as u32;
    }
    scratch.size[..total].fill(1);
    // Boundary nodes effectively never lose a union-by-size, so they stay
    // roots and `find` of any absorbed cluster lands on them.
    scratch.size[west_node as usize] = u32::MAX / 2;
    scratch.size[east_node as usize] = u32::MAX / 2;
    scratch.parity[..total].fill(false);
    scratch.boundary[..total].fill(false);
    scratch.boundary[west_node as usize] = true;
    scratch.boundary[east_node as usize] = true;
    scratch.defect[..total].fill(false);
    scratch.growth[..n_nodes * MAX_SLOTS].fill(0);
    scratch.member[..n_nodes.div_ceil(64)].fill(0);
    scratch.tree.clear();

    scratch.active = 0;
    for ev in events {
        assert!(
            ev.round < graph.layers() && ev.stab < n_stabs,
            "event ({}, {}) outside graph ({} stabs, {} layers)",
            ev.stab,
            ev.round,
            n_stabs,
            graph.layers()
        );
        let node = graph.node(ev.stab, ev.round);
        debug_assert!(!scratch.defect[node], "duplicate detection event");
        if !scratch.defect[node] {
            scratch.defect[node] = true;
            scratch.parity[node] = true;
            scratch.active += 1;
            scratch.join(node);
        }
    }

    // Synchronous growth rounds over the members in ascending node order.
    // A node that joins above the cursor is still grown in the same round,
    // one that joins below it waits for the next: exactly the order of a
    // sweep over every node, whose non-members are even singletons that
    // never grow. Any odd cluster reaches a boundary within the graph
    // diameter, so growth terminates well inside this bound.
    let max_growth_rounds = 2 * (graph.layers() + graph.distance() + 2);
    let mut growth_rounds = 0usize;
    while scratch.active > 0 {
        growth_rounds += 1;
        assert!(
            growth_rounds <= max_growth_rounds,
            "union-find growth failed to terminate"
        );
        for w in 0..n_nodes.div_ceil(64) {
            let mut bits = scratch.member[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                let u = w * 64 + b as usize;
                let root = find(&mut scratch.parent, u as u32) as usize;
                if scratch.parity[root] && !scratch.boundary[root] {
                    grow_node(graph, scratch, u, west_node, east_node);
                }
                // Re-read the word: this node's unions may have added
                // members above it.
                bits = scratch.member[w] & (!1u64 << b);
            }
        }
    }

    peel(graph, scratch);
    refine_groups(graph, events, scratch);
}

/// Interaction radius: events within this graph distance of each other are
/// refined jointly. A defect's independent boundary resolution costs at
/// most `min(dist_west, dist_east) ≤ (d + 1) / 2`, so a direct pairing can
/// only tie or beat two independent resolutions when the pair is at most
/// `d + 1` apart — beyond the radius, per-group refinement loses nothing.
pub(crate) fn interaction_radius(graph: &DecodingGraph) -> usize {
    graph.distance() + 1
}

/// Links events into interaction groups (same grown cluster, or within the
/// interaction radius) and replaces each small group's peeled west count
/// with the exact canonical matching over the group's events: minimum total
/// cost first, minimum west count among co-optimal matchings second —
/// exactly [`crate::decoder::decode_block_exact`]'s tie-break, so
/// union-find agrees with the whole-block matcher whenever the optimal
/// matching does not pair defects across groups (which the radius makes
/// strictly suboptimal). Fills the per-event-group tables (`ev_parent`,
/// `group_west`, `group_max_node`) that [`decode_events`] /
/// [`decode_events_commit`] read.
fn refine_groups(graph: &DecodingGraph, events: &[DetectionEvent], scratch: &mut UnionFindScratch) {
    let k = events.len();
    let UnionFindScratch {
        visited,
        comp,
        comp_first,
        comp_max_node,
        comp_west,
        ev_parent,
        ev_comp,
        group_len,
        group_west,
        group_max_node,
        group_commit,
        group_events,
        matcher,
        ..
    } = scratch;
    ev_parent.clear();
    ev_parent.extend(0..k as u32);
    ev_comp.clear();
    for table in [&mut *group_len, &mut *group_west, &mut *group_max_node] {
        table.clear();
        table.resize(k, 0);
    }
    group_commit.clear();
    group_commit.resize(k, false);

    // Same component ⇒ same group: each event joins its component's first.
    let mut groups = k;
    for (i, ev) in events.iter().enumerate() {
        let node = graph.node(ev.stab, ev.round);
        debug_assert!(visited[node], "defect node missing from the forest");
        let c = comp[node];
        ev_comp.push(c);
        let first = comp_first[c as usize];
        if first == NO_NODE {
            comp_first[c as usize] = i as u32;
        } else if union_events(ev_parent, first, i as u32) {
            groups -= 1;
        }
    }
    // Events within the interaction radius of each other. O(k²) with an
    // early temporal reject, ending as soon as one group holds every event
    // (dense blocks collapse within a few pairs); blocks carry at most one
    // event per space-time node, so k stays small at any operating point
    // worth decoding.
    let radius = interaction_radius(graph);
    'scan: for i in 0..k {
        for j in i + 1..k {
            if groups == 1 {
                break 'scan;
            }
            let (ea, eb) = (&events[i], &events[j]);
            if ea.round.abs_diff(eb.round) > radius {
                continue;
            }
            let dist = graph.stab_distance(ea.stab, eb.stab) + ea.round.abs_diff(eb.round);
            if dist <= radius && union_events(ev_parent, i as u32, j as u32) {
                groups -= 1;
            }
        }
    }

    // Per-group size, latest round, and peeled west count (the sum over the
    // group's components, each counted at its first event).
    for (i, &c) in ev_comp.iter().enumerate() {
        let rep = find(ev_parent, i as u32) as usize;
        let c = c as usize;
        group_len[rep] += 1;
        group_max_node[rep] = group_max_node[rep].max(comp_max_node[c]);
        if comp_first[c] == i as u32 {
            group_west[rep] += comp_west[c];
        }
    }
    // Small groups: the exact matching replaces the peeled count. A group's
    // representative is its smallest event index, and the matching is
    // canonical over the event set, so gathering order cannot leak into
    // the west count.
    for rep in 0..k {
        if ev_parent[rep] != rep as u32 || group_len[rep] as usize > LOCAL_EXACT_LIMIT {
            continue;
        }
        group_events.clear();
        for (j, ev) in events.iter().enumerate().skip(rep) {
            if find(ev_parent, j as u32) == rep as u32 {
                group_events.push(*ev);
            }
        }
        group_west[rep] = canonical_match(graph, group_events, matcher).west as u32;
    }
}

/// Union for the event-level interaction grouping (smaller index wins; the
/// decode only ever reads per-group aggregates, so representative identity
/// never leaks into the outcome). Returns whether two groups merged.
fn union_events(parent: &mut [u32], a: u32, b: u32) -> bool {
    let ra = find(parent, a);
    let rb = find(parent, b);
    if ra == rb {
        return false;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[hi as usize] = lo;
    true
}

/// Adds half-step support to every unsaturated half-edge of node `u`,
/// merging clusters whose connecting edge fills.
fn grow_node(
    graph: &DecodingGraph,
    scratch: &mut UnionFindScratch,
    u: usize,
    west_node: u32,
    east_node: u32,
) {
    let n_stabs = graph.n_stabs();
    let s = u % n_stabs;
    let round = u / n_stabs;
    let base = u * MAX_SLOTS;

    // Temporal down (slot 0) ↔ neighbour's slot 1.
    if round > 0 {
        let v = u - n_stabs;
        grow_half(scratch, u, base, 0, v, v * MAX_SLOTS + 1);
    }
    // Temporal up (slot 1) ↔ neighbour's slot 0.
    if round + 1 < graph.layers() {
        let v = u + n_stabs;
        grow_half(scratch, u, base, 1, v, v * MAX_SLOTS);
    }
    // Boundary edges: the virtual side contributes nothing, so the edge is
    // full when this node's half alone reaches the weight.
    if graph.has_west_edge(s) {
        grow_boundary_half(scratch, u, base, 2, west_node);
    }
    if graph.has_east_edge(s) {
        grow_boundary_half(scratch, u, base, 3, east_node);
    }
    for (k, nb) in graph.spatial(s).iter().enumerate() {
        let v = round * n_stabs + nb.stab as usize;
        grow_half(
            scratch,
            u,
            base,
            SPATIAL_SLOT0 + k,
            v,
            v * MAX_SLOTS + nb.rev_slot as usize,
        );
    }
}

/// Grows `u`'s half of the edge to real node `v`; unions when full.
fn grow_half(
    scratch: &mut UnionFindScratch,
    u: usize,
    base: usize,
    slot: usize,
    v: usize,
    rev_idx: usize,
) {
    let mine = scratch.growth[base + slot];
    let theirs = scratch.growth[rev_idx];
    if mine + theirs >= EDGE_WEIGHT {
        return;
    }
    scratch.growth[base + slot] = mine + 1;
    if mine + 1 + theirs >= EDGE_WEIGHT {
        scratch.join(v);
        union_nodes(scratch, u as u32, v as u32);
    }
}

/// Grows `u`'s half of a boundary edge; unions with the boundary when full.
fn grow_boundary_half(
    scratch: &mut UnionFindScratch,
    u: usize,
    base: usize,
    slot: usize,
    boundary: u32,
) {
    let mine = scratch.growth[base + slot];
    if mine >= EDGE_WEIGHT {
        return;
    }
    scratch.growth[base + slot] = mine + 1;
    if mine + 1 >= EDGE_WEIGHT {
        union_nodes(scratch, u as u32, boundary);
    }
}

/// Union by size with parity/boundary merge and active-cluster count;
/// records the spanning-forest edge when the endpoints were in different
/// clusters.
fn union_nodes(scratch: &mut UnionFindScratch, a: u32, b: u32) {
    let ra = find(&mut scratch.parent, a) as usize;
    let rb = find(&mut scratch.parent, b) as usize;
    if ra == rb {
        return;
    }
    let (winner, loser) = if scratch.size[ra] >= scratch.size[rb] {
        (ra, rb)
    } else {
        (rb, ra)
    };
    let is_active = |s: &UnionFindScratch, r: usize| s.parity[r] && !s.boundary[r];
    scratch.active -= usize::from(is_active(scratch, ra)) + usize::from(is_active(scratch, rb));
    scratch.parent[loser] = winner as u32;
    scratch.size[winner] = scratch.size[winner].saturating_add(scratch.size[loser]);
    scratch.parity[winner] = scratch.parity[ra] ^ scratch.parity[rb];
    scratch.boundary[winner] = scratch.boundary[ra] | scratch.boundary[rb];
    scratch.active += usize::from(is_active(scratch, winner));
    scratch.tree.push(TreeEdge { a, b });
}

/// Peels the spanning forest: roots every tree at its boundary node (west
/// preferred), walks bottom-up, and routes each odd defect parity along its
/// parent edge. Fills `comp`, `comp_west`, and `comp_max_node`.
fn peel(graph: &DecodingGraph, scratch: &mut UnionFindScratch) {
    let n_nodes = graph.n_nodes();
    let west_node = graph.west_node() as u32;

    let total = n_nodes + 2;

    // Forest adjacency.
    scratch.head[..total].fill(NO_NODE);
    scratch.next.clear();
    for (e, &TreeEdge { a, b }) in scratch.tree.iter().enumerate() {
        for (h, x) in [(2 * e, a), (2 * e + 1, b)] {
            scratch.next.push(scratch.head[x as usize]);
            scratch.head[x as usize] = h as u32;
        }
    }
    scratch.visited[..total].fill(false);
    scratch.order.clear();

    // Traversal roots: the west boundary first, then east, then the first
    // endpoint (in recorded-edge order) of any interior tree.
    traverse(graph, scratch, west_node);
    traverse(graph, scratch, graph.east_node() as u32);
    for i in 0..scratch.tree.len() {
        let TreeEdge { a, b } = scratch.tree[i];
        traverse(graph, scratch, a);
        traverse(graph, scratch, b);
    }

    // Bottom-up sweep (children precede parents in reverse visit order):
    // odd parity routes along the parent edge; boundary nodes absorb.
    for idx in (0..scratch.order.len()).rev() {
        let u = scratch.order[idx] as usize;
        if u >= n_nodes {
            // A boundary node (as root, or east interior to a west-rooted
            // tree) absorbs every parity that reaches it.
            continue;
        }
        let p = scratch.parent_node[u];
        if p == NO_NODE {
            // Interior root of an even cluster: all defects below cancelled.
            debug_assert!(!scratch.defect[u], "odd cluster without boundary");
            continue;
        }
        if scratch.defect[u] {
            scratch.defect[u] = false;
            scratch.defect[p as usize] ^= true;
            if p == west_node {
                let c = scratch.comp[u];
                scratch.comp_west[c as usize] += 1;
            }
        }
    }
}

/// Depth-first traversal from `root` (a no-op once visited), assigning
/// visit order, parent links, and commit component ids: a real root, and
/// every child of a boundary node, starts a component of its own.
fn traverse(graph: &DecodingGraph, scratch: &mut UnionFindScratch, root: u32) {
    if scratch.visited[root as usize] {
        return;
    }
    let n_nodes = graph.n_nodes();
    scratch.visited[root as usize] = true;
    scratch.parent_node[root as usize] = NO_NODE;
    if (root as usize) < n_nodes {
        start_component(scratch, root);
    }
    scratch.order.push(root);
    scratch.stack.clear();
    scratch.stack.push(root);
    while let Some(u) = scratch.stack.pop() {
        let mut h = scratch.head[u as usize];
        while h != NO_NODE {
            let e = scratch.tree[h as usize / 2];
            let v = if h & 1 == 0 { e.b } else { e.a };
            h = scratch.next[h as usize];
            if scratch.visited[v as usize] {
                continue;
            }
            scratch.visited[v as usize] = true;
            scratch.parent_node[v as usize] = u;
            if (v as usize) < n_nodes {
                if (u as usize) >= n_nodes {
                    start_component(scratch, v);
                } else {
                    let c = scratch.comp[u as usize];
                    scratch.comp[v as usize] = c;
                    if scratch.comp_max_node[c as usize] < v {
                        scratch.comp_max_node[c as usize] = v;
                    }
                }
            }
            scratch.order.push(v);
            scratch.stack.push(v);
        }
    }
}

/// Opens commit component `c` (named after its first node).
fn start_component(scratch: &mut UnionFindScratch, c: u32) {
    scratch.comp[c as usize] = c;
    scratch.comp_first[c as usize] = NO_NODE;
    scratch.comp_max_node[c as usize] = c;
    scratch.comp_west[c as usize] = 0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RotatedSurfaceCode;

    fn ev(stab: usize, round: usize) -> DetectionEvent {
        DetectionEvent { stab, round }
    }

    #[test]
    fn no_events_no_correction() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 3);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        assert_eq!(decode_events(&graph, &[], &mut scratch), 0);
    }

    #[test]
    fn time_like_pair_matches_vertically() {
        // A measurement flip makes two events on the same stabilizer in
        // consecutive rounds; the cluster is even once merged, no boundary.
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        for s in 0..code.n_stabilizers() {
            let west = decode_events(&graph, &[ev(s, 1), ev(s, 2)], &mut scratch);
            assert_eq!(west, 0, "stab {s}: vertical pair must not touch west");
        }
    }

    #[test]
    fn single_event_next_to_west_boundary_matches_west() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        for s in 0..code.n_stabilizers() {
            if !graph.has_west_edge(s) || graph.has_east_edge(s) {
                continue;
            }
            let west = decode_events(&graph, &[ev(s, 0)], &mut scratch);
            assert_eq!(west % 2, 1, "stab {s} should exit west");
        }
    }

    #[test]
    fn decode_is_order_independent() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let events = [ev(0, 0), ev(3, 1), ev(7, 2), ev(2, 4), ev(9, 3), ev(1, 5)];
        let base = decode_events(&graph, &events, &mut scratch);
        let mut perm = events;
        perm.reverse();
        assert_eq!(decode_events(&graph, &perm, &mut scratch), base);
        perm.swap(0, 3);
        perm.swap(1, 4);
        assert_eq!(decode_events(&graph, &perm, &mut scratch), base);
    }

    #[test]
    fn commit_splits_early_and_late_clusters() {
        let code = RotatedSurfaceCode::new(5);
        let rounds = 12;
        let graph = DecodingGraph::new(&code, rounds);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        // An early vertical pair and a late one, far apart in time.
        let events = [ev(4, 0), ev(4, 1), ev(6, 10), ev(6, 11)];
        let mut deferred = Vec::new();
        let (west, committed) =
            decode_events_commit(&graph, &events, 4, &mut scratch, &mut deferred);
        assert_eq!(west, 0);
        assert_eq!(committed, 1, "early cluster commits");
        assert_eq!(deferred.len(), 2, "late cluster defers");
        assert!(deferred.iter().all(|e| e.round >= 10));
        // Committing everything matches the whole decode.
        deferred.clear();
        let (west_all, committed_all) =
            decode_events_commit(&graph, &events, rounds, &mut scratch, &mut deferred);
        assert_eq!(west_all, decode_events(&graph, &events, &mut scratch));
        assert_eq!(committed_all, 2);
        assert!(deferred.is_empty());
    }

    #[test]
    fn warm_scratch_handles_larger_then_smaller_blocks() {
        let code = RotatedSurfaceCode::new(7);
        let big = DecodingGraph::new(&code, 10);
        let small = DecodingGraph::new(&code, 3);
        let mut scratch = UnionFindScratch::for_graph(&big);
        let a = decode_events(&big, &[ev(0, 9), ev(0, 10)], &mut scratch);
        assert_eq!(a, 0);
        let b = decode_events(&small, &[ev(0, 2), ev(0, 3)], &mut scratch);
        assert_eq!(b, 0);
    }
}
