//! Exact minimum-weight perfect matching: Edmonds' weighted blossom
//! algorithm, and the canonical detection-event matcher built on it.
//!
//! [`Matcher`] is the general primal–dual algorithm (Edmonds, *Paths,
//! trees, and flowers*, 1965) in its O(n³) form — the classic
//! maximum-weight, maximum-cardinality formulation with blossom-level
//! best-edge tracking — run on the reflected weights `W − cost`, so that the
//! maximum-weight perfect matching it finds is the minimum-cost one. Integer
//! costs keep every dual integral, so optimality is exact, and the final
//! duals are kept for inspection ([`Matcher::vertex_dual`],
//! [`Matcher::odd_sets`]): they form a complementary-slackness certificate a
//! caller can check without trusting the search.
//!
//! [`canonical_match`] builds the decoding problem of a detection-event set
//! on top: every event `i` gets a boundary *twin* `i'`, the pair joined by
//! an edge of weight
//!
//! ```text
//! B_i = min(dist_west·(k+1) + 1, dist_east·(k+1))
//! ```
//!
//! (`k` events), events `i`, `j` at weight `D_ij = dist(i, j)·(k+1)`, and
//! their twins `i'`, `j'` alongside at weight 0. A perfect matching pairs
//! some events directly and sends the rest to a boundary through their
//! twins (the twins of a directly paired `i`, `j` pair with each other for
//! free), so its weight is `cost·(k+1) + west` with `west ≤ k < k+1`: the
//! unique minimum total weight *is* the lexicographic minimum of
//! `(cost, west)`, and the west count — hence the logical verdict — is a
//! function of the event set, whatever order the events are listed in and
//! whichever co-optimal matching the search lands on.
//!
//! Two kinds of edge are left out without changing the optimum. An
//! event–event edge with `D_ij > B_i + B_j` (and its twin edge) is never
//! added: swapping it for both boundary exits would be strictly cheaper.
//! Nor is any twin–twin edge beyond those mirroring event–event edges: a
//! perfect matching of the complete twin graph re-pairs its leftover twins
//! along its own event pairs at the same cost.
//!
//! All working memory is caller-owned and reused: a matcher sized with
//! [`Matcher::for_events`] matches any event set of up to that many events
//! without touching the heap.

use crate::graph::DecodingGraph;
use crate::syndrome::DetectionEvent;

/// Sentinel for "no vertex / endpoint / edge / blossom".
const NONE: u32 = u32::MAX;

/// Vertex and blossom labels of the alternating forest.
const FREE: u8 = 0;
const OUTER: u8 = 1;
const INNER: u8 = 2;
/// Mark bit used by [`Matcher::scan_blossom`] on outer blossoms it visits.
const MARKED: u8 = 4;

/// Caller-owned working memory of the blossom algorithm, holding the last
/// problem posed to it and, after [`Matcher::solve`], its optimal matching
/// and dual certificate.
///
/// Vertices are `0..n`; non-trivial blossoms take ids `n..2n`. Edge `k`
/// has endpoints `ends[2k]` and `ends[2k + 1]`; an *endpoint index* `p`
/// names one end, `p ^ 1` the other.
#[derive(Debug, Clone, Default)]
pub struct Matcher {
    n: usize,
    ends: Vec<u32>,
    cost: Vec<i64>,
    /// Reflection constant: the algorithm maximizes `wmax − cost`.
    wmax: i64,
    /// CSR adjacency: for vertex `v`, `nb[nb_off[v]..nb_off[v + 1]]` are the
    /// endpoint indices of the far ends of its edges.
    nb_off: Vec<u32>,
    nb: Vec<u32>,
    /// Per vertex: the far endpoint index of its matched edge.
    mate: Vec<u32>,
    /// Per vertex / blossom: forest label.
    label: Vec<u8>,
    /// Per vertex / blossom: endpoint through which the label was reached.
    labelend: Vec<u32>,
    /// Per vertex: its top-level blossom.
    inblossom: Vec<u32>,
    /// Per vertex / blossom: the blossom immediately containing it.
    parent: Vec<u32>,
    /// Per blossom: sub-blossoms in cycle order, starting at the base.
    childs: Vec<Vec<u32>>,
    /// Per vertex / blossom: base vertex (`NONE` for an unused blossom id).
    base: Vec<u32>,
    /// Per blossom: endpoint indices of the cycle edges between children.
    endps: Vec<Vec<u32>>,
    /// Per vertex / blossom: least-slack edge toward an outer blossom.
    bestedge: Vec<u32>,
    /// Per blossom: least-slack edges toward each neighbouring outer
    /// blossom (valid only while `has_best_list`).
    best_list: Vec<Vec<u32>>,
    has_best_list: Vec<bool>,
    unused: Vec<u32>,
    /// Doubled vertex duals (max-weight form) followed by blossom duals.
    dual: Vec<i64>,
    /// Per edge: known tight.
    allow: Vec<bool>,
    queue: Vec<u32>,
    scan_path: Vec<u32>,
    leaves: Vec<u32>,
    best_to: Vec<u32>,
}

/// The canonical minimum of one event set: total matching distance and,
/// among the matchings attaining it, the fewest west-boundary exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CanonicalMatch {
    /// Minimum total matching distance.
    pub cost: u64,
    /// West-boundary exits of the canonical minimum.
    pub west: usize,
}

/// Appends the vertices inside blossom `b` to `out`.
fn push_leaves(childs: &[Vec<u32>], n: usize, b: u32, out: &mut Vec<u32>) {
    if (b as usize) < n {
        out.push(b);
    } else {
        for &t in &childs[b as usize] {
            push_leaves(childs, n, t, out);
        }
    }
}

/// Python-style cyclic index into a blossom's child or endpoint list.
fn at(list: &[u32], j: isize) -> u32 {
    list[j.rem_euclid(list.len() as isize) as usize]
}

fn fill<T: Clone>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

impl Matcher {
    /// An empty matcher; buffers grow on first use.
    pub fn new() -> Self {
        Matcher::default()
    }

    /// A matcher sized for [`canonical_match`] on up to `events` detection
    /// events (every event with a twin, every pair of events and of twins
    /// joined), so matching such a set never allocates.
    pub fn for_events(events: usize) -> Self {
        let mut m = Matcher::new();
        m.reserve(2 * events, events * events);
        m
    }

    /// Grows every buffer to cover problems of `vertices` vertices and
    /// `edges` edges.
    fn reserve(&mut self, vertices: usize, edges: usize) {
        let n2 = 2 * vertices;
        for v in [
            &mut self.nb_off,
            &mut self.mate,
            &mut self.labelend,
            &mut self.inblossom,
            &mut self.parent,
            &mut self.base,
            &mut self.bestedge,
            &mut self.unused,
            &mut self.queue,
            &mut self.scan_path,
            &mut self.leaves,
            &mut self.best_to,
        ] {
            v.reserve(n2 + 1);
        }
        self.label.reserve(n2);
        self.has_best_list.reserve(n2);
        self.dual.reserve(n2);
        self.ends.reserve(2 * edges);
        self.nb.reserve(2 * edges);
        self.cost.reserve(edges);
        self.allow.reserve(edges);
        for lists in [&mut self.childs, &mut self.endps, &mut self.best_list] {
            while lists.len() < n2 {
                lists.push(Vec::new());
            }
            for l in lists.iter_mut() {
                l.reserve(n2);
            }
        }
    }

    /// Starts a new problem on vertices `0..vertices` with no edges.
    pub fn clear(&mut self, vertices: usize) {
        self.n = vertices;
        self.ends.clear();
        self.cost.clear();
    }

    /// Adds the edge `{i, j}` with integer `cost`.
    pub fn add_edge(&mut self, i: usize, j: usize, cost: i64) {
        debug_assert!(i != j && i < self.n && j < self.n, "bad edge {i}–{j}");
        self.ends.push(i as u32);
        self.ends.push(j as u32);
        self.cost.push(cost);
    }

    /// Number of edges of the current problem.
    pub fn n_edges(&self) -> usize {
        self.cost.len()
    }

    /// Edge `k` as `(i, j, cost)`.
    pub fn edge(&self, k: usize) -> (usize, usize, i64) {
        (
            self.ends[2 * k] as usize,
            self.ends[2 * k + 1] as usize,
            self.cost[k],
        )
    }

    /// The vertex matched to `v` by the last [`Matcher::solve`].
    pub fn mate(&self, v: usize) -> Option<usize> {
        match self.mate[v] {
            NONE => None,
            p => Some(self.ends[p as usize] as usize),
        }
    }

    /// Whether the last [`Matcher::solve`] matched edge `k`.
    pub fn is_matched(&self, k: usize) -> bool {
        self.mate[self.ends[2 * k] as usize] == (2 * k + 1) as u32
    }

    /// Doubled dual `y_v` of vertex `v` in the minimum-cost form. With
    /// [`Matcher::odd_sets`]'s `z_B ≥ 0`, every edge satisfies
    /// `2·cost − y_i − y_j + 2·Σ_{B ∋ i, j} z_B ≥ 0`, with equality on
    /// matched edges, and `Σ y_v − Σ z_B·(|B| − 1) = 2·(matching cost)`.
    pub fn vertex_dual(&self, v: usize) -> i64 {
        self.wmax - self.dual[v]
    }

    /// Every blossom (odd vertex set) alive after the last solve, nested
    /// ones included, as `(z_B, vertices)`. Inspection only: allocates.
    pub fn odd_sets(&self) -> Vec<(i64, Vec<usize>)> {
        (self.n..2 * self.n)
            .filter(|&b| self.base[b] != NONE)
            .map(|b| {
                let mut leaves = Vec::new();
                push_leaves(&self.childs, self.n, b as u32, &mut leaves);
                (
                    self.dual[b],
                    leaves.into_iter().map(|v| v as usize).collect(),
                )
            })
            .collect()
    }

    #[inline]
    fn slack(&self, k: u32) -> i64 {
        let k = k as usize;
        self.dual[self.ends[2 * k] as usize] + self.dual[self.ends[2 * k + 1] as usize]
            - 2 * (self.wmax - self.cost[k])
    }

    /// Finds a minimum-cost perfect matching of the current problem and
    /// returns its cost, or `None` when the graph has no perfect matching.
    pub fn solve(&mut self) -> Option<i64> {
        let n = self.n;
        let n2 = 2 * n;
        let m = self.cost.len();
        self.wmax = self.cost.iter().copied().max().unwrap_or(0);

        fill(&mut self.nb_off, n + 1, 0);
        for &e in &self.ends {
            self.nb_off[e as usize + 1] += 1;
        }
        for v in 0..n {
            self.nb_off[v + 1] += self.nb_off[v];
        }
        fill(&mut self.nb, 2 * m, 0);
        // `best_to` doubles as the CSR insert cursor.
        self.best_to.clear();
        self.best_to.extend_from_slice(&self.nb_off[..n]);
        for p in 0..2 * m {
            // Vertex ends[p] sees the far end p ^ 1.
            let v = self.ends[p] as usize;
            self.nb[self.best_to[v] as usize] = (p ^ 1) as u32;
            self.best_to[v] += 1;
        }

        fill(&mut self.mate, n, NONE);
        fill(&mut self.label, n2, FREE);
        fill(&mut self.labelend, n2, NONE);
        self.inblossom.clear();
        self.inblossom.extend(0..n as u32);
        fill(&mut self.parent, n2, NONE);
        while self.childs.len() < n2 {
            self.childs.push(Vec::new());
            self.endps.push(Vec::new());
            self.best_list.push(Vec::new());
        }
        for b in 0..n2 {
            self.childs[b].clear();
            self.endps[b].clear();
            self.best_list[b].clear();
        }
        self.base.clear();
        self.base.extend(0..n as u32);
        self.base.resize(n2, NONE);
        fill(&mut self.bestedge, n2, NONE);
        fill(&mut self.has_best_list, n2, false);
        self.unused.clear();
        self.unused.extend((n as u32..n2 as u32).rev());
        fill(&mut self.dual, n2, 0);
        fill(&mut self.allow, m, false);
        fill(&mut self.best_to, n2, NONE);
        self.greedy_start();

        for _stage in 0..n {
            self.label.fill(FREE);
            self.bestedge.fill(NONE);
            for b in n..n2 {
                self.best_list[b].clear();
                self.has_best_list[b] = false;
            }
            self.allow.fill(false);
            self.queue.clear();
            for v in 0..n as u32 {
                if self.mate[v as usize] == NONE
                    && self.label[self.inblossom[v as usize] as usize] == FREE
                {
                    self.assign_label(v, OUTER, NONE);
                }
            }
            if !self.grow_and_augment() {
                break;
            }
            // Outer blossoms whose dual reached zero dissolve between stages.
            for b in n..n2 {
                if self.parent[b] == NONE
                    && self.base[b] != NONE
                    && self.label[b] == OUTER
                    && self.dual[b] == 0
                {
                    self.expand_blossom(b as u32, true);
                }
            }
        }

        let mut total = 0i64;
        for v in 0..n {
            let p = self.mate[v];
            if p == NONE {
                return None;
            }
            if (v as u32) < self.ends[p as usize] {
                total += self.cost[p as usize / 2];
            }
        }
        Some(total)
    }

    /// Dual-feasible start with a matching on tight edges, so the stages
    /// only repair what greedy choice gets wrong: each vertex's dual is
    /// raised, in turn, as far as feasibility allows, and free vertices are
    /// then matched along the edges this made tight. (Starting from
    /// all-equal duals is equally correct, but spends a stage on every
    /// matched pair.)
    fn greedy_start(&mut self) {
        let n = self.n;
        // Minimum-cost form first: y_v with y_i + y_j ≤ 2·cost_ij. Every
        // y_v is kept even so all vertices start with one dual parity —
        // the invariant that keeps the halved outer–outer dual steps
        // integral (`& !1` rounds down to even).
        let y = &mut self.dual[..n];
        for (yv, span) in y.iter_mut().zip(self.nb_off.windows(2)) {
            *yv = self.nb[span[0] as usize..span[1] as usize]
                .iter()
                .map(|&p| self.cost[p as usize / 2])
                .min()
                .unwrap_or(0)
                & !1;
        }
        for v in 0..n {
            let (lo, hi) = (self.nb_off[v] as usize, self.nb_off[v + 1] as usize);
            let room = self.nb[lo..hi]
                .iter()
                .map(|&p| 2 * self.cost[p as usize / 2] - y[v] - y[self.ends[p as usize] as usize])
                .min()
                .unwrap_or(0);
            y[v] += room & !1;
        }
        // The algorithm's maximum-weight form: dual = wmax − y.
        for d in y.iter_mut() {
            *d = self.wmax - *d;
        }
        for v in 0..n {
            if self.mate[v] != NONE {
                continue;
            }
            for idx in self.nb_off[v]..self.nb_off[v + 1] {
                let p = self.nb[idx as usize];
                let u = self.ends[p as usize] as usize;
                if self.mate[u] == NONE && self.slack(p / 2) == 0 {
                    self.mate[v] = p;
                    self.mate[u] = p ^ 1;
                    break;
                }
            }
        }
    }

    /// One stage: grows the alternating forest through tight edges, making
    /// dual adjustments whenever it stalls, until an augmenting path is
    /// found and applied (`true`) or the matching is maximum (`false`).
    fn grow_and_augment(&mut self) -> bool {
        let n = self.n;
        loop {
            while let Some(v) = self.queue.pop() {
                let (lo, hi) = (
                    self.nb_off[v as usize] as usize,
                    self.nb_off[v as usize + 1] as usize,
                );
                for idx in lo..hi {
                    let p = self.nb[idx];
                    let k = p / 2;
                    let w = self.ends[p as usize];
                    let bv = self.inblossom[v as usize];
                    let bw = self.inblossom[w as usize];
                    if bv == bw {
                        continue;
                    }
                    let mut kslack = 0;
                    if !self.allow[k as usize] {
                        kslack = self.slack(k);
                        if kslack <= 0 {
                            self.allow[k as usize] = true;
                        }
                    }
                    if self.allow[k as usize] {
                        match self.label[bw as usize] {
                            FREE => self.assign_label(w, INNER, p ^ 1),
                            OUTER => {
                                let base = self.scan_blossom(v, w);
                                if base != NONE {
                                    self.add_blossom(base, k);
                                } else {
                                    self.augment_matching(k);
                                    return true;
                                }
                            }
                            _ => {
                                if self.label[w as usize] == FREE {
                                    // w sits inside an inner blossom: record
                                    // how it was reached, for expansion.
                                    self.label[w as usize] = INNER;
                                    self.labelend[w as usize] = p ^ 1;
                                }
                            }
                        }
                    } else if self.label[bw as usize] == OUTER {
                        let b = bv as usize;
                        if self.bestedge[b] == NONE || kslack < self.slack(self.bestedge[b]) {
                            self.bestedge[b] = k;
                        }
                    } else if self.label[w as usize] == FREE {
                        let w = w as usize;
                        if self.bestedge[w] == NONE || kslack < self.slack(self.bestedge[w]) {
                            self.bestedge[w] = k;
                        }
                    }
                }
            }

            // Stalled: the largest dual step that keeps every slack ≥ 0.
            enum Step {
                FreeEdge(u32),
                OuterEdge(u32),
                Expand(u32),
            }
            let mut step = None;
            let mut delta = 0i64;
            for v in 0..n {
                if self.label[self.inblossom[v] as usize] == FREE && self.bestedge[v] != NONE {
                    let d = self.slack(self.bestedge[v]);
                    if step.is_none() || d < delta {
                        delta = d;
                        step = Some(Step::FreeEdge(self.bestedge[v]));
                    }
                }
            }
            for b in 0..2 * n {
                if self.parent[b] == NONE && self.label[b] == OUTER && self.bestedge[b] != NONE {
                    let s = self.slack(self.bestedge[b]);
                    debug_assert_eq!(s % 2, 0, "integral duals give even outer slacks");
                    let d = s / 2;
                    if step.is_none() || d < delta {
                        delta = d;
                        step = Some(Step::OuterEdge(self.bestedge[b]));
                    }
                }
            }
            for b in n..2 * n {
                if self.base[b] != NONE
                    && self.parent[b] == NONE
                    && self.label[b] == INNER
                    && (step.is_none() || self.dual[b] < delta)
                {
                    delta = self.dual[b];
                    step = Some(Step::Expand(b as u32));
                }
            }
            let Some(step) = step else {
                // No further growth possible: the matching is maximum.
                return false;
            };

            for v in 0..n {
                match self.label[self.inblossom[v] as usize] {
                    OUTER => self.dual[v] -= delta,
                    INNER => self.dual[v] += delta,
                    _ => {}
                }
            }
            for b in n..2 * n {
                if self.base[b] != NONE && self.parent[b] == NONE {
                    match self.label[b] {
                        OUTER => self.dual[b] += delta,
                        INNER => self.dual[b] -= delta,
                        _ => {}
                    }
                }
            }

            match step {
                Step::FreeEdge(k) => {
                    self.allow[k as usize] = true;
                    let (mut i, j) = (self.ends[2 * k as usize], self.ends[2 * k as usize + 1]);
                    if self.label[self.inblossom[i as usize] as usize] == FREE {
                        i = j;
                    }
                    self.queue.push(i);
                }
                Step::OuterEdge(k) => {
                    self.allow[k as usize] = true;
                    self.queue.push(self.ends[2 * k as usize]);
                }
                Step::Expand(b) => self.expand_blossom(b, false),
            }
        }
    }

    /// Labels the top-level blossom of vertex `w` with `t`, reached through
    /// endpoint `p`; an inner label passes an outer one on to its mate.
    fn assign_label(&mut self, w: u32, t: u8, p: u32) {
        let b = self.inblossom[w as usize];
        debug_assert!(self.label[w as usize] == FREE && self.label[b as usize] == FREE);
        self.label[w as usize] = t;
        self.label[b as usize] = t;
        self.labelend[w as usize] = p;
        self.labelend[b as usize] = p;
        self.bestedge[w as usize] = NONE;
        self.bestedge[b as usize] = NONE;
        if t == OUTER {
            push_leaves(&self.childs, self.n, b, &mut self.queue);
        } else {
            let mb = self.mate[self.base[b as usize] as usize];
            debug_assert_ne!(mb, NONE, "inner blossom with an unmatched base");
            self.assign_label(self.ends[mb as usize], OUTER, mb ^ 1);
        }
    }

    /// Traces back from outer vertices `v` and `w` toward their tree roots;
    /// returns the base of the new blossom where the paths meet, or `NONE`
    /// when they reach distinct roots (an augmenting path).
    fn scan_blossom(&mut self, mut v: u32, mut w: u32) -> u32 {
        self.scan_path.clear();
        let mut base = NONE;
        while v != NONE {
            let mut b = self.inblossom[v as usize];
            if self.label[b as usize] & MARKED != 0 {
                base = self.base[b as usize];
                break;
            }
            debug_assert_eq!(self.label[b as usize], OUTER);
            self.scan_path.push(b);
            self.label[b as usize] = OUTER | MARKED;
            if self.labelend[b as usize] == NONE {
                v = NONE;
            } else {
                v = self.ends[self.labelend[b as usize] as usize];
                b = self.inblossom[v as usize];
                debug_assert_eq!(self.label[b as usize], INNER);
                v = self.ends[self.labelend[b as usize] as usize];
            }
            if w != NONE {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &self.scan_path {
            self.label[b as usize] = OUTER;
        }
        base
    }

    /// Shrinks the odd cycle closed by tight edge `k` into a new outer
    /// blossom with the given base.
    fn add_blossom(&mut self, base: u32, k: u32) {
        let n = self.n;
        let mut v = self.ends[2 * k as usize];
        let mut w = self.ends[2 * k as usize + 1];
        let bb = self.inblossom[base as usize];
        let mut bv = self.inblossom[v as usize];
        let mut bw = self.inblossom[w as usize];
        let b = self.unused.pop().expect("at most n blossoms alive") as usize;
        self.base[b] = base;
        self.parent[b] = NONE;
        self.parent[bb as usize] = b as u32;
        self.childs[b].clear();
        self.endps[b].clear();
        while bv != bb {
            self.parent[bv as usize] = b as u32;
            self.childs[b].push(bv);
            let le = self.labelend[bv as usize];
            self.endps[b].push(le);
            v = self.ends[le as usize];
            bv = self.inblossom[v as usize];
        }
        self.childs[b].push(bb);
        self.childs[b].reverse();
        self.endps[b].reverse();
        self.endps[b].push(2 * k);
        while bw != bb {
            self.parent[bw as usize] = b as u32;
            self.childs[b].push(bw);
            let le = self.labelend[bw as usize];
            self.endps[b].push(le ^ 1);
            w = self.ends[le as usize];
            bw = self.inblossom[w as usize];
        }
        debug_assert_eq!(self.label[bb as usize], OUTER);
        self.label[b] = OUTER;
        self.labelend[b] = self.labelend[bb as usize];
        self.dual[b] = 0;

        let mut leaves = std::mem::take(&mut self.leaves);
        leaves.clear();
        push_leaves(&self.childs, n, b as u32, &mut leaves);
        for &v in &leaves {
            if self.label[self.inblossom[v as usize] as usize] == INNER {
                // Former inner vertices become outer and must be scanned.
                self.queue.push(v);
            }
            self.inblossom[v as usize] = b as u32;
        }

        // Least-slack edges from the new blossom to each outer blossom.
        self.best_to[..2 * n].fill(NONE);
        for c in 0..self.childs[b].len() {
            let bv = self.childs[b][c] as usize;
            if self.has_best_list[bv] {
                for x in 0..self.best_list[bv].len() {
                    let k2 = self.best_list[bv][x];
                    self.consider_best(b as u32, k2);
                }
            } else {
                leaves.clear();
                push_leaves(&self.childs, n, bv as u32, &mut leaves);
                for &v in &leaves {
                    for idx in self.nb_off[v as usize]..self.nb_off[v as usize + 1] {
                        let k2 = self.nb[idx as usize] / 2;
                        self.consider_best(b as u32, k2);
                    }
                }
            }
            self.best_list[bv].clear();
            self.has_best_list[bv] = false;
            self.bestedge[bv] = NONE;
        }
        self.leaves = leaves;
        self.best_list[b].clear();
        for x in 0..2 * n {
            let k2 = self.best_to[x];
            if k2 != NONE {
                self.best_list[b].push(k2);
            }
        }
        self.has_best_list[b] = true;
        let mut best = NONE;
        for &k2 in &self.best_list[b] {
            if best == NONE || self.slack(k2) < self.slack(best) {
                best = k2;
            }
        }
        self.bestedge[b] = best;
    }

    /// Records edge `k2` in `best_to` if it leaves blossom `b` toward an
    /// outer blossom more tightly than the best seen so far.
    fn consider_best(&mut self, b: u32, k2: u32) {
        let (i, j) = (self.ends[2 * k2 as usize], self.ends[2 * k2 as usize + 1]);
        let j = if self.inblossom[j as usize] == b {
            i
        } else {
            j
        };
        let bj = self.inblossom[j as usize] as usize;
        if bj != b as usize
            && self.label[bj] == OUTER
            && (self.best_to[bj] == NONE || self.slack(k2) < self.slack(self.best_to[bj]))
        {
            self.best_to[bj] = k2;
        }
    }

    /// Dissolves blossom `b` into its children. Mid-stage (`endstage`
    /// false) an inner blossom's children are relabelled so the alternating
    /// tree stays consistent; at a stage end, zero-dual sub-blossoms
    /// dissolve recursively.
    fn expand_blossom(&mut self, b: u32, endstage: bool) {
        let n = self.n;
        let bu = b as usize;
        for c in 0..self.childs[bu].len() {
            let s = self.childs[bu][c];
            self.parent[s as usize] = NONE;
            if (s as usize) < n {
                self.inblossom[s as usize] = s;
            } else if endstage && self.dual[s as usize] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let mut leaves = std::mem::take(&mut self.leaves);
                leaves.clear();
                push_leaves(&self.childs, n, s, &mut leaves);
                for &v in &leaves {
                    self.inblossom[v as usize] = s;
                }
                self.leaves = leaves;
            }
        }
        if !endstage && self.label[bu] == INNER {
            // Walk from the child through which the blossom was entered to
            // its base, relabelling the even-length side of the cycle.
            let entry = self.inblossom[self.ends[(self.labelend[bu] ^ 1) as usize] as usize];
            let len = self.childs[bu].len() as isize;
            let mut j = self.childs[bu]
                .iter()
                .position(|&c| c == entry)
                .expect("entry child in blossom") as isize;
            let (jstep, trick): (isize, u32) = if j & 1 != 0 {
                j -= len;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.labelend[bu];
            while j != 0 {
                let q = self.ends[(p ^ 1) as usize];
                self.label[q as usize] = FREE;
                let e = at(&self.endps[bu], j - trick as isize);
                self.label[self.ends[(e ^ trick ^ 1) as usize] as usize] = FREE;
                self.assign_label(q, INNER, p);
                self.allow[(e / 2) as usize] = true;
                j += jstep;
                p = at(&self.endps[bu], j - trick as isize) ^ trick;
                self.allow[(p / 2) as usize] = true;
                j += jstep;
            }
            let bv = at(&self.childs[bu], j) as usize;
            let q = self.ends[(p ^ 1) as usize] as usize;
            self.label[q] = INNER;
            self.label[bv] = INNER;
            self.labelend[q] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NONE;
            j += jstep;
            while at(&self.childs[bu], j) != entry {
                let bv = at(&self.childs[bu], j);
                if self.label[bv as usize] == OUTER {
                    j += jstep;
                    continue;
                }
                let mut leaves = std::mem::take(&mut self.leaves);
                leaves.clear();
                push_leaves(&self.childs, n, bv, &mut leaves);
                let reached = leaves
                    .iter()
                    .copied()
                    .find(|&v| self.label[v as usize] != FREE);
                self.leaves = leaves;
                if let Some(v) = reached {
                    debug_assert_eq!(self.label[v as usize], INNER);
                    debug_assert_eq!(self.inblossom[v as usize], bv);
                    self.label[v as usize] = FREE;
                    let mb = self.mate[self.base[bv as usize] as usize];
                    self.label[self.ends[mb as usize] as usize] = FREE;
                    self.assign_label(v, INNER, self.labelend[v as usize]);
                }
                j += jstep;
            }
        }
        self.label[bu] = FREE;
        self.labelend[bu] = NONE;
        self.childs[bu].clear();
        self.endps[bu].clear();
        self.base[bu] = NONE;
        self.best_list[bu].clear();
        self.has_best_list[bu] = false;
        self.bestedge[bu] = NONE;
        self.unused.push(b);
    }

    /// Flips the matching along the even path inside blossom `b` from
    /// vertex `v` to the base, making `v` the new base.
    fn augment_blossom(&mut self, b: u32, v: u32) {
        let n = self.n;
        let bu = b as usize;
        let mut t = v;
        while self.parent[t as usize] != b {
            t = self.parent[t as usize];
        }
        if (t as usize) >= n {
            self.augment_blossom(t, v);
        }
        let len = self.childs[bu].len() as isize;
        let i = self.childs[bu]
            .iter()
            .position(|&c| c == t)
            .expect("child in blossom");
        let mut j = i as isize;
        let (jstep, trick): (isize, u32) = if i & 1 != 0 {
            j -= len;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t = at(&self.childs[bu], j);
            let p = at(&self.endps[bu], j - trick as isize) ^ trick;
            if (t as usize) >= n {
                self.augment_blossom(t, self.ends[p as usize]);
            }
            j += jstep;
            let t = at(&self.childs[bu], j);
            if (t as usize) >= n {
                self.augment_blossom(t, self.ends[(p ^ 1) as usize]);
            }
            self.mate[self.ends[p as usize] as usize] = p ^ 1;
            self.mate[self.ends[(p ^ 1) as usize] as usize] = p;
        }
        self.childs[bu].rotate_left(i);
        self.endps[bu].rotate_left(i);
        self.base[bu] = self.base[self.childs[bu][0] as usize];
        debug_assert_eq!(self.base[bu], v);
    }

    /// Augments the matching along the path through tight edge `k`, which
    /// joins two outer vertices of different trees.
    fn augment_matching(&mut self, k: u32) {
        let n = self.n;
        for (s0, p0) in [
            (self.ends[2 * k as usize], 2 * k + 1),
            (self.ends[2 * k as usize + 1], 2 * k),
        ] {
            let (mut s, mut p) = (s0, p0);
            loop {
                let bs = self.inblossom[s as usize];
                debug_assert_eq!(self.label[bs as usize], OUTER);
                if (bs as usize) >= n {
                    self.augment_blossom(bs, s);
                }
                self.mate[s as usize] = p;
                let le = self.labelend[bs as usize];
                if le == NONE {
                    break;
                }
                let t = self.ends[le as usize];
                let bt = self.inblossom[t as usize];
                debug_assert_eq!(self.label[bt as usize], INNER);
                let lt = self.labelend[bt as usize];
                s = self.ends[lt as usize];
                let j = self.ends[(lt ^ 1) as usize];
                if (bt as usize) >= n {
                    self.augment_blossom(bt, j);
                }
                self.mate[j as usize] = lt;
                p = lt ^ 1;
            }
        }
    }
}

/// Exact canonical matching of one detection-event set: minimum total
/// distance, then fewest west exits (see the module docs for the integer
/// encoding). Poses the event/twin problem on `matcher` and solves it; the
/// matcher keeps the solution and its dual certificate.
pub fn canonical_match(
    graph: &DecodingGraph,
    events: &[DetectionEvent],
    matcher: &mut Matcher,
) -> CanonicalMatch {
    let k = events.len();
    if k == 0 {
        return CanonicalMatch { cost: 0, west: 0 };
    }
    let scale = k as i64 + 1;
    let exit = |e: &DetectionEvent| {
        let west = graph.dist_west(e.stab) as i64 * scale + 1;
        let east = graph.dist_east(e.stab) as i64 * scale;
        west.min(east)
    };
    matcher.clear(2 * k);
    for (i, e) in events.iter().enumerate() {
        matcher.add_edge(i, k + i, exit(e));
    }
    for (i, a) in events.iter().enumerate() {
        let ba = exit(a);
        for (j, b) in events.iter().enumerate().skip(i + 1) {
            let dist = (graph.stab_distance(a.stab, b.stab) + a.round.abs_diff(b.round)) as i64;
            let w = dist * scale;
            if w <= ba + exit(b) {
                matcher.add_edge(i, j, w);
                matcher.add_edge(k + i, k + j, 0);
            }
        }
    }
    let total = matcher
        .solve()
        .expect("every event–twin pair is an edge, so a perfect matching exists");
    CanonicalMatch {
        cost: (total / scale) as u64,
        west: (total % scale) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RotatedSurfaceCode;

    #[test]
    fn triangle_plus_pendant_needs_a_blossom() {
        // Odd cycle 0–1–2 with a pendant 3 on vertex 2: the only perfect
        // matchings are {0–1, 2–3}; the cheap cycle edges force blossoms.
        let mut m = Matcher::new();
        m.clear(4);
        m.add_edge(0, 1, 5);
        m.add_edge(1, 2, 1);
        m.add_edge(0, 2, 1);
        m.add_edge(2, 3, 7);
        assert_eq!(m.solve(), Some(12));
        assert_eq!(m.mate(0), Some(1));
        assert_eq!(m.mate(3), Some(2));
    }

    #[test]
    fn no_perfect_matching_is_reported() {
        let mut m = Matcher::new();
        m.clear(4);
        m.add_edge(0, 1, 1);
        m.add_edge(0, 2, 1);
        m.add_edge(0, 3, 1);
        assert_eq!(m.solve(), None);
    }

    #[test]
    fn lone_events_exit_through_their_nearer_boundary() {
        let code = RotatedSurfaceCode::new(5);
        let graph = DecodingGraph::new(&code, 5);
        let mut m = Matcher::for_events(1);
        for s in 0..code.n_stabilizers() {
            let out = canonical_match(&graph, &[DetectionEvent { stab: s, round: 2 }], &mut m);
            let (w, e) = (graph.dist_west(s), graph.dist_east(s));
            assert_eq!(out.cost as usize, w.min(e), "stab {s}");
            assert_eq!(out.west, usize::from(w < e), "stab {s}");
        }
    }
}
