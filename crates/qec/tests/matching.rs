//! The blossom matcher against the subset-DP oracle, and its dual
//! certificate beyond the oracle's reach.
//!
//! * Differential: random event sets of 1–14 events at d ∈ {3, 5, 7, 9}
//!   must get exactly the oracle's canonical `(cost, west)`, under any
//!   listing order of the events.
//! * Certificate: on random 15–60-event sets the matcher's final duals must
//!   prove its matching optimal — every edge slack non-negative, matched
//!   edges tight, odd-set duals non-negative and carried only by full
//!   blossoms, and the dual objective equal to the matching cost. The
//!   certificate is checked on the pruned event graph the decoder solves
//!   *and* on the complete graph built here by hand, whose optimum must be
//!   the same: the pruned edges never matter.
//! * General graphs: on small random graphs the matcher's minimum must
//!   equal brute-force enumeration, certificate included.

mod oracle;

use oracle::{subset_dp, ORACLE_LIMIT};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use surface_code::syndrome::DetectionEvent;
use surface_code::{canonical_match, DecodingGraph, Matcher, RotatedSurfaceCode};

/// Distinct events on a `d`-distance, `d`-round block, one per pick
/// (duplicates dropped), in pick order.
fn events_from(d: usize, picks: &[usize]) -> Vec<DetectionEvent> {
    let code = RotatedSurfaceCode::new(d);
    let n_stabs = code.n_stabilizers();
    let mut seen = vec![false; n_stabs * (d + 1)];
    let mut events = Vec::new();
    for &p in picks {
        let node = p % seen.len();
        if !seen[node] {
            seen[node] = true;
            events.push(DetectionEvent {
                stab: node % n_stabs,
                round: node / n_stabs,
            });
        }
    }
    events
}

/// Fisher–Yates shuffle driven by `seed`.
fn shuffled(events: &[DetectionEvent], seed: u64) -> Vec<DetectionEvent> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = events.to_vec();
    for i in (1..out.len()).rev() {
        let j = rng.random_range(0..i + 1);
        out.swap(i, j);
    }
    out
}

/// Checks the matcher's dual certificate for its last solve and returns the
/// certified minimum cost. See [`Matcher::vertex_dual`] for the conditions.
fn certified_cost(m: &Matcher, n_vertices: usize) -> i64 {
    for v in 0..n_vertices {
        let u = m.mate(v).expect("perfect matching");
        assert_eq!(m.mate(u), Some(v), "mate of mate of {v}");
    }
    let sets = m.odd_sets();
    let mut member = vec![vec![false; n_vertices]; sets.len()];
    for (s, (z, vs)) in sets.iter().enumerate() {
        assert!(*z >= 0, "odd-set dual {z} < 0");
        assert_eq!(vs.len() % 2, 1, "blossom of even size {}", vs.len());
        for &v in vs {
            member[s][v] = true;
        }
        if *z > 0 {
            // A blossom with a positive dual is full: all but its base's
            // vertex are matched inside it.
            let inside = vs
                .iter()
                .filter(|&&v| member[s][m.mate(v).unwrap()])
                .count();
            assert_eq!(inside, vs.len() - 1, "non-full blossom with dual {z}");
        }
    }
    let mut cost = 0i64;
    let mut matched = 0usize;
    for k in 0..m.n_edges() {
        let (i, j, c) = m.edge(k);
        let shared: i64 = sets
            .iter()
            .enumerate()
            .filter(|&(s, _)| member[s][i] && member[s][j])
            .map(|(_, (z, _))| z)
            .sum();
        let slack = 2 * c - m.vertex_dual(i) - m.vertex_dual(j) + 2 * shared;
        assert!(slack >= 0, "edge {i}–{j} (cost {c}) has slack {slack}");
        if m.is_matched(k) {
            assert_eq!(slack, 0, "matched edge {i}–{j} is not tight");
            cost += c;
            matched += 1;
        }
    }
    assert_eq!(
        2 * matched,
        n_vertices,
        "matched edges cover every vertex once"
    );
    let dual: i64 = (0..n_vertices).map(|v| m.vertex_dual(v)).sum::<i64>()
        - sets
            .iter()
            .map(|(z, vs)| z * (vs.len() as i64 - 1))
            .sum::<i64>();
    assert_eq!(dual, 2 * cost, "duality gap");
    cost
}

/// The complete event/twin graph with no edge pruned, posed by hand.
fn complete_problem(graph: &DecodingGraph, events: &[DetectionEvent], m: &mut Matcher) {
    let k = events.len();
    let scale = k as i64 + 1;
    m.clear(2 * k);
    for (i, e) in events.iter().enumerate() {
        let west = graph.dist_west(e.stab) as i64 * scale + 1;
        let east = graph.dist_east(e.stab) as i64 * scale;
        m.add_edge(i, k + i, west.min(east));
        for (j, f) in events.iter().enumerate().skip(i + 1) {
            let dist = graph.stab_distance(e.stab, f.stab) + e.round.abs_diff(f.round);
            m.add_edge(i, j, dist as i64 * scale);
            m.add_edge(k + i, k + j, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn blossom_equals_subset_dp_under_permutations(
        d in prop::sample::select(vec![3usize, 5, 7, 9]),
        picks in collection::vec(0usize..1_000_000, 1..15),
        seed in any::<u64>(),
    ) {
        let code = RotatedSurfaceCode::new(d);
        let graph = DecodingGraph::new(&code, d);
        let events = events_from(d, &picks);
        prop_assert!(!events.is_empty() && events.len() <= ORACLE_LIMIT);
        let (cost, west) = subset_dp(&code, &events, &mut Vec::new());
        let mut m = Matcher::new();
        let out = canonical_match(&graph, &events, &mut m);
        prop_assert_eq!((out.cost, out.west), (cost, west), "events {:?}", events);
        let mut reversed = events.clone();
        reversed.reverse();
        for perm in [shuffled(&events, seed), reversed] {
            let p = canonical_match(&graph, &perm, &mut m);
            prop_assert_eq!(p, out, "permutation {:?}", perm);
        }
    }

    #[test]
    fn dual_certificate_holds_beyond_the_oracle(
        d in prop::sample::select(vec![5usize, 7, 9]),
        picks in collection::vec(0usize..1_000_000, 15..61),
    ) {
        let code = RotatedSurfaceCode::new(d);
        let graph = DecodingGraph::new(&code, d);
        let events = events_from(d, &picks);
        prop_assume!(events.len() >= 15);
        let mut m = Matcher::new();
        let out = canonical_match(&graph, &events, &mut m);
        let scale = events.len() as i64 + 1;
        let pruned = certified_cost(&m, 2 * events.len());
        prop_assert_eq!(pruned, out.cost as i64 * scale + out.west as i64);

        let mut full = Matcher::new();
        complete_problem(&graph, &events, &mut full);
        prop_assert!(full.n_edges() >= m.n_edges());
        prop_assert_eq!(full.solve(), Some(pruned));
        prop_assert_eq!(certified_cost(&full, 2 * events.len()), pruned);
    }

    #[test]
    fn general_graphs_match_brute_force(
        half in 1usize..6,
        density in 0.3..1.0f64,
        seed in any::<u64>(),
    ) {
        let n = 2 * half;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        let mut m = Matcher::new();
        m.clear(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.random::<f64>() < density {
                    // Few distinct costs: plenty of ties and odd cycles.
                    let c = rng.random_range(0..6i64);
                    edges.push((i, j, c));
                    m.add_edge(i, j, c);
                }
            }
        }
        let best = brute_force(&edges, &mut vec![false; n]);
        let got = m.solve();
        prop_assert_eq!(got, best, "edges {:?}", edges);
        if let Some(cost) = got {
            prop_assert_eq!(certified_cost(&m, n), cost);
        }
    }
}

/// Minimum perfect-matching cost over `edges` (each `(i, j, cost)` with
/// `i < j`) by exhaustive pairing of the lowest unused vertex.
fn brute_force(edges: &[(usize, usize, i64)], used: &mut [bool]) -> Option<i64> {
    let Some(i) = used.iter().position(|&u| !u) else {
        return Some(0);
    };
    used[i] = true;
    let mut best: Option<i64> = None;
    for &(a, j, c) in edges {
        if a == i && !used[j] {
            used[j] = true;
            if let Some(rest) = brute_force(edges, used) {
                best = Some(best.map_or(c + rest, |b| b.min(c + rest)));
            }
            used[j] = false;
        }
    }
    used[i] = false;
    best
}

#[test]
fn sized_matcher_is_reused_across_sizes() {
    // One matcher, sized once, decodes growing and shrinking sets with the
    // same answers as fresh matchers.
    let code = RotatedSurfaceCode::new(7);
    let graph = DecodingGraph::new(&code, 7);
    let mut warm = Matcher::for_events(ORACLE_LIMIT);
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..50 {
        let len = rng.random_range(1..ORACLE_LIMIT + 1);
        let picks: Vec<usize> = (0..len).map(|_| rng.random_range(0..1_000_000)).collect();
        let events = events_from(7, &picks);
        let fresh = canonical_match(&graph, &events, &mut Matcher::new());
        assert_eq!(canonical_match(&graph, &events, &mut warm), fresh);
    }
}
