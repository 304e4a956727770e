//! Decoder parity harness: the union-find decoder and the whole-block
//! blossom matcher against the subset-DP oracle, and the streaming window
//! against whole-block decode.
//!
//! The oracle ([`oracle::subset_dp`]) is exact up to its `ORACLE_LIMIT`
//! (14) events; union-find must agree with its `logical_error` verdict, and
//! the blossom matcher with its canonical west count, on *every* such block
//! the simulated streams produce — across distances, rounds, seeds, and
//! noise levels spanning the Fig. 13 operating points up to several times
//! threshold-adjacent rates.
//! (Kernel dispatch never touches the decoder, but CI runs this harness
//! under `HERQLES_KERNEL=scalar` and `auto` so the guarantee is pinned on
//! both arms of every runner.)

mod oracle;

use oracle::{subset_dp, ORACLE_LIMIT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use surface_code::window::SlidingWindowDecoder;
use surface_code::{
    decode_block_exact, decode_block_with, DecodeScratch, DecodingGraph, NoiseParams,
    RotatedSurfaceCode, SyndromeBlock, SyndromeSim, UnionFindScratch, LOCAL_EXACT_LIMIT,
};

#[test]
fn union_find_matches_exact_logical_error_on_all_small_blocks() {
    let mut exercised = 0usize;
    let mut memo = Vec::new();
    for d in [3usize, 5, 7] {
        let code = RotatedSurfaceCode::new(d);
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        for (p_data, p_meas) in [(0.002, 0.002), (0.004, 0.004), (0.01, 0.01), (0.02, 0.015)] {
            let noise = NoiseParams {
                data_error_prob: p_data,
                meas_error_prob: p_meas,
            };
            for seed in 0..12u64 {
                let mut rng = StdRng::seed_from_u64(seed * 7919 + d as u64);
                for _ in 0..60 {
                    let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
                    if block.events.is_empty() || block.events.len() > ORACLE_LIMIT {
                        continue;
                    }
                    let (_, west) = subset_dp(&code, &block.events, &mut memo);
                    let oracle_error = block.west_column_error_parity(&code) != (west % 2 == 1);
                    let uf = decode_block_with(&code, &block, &mut scratch);
                    assert_eq!(
                        uf.logical_error, oracle_error,
                        "d={d} p=({p_data},{p_meas}) seed={seed}: union-find \
                         (west {}) disagrees with the oracle (west {west}) on {:?}",
                        uf.west_matches, block.events
                    );
                    let exact = decode_block_exact(&code, &block, &mut scratch);
                    assert_eq!(
                        exact.west_matches, west,
                        "d={d} p=({p_data},{p_meas}) seed={seed}: blossom west \
                         count disagrees with the oracle on {:?}",
                        block.events
                    );
                    assert_eq!(exact.logical_error, oracle_error);
                    assert_eq!(uf.n_events, exact.n_events);
                    exercised += 1;
                }
            }
        }
    }
    assert!(
        exercised > 3_000,
        "only {exercised} blocks exercised — harness lost its coverage"
    );
}

#[test]
fn union_find_is_deterministic_across_event_orderings() {
    // Dense blocks (past the refinement threshold) under several permutations:
    // the decode must be a function of the event *set*. d = 3 is excluded —
    // its 16 space-time nodes cannot produce more than 14 events.
    for d in [5usize, 7] {
        let code = RotatedSurfaceCode::new(d);
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.05,
        };
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        let mut rng = StdRng::seed_from_u64(42 + d as u64);
        let mut dense_seen = 0usize;
        for _ in 0..60 {
            let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
            if block.events.len() <= LOCAL_EXACT_LIMIT {
                continue;
            }
            dense_seen += 1;
            let base = decode_block_with(&code, &block, &mut scratch);
            let mut permuted = block.clone();
            for _ in 0..5 {
                permuted.events.rotate_left(3);
                permuted.events.reverse();
                let out = decode_block_with(&code, &permuted, &mut scratch);
                assert_eq!(out, base, "d={d}: permutation changed the UF decode");
            }
        }
        assert!(dense_seen > 5, "d={d}: only {dense_seen} dense blocks");
    }
}

#[test]
fn sliding_window_matches_whole_block_across_seeds() {
    // Long multi-window streams: the streamed commit-behind decode must land
    // on exactly the whole-block union-find answer, while genuinely
    // committing work ahead of the block end.
    let mut committed_total = 0usize;
    for d in [3usize, 5, 7] {
        let code = RotatedSurfaceCode::new(d);
        let rounds = 50;
        let lag = d;
        let noise = NoiseParams {
            data_error_prob: 0.004,
            meas_error_prob: 0.004,
        };
        let graph = DecodingGraph::new(&code, rounds);
        let mut uf = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(lag);
        wd.reserve_for(&graph);
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + d as u64);
            let mut sim = SyndromeSim::new(&code, &noise);
            sim.reserve_rounds(rounds);
            let mut fed = 0usize;
            for t in 0..rounds {
                sim.step_round(&mut rng);
                wd.push_events(&sim.events()[fed..]);
                fed = sim.events().len();
                wd.advance(t, &graph, &mut uf);
            }
            sim.finish_perfect_round();
            wd.push_events(&sim.events()[fed..]);
            let streamed = wd.finish(&graph, &mut uf);
            committed_total += wd.committed_clusters();
            let block = sim.into_block();
            let whole = surface_code::uf::decode_events(&graph, &block.events, &mut uf);
            assert_eq!(
                streamed, whole,
                "d={d} seed={seed}: streamed west count diverged from whole-block"
            );
            wd.reset();
        }
    }
    assert!(
        committed_total > 50,
        "streams committed only {committed_total} clusters ahead of block end"
    );
}

#[test]
fn union_find_scales_to_d11_without_ceiling() {
    // The acceptance bar: blocks at d = 11 (and 9) with event counts far
    // past the refinement threshold decode through union-find.
    for d in [9usize, 11] {
        let code = RotatedSurfaceCode::new(d);
        let noise = NoiseParams {
            data_error_prob: 0.01,
            meas_error_prob: 0.01,
        };
        let mut scratch = DecodeScratch::prewarmed(&code, d);
        let mut rng = StdRng::seed_from_u64(d as u64);
        let mut densest = 0usize;
        for _ in 0..20 {
            let block = SyndromeBlock::simulate(&code, &noise, d, &mut rng);
            densest = densest.max(block.events.len());
            let out = decode_block_with(&code, &block, &mut scratch);
            assert_eq!(out.n_events, block.events.len());
            assert!(!out.degraded);
        }
        assert!(
            densest > LOCAL_EXACT_LIMIT,
            "d={d}: densest block only {densest} events"
        );
    }
}
