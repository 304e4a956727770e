//! Golden pin of the union-find decoder's peeled path.
//!
//! `uf_parity` checks union-find against the subset-DP oracle, which only
//! reaches blocks of at most 14 events. Dense blocks instead form one large
//! interaction group that keeps the *peeled* west count, so nothing there
//! compares the decoder against an independent answer. This test pins that
//! path bit for bit: it hashes the `decode_events` west count and the
//! `decode_events_commit` result — `(west, committed groups, deferred
//! events)` at several horizons — over fixed seeded dense blocks at
//! d ∈ {5, 7, 9}. The hash was recorded from the full-graph-sweep decoder
//! this implementation replaced, so any change to growth order, unions,
//! tree edges, peeling roots or group commits shows here.

use rand::rngs::StdRng;
use rand::SeedableRng;
use surface_code::syndrome::DetectionEvent;
use surface_code::uf::{decode_events, decode_events_commit};
use surface_code::{
    DecodingGraph, NoiseParams, RotatedSurfaceCode, SyndromeBlock, UnionFindScratch,
    LOCAL_EXACT_LIMIT,
};

/// FNV-1a over a stream of integers.
struct Fnv(u64);

impl Fnv {
    fn push(&mut self, x: usize) {
        for b in (x as u64).to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const GOLDEN: u64 = 0x6143_d548_f02a_7106;

#[test]
fn peeled_decode_matches_recorded_golden_hash() {
    let noise = NoiseParams {
        data_error_prob: 0.01,
        meas_error_prob: 0.09,
    };
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    // One scratch for every distance and block length: the warm path must
    // leave no state behind that a decode on another graph could read.
    let mut scratch = UnionFindScratch::new();
    let mut deferred: Vec<DetectionEvent> = Vec::new();
    let mut dense = 0usize;
    let mut blocks = 0usize;
    for (d, rounds, n_blocks) in [
        (5usize, 9usize, 120usize),
        (7, 7, 80),
        (9, 9, 40),
        (5, 15, 40),
    ] {
        let code = RotatedSurfaceCode::new(d);
        let graph = DecodingGraph::new(&code, rounds);
        let mut rng = StdRng::seed_from_u64(1000 + (d * 100 + rounds) as u64);
        for _ in 0..n_blocks {
            let block = SyndromeBlock::simulate(&code, &noise, rounds, &mut rng);
            blocks += 1;
            dense += usize::from(block.events.len() > LOCAL_EXACT_LIMIT);
            hash.push(block.events.len());
            hash.push(decode_events(&graph, &block.events, &mut scratch));
            for horizon in [0, 1, rounds / 2, rounds - 1, rounds] {
                deferred.clear();
                let (west, committed) = decode_events_commit(
                    &graph,
                    &block.events,
                    horizon,
                    &mut scratch,
                    &mut deferred,
                );
                hash.push(west);
                hash.push(committed);
                hash.push(deferred.len());
                for ev in &deferred {
                    hash.push(ev.stab);
                    hash.push(ev.round);
                }
            }
        }
    }
    assert!(
        dense * 10 > blocks * 8,
        "only {dense} of {blocks} blocks exceed {LOCAL_EXACT_LIMIT} events — the peeled path lost its coverage"
    );
    assert_eq!(
        hash.0, GOLDEN,
        "union-find west counts / commits differ from the recorded golden hash ({:#018x})",
        hash.0
    );
}
