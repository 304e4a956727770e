//! Block decoders: the union-find decoder with exact group refinement, and
//! whole-block exact matching.
//!
//! Every block goes to the union-find decoder ([`crate::uf`]) on the
//! precomputed decoding graph ([`crate::graph`]): near-linear cluster growth
//! and peeling, then exact canonical re-matching of every interaction group
//! of at most [`crate::uf::LOCAL_EXACT_LIMIT`] events by the blossom matcher
//! ([`crate::matching`]). That makes it exact on every block of at most 14
//! events, with no defect-count ceiling above. [`decode_block_exact`] runs
//! the same blossom matcher over the whole block instead: the exact
//! reference decode at any size, in O(k³) for `k` events.
//!
//! # Logical-class bookkeeping
//!
//! With the layout of [`crate::layout`], correction paths between two
//! stabilizer nodes never traverse west-column data qubits (those qubits
//! touch exactly one Z-stabilizer, so they only appear on stabilizer-to-
//! boundary edges). Therefore only west-boundary matches flip the `X`
//! logical class, and the decoders just count them.
//!
//! # Canonical tie-breaking
//!
//! Minimum-weight matchings are frequently non-unique, and co-optimal
//! solutions can disagree on west-match parity. The exact matcher therefore
//! minimizes the pair `(cost, west matches)` lexicographically — encoded in
//! integer edge weights so the minimum total weight is unique — making
//! `west_matches` (and hence `logical_error`) a canonical function of the
//! event *set*, independent of enumeration order. The union-find decoder is
//! deterministic and order-independent by construction (fixed node-order
//! growth sweeps, canonical group refinement).

use crate::graph::DecodingGraph;
use crate::layout::RotatedSurfaceCode;
use crate::matching::{canonical_match, Matcher};
use crate::syndrome::SyndromeBlock;
use crate::uf::{self, UnionFindScratch};

/// Outcome of decoding one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Number of detection events decoded.
    pub n_events: usize,
    /// Number of west-boundary matches in the correction: canonical exact
    /// matches, summed over interaction groups, plus the peeled west edges
    /// of any group past [`crate::uf::LOCAL_EXACT_LIMIT`].
    pub west_matches: usize,
    /// Whether the block ends in a logical `X` error (correction applied to
    /// the residual error state flips the logical class).
    pub logical_error: bool,
    /// Whether decoding this block overran its real-time budget. The block
    /// decoders themselves never set this: it is stamped by streaming
    /// callers running sliding-window decode under a latency budget (see
    /// `herqles-stream`'s `CycleEngine::set_decode_budget_ns`). The
    /// historical meaning — "fell back to the greedy matcher" — is gone
    /// along with the greedy matcher itself.
    pub degraded: bool,
}

impl Default for DecodeOutcome {
    /// The outcome of an empty block: nothing decoded, no error.
    fn default() -> Self {
        DecodeOutcome {
            n_events: 0,
            west_matches: 0,
            logical_error: false,
            degraded: false,
        }
    }
}

/// Reusable working memory for [`decode_block_with`].
///
/// Owns the union-find scratch (with its group matcher), the decoding graph
/// (rebuilt only when the code distance or block length changes — never on
/// the warm path), and a whole-block matcher for [`decode_block_exact`]. A
/// scratch built with [`DecodeScratch::prewarmed`] decodes any block of its
/// `(code, rounds)` envelope through [`decode_block_with`] without touching
/// the heap; `crates/stream/tests/alloc.rs` pins warm whole cycles at
/// exactly zero allocations on top of this.
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    graph: Option<DecodingGraph>,
    uf: UnionFindScratch,
    matcher: Matcher,
}

impl DecodeScratch {
    /// An empty scratch; buffers and the graph build on first use.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// A scratch pre-sized for blocks of up to `rounds` noisy rounds on
    /// `code`: the decoding graph is built eagerly, the union-find arrays
    /// cover every space-time node, and the group matcher covers
    /// [`crate::uf::LOCAL_EXACT_LIMIT`] events. Sized from the worst case,
    /// not a guess — a block within the envelope never grows it through
    /// [`decode_block_with`], no matter how dense its syndrome gets under
    /// fault injection. (The whole-block matcher of [`decode_block_exact`]
    /// is off the streaming path and grows on first use.)
    pub fn prewarmed(code: &RotatedSurfaceCode, rounds: usize) -> Self {
        let graph = DecodingGraph::new(code, rounds);
        let uf = UnionFindScratch::for_graph(&graph);
        DecodeScratch {
            graph: Some(graph),
            uf,
            matcher: Matcher::new(),
        }
    }

    /// The decoding graph for `(code, rounds)`, rebuilding only on a
    /// distance or block-length change (the cold path).
    fn ensure_graph(&mut self, code: &RotatedSurfaceCode, rounds: usize) -> &DecodingGraph {
        let rebuild = match &self.graph {
            Some(g) => g.distance() != code.distance() || g.layers() < rounds + 1,
            None => true,
        };
        if rebuild {
            let graph = DecodingGraph::new(code, rounds);
            self.uf = UnionFindScratch::for_graph(&graph);
            self.graph = Some(graph);
        }
        self.graph.as_ref().expect("graph just ensured")
    }

    /// Borrows the graph and union-find scratch together, for callers that
    /// drive the union-find decoder directly (the sliding-window streaming
    /// path). Rebuilds the graph only on an envelope change.
    pub fn window_parts(
        &mut self,
        code: &RotatedSurfaceCode,
        rounds: usize,
    ) -> (&DecodingGraph, &mut UnionFindScratch) {
        self.ensure_graph(code, rounds);
        (
            self.graph.as_ref().expect("graph just ensured"),
            &mut self.uf,
        )
    }
}

/// Decodes a block and determines the logical class.
///
/// Every block goes to the union-find decoder with exact group refinement,
/// which has no defect-count ceiling and agrees with
/// [`decode_block_exact`] on every block of at most
/// [`crate::uf::LOCAL_EXACT_LIMIT`] events.
///
/// Allocates its working memory per call; hot loops that decode many blocks
/// hold a [`DecodeScratch`] and call [`decode_block_with`], which is
/// identical in outcome and allocation-free once warm.
pub fn decode_block(code: &RotatedSurfaceCode, block: &SyndromeBlock) -> DecodeOutcome {
    decode_block_with(code, block, &mut DecodeScratch::new())
}

/// [`decode_block`] against caller-owned working memory: same outcome for
/// every block, zero heap allocation once `scratch` covers the block's
/// `(code, rounds)` envelope (see [`DecodeScratch::prewarmed`]).
pub fn decode_block_with(
    code: &RotatedSurfaceCode,
    block: &SyndromeBlock,
    scratch: &mut DecodeScratch,
) -> DecodeOutcome {
    scratch.ensure_graph(code, block.rounds);
    let graph = scratch.graph.as_ref().expect("graph just ensured");
    let west_matches = uf::decode_events(graph, &block.events, &mut scratch.uf);
    outcome(code, block, west_matches)
}

/// Exact whole-block decode: canonical minimum-weight matching of every
/// event by the blossom matcher, at any event count.
pub fn decode_block_exact(
    code: &RotatedSurfaceCode,
    block: &SyndromeBlock,
    scratch: &mut DecodeScratch,
) -> DecodeOutcome {
    scratch.ensure_graph(code, block.rounds);
    let graph = scratch.graph.as_ref().expect("graph just ensured");
    let west_matches = canonical_match(graph, &block.events, &mut scratch.matcher).west;
    outcome(code, block, west_matches)
}

/// The outcome of correcting `block` with `west_matches` west exits.
fn outcome(code: &RotatedSurfaceCode, block: &SyndromeBlock, west_matches: usize) -> DecodeOutcome {
    let error_parity = block.west_column_error_parity(code);
    DecodeOutcome {
        n_events: block.events.len(),
        west_matches,
        logical_error: error_parity != (west_matches % 2 == 1),
        degraded: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syndrome::{DetectionEvent, NoiseParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn code() -> RotatedSurfaceCode {
        RotatedSurfaceCode::new(5)
    }

    /// Builds a block with a hand-placed error set and perfect measurements.
    fn block_with_errors(code: &RotatedSurfaceCode, error_qubits: &[usize]) -> SyndromeBlock {
        let mut errors = vec![false; code.n_data()];
        for &q in error_qubits {
            errors[q] = true;
        }
        let mut events = Vec::new();
        for (s, stab) in code.stabilizers().iter().enumerate() {
            let mut parity = false;
            for &q in &stab.support {
                parity ^= errors[q];
            }
            if parity {
                events.push(DetectionEvent { stab: s, round: 0 });
            }
        }
        SyndromeBlock {
            events,
            final_errors: errors,
            rounds: 1,
        }
    }

    #[test]
    fn empty_block_decodes_cleanly() {
        let c = code();
        let block = block_with_errors(&c, &[]);
        let out = decode_block(&c, &block);
        assert!(!out.logical_error);
        assert_eq!(out.n_events, 0);
        assert_eq!(out, DecodeOutcome::default());
    }

    #[test]
    fn every_single_qubit_error_is_corrected() {
        let c = code();
        for q in 0..c.n_data() {
            let block = block_with_errors(&c, &[q]);
            let out = decode_block(&c, &block);
            assert!(!out.logical_error, "single error on qubit {q} mis-decoded");
        }
    }

    #[test]
    fn every_adjacent_pair_error_is_corrected() {
        // Any two-qubit error is weight 2 < d/2, must be correctable at d=5.
        let c = code();
        for q in 0..c.n_data() {
            let row = q / 5;
            let col = q % 5;
            if col + 1 < 5 {
                let block = block_with_errors(&c, &[q, row * 5 + col + 1]);
                let out = decode_block(&c, &block);
                assert!(
                    !out.logical_error,
                    "pair error at ({row},{col}) mis-decoded"
                );
            }
        }
    }

    #[test]
    fn full_logical_row_is_a_logical_error() {
        // A complete row of X errors has trivial syndrome; the decoder does
        // nothing and the class flips: this must be reported as a logical
        // error.
        let c = code();
        let row: Vec<usize> = (0..5).collect();
        let block = block_with_errors(&c, &row);
        assert!(block.events.is_empty(), "logical row must be undetectable");
        let out = decode_block(&c, &block);
        assert!(out.logical_error);
    }

    #[test]
    fn exact_tie_break_is_canonical_over_event_orderings() {
        // Co-optimal matchings must not let the enumeration order pick the
        // west parity: decode every block under many event permutations and
        // demand one canonical (west_matches, logical_error) answer. Seeded
        // blocks at d=5 routinely contain co-optimal sets; a rotation +
        // reversal sweep exercises distinct reconstruction orders.
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.015,
            meas_error_prob: 0.01,
        };
        let mut rng = StdRng::seed_from_u64(97);
        let mut scratch = DecodeScratch::new();
        let mut checked = 0;
        for _ in 0..400 {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if block.events.is_empty() {
                continue;
            }
            let base = decode_block_exact(&c, &block, &mut scratch);
            let mut permuted = block.clone();
            for rot in 0..permuted.events.len() {
                permuted.events.rotate_left(1);
                let out = decode_block_exact(&c, &permuted, &mut scratch);
                assert_eq!(out, base, "rotation {rot} changed the exact decode");
                permuted.events.reverse();
                let out = decode_block_exact(&c, &permuted, &mut scratch);
                assert_eq!(out, base, "reversal after rotation {rot} changed it");
                permuted.events.reverse();
            }
            checked += 1;
        }
        assert!(checked > 100, "only {checked} blocks exercised");
    }

    #[test]
    fn dispatch_handles_dense_blocks_without_ceiling() {
        // Dense multi-round blocks at d=7, with groups past the refinement
        // threshold, must decode through the union-find path.
        let c = RotatedSurfaceCode::new(7);
        let noise = NoiseParams {
            data_error_prob: 0.05,
            meas_error_prob: 0.05,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = DecodeScratch::prewarmed(&c, 7);
        let mut densest = 0;
        for _ in 0..50 {
            let block = SyndromeBlock::simulate(&c, &noise, 7, &mut rng);
            densest = densest.max(block.events.len());
            let out = decode_block_with(&c, &block, &mut scratch);
            assert_eq!(out.n_events, block.events.len());
            assert!(!out.degraded, "block decoders never set degraded");
        }
        assert!(
            densest > crate::uf::LOCAL_EXACT_LIMIT,
            "noise too low to exercise UF"
        );
    }

    #[test]
    fn decoder_beats_raw_error_rate_below_threshold() {
        // At p well below threshold the decoded logical rate must be far
        // below the probability of any error occurring.
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.01,
            meas_error_prob: 0.005,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let blocks = 2_000;
        let mut failures = 0;
        for _ in 0..blocks {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if decode_block(&c, &block).logical_error {
                failures += 1;
            }
        }
        let logical = failures as f64 / blocks as f64;
        // Raw chance of ≥1 data error in the block is ≈ 1−(1−p)^{25·5} ≈ 0.71.
        assert!(logical < 0.1, "logical rate {logical}");
    }

    #[test]
    fn measurement_errors_alone_cause_no_logical_errors_often() {
        // Pure measurement noise creates time-like strings that the decoder
        // should almost always match vertically (no data correction).
        let c = code();
        let noise = NoiseParams {
            data_error_prob: 0.0,
            meas_error_prob: 0.02,
        };
        let mut rng = StdRng::seed_from_u64(13);
        let mut failures = 0;
        for _ in 0..1_000 {
            let block = SyndromeBlock::simulate(&c, &noise, 5, &mut rng);
            if decode_block(&c, &block).logical_error {
                failures += 1;
            }
        }
        assert!(
            failures < 20,
            "{failures} failures from measurement noise alone"
        );
    }
}
