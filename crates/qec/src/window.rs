//! Sliding-window streaming decode on top of the union-find decoder.
//!
//! A [`SlidingWindowDecoder`] consumes detection events round by round and
//! decodes *behind* the stream: when round `t` arrives it runs union-find
//! over everything still buffered and **commits** every interaction group
//! whose spanning trees stay at rounds `≤ t − max(w, d + 1)` (`w` = the
//! configured lag, `d + 1` the union-find interaction radius), accumulating
//! the committed groups' west parity and dropping their events. Groups that
//! reach past the commit horizon are deferred wholesale — kept in the
//! buffer, in arrival order, for re-decoding once more rounds have arrived.
//! Deferring whole groups (instead of cutting them at the seam) is the
//! window-boundary handling: no artificial boundary ever splits a match.
//!
//! [`SlidingWindowDecoder::finish`] decodes the remaining buffer without a
//! horizon and returns the block's total, which equals
//! [`crate::uf::decode_events`] over the full block except in the one corner
//! described below. Every event still to
//! arrive (rounds `> t`) lies more than the interaction radius from every
//! committed event, so it can neither join a committed group through the
//! radius link nor merge with one of its clusters: each union-find cluster
//! grows at most `(d + 1) / 2` edges from its defects before it reaches a
//! boundary, so two clusters only ever merge when they hold defects within
//! `d + 1` of each other. A committed group's clusters therefore grow,
//! merge and get refined exactly as in the whole-block decode. Committing
//! on the lag alone was not enough: a group can sit `lag` rounds behind the
//! stream and still be within `d + 1` of an event that has not arrived.
//! Since the horizon is never less than `d + 1` rounds behind, a lag of
//! `d + 1` or less has no effect; only a larger lag moves the horizon.
//!
//! One corner sits outside this argument, so the window is exact except
//! there. The west and east boundary nodes
//! share a root once any cluster has touched both, and from then on a
//! second boundary contact records no forest edge. So a cluster that
//! touches both boundaries in one growth step is rooted west or east
//! depending on whether some other cluster, possibly a later one, linked
//! the boundaries first. Blossom-refined groups (at most
//! [`crate::LOCAL_EXACT_LIMIT`] events) are a function of their event set
//! and never see this; only a larger group's peeled west count can.
//!
//! All rounds are absolute block rounds: events are never rebased, the
//! decoding graph spans the whole block, and the caller owns both the graph
//! and the [`UnionFindScratch`], so warm streaming decodes are
//! allocation-free.

use crate::graph::DecodingGraph;
use crate::syndrome::DetectionEvent;
use crate::uf::{decode_events, decode_events_commit, interaction_radius, UnionFindScratch};

/// Streaming window state for one block. Reused across blocks via
/// [`SlidingWindowDecoder::reset`]; buffers keep their capacity.
#[derive(Debug, Clone)]
pub struct SlidingWindowDecoder {
    /// Commit lag `w`: with round `t` fed, groups confined to rounds
    /// `≤ t − max(w, d + 1)` commit, so any `w ≤ d + 1` acts as `d + 1`.
    lag: usize,
    /// Uncommitted events, in arrival order.
    buf: Vec<DetectionEvent>,
    /// Swap buffer for the deferred set.
    keep: Vec<DetectionEvent>,
    /// West-boundary edges of committed clusters.
    west: usize,
    /// Clusters committed before [`SlidingWindowDecoder::finish`].
    committed_clusters: usize,
    /// Events consumed this block (committed + still buffered).
    n_events: usize,
}

impl SlidingWindowDecoder {
    /// A window decoder with commit lag `w ≥ 1`. Groups commit only once
    /// `max(w, d + 1)` rounds behind the stream (see the module docs), so
    /// any lag up to `d + 1` behaves the same.
    ///
    /// # Panics
    ///
    /// Panics if `lag == 0` (committing the round currently arriving would
    /// race the events still being measured).
    pub fn new(lag: usize) -> Self {
        assert!(lag >= 1, "sliding-window lag must be at least one round");
        SlidingWindowDecoder {
            lag,
            buf: Vec::new(),
            keep: Vec::new(),
            west: 0,
            committed_clusters: 0,
            n_events: 0,
        }
    }

    /// Pre-reserves event buffers for blocks on `graph` (every space-time
    /// node could fire at most once), making warm streaming allocation-free.
    pub fn reserve_for(&mut self, graph: &DecodingGraph) {
        let cap = graph.n_nodes();
        self.buf.reserve(cap.saturating_sub(self.buf.capacity()));
        self.keep.reserve(cap.saturating_sub(self.keep.capacity()));
    }

    /// The configured commit lag.
    pub fn lag(&self) -> usize {
        self.lag
    }

    /// West parity accumulated from committed clusters so far.
    pub fn committed_west(&self) -> usize {
        self.west
    }

    /// Clusters committed ahead of the block end so far.
    pub fn committed_clusters(&self) -> usize {
        self.committed_clusters
    }

    /// Events fed this block.
    pub fn n_events(&self) -> usize {
        self.n_events
    }

    /// Events currently buffered (not yet committed).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Clears per-block state for the next block, keeping capacity.
    pub fn reset(&mut self) {
        self.buf.clear();
        self.keep.clear();
        self.west = 0;
        self.committed_clusters = 0;
        self.n_events = 0;
    }

    /// Feeds newly arrived events (any rounds up to the round about to be
    /// advanced past).
    pub fn push_events(&mut self, events: &[DetectionEvent]) {
        self.buf.extend_from_slice(events);
        self.n_events += events.len();
    }

    /// Round `t` has fully arrived: decode the buffer and commit groups
    /// confined to rounds `≤ t − max(lag, d + 1)`, which no later event can
    /// interact with. No-op until the stream is that many rounds deep or
    /// while nothing is buffered.
    pub fn advance(&mut self, t: usize, graph: &DecodingGraph, scratch: &mut UnionFindScratch) {
        let behind = self.lag.max(interaction_radius(graph));
        if t < behind || self.buf.is_empty() {
            return;
        }
        let horizon = t - behind;
        self.keep.clear();
        let (west, clusters) =
            decode_events_commit(graph, &self.buf, horizon, scratch, &mut self.keep);
        self.west += west;
        self.committed_clusters += clusters;
        std::mem::swap(&mut self.buf, &mut self.keep);
    }

    /// Ends the block: decodes whatever is still buffered (no horizon) and
    /// returns the block's total west count. The decoder is left ready for
    /// [`SlidingWindowDecoder::reset`].
    pub fn finish(&mut self, graph: &DecodingGraph, scratch: &mut UnionFindScratch) -> usize {
        if !self.buf.is_empty() {
            self.west += decode_events(graph, &self.buf, scratch);
            self.buf.clear();
        }
        self.west
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::RotatedSurfaceCode;
    use crate::syndrome::{NoiseParams, SyndromeSim};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Streams a simulated long block through the window round by round and
    /// compares against the whole-block union-find decode.
    #[test]
    fn streamed_decode_matches_whole_block_on_long_streams() {
        for (d, rounds, lag, seed) in [(3, 40, 3, 1u64), (5, 60, 4, 2), (7, 48, 5, 3)] {
            let code = RotatedSurfaceCode::new(d);
            let noise = NoiseParams {
                data_error_prob: 0.004,
                meas_error_prob: 0.004,
            };
            let graph = DecodingGraph::new(&code, rounds);
            let mut scratch = UnionFindScratch::for_graph(&graph);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = SyndromeSim::new(&code, &noise);
            sim.reserve_rounds(rounds);
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(&graph);
            let mut fed = 0usize;
            for t in 0..rounds {
                sim.step_round(&mut rng);
                wd.push_events(&sim.events()[fed..]);
                fed = sim.events().len();
                wd.advance(t, &graph, &mut scratch);
            }
            sim.finish_perfect_round();
            wd.push_events(&sim.events()[fed..]);
            let streamed = wd.finish(&graph, &mut scratch);
            let block = sim.into_block();
            let whole = decode_events(&graph, &block.events, &mut scratch);
            assert_eq!(
                streamed, whole,
                "d={d} rounds={rounds} lag={lag}: streamed west diverged"
            );
            assert_eq!(wd.n_events(), block.events.len());
            assert!(
                wd.committed_clusters() > 0,
                "d={d}: long stream never committed ahead of the block end"
            );
        }
    }

    /// Dense short blocks with a short lag: many groups sit within the
    /// interaction radius of events that arrive more than `lag` rounds
    /// later, so committing on the lag alone would split groups the
    /// whole-block decode refines jointly.
    #[test]
    fn streamed_parity_matches_whole_block_when_events_arrive_past_the_lag() {
        let mut failures = Vec::new();
        for (d, lag, p_meas, seed) in [(3usize, 2usize, 0.09, 11u64), (5, 3, 0.05, 12)] {
            let rounds = 15;
            let code = RotatedSurfaceCode::new(d);
            let noise = NoiseParams {
                data_error_prob: 0.004,
                meas_error_prob: p_meas,
            };
            let graph = DecodingGraph::new(&code, rounds);
            let mut scratch = UnionFindScratch::for_graph(&graph);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sim = SyndromeSim::new(&code, &noise);
            sim.reserve_rounds(rounds);
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(&graph);
            let mut mismatches = 0usize;
            let mut committed = 0usize;
            for _ in 0..3000 {
                sim.reset();
                wd.reset();
                let mut fed = 0usize;
                for t in 0..rounds {
                    sim.step_round(&mut rng);
                    wd.push_events(&sim.events()[fed..]);
                    fed = sim.events().len();
                    wd.advance(t, &graph, &mut scratch);
                }
                sim.finish_perfect_round();
                wd.push_events(&sim.events()[fed..]);
                let streamed = wd.finish(&graph, &mut scratch);
                committed += wd.committed_clusters();
                let whole = decode_events(&graph, sim.events(), &mut scratch);
                mismatches += usize::from(streamed % 2 != whole % 2);
            }
            assert!(committed > 0, "d={d}: nothing committed ahead of block end");
            failures.push((d, lag, mismatches));
        }
        assert!(
            failures.iter().all(|&(_, _, m)| m == 0),
            "(d, lag, blocks of 3000 whose streamed parity differs from whole-block): {failures:?}"
        );
    }

    #[test]
    fn quiet_stream_commits_nothing_and_finishes_clean() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 10);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(2);
        for t in 0..10 {
            wd.advance(t, &graph, &mut scratch);
        }
        assert_eq!(wd.finish(&graph, &mut scratch), 0);
        assert_eq!(wd.committed_clusters(), 0);
        assert_eq!(wd.n_events(), 0);
    }

    #[test]
    fn reset_reuses_buffers_across_blocks() {
        let code = RotatedSurfaceCode::new(3);
        let graph = DecodingGraph::new(&code, 8);
        let mut scratch = UnionFindScratch::for_graph(&graph);
        let mut wd = SlidingWindowDecoder::new(2);
        wd.reserve_for(&graph);
        for _ in 0..3 {
            wd.push_events(&[
                DetectionEvent { stab: 0, round: 0 },
                DetectionEvent { stab: 0, round: 1 },
            ]);
            for t in 0..8 {
                wd.advance(t, &graph, &mut scratch);
            }
            let west = wd.finish(&graph, &mut scratch);
            assert_eq!(west, 0, "vertical pair never exits west");
            assert_eq!(wd.n_events(), 2);
            wd.reset();
        }
    }
}
