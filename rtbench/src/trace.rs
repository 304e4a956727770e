//! Spans recorded by the benchmark around each public-layer call, their
//! self times, and the Chrome-trace export.

use std::collections::BTreeMap;

use herqles_telemetry::{ChromeTrace, SpanEvent, SpanKind, SpanRing};

/// Display lane of a span; also the `track` stored in the ring. Engine
/// stage spans, copied from the engine's own ring, land on the `Engine*`
/// lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u32)]
pub enum Track {
    /// One whole cycle: round 0 in to verdict out.
    Cycle = 0,
    /// `CycleEngine::begin_cycle`.
    BeginCycle = 1,
    /// `CycleEngine::step_round`.
    StepRound = 2,
    /// `CycleEngine::finish_cycle`.
    FinishCycle = 3,
    /// Replay: `SyndromeSim` commit, perfect round and block write.
    Syndrome = 4,
    /// Replay: `discriminate_shot_batch_r_into`.
    Discriminate = 5,
    /// Replay: `decode_block_with`.
    Decode = 6,
    /// Replay: push + `SlidingWindowDecoder::advance`.
    WindowAdvance = 7,
    /// Replay: window finish (or whole-block fallback).
    WindowFinish = 8,
    /// Engine stage span: synthesis.
    EngineSynth = 9,
    /// Engine stage span: discrimination.
    EngineDiscriminate = 10,
    /// Engine stage span: syndrome bookkeeping.
    EngineSyndrome = 11,
    /// Engine stage span: decode.
    EngineDecode = 12,
}

pub const ALL_TRACKS: [Track; 13] = [
    Track::Cycle,
    Track::BeginCycle,
    Track::StepRound,
    Track::FinishCycle,
    Track::Syndrome,
    Track::Discriminate,
    Track::Decode,
    Track::WindowAdvance,
    Track::WindowFinish,
    Track::EngineSynth,
    Track::EngineDiscriminate,
    Track::EngineSyndrome,
    Track::EngineDecode,
];

impl Track {
    /// The span kind recorded for this lane.
    pub fn kind(self) -> SpanKind {
        match self {
            Track::Cycle => SpanKind::Cycle,
            Track::BeginCycle | Track::StepRound | Track::FinishCycle => SpanKind::Custom,
            Track::Syndrome | Track::EngineSyndrome => SpanKind::Syndrome,
            Track::Discriminate | Track::EngineDiscriminate => SpanKind::Discriminate,
            Track::Decode | Track::WindowAdvance | Track::WindowFinish | Track::EngineDecode => {
                SpanKind::Decode
            }
            Track::EngineSynth => SpanKind::Synth,
        }
    }

    /// Lane name in the trace viewer.
    pub fn label(self) -> &'static str {
        match self {
            Track::Cycle => "cycle",
            Track::BeginCycle => "engine.begin_cycle",
            Track::StepRound => "engine.step_round",
            Track::FinishCycle => "engine.finish_cycle",
            Track::Syndrome => "syndrome",
            Track::Discriminate => "discriminate",
            Track::Decode => "decode",
            Track::WindowAdvance => "window.advance",
            Track::WindowFinish => "window.finish",
            Track::EngineSynth => "engine/synth",
            Track::EngineDiscriminate => "engine/discriminate",
            Track::EngineSyndrome => "engine/syndrome",
            Track::EngineDecode => "engine/decode",
        }
    }

    fn from_u32(v: u32) -> Option<Track> {
        ALL_TRACKS.get(v as usize).copied()
    }

    /// The lane an engine stage span of `kind` moves to; `None` for the
    /// engine's own cycle span, which overlaps the benchmark's call spans
    /// without nesting in them.
    pub fn for_engine(kind: SpanKind) -> Option<Track> {
        match kind {
            SpanKind::Synth => Some(Track::EngineSynth),
            SpanKind::Discriminate => Some(Track::EngineDiscriminate),
            SpanKind::Syndrome => Some(Track::EngineSyndrome),
            SpanKind::Decode => Some(Track::EngineDecode),
            _ => None,
        }
    }
}

/// A span with its self time and the id of the cycle it belongs to.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub track: Track,
    pub cycle: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part covered by the
/// spans nested directly inside it. Each span is attributed to the cycle
/// span that encloses it (its own id for a cycle span). Spans outside any
/// cycle span are dropped.
pub fn self_times(spans: &[SpanEvent]) -> Vec<Timed> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents before children: earlier start first, longer span first.
    order.sort_by_key(|&i| (spans[i].ts_ns, std::cmp::Reverse(spans[i].dur_ns)));
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut cycle_of: Vec<Option<u64>> = vec![None; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while stack
            .last()
            .is_some_and(|&p| spans[p].end_ns() <= s.ts_ns || spans[p].end_ns() < s.end_ns())
        {
            stack.pop();
        }
        if let Some(&p) = stack.last() {
            self_ns[p] = self_ns[p].saturating_sub(s.dur_ns);
            cycle_of[i] = cycle_of[p];
        }
        if s.kind == SpanKind::Cycle && s.track == Track::Cycle as u32 {
            cycle_of[i] = Some(s.arg);
        }
        stack.push(i);
    }
    spans
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            Some(Timed {
                track: Track::from_u32(s.track)?,
                cycle: cycle_of[i]?,
                dur_ns: s.dur_ns,
                self_ns: self_ns[i],
            })
        })
        .collect()
}

/// Per-lane span durations and per-cycle self-time totals, accumulated
/// over the traced slices of a run.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// Span durations per lane.
    pub durs: BTreeMap<Track, Vec<u64>>,
    /// Per lane, the self time summed over each cycle.
    pub per_cycle_self: BTreeMap<Track, BTreeMap<u64, u64>>,
}

impl LayerTimes {
    /// Folds in one slice's spans.
    pub fn add(&mut self, spans: &[SpanEvent]) {
        for t in self_times(spans) {
            self.durs.entry(t.track).or_default().push(t.dur_ns);
            *self
                .per_cycle_self
                .entry(t.track)
                .or_default()
                .entry(t.cycle)
                .or_default() += t.self_ns;
        }
    }

    /// Span durations of `track` (empty when the lane never ran).
    pub fn durs(&self, track: Track) -> &[u64] {
        self.durs.get(&track).map_or(&[], Vec::as_slice)
    }

    /// Per-cycle self-time totals of `track`, by cycle id.
    pub fn per_cycle(&self, track: Track) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.per_cycle_self
            .get(&track)
            .into_iter()
            .flat_map(|m| m.iter().map(|(&c, &ns)| (c, ns)))
    }
}

/// Spans kept for the Chrome trace.
const TRACE_KEEP: usize = 60_000;

/// The benchmark's span ring plus what has been taken out of it (and out
/// of the engine's own ring) so far.
pub struct Tracer {
    ring: SpanRing,
    seen: u64,
    engine_seen: u64,
    buf: Vec<SpanEvent>,
    /// Per-layer times of every collected span.
    pub layers: LayerTimes,
    /// The first collected spans, for the Chrome trace.
    pub kept: Vec<SpanEvent>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            ring: SpanRing::new(1 << 16),
            seen: 0,
            engine_seen: 0,
            buf: Vec::new(),
            layers: LayerTimes::default(),
            kept: Vec::new(),
        }
    }
}

impl Tracer {
    /// The ring to record into, when `traced`.
    pub fn ring(&self, traced: bool) -> Option<&SpanRing> {
        traced.then_some(&self.ring)
    }

    /// Takes the spans recorded since the last call, plus the engine's
    /// stage spans moved onto the `Engine*` lanes, and folds them into the
    /// per-layer times. The engine ring must be collected (or
    /// [`Tracer::skip_engine`]d) before it wraps.
    pub fn collect(&mut self, engine: Option<&SpanRing>) {
        drain_new(&self.ring, &mut self.seen, &mut self.buf);
        if let Some(engine) = engine {
            let mut spans = Vec::new();
            drain_new(engine, &mut self.engine_seen, &mut spans);
            self.buf.extend(spans.into_iter().filter_map(|mut s| {
                s.track = Track::for_engine(s.kind)? as u32;
                Some(s)
            }));
        }
        self.layers.add(&self.buf);
        if self.kept.len() < TRACE_KEEP {
            self.kept.extend_from_slice(&self.buf);
        }
    }

    /// Marks the engine's spans so far as seen without collecting them.
    pub fn skip_engine(&mut self, engine: &SpanRing) {
        self.engine_seen = engine.recorded();
    }
}

/// The ring's spans recorded from sequence `*seen` on.
fn drain_new(ring: &SpanRing, seen: &mut u64, out: &mut Vec<SpanEvent>) {
    ring.snapshot_into(out);
    out.retain(|s| s.seq >= *seen);
    *seen = ring.recorded();
}

/// Renders spans as Chrome Trace Event Format JSON, one lane per track.
pub fn chrome_json(process: &str, spans: &[SpanEvent]) -> String {
    let mut trace = ChromeTrace::new();
    trace.set_process_name(1, process);
    for track in ALL_TRACKS {
        trace.set_thread_name(1, track as u32, track.label());
    }
    trace.add_spans(1, 0, spans);
    trace.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: Track, ts_ns: u64, dur_ns: u64, arg: u64) -> SpanEvent {
        SpanEvent {
            seq: 0,
            track: track as u32,
            kind: track.kind(),
            ts_ns,
            dur_ns,
            arg,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(Track::Cycle, 100, 100, 7),
            span(Track::StepRound, 110, 50, 7),
            span(Track::EngineSynth, 115, 30, 0),
            span(Track::FinishCycle, 170, 20, 7),
            span(Track::Decode, 300, 5, 8), // outside any cycle
        ];
        let t = self_times(&spans);
        let get = |track| t.iter().find(|x| x.track == track).unwrap();
        assert_eq!(t.len(), 4);
        assert_eq!(get(Track::Cycle).self_ns, 30);
        assert_eq!(get(Track::StepRound).self_ns, 20);
        assert_eq!(get(Track::EngineSynth).self_ns, 30);
        assert!(t.iter().all(|x| x.cycle == 7));
    }
}
