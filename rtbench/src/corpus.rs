//! Recorded ADC rounds and the real-time path that replays them.
//!
//! [`Recorder`] draws a stream of cycles in the engine's RNG order (per
//! round: data errors, one entropy word, then one `stream_seed`-derived RNG
//! per feedline group), so recorded cycle `c` is cycle `c` of a
//! `CycleEngine` built with the same `CycleConfig`. [`Replayer`] runs the
//! readout → decode path on recorded rounds — discriminate, syndrome commit,
//! perfect round, block write, decode — with synthesis taken out.

use herqles_stream::{stream_seed, AncillaMap, CycleConfig, PrecisionDiscriminator, RoundSynth};
use herqles_telemetry::{now_ns, SpanKind, SpanRing};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::{BasisState, ChipConfig, ShotBatch};
use surface_code::decoder::DecodeOutcome;
use surface_code::{
    decode_block_with, DecodeScratch, NoiseParams, RotatedSurfaceCode, SlidingWindowDecoder,
    SyndromeBlock, SyndromeSim,
};

use crate::trace::Track;

/// The discriminator every workload runs: the type-erased MF design.
pub type Disc = dyn herqles_core::Discriminator;

/// The syndrome stepper's noise: data errors only. Measurement errors come
/// from misdiscriminated readout, as in the engine.
fn noise(cfg: &CycleConfig) -> NoiseParams {
    NoiseParams {
        data_error_prob: cfg.data_error_prob,
        meas_error_prob: 0.0,
    }
}

/// One recorded cycle: the master RNG at its start, and per noisy round the
/// feedline batch and the true stabilizer parities.
pub struct CycleRecord {
    /// Master RNG state before the cycle's first round. Replay redraws the
    /// data errors from it, so the block's final error state is the
    /// recorded one.
    pub start: StdRng,
    /// One batch per noisy round.
    pub batches: Vec<ShotBatch>,
    /// `rounds × n_ancillas` true parities, round-major.
    pub parities: Vec<bool>,
}

impl CycleRecord {
    /// Bytes of ADC samples held by this cycle.
    pub fn adc_bytes(&self) -> usize {
        self.batches
            .iter()
            .map(|b| std::mem::size_of_val(b.as_slice()))
            .sum()
    }
}

/// Draws cycles in the engine's RNG order, synthesizing each round's
/// feedline batch with [`RoundSynth::synth_into_row`].
pub struct Recorder<'a> {
    cfg: CycleConfig,
    map: AncillaMap,
    synth: RoundSynth,
    sim: SyndromeSim<'a>,
    rng: StdRng,
    parities: Vec<bool>,
    /// Wall time of each synthesized round, in ns.
    pub synth_ns: Vec<u64>,
}

impl<'a> Recorder<'a> {
    /// A recorder of the stream `cfg` describes.
    pub fn new(cfg: CycleConfig, chip: &ChipConfig, code: &'a RotatedSurfaceCode) -> Self {
        let map = AncillaMap::new(code.n_stabilizers(), chip.n_qubits());
        Recorder {
            cfg,
            parities: vec![false; map.n_ancillas()],
            map,
            synth: RoundSynth::new(chip),
            sim: SyndromeSim::new(code, &noise(&cfg)),
            rng: StdRng::seed_from_u64(cfg.seed),
            synth_ns: Vec::new(),
        }
    }

    /// Records the stream's next cycle into `rec`, reusing its buffers.
    pub fn record_into(&mut self, rec: &mut CycleRecord) {
        let n_samples = self.synth.n_samples();
        rec.start.clone_from(&self.rng);
        rec.parities.clear();
        rec.batches.resize_with(self.cfg.rounds, || {
            ShotBatch::with_capacity(self.map.n_groups(), n_samples)
        });
        self.sim.reset();
        for batch in &mut rec.batches {
            self.sim.apply_data_errors(&mut self.rng);
            self.sim.true_parities_into(&mut self.parities);
            let entropy: u64 = self.rng.random();
            batch.clear();
            let t0 = now_ns();
            for g in 0..self.map.n_groups() {
                let prepared = self.map.prepared_state(g, &self.parities);
                let mut rng = StdRng::seed_from_u64(stream_seed(entropy, g as u64));
                self.synth.synth_into_row(prepared, batch, &mut rng);
            }
            self.synth_ns.push(now_ns() - t0);
            rec.parities.extend_from_slice(&self.parities);
        }
    }

    /// Records the stream's next cycle into fresh buffers.
    pub fn next_cycle(&mut self) -> CycleRecord {
        let mut rec = CycleRecord {
            start: self.rng.clone(),
            batches: Vec::new(),
            parities: Vec::new(),
        };
        self.record_into(&mut rec);
        rec
    }
}

/// Useful-work counts of one sliding-window block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowWork {
    /// `advance` calls.
    pub advances: u64,
    /// Advances that committed at least one cluster.
    pub committing: u64,
    /// Events handed to a decoder across all advances and the finish.
    pub handed: u64,
}

/// What one replayed cycle produced.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    /// The decoder's verdict.
    pub outcome: DecodeOutcome,
    /// Round 0 in to verdict out, ns.
    pub cycle_ns: u64,
    /// Last noisy round's commit to verdict out, ns.
    pub verdict_ns: u64,
    /// Measured syndrome bits that differ from the true parities.
    pub readout_errors: u64,
    /// Window work counts (zero in whole-block mode).
    pub window: WindowWork,
}

/// Span recorder for one cycle: consecutive laps, each recorded as a span
/// tagged with the cycle id. Without a ring it records nothing and reads
/// the clock only where the caller asks for a timestamp.
pub struct Laps<'r> {
    ring: Option<&'r SpanRing>,
    id: u64,
    last: u64,
}

impl<'r> Laps<'r> {
    /// Starts lapping at `start` (a [`now_ns`] stamp).
    pub fn new(ring: Option<&'r SpanRing>, id: u64, start: u64) -> Self {
        Laps {
            ring,
            id,
            last: start,
        }
    }

    /// Closes the lap running since the previous mark as a `track` span.
    #[inline]
    pub fn mark(&mut self, track: Track) {
        if let Some(ring) = self.ring {
            let t = now_ns();
            ring.record(
                track.kind(),
                track as u32,
                self.last,
                t - self.last,
                self.id,
            );
            self.last = t;
        }
    }

    /// Records a whole-cycle span from `start` to `end`.
    pub fn cycle(&self, start: u64, end: u64) {
        if let Some(ring) = self.ring {
            ring.record(
                SpanKind::Cycle,
                Track::Cycle as u32,
                start,
                end - start,
                self.id,
            );
        }
    }
}

/// The real-time path on recorded rounds, with every working buffer reused.
pub struct Replayer<'a> {
    code: &'a RotatedSurfaceCode,
    disc: &'a Disc,
    map: AncillaMap,
    rounds: usize,
    sim: SyndromeSim<'a>,
    rng: StdRng,
    features: Vec<f64>,
    states: Vec<BasisState>,
    measured: Vec<bool>,
    block: SyndromeBlock,
    scratch: DecodeScratch,
    window: Option<SlidingWindowDecoder>,
}

impl<'a> Replayer<'a> {
    /// A replayer for `cfg`-shaped cycles; `window_lag` selects sliding-window
    /// decode with that lag instead of whole-block decode.
    pub fn new(
        cfg: CycleConfig,
        chip: &ChipConfig,
        code: &'a RotatedSurfaceCode,
        disc: &'a Disc,
        window_lag: Option<usize>,
    ) -> Self {
        let map = AncillaMap::new(code.n_stabilizers(), chip.n_qubits());
        let mut sim = SyndromeSim::new(code, &noise(&cfg));
        sim.reserve_rounds(cfg.rounds);
        let mut scratch = DecodeScratch::prewarmed(code, cfg.rounds);
        let window = window_lag.map(|lag| {
            let mut wd = SlidingWindowDecoder::new(lag);
            wd.reserve_for(scratch.window_parts(code, cfg.rounds).0);
            wd
        });
        Replayer {
            code,
            disc,
            measured: vec![false; map.n_ancillas()],
            map,
            rounds: cfg.rounds,
            sim,
            rng: StdRng::seed_from_u64(0),
            features: Vec::new(),
            states: Vec::with_capacity(16),
            block: SyndromeBlock {
                events: Vec::new(),
                final_errors: vec![false; code.n_data()],
                rounds: 0,
            },
            scratch,
            window,
        }
    }

    /// The block the last replayed cycle decoded.
    pub fn block(&self) -> &SyndromeBlock {
        &self.block
    }

    /// Replays one recorded cycle through discriminate → syndrome commit →
    /// (window advance) → perfect round → block write → decode. With
    /// `count_readout`, also compares every measured bit with the recorded
    /// true parity; that work lands inside the cycle's timestamps, so only
    /// untimed passes ask for it.
    pub fn replay(
        &mut self,
        rec: &CycleRecord,
        laps: &mut Laps<'_>,
        count_readout: bool,
    ) -> Replayed {
        let n_anc = self.map.n_ancillas();
        let mut readout_errors = 0u64;
        let mut work = WindowWork::default();
        let mut fed = 0usize;
        // The block's data errors are simulator work, not readout: redraw
        // every round's flips (and the entropy word each round spent on its
        // synthesis streams) before the clock starts. Flips accumulate by
        // XOR and the measured-syndrome commit does not read them, so the
        // final error state the perfect round and the block need is the
        // recorded one.
        self.sim.reset();
        self.rng.clone_from(&rec.start);
        for _ in 0..rec.batches.len() {
            self.sim.apply_data_errors(&mut self.rng);
            let _entropy: u64 = self.rng.random();
        }
        if let Some(wd) = self.window.as_mut() {
            wd.reset();
        }
        let start = now_ns();
        laps.last = start;
        let mut last_commit = start;
        for (t, batch) in rec.batches.iter().enumerate() {
            self.disc
                .discriminate_shot_batch_r_into(batch, &mut self.features, &mut self.states);
            laps.mark(Track::Discriminate);
            for (a, m) in self.measured.iter_mut().enumerate() {
                let (g, c) = self.map.slot(a);
                *m = self.states[g].qubit(c);
            }
            self.sim.record_measured_syndrome(&self.measured);
            laps.mark(Track::Syndrome);
            if t + 1 == self.rounds {
                last_commit = now_ns();
                laps.last = last_commit;
            }
            if count_readout {
                let truth = &rec.parities[t * n_anc..(t + 1) * n_anc];
                readout_errors += truth
                    .iter()
                    .zip(&self.measured)
                    .filter(|(a, b)| a != b)
                    .count() as u64;
            }
            if let Some(wd) = self.window.as_mut() {
                let events = self.sim.events();
                wd.push_events(&events[fed..]);
                fed = events.len();
                let before = wd.committed_clusters();
                if t >= wd.lag() {
                    work.handed += wd.buffered() as u64;
                }
                let (graph, uf) = self.scratch.window_parts(self.code, self.rounds);
                wd.advance(t, graph, uf);
                work.advances += 1;
                work.committing += u64::from(wd.committed_clusters() > before);
                laps.mark(Track::WindowAdvance);
            }
        }
        self.sim.finish_perfect_round();
        self.sim.write_block(&mut self.block);
        laps.mark(Track::Syndrome);
        let outcome = match self.window.as_mut() {
            None => {
                let out = decode_block_with(self.code, &self.block, &mut self.scratch);
                laps.mark(Track::Decode);
                out
            }
            Some(wd) => {
                wd.push_events(&self.sim.events()[fed..]);
                let out = if wd.committed_clusters() == 0 {
                    // Nothing committed ahead of the block end: the whole
                    // block goes through the standard dispatch, as in the
                    // engine's window mode.
                    work.handed += self.block.events.len() as u64;
                    decode_block_with(self.code, &self.block, &mut self.scratch)
                } else {
                    work.handed += wd.buffered() as u64;
                    let (graph, uf) = self.scratch.window_parts(self.code, self.rounds);
                    let west = wd.finish(graph, uf);
                    DecodeOutcome {
                        n_events: wd.n_events(),
                        west_matches: west,
                        logical_error: self.block.west_column_error_parity(self.code)
                            != (west % 2 == 1),
                        degraded: false,
                    }
                };
                laps.mark(Track::WindowFinish);
                out
            }
        };
        let end = now_ns();
        laps.cycle(start, end);
        Replayed {
            outcome,
            cycle_ns: end - start,
            verdict_ns: end - last_commit,
            readout_errors,
            window: work,
        }
    }
}
