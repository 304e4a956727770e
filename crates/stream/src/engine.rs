//! The streaming QEC-cycle engine.
//!
//! [`CycleEngine`] runs full distance-`d` surface-code cycles as one batch
//! pipeline: each noisy round it applies data errors, reads the true
//! stabilizer parities, synthesizes every ancilla group's multiplexed
//! readout waveform directly into a reusable [`ShotBatch`], discriminates
//! the batch through the fused demod + matched-filter kernel, and commits
//! the *measured* syndrome to a [`SyndromeSim`] — the measurement error εR
//! emerges from physical misdiscrimination instead of a phenomenological
//! coin flip. Blocks terminate with a perfect round, are copied into one of
//! two double-buffered [`SyndromeBlock`] homes, and decoded.
//!
//! After a warm-up cycle the per-round path performs **zero heap
//! allocation**: every buffer ([`RoundBuffers`], the synth scratch, the
//! syndrome stepper's event store) is pre-sized and reused. The engine
//! exposes a blocking [`CycleEngine::run_cycles`] API and a pull-based
//! [`CycleEngine::cycles`] iterator of [`CycleResult`]s carrying per-stage
//! nanosecond timings.
//!
//! # Parallel execution
//!
//! [`CycleEngine::with_pool`] attaches a [`herqles_exec::ShardPool`] and
//! turns the engine into a [`ParallelCycleEngine`]: each feedline group
//! becomes a shard owning its own [`RoundSynth`] (synthesis is `&mut self`,
//! so one synthesizer per shard), and whole cycles run on a two-stage
//! pipeline that overlaps round `t+1`'s waveform synthesis with round `t`'s
//! discriminate → syndrome → decode using a second, ping-ponged
//! [`RoundBuffers`]. Because every round draws its per-group randomness from
//! SplitMix64-derived streams ([`herqles_exec::stream_seed`] over a single
//! per-round entropy word from the master RNG), the pooled engine is
//! **bit-identical to the serial engine at every pool size** — and the
//! serial engine in turn stays bit-identical to the offline materializing
//! reference. Warm pooled rounds keep the zero-allocation invariant: job
//! dispatch on the pool allocates nothing.

use herqles_core::{Discriminator, PrecisionDiscriminator, Real};
use herqles_exec::{stream_seed, ShardPool, Tiles};
use herqles_telemetry::{now_ns, SpanKind, StageTimer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use readout_sim::drift::{FaultPlan, RoundFaults};
use readout_sim::{BasisState, ChipConfig, ShotBatch};
use surface_code::decoder::DecodeOutcome;
use surface_code::{
    decode_block_with, DecodeScratch, NoiseParams, RotatedSurfaceCode, SlidingWindowDecoder,
    SyndromeBlock, SyndromeSim,
};

use crate::health::{HealthConfig, HealthMonitor, HealthStatus};
use crate::map::AncillaMap;
use crate::recal::Recalibrate;
use crate::synth::RoundSynth;
use crate::telemetry::{fmt_ns, EngineTelemetry, StageLatency};

/// Configuration of a streaming cycle run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleConfig {
    /// Noisy stabilizer-measurement rounds per block (commonly `d`).
    pub rounds: usize,
    /// Per-round, per-data-qubit `X` error probability.
    pub data_error_prob: f64,
    /// RNG seed of the whole stream (data errors + readout physics).
    pub seed: u64,
}

impl CycleConfig {
    /// Defaults for a distance-`d` run: `d` rounds, `p = 4·10⁻³` (the
    /// operating point of the paper's Fig. 13 study), seed 0.
    pub fn for_distance(distance: usize) -> Self {
        CycleConfig {
            rounds: distance,
            data_error_prob: 4e-3,
            seed: 0,
        }
    }

    /// Rejects nonsensical configurations loudly at construction time
    /// instead of letting them surface as NaN syndromes or empty blocks
    /// deep inside a run.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0` or `data_error_prob` is not a finite
    /// probability in `[0, 1]`.
    pub fn validate(&self) {
        assert!(self.rounds > 0, "need at least one round per cycle");
        assert!(
            self.data_error_prob.is_finite() && (0.0..=1.0).contains(&self.data_error_prob),
            "data_error_prob must be a finite probability in [0, 1], got {}",
            self.data_error_prob
        );
    }
}

/// Cumulative per-stage wall time, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageNanos {
    /// Waveform synthesis (state paths, basebands, crosstalk, multiplexing).
    pub synth: u64,
    /// Batched discrimination (fused demod + matched filter + thresholds).
    pub discriminate: u64,
    /// Syndrome bookkeeping (data errors, parities, detection events).
    pub syndrome: u64,
    /// Block decode (matching + logical-class decision).
    pub decode: u64,
}

impl StageNanos {
    /// Sum over all stages.
    pub fn total(&self) -> u64 {
        self.synth + self.discriminate + self.syndrome + self.decode
    }

    /// Accumulates another stage breakdown into this one.
    pub fn add(&mut self, other: &StageNanos) {
        self.synth += other.synth;
        self.discriminate += other.discriminate;
        self.syndrome += other.syndrome;
        self.decode += other.decode;
    }
}

/// Timing and size statistics of one completed cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleStats {
    /// Noisy rounds in the block.
    pub rounds: usize,
    /// Detection events decoded.
    pub n_events: usize,
    /// Per-stage wall time of this cycle.
    pub stage: StageNanos,
    /// Channel health verdict at the end of the cycle.
    pub health: HealthStatus,
}

/// One completed streaming cycle: the decode verdict plus its timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleResult {
    /// Decoder outcome of the block.
    pub outcome: DecodeOutcome,
    /// Stage timings and block size.
    pub stats: CycleStats,
}

/// Aggregate statistics over an engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Completed cycles.
    pub cycles: u64,
    /// Noisy rounds processed.
    pub rounds: u64,
    /// Logical errors observed.
    pub logical_errors: u64,
    /// Blocks whose decode overran the configured real-time budget
    /// ([`CycleEngine::set_decode_budget_ns`]) and were stamped
    /// [`DecodeOutcome::degraded`]. Always zero with no budget set — every
    /// block decodes in full (union-find with exact group refinement).
    pub degraded_decodes: u64,
    /// Health-status transitions reported by the engine's
    /// [`HealthMonitor`].
    pub health_transitions: u64,
    /// Discriminator hot-swaps performed by
    /// [`CycleEngine::run_cycle_adaptive`].
    pub hot_swaps: u64,
    /// Cumulative per-stage wall time.
    pub stage: StageNanos,
    /// Per-stage latency percentiles (p50/p90/p99/max, ns per cycle) from
    /// the engine's [`EngineTelemetry`] histograms. All-zero while telemetry
    /// is disabled or before the first cycle.
    pub latency: StageLatency,
    /// Trace/span-ring events lost to overwrite
    /// ([`EngineTelemetry::dropped_events`]): nonzero means the flight
    /// recorder's history no longer reaches back to the first event.
    pub trace_dropped: u64,
}

impl EngineStats {
    /// The multi-line human-readable report [`EngineStats`]'s `Display`
    /// renders.
    #[must_use]
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {} | rounds {} | logical errors {} | degraded decodes {}",
            self.cycles, self.rounds, self.logical_errors, self.degraded_decodes
        )?;
        writeln!(
            f,
            "health transitions {} | hot-swaps {} | trace events dropped {}",
            self.health_transitions, self.hot_swaps, self.trace_dropped
        )?;
        writeln!(f, "stage           p50        p99        max")?;
        for (name, s) in [
            ("synth", self.latency.synth),
            ("discriminate", self.latency.discriminate),
            ("syndrome", self.latency.syndrome),
            ("decode", self.latency.decode),
            ("cycle", self.latency.cycle),
        ] {
            writeln!(
                f,
                "{name:<13} {:>10} {:>10} {:>10}",
                fmt_ns(s.p50),
                fmt_ns(s.p99),
                fmt_ns(s.max)
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Display for CycleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} rounds, {} events, health {:?}: synth {} | discriminate {} | \
             syndrome {} | decode {} | total {}",
            self.rounds,
            self.n_events,
            self.health,
            fmt_ns(self.stage.synth),
            fmt_ns(self.stage.discriminate),
            fmt_ns(self.stage.syndrome),
            fmt_ns(self.stage.decode),
            fmt_ns(self.stage.total())
        )
    }
}

/// The reusable per-round working set: one shot batch, the parity planes and
/// the discriminator's scratch + output buffers, all at the engine's
/// pipeline precision `R`. Everything is pre-sized at engine construction
/// and recycled every round.
#[derive(Debug, Clone)]
pub struct RoundBuffers<R: Real = f64> {
    batch: ShotBatch<R>,
    true_parities: Vec<bool>,
    measured: Vec<bool>,
    states: Vec<BasisState>,
    features: Vec<R>,
}

impl<R: Real> RoundBuffers<R> {
    fn new(map: &AncillaMap, n_samples: usize) -> Self {
        RoundBuffers {
            batch: ShotBatch::with_capacity(map.n_groups(), n_samples),
            true_parities: vec![false; map.n_ancillas()],
            measured: vec![false; map.n_ancillas()],
            states: Vec::with_capacity(map.n_groups()),
            features: Vec::new(),
        }
    }
}

/// The engine's health-monitoring working set: the [`HealthMonitor`] plus
/// the fixed buffers the per-round observation writes through (a widened
/// `f64` feature row for [`Discriminator::soft_margins`] and the per-channel
/// margin output). Sized during the first cycle, allocation-free thereafter.
struct HealthState {
    monitor: HealthMonitor,
    /// Per-channel soft margins of one feature row.
    margins: Vec<f64>,
    /// One group's feature row widened to `f64` for the margin query.
    feat_row: Vec<f64>,
    /// Latched off permanently the first time the discriminator declines a
    /// margin query, so unsupported designs pay one call, not one per round.
    margin_supported: bool,
}

/// The execution state a pooled engine carries on top of the serial one:
/// the pool handle, one [`RoundSynth`] per feedline-group shard, the round's
/// per-group RNG stream seeds, and the second [`RoundBuffers`] that the
/// two-stage pipeline ping-pongs against the engine's front buffer.
struct PoolState<'a, R: Real> {
    pool: &'a ShardPool,
    synths: Vec<RoundSynth<R>>,
    seeds: Vec<u64>,
    back: RoundBuffers<R>,
}

/// Sliding-window streaming decode state: the window decoder plus per-block
/// feed progress and budget bookkeeping.
struct WindowState {
    wd: SlidingWindowDecoder,
    /// Detection events already fed to the window this block.
    events_fed: usize,
    /// Whether any decode step of the current block overran the engine's
    /// real-time budget.
    over_budget: bool,
}

/// Streaming readout → syndrome → decode engine for one surface code, one
/// feedline chip, and one trained discriminator.
///
/// Generic over the pipeline precision `R` ([`Real`], default `f64`) and the
/// discriminator type `D`. The defaults make `CycleEngine::new(cfg, &chip,
/// &code, &dyn_disc)` mean exactly what it always did — a double-precision
/// engine behind a `&dyn Discriminator`, bit-identical to the offline
/// reference. Instantiating with `R = f32` and a concrete fused design (e.g.
/// `CycleEngine::<f32, _>::new(cfg, &chip, &code, &mf)`) runs the whole
/// readout → syndrome → decode round — waveform synthesis included — in
/// single precision, with the same zero-allocation steady state.
pub struct CycleEngine<'a, R: Real = f64, D: ?Sized = dyn Discriminator + 'a> {
    cfg: CycleConfig,
    code: &'a RotatedSurfaceCode,
    disc: &'a D,
    map: AncillaMap,
    rng: StdRng,
    synth: RoundSynth<R>,
    sim: SyndromeSim<'a>,
    round: RoundBuffers<R>,
    /// Double-buffered block homes: the block finished last cycle stays
    /// readable (via [`CycleEngine::last_block`]) while the next cycle's
    /// rounds accumulate, and block storage is never reallocated.
    blocks: [SyndromeBlock; 2],
    active: usize,
    /// Reusable decoder workspace: pre-sized at construction so the block
    /// decode in [`CycleEngine::finish_cycle`] never allocates, completing
    /// the warm whole-cycle zero-allocation invariant (`tests/alloc.rs`).
    decode: DecodeScratch,
    /// Sliding-window streaming decode state
    /// ([`CycleEngine::set_sliding_window`]); `None` = whole-block mode.
    window: Option<WindowState>,
    /// Real-time budget per decode step; overruns stamp
    /// [`DecodeOutcome::degraded`].
    decode_budget_ns: Option<u64>,
    /// Whether block decodes are offloaded into the next cycle's round-0
    /// pipeline slot ([`CycleEngine::set_async_decode`]).
    async_decode: bool,
    /// A finished block is awaiting its offloaded decode.
    async_pending: bool,
    /// Outcome of the most recent offloaded decode.
    async_outcome: DecodeOutcome,
    in_flight: StageNanos,
    totals: EngineStats,
    /// Present iff the engine was built with [`CycleEngine::with_pool`].
    exec: Option<PoolState<'a, R>>,
    /// Deterministic fault schedule (empty by default: the zero-cost no-fault
    /// path) and the per-round snapshot it resolves into.
    plan: FaultPlan,
    faults: RoundFaults,
    /// Rounds synthesized since construction — the fault schedule's clock.
    /// Distinct from `totals.rounds`, which counts *consumed* rounds and
    /// therefore lags synthesis inside the pooled pipeline.
    synth_round: u64,
    health: HealthState,
    /// Consumed-round stamp of the last discriminator hot-swap.
    last_swap_round: u64,
    /// [`now_ns`] stamp of the current cycle's [`CycleEngine::begin_cycle`],
    /// the begin timestamp of the cycle's flight-recorder span.
    cycle_begin_ns: u64,
    /// Minimum consumed rounds between hot-swaps.
    recal_cooldown: u64,
    /// Latency histograms, counters and the event trace. Enabled by
    /// default; recording is allocation-free.
    telem: EngineTelemetry,
}

/// A [`CycleEngine`] whose cycles execute on a [`ShardPool`]
/// (constructed via [`CycleEngine::with_pool`]): sharded round synthesis
/// plus the two-stage synthesis/consumption pipeline, bit-identical to the
/// serial engine at every pool size.
pub type ParallelCycleEngine<'a, R = f64, D = dyn Discriminator + 'a> = CycleEngine<'a, R, D>;

impl<'a, R: Real, D: ?Sized + PrecisionDiscriminator<R>> CycleEngine<'a, R, D> {
    /// Builds an engine.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rounds == 0`, the error probability is outside
    /// `[0, 1]`, the chip is invalid, or the discriminator was trained for a
    /// different channel count than the chip.
    pub fn new(
        cfg: CycleConfig,
        chip: &ChipConfig,
        code: &'a RotatedSurfaceCode,
        disc: &'a D,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            disc.n_qubits(),
            chip.n_qubits(),
            "discriminator and chip must cover the same channels"
        );
        let synth = RoundSynth::new(chip);
        let map = AncillaMap::new(code.n_stabilizers(), chip.n_qubits());
        // meas_error_prob = 0: measurement noise comes from the physical
        // readout + discrimination loop, not the phenomenological coin.
        let noise = NoiseParams {
            data_error_prob: cfg.data_error_prob,
            meas_error_prob: 0.0,
        };
        let mut sim = SyndromeSim::new(code, &noise);
        sim.reserve_rounds(cfg.rounds);
        let empty = SyndromeBlock {
            events: Vec::new(),
            final_errors: vec![false; code.n_data()],
            rounds: 0,
        };
        let round = RoundBuffers::new(&map, synth.n_samples());
        let health = HealthState {
            monitor: HealthMonitor::new(HealthConfig::default(), map.n_ancillas()),
            margins: vec![0.0; chip.n_qubits()],
            feat_row: Vec::new(),
            margin_supported: true,
        };
        CycleEngine {
            cfg,
            code,
            disc,
            map,
            rng: StdRng::seed_from_u64(cfg.seed),
            synth,
            sim,
            round,
            blocks: [empty.clone(), empty],
            active: 0,
            // Sized for this engine's worst case up front: the decoding
            // graph, union-find buffers, and DP table for (code, rounds)
            // blocks, so the first cycle decodes without allocating.
            decode: DecodeScratch::prewarmed(code, cfg.rounds),
            window: None,
            decode_budget_ns: None,
            async_decode: false,
            async_pending: false,
            async_outcome: DecodeOutcome::default(),
            in_flight: StageNanos::default(),
            totals: EngineStats::default(),
            exec: None,
            plan: FaultPlan::none(),
            faults: RoundFaults::nominal(chip.n_qubits()),
            synth_round: 0,
            health,
            last_swap_round: 0,
            cycle_begin_ns: 0,
            recal_cooldown: 64,
            telem: EngineTelemetry::new(),
        }
    }

    /// Builds a [`ParallelCycleEngine`]: identical configuration and
    /// **bit-identical output** to [`CycleEngine::new`], but whole cycles
    /// ([`CycleEngine::run_cycle`] and everything built on it) execute on
    /// `pool` — each feedline group's synthesis is one shard, and round
    /// `t+1`'s synthesis overlaps round `t`'s discriminate → syndrome
    /// pipeline stage. Warm rounds stay free of heap allocation.
    ///
    /// The manual [`CycleEngine::step_round`] API remains available and
    /// serial (one caller thread), producing the same results; only the
    /// cycle-granular entry points fan out.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`CycleEngine::new`].
    pub fn with_pool(
        cfg: CycleConfig,
        chip: &ChipConfig,
        code: &'a RotatedSurfaceCode,
        disc: &'a D,
        pool: &'a ShardPool,
    ) -> Self {
        let mut engine = Self::new(cfg, chip, code, disc);
        let n_groups = engine.map.n_groups();
        engine.exec = Some(PoolState {
            pool,
            synths: (0..n_groups).map(|_| RoundSynth::new(chip)).collect(),
            seeds: vec![0; n_groups],
            back: RoundBuffers::new(&engine.map, engine.synth.n_samples()),
        });
        engine
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CycleConfig {
        &self.cfg
    }

    /// The ancilla → feedline-group mapping in use.
    pub fn ancilla_map(&self) -> &AncillaMap {
        &self.map
    }

    /// Aggregate statistics since construction.
    pub fn stats(&self) -> &EngineStats {
        &self.totals
    }

    /// The most recently completed block (empty before the first cycle).
    pub fn last_block(&self) -> &SyndromeBlock {
        &self.blocks[self.active]
    }

    /// Installs a deterministic fault schedule. Rounds already synthesized
    /// keep their clock: the plan's round indices are absolute over the
    /// engine's lifetime, so installing at round `r` leaves events scheduled
    /// before `r` in the past.
    ///
    /// Fault resolution is part of the serial round prologue and the
    /// injected randomness rides the existing per-group synthesis streams,
    /// so pooled and serial engines under the same plan remain
    /// **bit-identical at every pool size**.
    ///
    /// # Panics
    ///
    /// Panics if the plan references a qubit outside the chip or carries a
    /// non-finite parameter.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        if let Err(e) = plan.validate(self.faults.n_qubits()) {
            panic!("invalid fault plan: {e}");
        }
        self.plan = plan;
    }

    /// The installed fault schedule (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The engine's health monitor.
    pub fn health(&self) -> &HealthMonitor {
        &self.health.monitor
    }

    /// Replaces the health monitor's tuning (resets its baseline).
    pub fn set_health_config(&mut self, cfg: HealthConfig) {
        self.health.monitor = HealthMonitor::new(cfg, self.map.n_ancillas());
    }

    /// Sets the minimum consumed rounds between discriminator hot-swaps in
    /// [`CycleEngine::run_cycle_adaptive`] (default 64).
    pub fn set_recal_cooldown(&mut self, rounds: u64) {
        self.recal_cooldown = rounds;
    }

    /// Switches the engine to sliding-window streaming decode: every
    /// committed round feeds the union-find window, interaction groups
    /// confined `max(lag, d + 1)` rounds behind the stream commit while
    /// later rounds are still being synthesized, and
    /// [`CycleEngine::finish_cycle`] only resolves the remainder. `d + 1` is
    /// the union-find interaction radius: a group any closer could still be
    /// reached by an event yet to arrive (see [`surface_code::window`]), so
    /// any `lag` up to `d + 1` behaves the same. Cycle outcomes stay
    /// identical to whole-block mode (pinned by `tests/decode_modes.rs`;
    /// the one known exception, in peeled groups of more than 14 events, is
    /// described in the same module docs); the difference is *when* the
    /// decode work happens. Call between cycles, not mid-block.
    ///
    /// # Panics
    ///
    /// Panics if async decode offload is enabled (the two schedules are
    /// mutually exclusive) or if `lag == 0`.
    pub fn set_sliding_window(&mut self, lag: usize) {
        assert!(
            !self.async_decode,
            "sliding-window and async decode offload are mutually exclusive"
        );
        let (graph, _) = self.decode.window_parts(self.code, self.cfg.rounds);
        let mut wd = SlidingWindowDecoder::new(lag);
        wd.reserve_for(graph);
        self.window = Some(WindowState {
            wd,
            events_fed: 0,
            over_budget: false,
        });
    }

    /// Sets (or clears) the real-time decode budget: any decode step — a
    /// sliding-window advance, a block decode, an offloaded decode — that
    /// takes longer stamps its cycle's [`DecodeOutcome::degraded`], counted
    /// by [`EngineStats::degraded_decodes`].
    pub fn set_decode_budget_ns(&mut self, budget: Option<u64>) {
        self.decode_budget_ns = budget;
    }

    /// Enables decode offload on a pooled engine: a finished block's decode
    /// runs inside the *next* cycle's round-0 pipeline slot, hidden behind
    /// that round's synthesis fan-out, so decode latency leaves the cycle's
    /// critical path. Each [`CycleEngine::run_cycle`] then reports the
    /// *previous* block's outcome (the first reports an empty
    /// [`DecodeOutcome::default`]); call
    /// [`CycleEngine::drain_async_decode`] after the last cycle for the
    /// final block. The outcome *sequence* is identical to synchronous
    /// decoding, one cycle later.
    ///
    /// # Panics
    ///
    /// Panics when enabling on a non-pooled engine or while sliding-window
    /// mode is active.
    pub fn set_async_decode(&mut self, enabled: bool) {
        if enabled {
            assert!(
                self.exec.is_some(),
                "async decode offload requires a pooled engine (with_pool)"
            );
            assert!(
                self.window.is_none(),
                "sliding-window and async decode offload are mutually exclusive"
            );
        }
        self.async_decode = enabled;
    }

    /// Decodes the block still awaiting its offloaded decode (the last
    /// block of an async run), accounts it into the engine totals, and
    /// returns its outcome. `None` when nothing is pending.
    pub fn drain_async_decode(&mut self) -> Option<DecodeOutcome> {
        if !self.async_pending {
            return None;
        }
        self.async_pending = false;
        let mut timer = StageTimer::start();
        let mut outcome = decode_block_with(self.code, &self.blocks[self.active], &mut self.decode);
        let (begin, ns) = timer.lap_span_ns();
        if self.decode_budget_ns.is_some_and(|b| ns > b) {
            outcome.degraded = true;
        }
        self.totals.stage.decode += ns;
        self.totals.logical_errors += u64::from(outcome.logical_error);
        self.totals.degraded_decodes += u64::from(outcome.degraded);
        self.telem
            .note_span(SpanKind::Decode, begin, ns, self.totals.cycles);
        Some(outcome)
    }

    /// The engine's telemetry bundle (histograms, counters, event trace).
    pub fn telemetry(&self) -> &EngineTelemetry {
        &self.telem
    }

    /// Replaces the telemetry bundle — the way to give the engine
    /// registry-backed metrics ([`EngineTelemetry::registered`]) so a scrape
    /// endpoint sees them. Histories recorded into the old bundle stay with
    /// the old bundle.
    pub fn set_telemetry(&mut self, telem: EngineTelemetry) {
        self.telem = telem;
    }

    /// Enables or disables telemetry recording (enabled by default). While
    /// disabled the engine skips every histogram/counter/trace touch;
    /// [`EngineStats::latency`] stops refreshing.
    pub fn set_telemetry_enabled(&mut self, enabled: bool) {
        self.telem.set_enabled(enabled);
    }

    /// Current per-stage latency percentiles (ns per cycle). Allocation-free.
    pub fn stage_latency(&self) -> StageLatency {
        self.telem.stage_latency()
    }

    /// Advances the fault clock one synthesized round and resolves the
    /// schedule into the engine's [`RoundFaults`] snapshot. Returns whether
    /// any fault is active this round. Early-outs with no work when the plan
    /// is empty — the zero-cost no-fault default.
    fn resolve_round_faults(&mut self) -> bool {
        let r = self.synth_round;
        self.synth_round += 1;
        if self.plan.is_empty() {
            return false;
        }
        self.plan.resolve_into(r, &mut self.faults);
        self.faults.is_active()
    }

    /// Starts a new block: clears per-block state, keeping all capacity.
    pub fn begin_cycle(&mut self) {
        self.sim.reset();
        self.sim.reserve_rounds(self.cfg.rounds);
        self.health.monitor.begin_block();
        if let Some(ws) = self.window.as_mut() {
            ws.wd.reset();
            ws.events_fed = 0;
            ws.over_budget = false;
        }
        self.in_flight = StageNanos::default();
        self.cycle_begin_ns = now_ns();
        self.telem.note_cycle_begin(self.totals.cycles);
    }

    /// Feeds the rounds committed so far into the sliding window and
    /// commits every cluster confined behind the lag. No-op in whole-block
    /// mode. Runs on the calling thread right after a round's
    /// measured-syndrome commit, so in the pooled pipeline the committed
    /// decode work overlaps the next round's synthesis fan-out.
    fn advance_window(&mut self) {
        if self.window.is_none() {
            return;
        }
        let mut timer = StageTimer::start();
        let CycleEngine {
            window,
            decode,
            sim,
            code,
            cfg,
            ..
        } = self;
        let ws = window.as_mut().expect("window mode");
        // The round just committed (sim.round() counts committed rounds).
        let t = sim.round().saturating_sub(1);
        let events = sim.events();
        ws.wd.push_events(&events[ws.events_fed..]);
        ws.events_fed = events.len();
        let (graph, uf) = decode.window_parts(code, cfg.rounds);
        ws.wd.advance(t, graph, uf);
        let (begin, ns) = timer.lap_span_ns();
        self.in_flight.decode += ns;
        self.telem.note_span(SpanKind::Decode, begin, ns, t as u64);
        if self.decode_budget_ns.is_some_and(|b| ns > b) {
            self.window.as_mut().expect("window mode").over_budget = true;
        }
    }

    /// Processes one noisy round: data errors → true parities → multiplexed
    /// readout synthesis → batched discrimination → measured-syndrome
    /// commit. Allocation-free once the engine is warm.
    ///
    /// Runs serially on the calling thread regardless of how the engine was
    /// built; per-group synthesis randomness comes from the same
    /// [`stream_seed`]-derived streams the pooled path shards out, so manual
    /// stepping and pooled cycles produce identical results.
    pub fn step_round(&mut self) {
        let round_arg = self.sim.round() as u64;
        let mut timer = StageTimer::start();
        self.sim.apply_data_errors(&mut self.rng);
        self.sim.true_parities_into(&mut self.round.true_parities);
        let entropy = self.round_entropy();
        let fault_active = self.resolve_round_faults();
        let (prologue_begin, prologue_ns) = timer.lap_span_ns();

        self.round.batch.clear();
        for g in 0..self.map.n_groups() {
            let prepared = self.map.prepared_state(g, &self.round.true_parities);
            let mut rng = StdRng::seed_from_u64(stream_seed(entropy, g as u64));
            self.synth.synth_into_row_faulted(
                prepared,
                fault_active.then_some(&self.faults),
                &mut self.round.batch,
                &mut rng,
            );
        }
        let (synth_begin, synth_ns) = timer.lap_span_ns();

        self.disc.discriminate_shot_batch_r_into(
            &self.round.batch,
            &mut self.round.features,
            &mut self.round.states,
        );
        let (disc_begin, disc_ns) = timer.lap_span_ns();

        for (a, m) in self.round.measured.iter_mut().enumerate() {
            let (g, c) = self.map.slot(a);
            *m = self.round.states[g].qubit(c);
        }
        self.sim.record_measured_syndrome(&self.round.measured);
        observe_round_health(
            self.disc,
            &self.map,
            &mut self.health,
            &self.round.features,
            &self.round.measured,
        );
        let (commit_begin, commit_ns) = timer.lap_span_ns();

        self.in_flight.syndrome += prologue_ns + commit_ns;
        self.in_flight.synth += synth_ns;
        self.in_flight.discriminate += disc_ns;
        self.totals.rounds += 1;
        self.telem
            .note_span(SpanKind::Syndrome, prologue_begin, prologue_ns, round_arg);
        self.telem
            .note_span(SpanKind::Synth, synth_begin, synth_ns, round_arg);
        self.telem
            .note_span(SpanKind::Discriminate, disc_begin, disc_ns, round_arg);
        self.telem
            .note_span(SpanKind::Syndrome, commit_begin, commit_ns, round_arg);
        self.advance_window();
    }

    /// Draws the round's entropy word from the master RNG. Every group's
    /// synthesis stream is derived from this one draw via [`stream_seed`],
    /// which is what makes round synthesis shard-order- and
    /// thread-count-independent by construction.
    fn round_entropy(&mut self) -> u64 {
        self.rng.random()
    }

    /// Terminates the block with a perfect round, swaps it into the inactive
    /// block home, and decodes it.
    pub fn finish_cycle(&mut self) -> CycleResult {
        let cycle_index = self.totals.cycles;
        let mut timer = StageTimer::start();
        self.sim.finish_perfect_round();
        self.active ^= 1;
        // write_block reuses the target's buffers — no block reallocation.
        self.sim.write_block(&mut self.blocks[self.active]);
        let (write_begin, write_ns) = timer.lap_span_ns();
        self.in_flight.syndrome += write_ns;
        self.telem
            .note_span(SpanKind::Syndrome, write_begin, write_ns, cycle_index);
        let outcome = self.decode_finished_block(cycle_index);
        self.telem.note_span(
            SpanKind::Cycle,
            self.cycle_begin_ns,
            now_ns().saturating_sub(self.cycle_begin_ns),
            cycle_index,
        );

        let stats = CycleStats {
            rounds: self.sim.round(),
            n_events: outcome.n_events,
            stage: self.in_flight,
            health: self.health.monitor.status(),
        };
        let transitions = self.health.monitor.transitions();
        let transitions_delta = transitions.saturating_sub(self.totals.health_transitions);
        self.totals.cycles += 1;
        self.totals.logical_errors += u64::from(outcome.logical_error);
        self.totals.degraded_decodes += u64::from(outcome.degraded);
        self.totals.health_transitions = transitions;
        self.totals.stage.add(&self.in_flight);
        self.telem
            .observe_cycle(cycle_index, &stats, &outcome, transitions_delta);
        if self.telem.enabled() {
            self.totals.latency = self.telem.stage_latency();
        }
        self.totals.trace_dropped = self.telem.dropped_events();
        CycleResult { outcome, stats }
    }

    /// Decodes the block just swapped into the active home, according to
    /// the engine's decode mode: async offload defers to the next cycle's
    /// round-0 slot (returning the previous block's outcome), sliding
    /// window resolves the deferred remainder, and whole-block mode runs
    /// the standard dispatch. Stamps [`DecodeOutcome::degraded`] on budget
    /// overruns.
    fn decode_finished_block(&mut self, cycle_index: u64) -> DecodeOutcome {
        if self.async_decode {
            // The block's decode runs inside the next cycle's round-0
            // pipeline slot; hand back the previous block's outcome now.
            let prev = if self.async_pending {
                // The slot never ran (manual round stepping): decode the
                // previous block — still intact in the other home —
                // synchronously so it is not lost.
                let mut timer = StageTimer::start();
                let mut out =
                    decode_block_with(self.code, &self.blocks[self.active ^ 1], &mut self.decode);
                let (begin, ns) = timer.lap_span_ns();
                self.in_flight.decode += ns;
                if self.decode_budget_ns.is_some_and(|b| ns > b) {
                    out.degraded = true;
                }
                self.telem
                    .note_span(SpanKind::Decode, begin, ns, cycle_index);
                out
            } else {
                self.async_outcome
            };
            self.async_pending = true;
            return prev;
        }
        let mut timer = StageTimer::start();
        let mut outcome = if self.window.is_some() {
            self.finish_window_block()
        } else {
            decode_block_with(self.code, &self.blocks[self.active], &mut self.decode)
        };
        let (decode_begin, decode_ns) = timer.lap_span_ns();
        self.in_flight.decode += decode_ns;
        self.telem
            .note_span(SpanKind::Decode, decode_begin, decode_ns, cycle_index);
        if self.decode_budget_ns.is_some_and(|b| decode_ns > b) {
            outcome.degraded = true;
        }
        if self.window.as_ref().is_some_and(|ws| ws.over_budget) {
            outcome.degraded = true;
        }
        outcome
    }

    /// Ends a sliding-window block: feeds the terminating perfect round's
    /// events, resolves whatever the window deferred, and combines with the
    /// west parity committed during the stream. When the stream committed
    /// nothing ahead of the block end, the whole block goes through the
    /// standard dispatch instead — bit-identical to whole-block mode on
    /// quiet or short streams.
    fn finish_window_block(&mut self) -> DecodeOutcome {
        let CycleEngine {
            window,
            decode,
            sim,
            code,
            cfg,
            blocks,
            active,
            ..
        } = self;
        let ws = window.as_mut().expect("window mode");
        let events = sim.events();
        ws.wd.push_events(&events[ws.events_fed..]);
        ws.events_fed = events.len();
        let block = &blocks[*active];
        if ws.wd.committed_clusters() == 0 {
            ws.wd.reset();
            ws.events_fed = 0;
            return decode_block_with(code, block, decode);
        }
        let (graph, uf) = decode.window_parts(code, cfg.rounds);
        let west_matches = ws.wd.finish(graph, uf);
        let n_events = ws.wd.n_events();
        debug_assert_eq!(n_events, block.events.len());
        let error_parity = block.west_column_error_parity(code);
        ws.wd.reset();
        ws.events_fed = 0;
        DecodeOutcome {
            n_events,
            west_matches,
            logical_error: error_parity != (west_matches % 2 == 1),
            degraded: false,
        }
    }

    /// Runs one full cycle (block) and returns its outcome.
    ///
    /// On a [`ParallelCycleEngine`] the cycle executes the two-stage
    /// pipeline: round `t+1`'s sharded synthesis overlaps round `t`'s
    /// discriminate → syndrome stage, with the block decode at the end. The
    /// result is bit-identical to the serial engine's.
    pub fn run_cycle(&mut self) -> CycleResult {
        if self.exec.is_some() {
            return self.run_cycle_pooled();
        }
        self.begin_cycle();
        for _ in 0..self.cfg.rounds {
            self.step_round();
        }
        self.finish_cycle()
    }

    /// The pooled cycle: a software pipeline over the engine's two
    /// [`RoundBuffers`]. Each iteration prepares round `t+1` serially (data
    /// errors + parities + entropy, exactly the serial path's master-RNG
    /// draws), then overlaps its sharded synthesis into the *back* buffer
    /// with the consumption (discriminate + syndrome commit) of the *front*
    /// buffer, and ping-pongs the buffers.
    fn run_cycle_pooled(&mut self) -> CycleResult {
        self.run_cycle_pooled_ext(None)
    }

    /// [`CycleEngine::run_cycle_pooled`] with an optional control-plane task
    /// overlapped into the round-0 pipeline slot — the one consume stage
    /// with nothing to consume. While every group's round-0 synthesis fans
    /// out across the pool, `extra` runs on the calling thread; a
    /// discriminator retrain scheduled here hides behind synthesis instead
    /// of stalling the stream.
    fn run_cycle_pooled_ext(&mut self, extra: Option<&mut dyn FnMut()>) -> CycleResult {
        self.begin_cycle();
        // Round 0 has nothing to consume yet: plain sharded synthesis (plus
        // the overlapped extra task, when present).
        self.prepare_back_round();
        self.pipelined_round(false, extra);
        self.swap_round_buffers();
        for _ in 1..self.cfg.rounds {
            self.prepare_back_round();
            self.pipelined_round(true, None);
            self.swap_round_buffers();
        }
        self.consume_front_round();
        self.finish_cycle()
    }

    /// Stage-one prologue (serial): advances the master RNG exactly as
    /// [`CycleEngine::step_round`] does — data errors, true parities, one
    /// entropy word — derives the per-group stream seeds, and pre-sizes the
    /// back batch's rows for sharded writes.
    fn prepare_back_round(&mut self) {
        let mut timer = StageTimer::start();
        self.sim.apply_data_errors(&mut self.rng);
        self.sim.true_parities_into(
            &mut self
                .exec
                .as_mut()
                .expect("pooled engine")
                .back
                .true_parities,
        );
        let entropy = self.round_entropy();
        self.resolve_round_faults();
        let n_groups = self.map.n_groups();
        let exec = self.exec.as_mut().expect("pooled engine");
        for (g, s) in exec.seeds.iter_mut().enumerate() {
            *s = stream_seed(entropy, g as u64);
        }
        exec.back.batch.clear();
        for _ in 0..n_groups {
            let _ = exec.back.batch.push_empty_row();
        }
        let (begin, prologue_ns) = timer.lap_span_ns();
        self.in_flight.syndrome += prologue_ns;
        self.telem
            .note_span(SpanKind::Syndrome, begin, prologue_ns, self.synth_round);
    }

    /// One pooled pipeline step: fans the back round's per-group synthesis
    /// out across the pool while (when `consume_front`) discriminating the
    /// front round and committing its measured syndrome on the calling
    /// thread. Allocation-free once warm.
    fn pipelined_round(&mut self, consume_front: bool, extra: Option<&mut dyn FnMut()>) {
        let mut wall_timer = StageTimer::start();
        let round_arg = self.sim.round() as u64;
        let mut slot_decode_ns = 0u64;
        let CycleEngine {
            disc,
            map,
            sim,
            round: front,
            exec,
            faults,
            health,
            telem,
            code,
            blocks,
            active,
            decode,
            decode_budget_ns,
            async_pending,
            async_outcome,
            ..
        } = self;
        let disc: &D = disc;
        let map: &AncillaMap = map;
        let faults: &RoundFaults = faults;
        let exec = exec.as_mut().expect("pooled engine");
        let pool = exec.pool;
        let RoundBuffers {
            batch: back_batch,
            true_parities: back_parities,
            ..
        } = &mut exec.back;
        let n_samples = back_batch.n_samples();
        let row_width = back_batch.row_width();
        let synth_tiles = Tiles::new(&mut exec.synths);
        let row_tiles = Tiles::chunks(back_batch.as_mut_slice(), row_width);
        let seeds: &[u64] = &exec.seeds;
        let parities: &[bool] = back_parities;
        let round_faults = faults.is_active().then_some(faults);

        let (disc_ns, syndrome_ns) = pool.overlap(
            map.n_groups(),
            |g| {
                // SAFETY: the pool claims each index exactly once per
                // fan-out, so shard `g`'s synthesizer and batch row have no
                // other live borrows.
                let synth = unsafe { synth_tiles.item(g) };
                let row = unsafe { row_tiles.tile(g) };
                let (i_row, q_row) = row.split_at_mut(n_samples);
                let mut rng = StdRng::seed_from_u64(seeds[g]);
                synth.synth_into_slot_faulted(
                    map.prepared_state(g, parities),
                    round_faults,
                    i_row,
                    q_row,
                    &mut rng,
                );
            },
            || {
                if !consume_front {
                    // The idle consume slot: run the overlapped
                    // control-plane task (e.g. a discriminator retrain)
                    // behind round 0's synthesis fan-out.
                    if let Some(f) = extra {
                        f();
                    }
                    if *async_pending {
                        // Async decode offload: the previous cycle's block
                        // (stable in the active home until the next
                        // finish-cycle swap) decodes here, hidden behind
                        // round 0's synthesis fan-out.
                        let mut timer = StageTimer::start();
                        let mut out = decode_block_with(code, &blocks[*active], decode);
                        let (begin, ns) = timer.lap_span_ns();
                        if decode_budget_ns.is_some_and(|b| ns > b) {
                            out.degraded = true;
                        }
                        telem.note_span(SpanKind::Decode, begin, ns, round_arg);
                        *async_outcome = out;
                        *async_pending = false;
                        slot_decode_ns = ns;
                    }
                    return (0, 0);
                }
                let mut timer = StageTimer::start();
                disc.discriminate_shot_batch_r_into(
                    &front.batch,
                    &mut front.features,
                    &mut front.states,
                );
                let (disc_begin, disc_ns) = timer.lap_span_ns();
                for (a, m) in front.measured.iter_mut().enumerate() {
                    let (g, c) = map.slot(a);
                    *m = front.states[g].qubit(c);
                }
                sim.record_measured_syndrome(&front.measured);
                observe_round_health(disc, map, health, &front.features, &front.measured);
                let (commit_begin, commit_ns) = timer.lap_span_ns();
                telem.note_span(SpanKind::Discriminate, disc_begin, disc_ns, round_arg);
                telem.note_span(SpanKind::Syndrome, commit_begin, commit_ns, round_arg);
                (disc_ns, commit_ns)
            },
        );

        // The synth span covers the whole overlap window: the fan-out's
        // exact per-worker layout lives on the pool's worker tracks.
        let (wall_begin, wall) = wall_timer.lap_span_ns();
        self.telem
            .note_span(SpanKind::Synth, wall_begin, wall, round_arg);
        self.in_flight.discriminate += disc_ns;
        self.in_flight.syndrome += syndrome_ns;
        self.in_flight.decode += slot_decode_ns;
        // Pipeline accounting: the synth stage is charged only the wall time
        // it was *not* hidden behind the consume stage (front-round
        // discrimination + commit, plus any offloaded decode in the round-0
        // slot) — its exposed latency.
        self.in_flight.synth += wall.saturating_sub(disc_ns + syndrome_ns + slot_decode_ns);
        if consume_front {
            self.totals.rounds += 1;
            self.advance_window();
        }
    }

    /// Drains the front buffer (the pipeline's epilogue): batched
    /// discrimination plus measured-syndrome commit of the last round.
    fn consume_front_round(&mut self) {
        let round_arg = self.sim.round() as u64;
        let mut timer = StageTimer::start();
        let RoundBuffers {
            batch,
            features,
            states,
            measured,
            ..
        } = &mut self.round;
        self.disc
            .discriminate_shot_batch_r_into(batch, features, states);
        let (disc_begin, disc_ns) = timer.lap_span_ns();
        self.in_flight.discriminate += disc_ns;
        for (a, m) in measured.iter_mut().enumerate() {
            let (g, c) = self.map.slot(a);
            *m = states[g].qubit(c);
        }
        self.sim.record_measured_syndrome(measured);
        observe_round_health(self.disc, &self.map, &mut self.health, features, measured);
        let (commit_begin, commit_ns) = timer.lap_span_ns();
        self.in_flight.syndrome += commit_ns;
        self.totals.rounds += 1;
        self.telem
            .note_span(SpanKind::Discriminate, disc_begin, disc_ns, round_arg);
        self.telem
            .note_span(SpanKind::Syndrome, commit_begin, commit_ns, round_arg);
        self.advance_window();
    }

    /// Ping-pongs the freshly synthesized back buffer into the front slot.
    fn swap_round_buffers(&mut self) {
        let exec = self.exec.as_mut().expect("pooled engine");
        std::mem::swap(&mut self.round, &mut exec.back);
    }

    /// Blocking API: runs `n` cycles back to back.
    pub fn run_cycles(&mut self, n: usize) -> Vec<CycleResult> {
        (0..n).map(|_| self.run_cycle()).collect()
    }

    /// Pull-based streaming API: an endless iterator of cycle results —
    /// bound it with `.take(n)`.
    pub fn cycles(&mut self) -> Cycles<'_, 'a, R, D> {
        Cycles { engine: self }
    }
}

impl<'a, R: Real, D: ?Sized + PrecisionDiscriminator<R> + Recalibrate> CycleEngine<'a, R, D> {
    /// [`CycleEngine::run_cycle`] with the detect → recover loop closed:
    /// when the [`HealthMonitor`] reports Degraded or Critical, the
    /// discriminator has harvested enough windows
    /// ([`Recalibrate::recal_ready`]), and the hot-swap cooldown has
    /// elapsed, the cycle retrains and atomically hot-swaps the
    /// discriminator's calibration. On a pooled engine the retrain is
    /// overlapped into the round-0 pipeline slot, hidden behind the first
    /// round's synthesis fan-out; serially it runs before the cycle.
    ///
    /// A successful swap bumps [`EngineStats::hot_swaps`] and re-baselines
    /// the health monitor (the new calibration's feature scale invalidates
    /// the old margin baseline).
    pub fn run_cycle_adaptive(&mut self) -> CycleResult {
        let unhealthy = matches!(
            self.health.monitor.status(),
            HealthStatus::Degraded | HealthStatus::Critical
        );
        let cooled = self.totals.rounds >= self.last_swap_round.saturating_add(self.recal_cooldown)
            || self.totals.hot_swaps == 0;
        if !(unhealthy && cooled && self.disc.recal_ready()) {
            return self.run_cycle();
        }
        let disc = self.disc;
        let mut swapped = None;
        let result = if self.exec.is_some() {
            let mut retrain = || swapped = disc.recalibrate();
            self.run_cycle_pooled_ext(Some(&mut retrain))
        } else {
            swapped = disc.recalibrate();
            self.begin_cycle();
            for _ in 0..self.cfg.rounds {
                self.step_round();
            }
            self.finish_cycle()
        };
        // The cycle that hosted the retrain attempt (just finished).
        let cycle_index = self.totals.cycles.saturating_sub(1);
        if swapped.is_some() {
            self.totals.hot_swaps += 1;
            self.last_swap_round = self.totals.rounds;
            self.health.monitor.recalibrated();
            self.telem.note_recal_trained(cycle_index);
            self.telem.note_hot_swap(self.totals.hot_swaps);
        } else {
            self.telem.note_recal_declined(cycle_index);
        }
        result
    }

    /// Blocking adaptive API: [`CycleEngine::run_cycle_adaptive`], `n`
    /// times.
    pub fn run_cycles_adaptive(&mut self, n: usize) -> Vec<CycleResult> {
        (0..n).map(|_| self.run_cycle_adaptive()).collect()
    }
}

/// Feeds one consumed round into the engine's health state: widens each
/// group's feature row to `f64`, queries the discriminator's soft margins,
/// averages them over *live* ancilla slots (idle pad channels carry no
/// signal), and folds the mean plus the measured syndrome into the
/// [`HealthMonitor`]. Allocation-free once the feature-row buffer has its
/// warm size.
fn observe_round_health<R: Real, D: ?Sized + PrecisionDiscriminator<R>>(
    disc: &D,
    map: &AncillaMap,
    health: &mut HealthState,
    features: &[R],
    measured: &[bool],
) {
    let mut margin_sum = 0.0;
    let mut margin_n = 0usize;
    let n_groups = map.n_groups();
    if health.margin_supported && n_groups > 0 && !features.is_empty() {
        let width = features.len() / n_groups;
        if width > 0 && features.len() == n_groups * width {
            if health.feat_row.len() != width {
                health.feat_row.resize(width, 0.0);
            }
            for g in 0..n_groups {
                let row = &features[g * width..(g + 1) * width];
                for (dst, src) in health.feat_row.iter_mut().zip(row) {
                    *dst = src.to_f64();
                }
                if !disc.soft_margins(&health.feat_row, &mut health.margins) {
                    health.margin_supported = false;
                    margin_n = 0;
                    break;
                }
                for (c, &m) in health.margins.iter().enumerate() {
                    if map.ancilla(g, c).is_some() {
                        margin_sum += m;
                        margin_n += 1;
                    }
                }
            }
        }
    }
    let mean_margin = (margin_n > 0).then(|| margin_sum / margin_n as f64);
    health.monitor.observe_round(mean_margin, measured);
}

impl<R: Real, D: ?Sized> std::fmt::Debug for CycleEngine<'_, R, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CycleEngine")
            .field("cfg", &self.cfg)
            .field("distance", &self.code.distance())
            .field("groups", &self.map.n_groups())
            .field("totals", &self.totals)
            .finish_non_exhaustive()
    }
}

/// Endless pull-based iterator over an engine's cycles.
#[derive(Debug)]
pub struct Cycles<'e, 'a, R: Real = f64, D: ?Sized = dyn Discriminator + 'a> {
    engine: &'e mut CycleEngine<'a, R, D>,
}

impl<R: Real, D: ?Sized + PrecisionDiscriminator<R>> Iterator for Cycles<'_, '_, R, D> {
    type Item = CycleResult;

    fn next(&mut self) -> Option<CycleResult> {
        Some(self.engine.run_cycle())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train_mf_discriminator;

    fn setup() -> (ChipConfig, RotatedSurfaceCode, Box<dyn Discriminator>) {
        let chip = ChipConfig::two_qubit_test();
        let code = RotatedSurfaceCode::new(3);
        let disc = train_mf_discriminator(&chip, 12, 77);
        (chip, code, disc)
    }

    #[test]
    fn engine_streams_deterministic_cycles() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 3,
            data_error_prob: 0.01,
            seed: 5,
        };
        let run = || {
            let mut engine = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
            let results = engine.run_cycles(4);
            let block = engine.last_block().clone();
            (results, block)
        };
        let (ra, ba) = run();
        let (rb, bb) = run();
        assert_eq!(ra.len(), 4);
        for (x, y) in ra.iter().zip(&rb) {
            assert_eq!(x.outcome, y.outcome, "same seed, same outcomes");
            assert_eq!(x.stats.rounds, 3);
        }
        assert_eq!(ba, bb, "same seed, same final block");
    }

    #[test]
    fn iterator_and_blocking_api_agree() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 2,
            data_error_prob: 0.02,
            seed: 9,
        };
        let mut a = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
        let mut b = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
        let blocking: Vec<DecodeOutcome> = a.run_cycles(5).iter().map(|r| r.outcome).collect();
        let pulled: Vec<DecodeOutcome> = b.cycles().take(5).map(|r| r.outcome).collect();
        assert_eq!(blocking, pulled);
        assert_eq!(a.stats().cycles, 5);
        assert_eq!(a.stats().rounds, 10);
    }

    #[test]
    fn perfect_readout_yields_low_logical_rate() {
        // With a tiny data error rate and a working discriminator, most
        // cycles must decode without a logical error.
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 3,
            data_error_prob: 0.002,
            seed: 21,
        };
        let mut engine = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
        let failures = engine
            .run_cycles(30)
            .iter()
            .filter(|r| r.outcome.logical_error)
            .count();
        assert!(failures <= 6, "{failures}/30 logical errors");
    }

    #[test]
    fn stage_timings_are_populated() {
        let (chip, code, disc) = setup();
        let cfg = CycleConfig {
            rounds: 2,
            data_error_prob: 0.01,
            seed: 1,
        };
        let mut engine = CycleEngine::new(cfg, &chip, &code, disc.as_ref());
        let r = engine.run_cycle();
        assert!(r.stats.stage.synth > 0);
        assert!(r.stats.stage.discriminate > 0);
        assert!(r.stats.stage.total() >= r.stats.stage.synth);
        assert_eq!(engine.stats().stage, r.stats.stage);
    }

    #[test]
    #[should_panic(expected = "same channels")]
    fn rejects_chip_discriminator_mismatch() {
        let (_, code, disc) = setup();
        let five = ChipConfig::five_qubit_default();
        let cfg = CycleConfig::for_distance(3);
        let _ = CycleEngine::new(cfg, &five, &code, disc.as_ref());
    }
}
