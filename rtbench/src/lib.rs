//! Real-time readout benchmark.
//!
//! Four single-threaded, closed-loop workloads, each driven one cycle at a
//! time through the layers' public functions (see `README.md` for why each
//! exists, which of them `BENCHMARK.json` runs, and which end-to-end metric
//! each layer metric should move):
//!
//! * `stream_d7` — `CycleEngine<f64>` at d=7, 7 rounds, simulator included;
//! * `replay_d7` — recorded d=7 ADC rounds replayed through discriminate →
//!   syndrome → whole-block decode, synthesis removed;
//! * `replay_d5` — the same replay at d=5, 11 rounds: most blocks go
//!   through union-find;
//! * `window_d5` — the replay at d=5, 15 rounds, decoded by the sliding
//!   window with lag 3.

mod corpus;
mod measure;
mod trace;

use std::time::Instant;

use herqles_stream::{
    train_mf_discriminator, CycleConfig, CycleEngine, CycleResult, PrecisionDiscriminator,
};
use herqles_telemetry::{now_ns, SpanEvent, SpanRing};
use readout_sim::ChipConfig;
use surface_code::decoder::DecodeOutcome;
use surface_code::{decode_block_with, DecodeScratch, RotatedSurfaceCode};

use corpus::{CycleRecord, Disc, Laps, Recorder, Replayer, WindowWork};
use measure::{median_f64, peak_rss_mb, percentile, Slicer};
use trace::{LayerTimes, Tracer, Track};

/// Calibration seed of the discriminator. Calibration belongs to the system
/// under test, not to the workload, so it does not follow `--seed`.
const CALIBRATION_SEED: u64 = 20_230_612;
/// Calibration shots per basis state of the MF discriminator.
const SHOTS_PER_STATE: usize = 12;
/// Per-round data-error probability (the paper's Fig. 13 operating point).
const DATA_ERROR_PROB: f64 = 4e-3;
/// Commit lag of the sliding-window workload.
const WINDOW_LAG: usize = 3;
/// The tail percentile of the latency metrics. p99 sits on the edge of the
/// 14-event decode mode (≈ 1–1.6 % of d=7 blocks, by seed), so it flips
/// between two modes from seed to seed; p99.5 lies inside that mode and
/// still has ≥ 10 samples beyond it (every run has ≥ 3000 distinct cycles).
const TAIL: f64 = 0.995;
/// Full set-ups per run; `setup_s` is their median. The first is slower
/// (cold code and pages), so a median of five.
const SETUP_REPS: usize = 5;
/// Engines `stream_d7` keeps, one per set-up: each runs every stream cycle
/// once (same seed, same cycles), and a cycle's latency is the median of
/// its runs. A host stall hits a 1.4 ms cycle often enough that in
/// stall-heavy minutes two of three runs of one cycle were hit, moving a
/// median-of-three p99.5 from 2.1 to 6.8 ms; three of five are hit far
/// more rarely. The fastest run instead of the median followed brief fast
/// spells of the host and made the p50 swing.
const STREAM_ENGINES: usize = SETUP_REPS;
/// Cycles per measured slice of `stream_d7` (≈ 0.1 s on one core).
const STREAM_SLICE_CYCLES: usize = 64;
/// Stream cycles checked against a replay of the same recorded rounds.
const STREAM_CHECK_CYCLES: usize = 500;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamD7,
    ReplayD7,
    ReplayD5,
    WindowD5,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "stream_d7" => Some(Workload::StreamD7),
            "replay_d7" => Some(Workload::ReplayD7),
            "replay_d5" => Some(Workload::ReplayD5),
            "window_d5" => Some(Workload::WindowD5),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamD7 => "stream_d7",
            Workload::ReplayD7 => "replay_d7",
            Workload::ReplayD5 => "replay_d5",
            Workload::WindowD5 => "window_d5",
        }
    }

    fn distance(self) -> usize {
        match self {
            Workload::StreamD7 | Workload::ReplayD7 => 7,
            Workload::ReplayD5 | Workload::WindowD5 => 5,
        }
    }

    fn rounds(self) -> usize {
        match self {
            Workload::StreamD7 | Workload::ReplayD7 => 7,
            Workload::ReplayD5 => 11,
            Workload::WindowD5 => 15,
        }
    }

    /// Recorded cycles per corpus chunk: a few hundred, far larger than
    /// the L2 cache once stored as ADC samples.
    fn chunk_cycles(self) -> usize {
        match self {
            Workload::StreamD7 => 0,
            Workload::ReplayD7 => 300,
            Workload::ReplayD5 | Workload::WindowD5 => 200,
        }
    }

    /// Distinct cycles the content metrics and latency percentiles rest
    /// on: the stream's first cycles, or the replay corpus (40 chunks of
    /// 300 at d=7, 15 of 200 at d=5), of which one chunk is resident.
    pub fn content_cycles(self) -> usize {
        match self {
            Workload::StreamD7 => 4000,
            Workload::ReplayD7 => 12_000,
            Workload::ReplayD5 | Workload::WindowD5 => 3000,
        }
    }

    fn window_lag(self) -> Option<usize> {
        (self == Workload::WindowD5).then_some(WINDOW_LAG)
    }
}

/// Run options.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Distinct cycles of content; [`Workload::content_cycles`] except in
    /// the benchmark's own short tests.
    pub content_cycles: usize,
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Content descriptors: fixed by the seed, independent of timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Descriptors {
    pub logical_error_rate: f64,
    pub readout_error_rate: f64,
    pub events_per_block: f64,
    pub blocks_11_15_frac: f64,
    pub redecode_factor: f64,
    pub commit_frac: f64,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub descriptors: Descriptors,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable context lines (sizes, counts, host).
    pub notes: Vec<String>,
}

/// Content counts over a fixed set of cycles.
#[derive(Debug, Default)]
struct Content {
    cycles: u64,
    logical_errors: u64,
    events: u64,
    blocks_11_15: u64,
    readout_bits: u64,
    readout_errors: u64,
    window: WindowWork,
}

impl Content {
    fn add(&mut self, outcome: &DecodeOutcome) {
        self.cycles += 1;
        self.logical_errors += u64::from(outcome.logical_error);
        self.events += outcome.n_events as u64;
        self.blocks_11_15 += u64::from((11..=15).contains(&outcome.n_events));
    }

    fn add_window(&mut self, w: &WindowWork) {
        self.window.advances += w.advances;
        self.window.committing += w.committing;
        self.window.handed += w.handed;
    }

    fn descriptors(&self) -> Descriptors {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        Descriptors {
            logical_error_rate: ratio(self.logical_errors, self.cycles),
            readout_error_rate: ratio(self.readout_errors, self.readout_bits),
            events_per_block: ratio(self.events, self.cycles),
            blocks_11_15_frac: ratio(self.blocks_11_15, self.cycles),
            redecode_factor: ratio(self.window.handed, self.events),
            commit_frac: ratio(self.window.committing, self.window.advances),
        }
    }
}

fn train() -> &'static Disc {
    // Leaked: the engine and replayer borrow the discriminator for the
    // whole process, and a few set-up repetitions leak a few kilobytes.
    Box::leak(train_mf_discriminator(
        &ChipConfig::five_qubit_default(),
        SHOTS_PER_STATE,
        CALIBRATION_SEED,
    ))
}

/// Runs `setup` [`SETUP_REPS`] times; returns the last `keep` results and
/// the median wall time in seconds. Older results are dropped before the
/// next set-up starts, so at most `keep` are resident.
fn timed_setups<T>(keep: usize, mut setup: impl FnMut() -> T) -> (Vec<T>, f64) {
    let mut kept = Vec::with_capacity(keep);
    let mut secs = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        if kept.len() == keep {
            kept.remove(0);
        }
        let t = Instant::now();
        kept.push(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (kept, median_f64(&secs))
}

/// Drives one engine cycle through its public calls — `begin_cycle`,
/// `step_round` per round, `finish_cycle` — with a span around each call
/// when `ring` is set. Returns the result, the cycle time and the verdict
/// time (`finish_cycle`), in ns.
fn engine_cycle<D: ?Sized + PrecisionDiscriminator<f64>>(
    engine: &mut CycleEngine<'_, f64, D>,
    ring: Option<&SpanRing>,
    id: u64,
) -> (CycleResult, u64, u64) {
    let start = now_ns();
    let mut laps = Laps::new(ring, id, start);
    engine.begin_cycle();
    laps.mark(Track::BeginCycle);
    for _ in 0..engine.config().rounds {
        engine.step_round();
        laps.mark(Track::StepRound);
    }
    let last_commit = now_ns();
    let mut laps = Laps::new(ring, id, last_commit);
    let result = engine.finish_cycle();
    laps.mark(Track::FinishCycle);
    let end = now_ns();
    laps.cycle(start, end);
    (result, end - start, end - last_commit)
}

/// Per-layer timing layout shared by both kinds of workload.
struct LayerInputs<'a> {
    layers: &'a LayerTimes,
    /// Detection events of each cycle id.
    n_events: &'a dyn Fn(u64) -> usize,
    rounds: usize,
    batch_bytes: usize,
    synth_per_round: &'a [u64],
    disc_track: Track,
    syndrome_track: Track,
    decode_tracks: &'a [Track],
    /// Whether the workload decodes with the sliding window.
    window: bool,
}

fn per_layer_metrics(li: &LayerInputs<'_>, d: &Descriptors, slicer: &Slicer) -> Vec<Metric> {
    let lt = li.layers;
    let disc = lt.durs(li.disc_track);
    let disc_total: u64 = disc.iter().sum();
    let gbytes_per_s = if disc_total == 0 {
        0.0
    } else {
        (li.batch_bytes * disc.len()) as f64 / disc_total as f64
    };
    let syndrome: Vec<u64> = lt
        .per_cycle(li.syndrome_track)
        .map(|(_, ns)| ns / li.rounds as u64)
        .collect();
    let mut decode_by_cycle: std::collections::BTreeMap<u64, u64> = Default::default();
    for &t in li.decode_tracks {
        for (c, ns) in lt.per_cycle(t) {
            *decode_by_cycle.entry(c).or_default() += ns;
        }
    }
    let decode: Vec<u64> = decode_by_cycle.values().copied().collect();
    let bucket = |lo: usize, hi: usize| {
        let v: Vec<u64> = decode_by_cycle
            .iter()
            .filter(|(&c, _)| (lo..=hi).contains(&(li.n_events)(c)))
            .map(|(_, &ns)| ns)
            .collect();
        percentile(&v, 0.5) as f64
    };
    let engine_overhead: Vec<u64> = {
        let mut per: std::collections::BTreeMap<u64, u64> = Default::default();
        for t in [Track::BeginCycle, Track::StepRound, Track::FinishCycle] {
            for (c, ns) in lt.per_cycle(t) {
                *per.entry(c).or_default() += ns;
            }
        }
        per.into_values().collect()
    };
    // Synthesis share of the engine's cycles: its synth stage spans over
    // the engine calls that hold them. The whole-block replays take it from
    // the engine that runs their output check; `window_d5` has none.
    let engine_calls: u64 = [Track::BeginCycle, Track::StepRound, Track::FinishCycle]
        .iter()
        .map(|&t| lt.durs(t).iter().sum::<u64>())
        .sum();
    let synth_share = if engine_calls == 0 {
        0.0
    } else {
        lt.durs(Track::EngineSynth).iter().sum::<u64>() as f64 / engine_calls as f64
    };
    let p50 = |v: &[u64]| percentile(v, 0.5) as f64;
    let mut metrics = vec![
        m("synth.ns_per_round_p50", "ns", p50(li.synth_per_round)),
        m("synth.share", "fraction", synth_share),
        m("discriminate.ns_per_round_p50", "ns", p50(disc)),
        m(
            "discriminate.ns_per_round_p99",
            "ns",
            percentile(disc, 0.99) as f64,
        ),
        m("discriminate.gbytes_per_s", "GB/s-computed", gbytes_per_s),
        m("syndrome.ns_per_round_p50", "ns", p50(&syndrome)),
        m("decode.ns_p50", "ns", p50(&decode)),
        m("decode.ns_p99", "ns", percentile(&decode, 0.99) as f64),
        m("decode.ns_p50.events_le10", "ns", bucket(0, 10)),
        m("decode.ns_p50.events_11_15", "ns", bucket(11, 15)),
        m("decode.ns_p50.events_ge16", "ns", bucket(16, usize::MAX)),
        m("decode.events_per_block", "count", d.events_per_block),
        m("decode.blocks_11_15_frac", "fraction", d.blocks_11_15_frac),
        m(
            "engine.step_round_ns_p50",
            "ns",
            p50(lt.durs(Track::StepRound)),
        ),
        m(
            "engine.finish_cycle_ns_p50",
            "ns",
            p50(lt.durs(Track::FinishCycle)),
        ),
        m("engine.overhead_ns_per_cycle", "ns", p50(&engine_overhead)),
        m("host.ref_loop_ns", "ns", p50(&slicer.probe_ns)),
        m(
            "trace.overhead_frac",
            "fraction",
            slicer.trace_overhead_frac(),
        ),
    ];
    if li.window {
        metrics.extend([
            m(
                "window.advance_ns_p50",
                "ns",
                p50(lt.durs(Track::WindowAdvance)),
            ),
            m(
                "window.finish_ns_p50",
                "ns",
                p50(lt.durs(Track::WindowFinish)),
            ),
            m("window.redecode_factor", "ratio", d.redecode_factor),
            m("window.commit_frac", "fraction", d.commit_frac),
        ]);
    }
    metrics
}

/// End-to-end metrics. `cycle_ns` and `verdict_ns` are the latencies the
/// percentiles run over, one per distinct cycle: the median of the cycle's
/// runs on the stream's engines, or of a recorded cycle's replays.
fn end_to_end_metrics(
    slicer: &Slicer,
    cycle_ns: &[u64],
    verdict_ns: &[u64],
    rounds: usize,
    d: &Descriptors,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        m("rounds_per_s", "1/s", slicer.rounds_per_s(rounds)),
        m("cycle_ns_p50", "ns", percentile(cycle_ns, 0.5) as f64),
        m("cycle_ns_p995", "ns", percentile(cycle_ns, TAIL) as f64),
        m("verdict_ns_p50", "ns", percentile(verdict_ns, 0.5) as f64),
        m("verdict_ns_p995", "ns", percentile(verdict_ns, TAIL) as f64),
        m("logical_error_rate", "fraction", d.logical_error_rate),
        m("readout_error_rate", "fraction", d.readout_error_rate),
        m("peak_rss_mb", "MB", peak_rss_mb()),
        m("setup_s", "s", setup_s),
    ]
}

fn common_notes(opts: &Options, slicer: &Slicer, setup_s: f64) -> Vec<String> {
    vec![
        format!(
            "workload {} seed {} | {} measured cycles in {} untraced + {} traced slices",
            opts.workload.name(),
            opts.seed,
            slicer.cycle_ns.len(),
            slicer.plain.len(),
            slicer.traced.len(),
        ),
        format!(
            "host: {} logical CPUs available | reference loop p50 {} ns | set-up median of {} = {:.3} s",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            percentile(&slicer.probe_ns, 0.5),
            SETUP_REPS,
            setup_s
        ),
    ]
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::StreamD7 => run_stream(opts),
        Workload::ReplayD7 | Workload::ReplayD5 | Workload::WindowD5 => run_replay(opts),
    }
}

fn cycle_config(w: Workload, seed: u64) -> CycleConfig {
    CycleConfig {
        rounds: w.rounds(),
        data_error_prob: DATA_ERROR_PROB,
        seed,
    }
}

fn batch_bytes(chip: &ChipConfig, code: &RotatedSurfaceCode) -> usize {
    let groups = code.n_stabilizers().div_ceil(chip.n_qubits());
    groups * 2 * chip.n_samples() * std::mem::size_of::<f64>()
}

/// Writes the Chrome trace of a traced run to
/// `rtbench/out/<workload>-seed<seed>.trace.json`.
fn write_trace(opts: &Options, spans: &[SpanEvent], notes: &mut Vec<String>) {
    let path = std::path::PathBuf::from(format!(
        "rtbench/out/{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    let json = trace::chrome_json(&format!("rtbench {}", opts.workload.name()), spans);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => notes.push(format!(
            "chrome trace: {} ({} spans)",
            path.display(),
            spans.len()
        )),
        Err(e) => notes.push(format!(
            "chrome trace not written to {}: {e}",
            path.display()
        )),
    }
}

/// `stream_d7`: the engine in its default configuration, simulator included.
fn run_stream(opts: &Options) -> Report {
    let w = opts.workload;
    let chip = ChipConfig::five_qubit_default();
    let code = RotatedSurfaceCode::new(w.distance());
    let cfg = cycle_config(w, opts.seed);

    let (set_ups, setup_s) = timed_setups(STREAM_ENGINES, || {
        let disc = train();
        let mut engine = CycleEngine::new(cfg, &chip, &code, disc);
        // Warm-up: buffers reach their steady size. Its verdict is cycle 0
        // of the checked prefix.
        let warm_up = engine.run_cycle().outcome;
        (disc, engine, warm_up)
    });
    let disc = set_ups[0].0;
    let warm_up = set_ups[0].2;
    let mut engines: Vec<_> = set_ups.into_iter().map(|(_, engine, _)| engine).collect();

    // The output check's reference, untimed: the stream's first cycles,
    // recorded and replayed one at a time through the real-time path.
    let n_check = STREAM_CHECK_CYCLES.min(opts.content_cycles);
    let mut recorder = Recorder::new(cfg, &chip, &code);
    let mut replayer = Replayer::new(cfg, &chip, &code, disc, None);
    let mut content = Content::default();
    let mut verdicts = Vec::with_capacity(n_check);
    for _ in 0..n_check {
        let rec = recorder.next_cycle();
        let r = replayer.replay(&rec, &mut Laps::new(None, 0, 0), true);
        content.readout_errors += r.readout_errors;
        content.readout_bits += rec.parities.len() as u64;
        verdicts.push(r.outcome);
    }

    let mut tracer = Tracer::default();
    let mut outcomes: Vec<DecodeOutcome> = vec![warm_up];
    let rounds = cfg.rounds;
    let reps = engines.len() as u64;
    let mut slicer = Slicer::new(opts.trace);
    let mut cycle_ns: Vec<u64> = Vec::new();
    let mut verdict_ns: Vec<u64> = Vec::new();
    let mut failed = 0u64;
    let mut times = vec![(Vec::new(), Vec::new()); STREAM_SLICE_CYCLES];
    let run_start = Instant::now();
    while run_start.elapsed().as_secs_f64() < opts.seconds || cycle_ns.len() < opts.content_cycles {
        // The same 64 cycles on every engine, one slice each.
        let first = outcomes.len();
        for (e, engine) in engines.iter_mut().enumerate() {
            tracer.skip_engine(engine.telemetry().spans());
            let traced = slicer.start_slice();
            for (i, t) in times.iter_mut().enumerate() {
                let id = (first + i) as u64 * reps + e as u64;
                let (result, c_ns, v_ns) = engine_cycle(engine, tracer.ring(traced), id);
                slicer.record(c_ns, v_ns);
                t.0.push(c_ns);
                t.1.push(v_ns);
                if e == 0 {
                    outcomes.push(result.outcome);
                } else {
                    failed += u64::from(result.outcome != outcomes[first + i]);
                }
            }
            slicer.end_slice(traced, STREAM_SLICE_CYCLES);
            if traced {
                tracer.collect(Some(engine.telemetry().spans()));
            }
        }
        for (c, v) in times.iter_mut() {
            cycle_ns.push(percentile(c, 0.5));
            verdict_ns.push(percentile(v, 0.5));
            c.clear();
            v.clear();
        }
    }

    // Content over the fixed prefix, and the check against the replayed
    // reference verdicts.
    for o in &outcomes[..opts.content_cycles] {
        content.add(o);
    }
    failed += outcomes
        .iter()
        .zip(&verdicts)
        .filter(|(engine, replayed)| engine != replayed)
        .count() as u64;
    let d = content.descriptors();

    let layers = &tracer.layers;
    let synth = layers.durs(Track::EngineSynth).to_vec();
    let n_events_of = |id: u64| outcomes.get((id / reps) as usize).map_or(0, |o| o.n_events);
    let per_layer = per_layer_metrics(
        &LayerInputs {
            layers,
            n_events: &n_events_of,
            rounds,
            batch_bytes: batch_bytes(&chip, &code),
            synth_per_round: &synth,
            disc_track: Track::EngineDiscriminate,
            syndrome_track: Track::EngineSyndrome,
            decode_tracks: &[Track::EngineDecode],
            window: false,
        },
        &d,
        &slicer,
    );
    let mut notes = common_notes(opts, &slicer, setup_s);
    notes.push(format!(
        "content over cycles 0..{}: {} logical errors; each cycle run on {reps} engines; readout checked on {n_check} replayed cycles ({} bits)",
        opts.content_cycles, content.logical_errors, content.readout_bits
    ));
    if opts.trace {
        write_trace(opts, &tracer.kept, &mut notes);
    }
    Report {
        correct: failed == 0,
        attempted: (slicer.cycle_ns.len() + n_check) as u64,
        failed,
        descriptors: d,
        end_to_end: end_to_end_metrics(&slicer, &cycle_ns, &verdict_ns, rounds, &d, setup_s),
        per_layer,
        notes,
    }
}

/// `replay_d7`, `replay_d5` and `window_d5`: recorded rounds through the
/// real-time path.
///
/// The corpus is recorded in chunks. Set-up records the first; each later
/// chunk is recorded, untimed, into the same buffers once the previous one
/// has been replayed. Every chunk gets one untimed gate pass (verdicts,
/// content, and for the window the whole-block reference decode) and then
/// the same number of timed passes, one slice each.
fn run_replay(opts: &Options) -> Report {
    let w = opts.workload;
    let chip = ChipConfig::five_qubit_default();
    let code = RotatedSurfaceCode::new(w.distance());
    let cfg = cycle_config(w, opts.seed);
    let n_chunk = w.chunk_cycles().min(opts.content_cycles);
    let n_chunks = opts.content_cycles / n_chunk;

    let (mut set_ups, setup_s) = timed_setups(1, || {
        let disc = train();
        let mut recorder = Recorder::new(cfg, &chip, &code);
        let chunk: Vec<CycleRecord> = (0..n_chunk).map(|_| recorder.next_cycle()).collect();
        let mut replayer = Replayer::new(cfg, &chip, &code, disc, w.window_lag());
        replayer.replay(&chunk[0], &mut Laps::new(None, 0, 0), false); // warm-up
        (disc, recorder, chunk, replayer)
    });
    let (disc, mut recorder, mut chunk, mut replayer) = set_ups.pop().expect("at least one set-up");
    let chunk_bytes: usize = chunk.iter().map(CycleRecord::adc_bytes).sum();

    // Gate: the engine on the same seed produces the first chunk's
    // verdicts. In a traced run its calls are traced too, which gives the
    // engine-layer numbers on this seed.
    let mut tracer = Tracer::default();
    let mut engine_verdicts = Vec::new();
    if w.window_lag().is_none() {
        let mut engine = CycleEngine::new(cfg, &chip, &code, disc);
        tracer.skip_engine(engine.telemetry().spans());
        for i in 0..n_chunk {
            let ring = tracer.ring(opts.trace);
            engine_verdicts.push(engine_cycle(&mut engine, ring, i as u64).0.outcome);
            if opts.trace && i % 64 == 63 {
                tracer.collect(Some(engine.telemetry().spans()));
            }
        }
        if opts.trace {
            tracer.collect(Some(engine.telemetry().spans()));
        }
    }

    let mut content = Content::default();
    let mut failed = 0u64;
    let mut attempted = engine_verdicts.len() as u64;
    let mut whole = DecodeScratch::prewarmed(&code, cfg.rounds);
    let mut expected: Vec<DecodeOutcome> = Vec::with_capacity(n_chunk);
    // Detection events of every timed replay, by replay id (the id its
    // spans carry).
    let mut n_events: Vec<u16> = Vec::new();
    let mut slicer = Slicer::new(opts.trace);
    let mut passes = 0usize;
    // Per corpus cycle, the median of its timed replays: host interference
    // that hits a few replays does not move it.
    let mut distinct_cycle_ns: Vec<u64> = Vec::with_capacity(n_chunk * n_chunks);
    let mut distinct_verdict_ns: Vec<u64> = Vec::with_capacity(n_chunk * n_chunks);
    let mut chunk_cycle_ns: Vec<Vec<u64>> = vec![Vec::new(); n_chunk];
    let mut chunk_verdict_ns: Vec<Vec<u64>> = vec![Vec::new(); n_chunk];
    for k in 0..n_chunks {
        if k > 0 {
            for rec in chunk.iter_mut() {
                recorder.record_into(rec);
            }
        }
        expected.clear();
        for (i, rec) in chunk.iter().enumerate() {
            let r = replayer.replay(rec, &mut Laps::new(None, 0, 0), true);
            content.add(&r.outcome);
            content.add_window(&r.window);
            content.readout_errors += r.readout_errors;
            content.readout_bits += rec.parities.len() as u64;
            if w.window_lag().is_some() {
                let reference = decode_block_with(&code, replayer.block(), &mut whole);
                failed += u64::from(
                    reference.logical_error != r.outcome.logical_error
                        || reference.n_events != r.outcome.n_events,
                );
                attempted += 1;
            }
            if let Some(want) = engine_verdicts.get(k * n_chunk + i) {
                failed += u64::from(r.outcome != *want);
            }
            expected.push(r.outcome);
        }
        // The first chunk is replayed until it has filled its share of the
        // run; every later chunk gets the same pass count, so each recorded
        // cycle weighs the same in the latencies.
        let chunk_start = Instant::now();
        let budget = opts.seconds / n_chunks as f64;
        let mut pass = 0;
        loop {
            let traced = slicer.start_slice();
            for (i, rec) in chunk.iter().enumerate() {
                let id = n_events.len() as u64;
                n_events.push(expected[i].n_events.min(u16::MAX as usize) as u16);
                let r = replayer.replay(rec, &mut Laps::new(tracer.ring(traced), id, 0), false);
                slicer.record(r.cycle_ns, r.verdict_ns);
                chunk_cycle_ns[i].push(r.cycle_ns);
                chunk_verdict_ns[i].push(r.verdict_ns);
                failed += u64::from(r.outcome != expected[i]);
            }
            slicer.end_slice(traced, n_chunk);
            if traced {
                tracer.collect(None);
            }
            pass += 1;
            let done = if k == 0 {
                chunk_start.elapsed().as_secs_f64() >= budget
            } else {
                pass >= passes
            };
            if done {
                break;
            }
        }
        if k == 0 {
            passes = pass;
        }
        for (samples, out) in [
            (&mut chunk_cycle_ns, &mut distinct_cycle_ns),
            (&mut chunk_verdict_ns, &mut distinct_verdict_ns),
        ] {
            for v in samples.iter_mut() {
                out.push(percentile(v, 0.5));
                v.clear();
            }
        }
    }
    attempted += (n_chunk * n_chunks * passes) as u64;
    let d = content.descriptors();

    let n_events_of = |c: u64| n_events.get(c as usize).map_or(0, |&n| n as usize);
    let decode_tracks: &[Track] = if w.window_lag().is_some() {
        &[Track::WindowAdvance, Track::WindowFinish]
    } else {
        &[Track::Decode]
    };
    let per_layer = per_layer_metrics(
        &LayerInputs {
            layers: &tracer.layers,
            n_events: &n_events_of,
            rounds: cfg.rounds,
            batch_bytes: batch_bytes(&chip, &code),
            synth_per_round: &recorder.synth_ns,
            disc_track: Track::Discriminate,
            syndrome_track: Track::Syndrome,
            decode_tracks,
            window: w.window_lag().is_some(),
        },
        &d,
        &slicer,
    );
    let mut notes = common_notes(opts, &slicer, setup_s);
    notes.push(format!(
        "corpus: {n_chunks} chunks x {n_chunk} cycles x {} rounds, {:.1} MiB of ADC samples per chunk, each cycle replayed {passes} times; {} logical errors in {} cycles",
        cfg.rounds,
        chunk_bytes as f64 / (1 << 20) as f64,
        content.logical_errors,
        content.cycles,
    ));
    if opts.trace {
        write_trace(opts, &tracer.kept, &mut notes);
    }
    Report {
        correct: failed == 0,
        attempted,
        failed,
        descriptors: d,
        end_to_end: end_to_end_metrics(
            &slicer,
            &distinct_cycle_ns,
            &distinct_verdict_ns,
            cfg.rounds,
            &d,
            setup_s,
        ),
        per_layer,
        notes,
    }
}
