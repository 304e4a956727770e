//! Run slicing, the host-drift probe, and the statistics the report uses.

use std::hint::black_box;
use std::time::Instant;

/// Steps of the host-drift reference loop (≈ 0.5 ms on this host).
const REF_STEPS: usize = 50_000;
/// Entries of the reference loop's pointer-chase table (256 KiB: resident
/// in L2, so the probe feels a neighbour contending for the core's caches).
const REF_TABLE: usize = 1 << 16;

/// A fixed spin loop that uses nothing from the repository: a dependent
/// pointer chase through a single-cycle permutation, fed into a
/// multiply-add chain. Its wall time tracks how fast the host runs right
/// now, so a slow host can be told apart from a slow change.
pub struct RefLoop {
    next: Vec<u32>,
}

impl Default for RefLoop {
    fn default() -> Self {
        // Sattolo's shuffle with a fixed LCG: one cycle through every slot.
        let mut next: Vec<u32> = (0..REF_TABLE as u32).collect();
        let mut state: u64 = 0x2545_F491_4F6C_DD1D;
        for i in (1..REF_TABLE).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            next.swap(i, j);
        }
        RefLoop { next }
    }
}

impl RefLoop {
    /// One timed pass, in ns.
    pub fn run_ns(&self) -> u64 {
        let t = Instant::now();
        let mut at = 0u32;
        let mut x: u64 = black_box(0x9E37_79B9_7F4A_7C15);
        for _ in 0..REF_STEPS {
            at = self.next[at as usize];
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(u64::from(at));
        }
        black_box(x);
        t.elapsed().as_nanos() as u64
    }
}

/// Splits a closed-loop run into slices of whole cycles. Before each slice
/// it runs the host probe; in a traced run it alternates traced and
/// untraced slices so the tracing cost is measured against interleaved
/// untraced work on the same inputs.
pub struct Slicer {
    trace: bool,
    probe: RefLoop,
    slice_start: Instant,
    slices: usize,
    /// Per-cycle time, round 0 in to verdict out, ns.
    pub cycle_ns: Vec<u64>,
    /// Per-cycle time, last noisy round's commit to verdict, ns.
    pub verdict_ns: Vec<u64>,
    /// Untraced slices: (wall ns, cycles).
    pub plain: Vec<(u64, usize)>,
    /// Traced slices: (wall ns, cycles).
    pub traced: Vec<(u64, usize)>,
    /// Host probe times, ns.
    pub probe_ns: Vec<u64>,
}

impl Slicer {
    /// A run whose slices alternate traced/untraced when `trace` is set.
    pub fn new(trace: bool) -> Self {
        Slicer {
            trace,
            probe: RefLoop::default(),
            slice_start: Instant::now(),
            slices: 0,
            cycle_ns: Vec::with_capacity(1 << 16),
            verdict_ns: Vec::with_capacity(1 << 16),
            plain: Vec::new(),
            traced: Vec::new(),
            probe_ns: Vec::new(),
        }
    }

    /// Runs the host probe, starts the next slice and says whether it is
    /// traced.
    pub fn start_slice(&mut self) -> bool {
        self.probe_ns.push(self.probe.run_ns());
        self.slice_start = Instant::now();
        self.trace && self.slices.is_multiple_of(2)
    }

    /// Records one cycle's two latencies.
    #[inline]
    pub fn record(&mut self, cycle_ns: u64, verdict_ns: u64) {
        self.cycle_ns.push(cycle_ns);
        self.verdict_ns.push(verdict_ns);
    }

    /// Closes the slice started by [`Slicer::start_slice`], which ran
    /// `cycles` cycles.
    pub fn end_slice(&mut self, traced: bool, cycles: usize) {
        let ns = self.slice_start.elapsed().as_nanos() as u64;
        if traced {
            self.traced.push((ns, cycles));
        } else {
            self.plain.push((ns, cycles));
        }
        self.slices += 1;
    }

    /// Median over untraced slices of rounds per second.
    pub fn rounds_per_s(&self, rounds_per_cycle: usize) -> f64 {
        let rates: Vec<f64> = self
            .plain
            .iter()
            .map(|&(ns, cycles)| (cycles * rounds_per_cycle) as f64 * 1e9 / ns as f64)
            .collect();
        median_f64(&rates)
    }

    /// Tracing cost: median per-cycle time of traced slices over that of
    /// untraced slices, minus one. Zero when the run was not traced.
    pub fn trace_overhead_frac(&self) -> f64 {
        let per_cycle = |s: &[(u64, usize)]| {
            let v: Vec<f64> = s.iter().map(|&(ns, c)| ns as f64 / c as f64).collect();
            median_f64(&v)
        };
        if self.traced.is_empty() || self.plain.is_empty() {
            return 0.0;
        }
        per_cycle(&self.traced) / per_cycle(&self.plain) - 1.0
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]`; zero for no samples.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair); zero for no samples.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MB (`VmHWM`); zero where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5), 500);
        assert_eq!(percentile(&v, 0.99), 990);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
