//! Reference oracle for the decoder tests: exact canonical minimum-weight
//! matching of a detection-event set by dynamic programming over event
//! subsets, O(2^k·k).
//!
//! It shares nothing with the library's matchers but the metric's
//! definition on [`RotatedSurfaceCode`]: every subset's optimum pairs its
//! lowest event with a boundary or with another event of the subset. Each
//! memo entry packs `(cost << WEST_BITS) | west`, so the numeric minimum is
//! the lexicographic minimum over `(cost, west)` — the canonical tie-break
//! the decoders must reproduce.

use surface_code::syndrome::DetectionEvent;
use surface_code::RotatedSurfaceCode;

/// Largest event set the oracle accepts (a `2^14`-entry memo).
pub const ORACLE_LIMIT: usize = 14;

/// West counts fit in 8 bits (`≤ ORACLE_LIMIT`); costs sit above them.
const WEST_BITS: u32 = 8;

/// The canonical `(cost, west)` of `events`. `memo` is reusable scratch.
///
/// # Panics
///
/// Panics on more than [`ORACLE_LIMIT`] events.
pub fn subset_dp(
    code: &RotatedSurfaceCode,
    events: &[DetectionEvent],
    memo: &mut Vec<u64>,
) -> (u64, usize) {
    let n = events.len();
    assert!(n <= ORACLE_LIMIT, "oracle takes ≤ {ORACLE_LIMIT} events");
    let full = (1usize << n) - 1;
    memo.clear();
    memo.resize(full + 1, u64::MAX);
    memo[0] = 0;
    // Increasing-mask order is valid: every transition clears the lowest
    // set bit, so dependencies have smaller masks.
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        let ei = &events[i];
        let rest = mask & !(1 << i);
        let west = memo[rest] + ((code.dist_west(ei.stab) as u64) << WEST_BITS) + 1;
        let east = memo[rest] + ((code.dist_east(ei.stab) as u64) << WEST_BITS);
        let mut best = west.min(east);
        let mut others = rest;
        while others != 0 {
            let j = others.trailing_zeros() as usize;
            others &= others - 1;
            let ej = &events[j];
            let dist = code.stab_distance(ei.stab, ej.stab) + ei.round.abs_diff(ej.round);
            best = best.min(memo[rest & !(1 << j)] + ((dist as u64) << WEST_BITS));
        }
        memo[mask] = best;
    }
    (
        memo[full] >> WEST_BITS,
        (memo[full] & ((1 << WEST_BITS) - 1)) as usize,
    )
}
