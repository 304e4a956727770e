//! The content descriptors repeat exactly for a seed, and the output
//! checks pass, on short runs.

use rtbench::{run, Options, Report, Workload};

fn short(workload: Workload, seed: u64) -> Report {
    run(&Options {
        workload,
        seed,
        seconds: 0.05,
        trace: false,
        content_cycles: 40,
    })
}

#[test]
fn descriptors_repeat_exactly_for_a_seed() {
    for w in [
        Workload::StreamD7,
        Workload::ReplayD7,
        Workload::ReplayD5,
        Workload::WindowD5,
    ] {
        let (a, b) = (short(w, 5), short(w, 5));
        assert_eq!(a.descriptors, b.descriptors, "{}", w.name());
        assert!(a.descriptors.readout_error_rate > 0.0, "{}", w.name());
        assert!(a.descriptors.events_per_block > 0.0, "{}", w.name());
    }
}

#[test]
fn replay_and_stream_verdicts_pass_their_checks() {
    for w in [Workload::StreamD7, Workload::ReplayD7, Workload::ReplayD5] {
        let r = short(w, 5);
        assert!(
            r.correct,
            "{}: {} of {} failed",
            w.name(),
            r.failed,
            r.attempted
        );
        assert!(r.attempted > 0);
    }
}

#[test]
fn window_counts_its_useful_work() {
    let d = short(Workload::WindowD5, 5).descriptors;
    assert!(d.redecode_factor >= 1.0, "{d:?}");
    assert!((0.0..=1.0).contains(&d.commit_frac), "{d:?}");
}
