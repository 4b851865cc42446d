//! Self-tests of the benchmark's own arithmetic: percentile selection, span
//! self time, open-loop due-time accounting, and the cadence of the restores
//! spread over a run.

use perfbench::openloop::{OpenLoop, Schedule};
use perfbench::stats::{highest_supported, label, Samples};
use perfbench::trace::{by_name, covered, self_times, Span, Tracer, NO_PARENT};
use perfbench::Cadence;

#[test]
fn highest_supported_percentile_keeps_ten_samples_beyond_it() {
    assert_eq!(highest_supported(19), None);
    assert_eq!(highest_supported(20), Some(50_000));
    assert_eq!(highest_supported(99), Some(50_000));
    assert_eq!(highest_supported(100), Some(90_000));
    assert_eq!(highest_supported(999), Some(90_000));
    assert_eq!(highest_supported(1000), Some(99_000));
    assert_eq!(highest_supported(9999), Some(99_000));
    assert_eq!(highest_supported(10_000), Some(99_900));
    assert_eq!(highest_supported(100_000), Some(99_990));
    assert_eq!(highest_supported(1_000_000), Some(99_999));
}

#[test]
fn percentiles_are_nearest_rank() {
    let mut s = Samples::new();
    for v in (1..=100).rev() {
        s.push(f64::from(v));
    }
    assert_eq!(s.p50(), 50.0);
    assert_eq!(s.percentile(90_000), 90.0);
    assert_eq!(s.p99(), 99.0);
    assert_eq!(s.percentile(99_900), 100.0);
    assert_eq!(Samples::new().p50(), 0.0);
    assert_eq!(label(50_000), "p50");
    assert_eq!(label(99_900), "p99.9");
    assert_eq!(label(99_990), "p99.99");
    assert!(s.describe("us").contains("p90=90.0us"));
}

fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span { name, start, end, parent, req: 7 }
}

#[test]
fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
    let spans = vec![
        span("a", 0, 100, NO_PARENT),
        // overlapping children of a: together they cover 10..50
        span("b", 10, 30, 0),
        span("c", 20, 50, 0),
        // a grandchild counts against b only
        span("d", 12, 14, 1),
        // a child running past its parent counts only inside it (90..100)
        span("e", 90, 120, 0),
        span("f", 150, 160, NO_PARENT),
    ];
    assert_eq!(self_times(&spans), vec![50, 18, 30, 2, 30, 10]);
    // roots cover 0..100 and 150..160
    assert_eq!(covered(&spans), 110);
    let rows = by_name(&spans);
    let a = rows.iter().find(|r| r.0 == "a").expect("a is listed");
    assert_eq!((a.1, a.2, a.3), (1, 100, 50));
}

#[test]
fn tracer_nests_spans_and_records_only_selected_blocks() {
    let mut t = Tracer::new(true);
    assert!(!t.select(3, 4), "block 0 is not recorded");
    let id = t.begin("skipped", 3);
    t.end(id);
    assert!(t.spans().is_empty());
    assert!(t.select(4, 4), "block 1 is recorded");
    let outer = t.begin("outer", 4);
    let inner = t.begin("inner", 4);
    t.leaf("leaf", 4, 5, 6);
    t.end(inner);
    t.end(outer);
    let s = t.spans();
    assert_eq!(s.len(), 3);
    assert_eq!((s[0].name, s[0].parent), ("outer", NO_PARENT));
    assert_eq!((s[1].name, s[1].parent), ("inner", 0));
    assert_eq!((s[2].name, s[2].parent, s[2].start, s[2].end), ("leaf", 1, 5, 6));
    assert!(s.iter().all(|x| x.req == 4 && x.end >= x.start));

    let mut off = Tracer::new(false);
    assert!(!off.select(4, 4), "an untraced run never records");
    let id = off.begin("x", 0);
    off.end(id);
    assert!(off.spans().is_empty());
}

#[test]
fn open_loop_latency_counts_from_the_due_time() {
    // one request every 1000 ns from t = 1000
    let mut ol = OpenLoop::new(Schedule::new(1000, 1e6));
    assert_eq!(ol.next_due(), 1000);

    // request 0 goes out on time and is answered 500 ns later
    assert_eq!(ol.sent(1000), (0, 0));
    assert_eq!(ol.answered(1500), (0, 500));

    // request 1 goes out on time, then the system stalls until 6000
    assert_eq!(ol.next_due(), 2000);
    assert_eq!(ol.sent(2000), (1, 0));
    // requests 2 and 3 fell due during the stall; the generator could only
    // send them at 6000 and 6001: their send lag is recorded ...
    assert_eq!(ol.sent(6000), (2, 3000));
    assert_eq!(ol.sent(6001), (3, 2001));
    assert_eq!(ol.outstanding(), 3);
    // ... and their latency runs from when they were due, not from when
    // they were sent, so the stall is charged to every one of them
    assert_eq!(ol.answered(6000), (1, 4000));
    assert_eq!(ol.answered(6500), (2, 3500));
    assert_eq!(ol.answered(7000), (3, 3000));
    assert_eq!(ol.outstanding(), 0);
    assert_eq!(ol.next_index(), 4);
    assert_eq!(ol.next_due(), 5000);
}

#[test]
fn window_rate_is_the_median_over_windows_of_completions() {
    use perfbench::stats::median_window_rate;
    // 10 points every 1 ms, except one 100 ms stall: the stalled window is
    // an outlier the median ignores
    let mut done = Vec::new();
    let mut t = 0;
    for i in 0..40 {
        t += if i == 5 { 100_000_000 } else { 1_000_000 };
        done.push((t, 10));
    }
    assert_eq!(median_window_rate(&done, 4), 10_000.0);
    assert_eq!(median_window_rate(&done[..4], 4), 0.0, "no full window");
}

#[test]
fn cadence_spreads_its_due_times_evenly_and_counts_what_is_left() {
    // 4 due times over [1000, 1800): at 1100, 1300, 1500 and 1700
    let mut c = Cadence::new(1000, 800, 4);
    assert!(!c.due(1099));
    assert!(c.due(1100));
    c.take();
    assert!(!c.due(1299));
    // a late check still takes the next due time, and only that one
    assert!(c.due(1600));
    c.take();
    assert!(c.due(1600));
    c.take();
    assert!(!c.due(1699));
    assert_eq!(c.left(), 1);
    assert!(c.due(1700));
    c.take();
    assert_eq!(c.left(), 0);
    assert!(!c.due(u64::MAX));
}
