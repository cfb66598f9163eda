//! Order statistics and span self-time computation.

use disco_benchmark::spans::{self_time_by_name, self_times, Recorder, Span, TRIAL};
use disco_benchmark::stats::{median, quartiles, tail_percentile};

#[test]
fn median_handles_odd_even_and_empty() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[3.0]), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[1.0, f64::NAN, 2.0]), Some(1.5), "NaN is dropped");
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some((1.25, 3.75)));
    // Two points extrapolate, as Python's exclusive method does:
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
    assert_eq!(quartiles(&[]), None);
}

#[test]
fn p90_needs_ten_samples_beyond_it() {
    let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
    assert_eq!(
        tail_percentile(&ninety_nine, 0.9),
        None,
        "rank 90 of 99 leaves only 9 samples above"
    );
    let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
    assert_eq!(tail_percentile(&hundred, 0.5), Some(50.0));
    assert_eq!(tail_percentile(&[], 0.9), None);
    assert_eq!(tail_percentile(&[1.0; 5], 0.5), None);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        run: 0,
    }
}

#[test]
fn self_time_subtracts_nested_children_once() {
    // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); b [50,90).
    let spans = [
        span(TRIAL, 0, 100, None),
        span("a", 10, 40, Some(0)),
        span("a1", 15, 25, Some(1)),
        span("b", 50, 90, Some(0)),
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    let by_name = self_time_by_name(&spans);
    let total: f64 = by_name.values().sum();
    assert!(
        (total - 100e-9).abs() < 1e-15,
        "self times partition the root"
    );
}

#[test]
fn self_time_counts_overlapping_children_once_and_clips_overhang() {
    // Two workers' spans overlap on [30,50); a third child overhangs the
    // parent's end and only its inside part counts.
    let spans = [
        span(TRIAL, 0, 100, None),
        span("w", 10, 50, Some(0)),
        span("w", 30, 70, Some(0)),
        span("late", 90, 130, Some(0)),
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 60 - 10);
    assert_eq!(&own[1..], &[40, 40, 40]);
    assert!((self_time_by_name(&spans)["w"] - 80e-9).abs() < 1e-15);
}

#[test]
fn recorder_records_only_when_enabled() {
    let mut off = Recorder::new(false);
    off.begin_trial(1);
    assert_eq!(off.leaf("x", || 7), 7);
    off.end_trial();
    assert!(off.spans().is_empty());

    let mut on = Recorder::new(true);
    on.begin_trial(3);
    on.leaf("x", || ());
    on.leaf("y", || ());
    on.end_trial();
    let spans = on.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].name, TRIAL);
    assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.run == 3));
    assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    assert!(
        spans[0].end_ns >= spans[2].end_ns,
        "root encloses its children"
    );
}
