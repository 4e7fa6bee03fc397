//! Tests of the benchmark's own arithmetic.

use std::time::{Duration, Instant};

use seerbench::{
    histogram_delta, histogram_quantile, median, quantile_sorted, result_hash, result_json,
    LoadClock, Metric, Percentiles, Trace,
};

fn at(base: Instant, nanos: u64) -> Instant {
    base + Duration::from_nanos(nanos)
}

#[test]
fn percentiles_are_nearest_rank_and_carry_their_count() {
    let mut samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let summary = Percentiles::of(&mut samples);
    assert_eq!(summary.p50, 500.0);
    assert_eq!(summary.p99, 990.0);
    assert_eq!(summary.count, 1000);
    // Ten samples (991..=1000) lie beyond the p99 sample.
    assert_eq!(summary.beyond_p99(), 10);

    let mut few = vec![3.0, 1.0, 2.0];
    let summary = Percentiles::of(&mut few);
    assert_eq!((summary.p50, summary.p99, summary.count), (2.0, 3.0, 3));
    assert_eq!(summary.beyond_p99(), 0);

    let empty = Percentiles::of(&mut []);
    assert_eq!((empty.p50, empty.p99, empty.count), (0.0, 0.0, 0));
    assert_eq!(quantile_sorted(&[7.0], 0.0), 7.0);
}

#[test]
fn per_slice_percentiles_split_at_the_slice_starts() {
    let samples: Vec<f64> = (1..=10).map(f64::from).collect();
    let slices = Percentiles::per_slice(&samples, &[0, 4, 4]);
    assert_eq!(slices.len(), 3);
    assert_eq!(
        (slices[0].p50, slices[0].p99, slices[0].count),
        (2.0, 4.0, 4)
    );
    // An empty slice summarizes to zeros rather than borrowing samples.
    assert_eq!(slices[1].count, 0);
    assert_eq!(
        (slices[2].p50, slices[2].p99, slices[2].count),
        (7.0, 10.0, 6)
    );
}

#[test]
fn median_averages_the_middle_pair() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[4.0, 1.0, 9.0]), 4.0);
    assert_eq!(median(&[4.0, 1.0, 9.0, 2.0]), 3.0);
}

#[test]
fn load_time_excludes_input_generation_gaps() {
    let t0 = Instant::now();
    let mut clock = LoadClock::default();
    clock.start(at(t0, 0));
    // A second start while running does not move the origin.
    clock.start(at(t0, 1_000_000));
    // Generation gap from 3 ms to 5 ms.
    clock.stop(at(t0, 3_000_000));
    clock.stop(at(t0, 4_000_000));
    clock.start(at(t0, 5_000_000));
    clock.stop(at(t0, 9_000_000));
    assert_eq!(clock.load_time(), Duration::from_millis(7));
    assert!((clock.rate(14) - 2_000.0).abs() < 1e-9);

    clock.add(Duration::from_millis(3));
    assert_eq!(clock.load_time(), Duration::from_millis(10));
    assert_eq!(LoadClock::default().rate(5), 0.0);
}

#[test]
fn span_self_time_subtracts_the_union_of_children() {
    let t0 = Instant::now();
    let mut trace = Trace::new(t0);
    let request = trace.push("engine.request", at(t0, 0), at(t0, 100), None, 7);
    trace.push(
        "sparse.fingerprint",
        at(t0, 0),
        at(t0, 30),
        Some(request),
        7,
    );
    trace.push("engine.select", at(t0, 30), at(t0, 80), Some(request), 7);
    let other = trace.push("pool.request", at(t0, 200), at(t0, 300), None, 8);
    // Overlapping children count once; a child sticking out of its parent
    // only covers the part inside.
    trace.push("pool.submit", at(t0, 210), at(t0, 250), Some(other), 8);
    trace.push("pool.wait", at(t0, 240), at(t0, 260), Some(other), 8);
    trace.push("pool.wait", at(t0, 290), at(t0, 400), Some(other), 8);

    let covered = trace.child_covered_ns();
    assert_eq!(covered[request], 80);
    assert_eq!(covered[other], 50 + 10);
    let self_time = trace.self_time_ns();
    assert_eq!(self_time[request], 20);
    assert_eq!(self_time[other], 40);
    // Leaves are all self time.
    assert_eq!(self_time[request + 1], 30);

    assert!((trace.coverage("engine.request") - 0.8).abs() < 1e-12);
    assert!((trace.coverage("pool.request") - 0.6).abs() < 1e-12);
    assert_eq!(trace.coverage("missing"), 0.0);
    assert_eq!(trace.durations_us("engine.select"), vec![0.05]);

    let mut tsv = Vec::new();
    trace.write_tsv(&mut tsv).unwrap();
    let text = String::from_utf8(tsv).unwrap();
    assert_eq!(text.lines().count(), 1 + trace.spans().len());
    assert!(text.contains("engine.request\t0\t100\t20\t-\t7"));
    assert!(text.contains("engine.select\t30\t80\t50\t0\t7"));
}

#[test]
fn result_hash_catches_a_single_flipped_bit() {
    let values: Vec<f64> = (0..257).map(|i| f64::from(i) * 0.37 - 20.0).collect();
    let reference = result_hash(&values);
    assert_eq!(reference, result_hash(&values.clone()));
    for index in [0, 128, 256] {
        for bit in 0..64 {
            let mut flipped = values.clone();
            flipped[index] = f64::from_bits(flipped[index].to_bits() ^ (1 << bit));
            assert_ne!(
                result_hash(&flipped),
                reference,
                "bit {bit} of element {index} went unnoticed"
            );
        }
    }
    // Length is part of the hash: a trailing zero is not invisible.
    let mut longer = values.clone();
    longer.push(0.0);
    assert_ne!(result_hash(&longer), reference);
    // Bits, not values: -0.0 and 0.0 hash differently.
    assert_ne!(result_hash(&[0.0]), result_hash(&[-0.0]));
}

#[test]
fn histogram_quantiles_cover_only_the_delta() {
    let mut before = vec![0u64; 64];
    let mut after = vec![0u64; 64];
    before[3] = 5;
    after[3] = 5;
    // Four new samples in [1024, 2048) ns.
    after[10] = 4;
    let delta = histogram_delta(&before, &after);
    assert_eq!(delta.iter().sum::<u64>(), 4);
    assert_eq!(histogram_quantile(&delta, 0.5), 1024.0 + 1024.0 * 0.5);
    assert_eq!(histogram_quantile(&delta, 1.0), 2048.0);
    assert_eq!(histogram_quantile(&[0; 64], 0.5), 0.0);
}

#[test]
fn result_line_is_one_json_object() {
    let line = result_json(
        true,
        12,
        0,
        &[
            Metric::new("engine_rps", 1234.5678901234, "1/s"),
            Metric::new("setup_s", f64::NAN, "s"),
        ],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
         {\"engine_rps\": {\"value\": 1234.5678901234, \"unit\": \"1/s\"}, \
         \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
    );
}
