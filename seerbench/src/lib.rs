//! The benchmark's own arithmetic, kept apart from the workload loops in
//! `main.rs` so it can be tested on its own (`tests/arithmetic.rs`):
//!
//! * nearest-rank percentiles that carry their sample count, and the
//!   steady figure of a run from one value per time window;
//! * quantiles of the serving pool's log2 latency histograms, taken over the
//!   difference of two snapshots so warm-up traffic is left out;
//! * a load clock whose total excludes the gaps in which the harness
//!   generated inputs;
//! * spans with self time and coverage;
//! * the digests the oracle check compares;
//! * the one-line JSON result.

use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Nearest-rank `q`-quantile of ascending `sorted` samples: the smallest
/// sample with at least `q * n` samples at or below it. `0.0` when empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and 99th percentile of a sample set, with the count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Number of samples both percentiles were taken over.
    pub count: usize,
}

impl Percentiles {
    /// Sorts `samples` in place and summarizes them.
    pub fn of(samples: &mut [f64]) -> Self {
        samples.sort_by(f64::total_cmp);
        Self {
            p50: quantile_sorted(samples, 0.50),
            p99: quantile_sorted(samples, 0.99),
            count: samples.len(),
        }
    }

    /// Summaries of consecutive slices of `samples`: slice `i` runs from
    /// `starts[i]` to `starts[i + 1]` (the last one to the end).
    pub fn per_slice(samples: &[f64], starts: &[usize]) -> Vec<Self> {
        starts
            .iter()
            .enumerate()
            .map(|(i, &start)| {
                let end = starts.get(i + 1).copied().unwrap_or(samples.len());
                Self::of(&mut samples[start..end].to_vec())
            })
            .collect()
    }

    /// Samples strictly above the p99 sample's rank: how much evidence the
    /// tail percentile rests on.
    pub fn beyond_p99(&self) -> usize {
        let rank = (0.99 * self.count as f64).ceil() as usize;
        self.count - rank.min(self.count)
    }
}

/// Median of `values` (mean of the two middle values for an even count),
/// `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times: smaller is better.
    Lower,
    /// Rates: larger is better.
    Higher,
}

/// Share of a run's time windows in which its steady figure is met or
/// beaten.
pub const STEADY_SHARE: f64 = 0.25;

/// The steady figure of a run from one value per time window: the value met
/// or beaten in a quarter of the windows, that is the lower quartile of a
/// time and the upper quartile of a rate (nearest rank, so it is always one
/// window's value). Other tenants of a shared host slow windows down in
/// bursts of a few seconds and never speed one up; this figure moves only
/// when such a burst covers three quarters of the run, where the median
/// moves at half. A change to the program moves every window alike, and
/// the figure with them. `0.0` when empty.
pub fn steady(values: &[f64], better: Better) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match better {
        Better::Lower => quantile_sorted(&sorted, STEADY_SHARE),
        Better::Higher => quantile_sorted(&sorted, 1.0 - STEADY_SHARE),
    }
}

/// Bucket-wise `after - before` of two snapshots of one log2 histogram
/// (bucket `i` counts samples in `[2^i, 2^(i+1))` ns).
pub fn histogram_delta(before: &[u64], after: &[u64]) -> Vec<u64> {
    after
        .iter()
        .zip(before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect()
}

/// The `q`-quantile, in nanoseconds, of log2 histogram `counts`,
/// interpolated linearly inside its bucket the way the serving pool's own
/// snapshots interpolate. `0.0` when the histogram is empty.
pub fn histogram_quantile(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut below = 0u64;
    for (bucket, &count) in counts.iter().enumerate() {
        if count > 0 && below + count >= target {
            let lower = (1u128 << bucket) as f64;
            let fraction = (target - below) as f64 / count as f64;
            return lower + lower * fraction;
        }
        below += count;
    }
    0.0
}

/// Accumulates the time a load phase actually offered load: every interval
/// between a [`LoadClock::start`] and the next [`LoadClock::stop`]. Stopping
/// around input generation leaves those gaps out of the total.
#[derive(Debug, Clone, Default)]
pub struct LoadClock {
    active: Duration,
    since: Option<Instant>,
}

impl LoadClock {
    /// Starts (or resumes) counting at `now`; a no-op while running.
    pub fn start(&mut self, now: Instant) {
        self.since.get_or_insert(now);
    }

    /// Stops counting at `now`; a no-op while stopped.
    pub fn stop(&mut self, now: Instant) {
        if let Some(since) = self.since.take() {
            self.active += now.saturating_duration_since(since);
        }
    }

    /// Adds one already-measured interval of load.
    pub fn add(&mut self, interval: Duration) {
        self.active += interval;
    }

    /// Load time counted so far (excluding a still-running interval).
    pub fn load_time(&self) -> Duration {
        self.active
    }

    /// `completed` requests per second of load time; `0.0` before any load.
    pub fn rate(&self, completed: u64) -> f64 {
        let secs = self.active.as_secs_f64();
        if secs > 0.0 {
            completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// One timed call into a layer, or one request made of such calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.select`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory for the whole run and written out at exit.
#[derive(Debug, Clone)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span from `start` to `end` and returns its index, the
    /// handle children pass as their parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// For every span, the nanoseconds of its interval covered by the union
    /// of its children (overlapping children count once).
    pub fn child_covered_ns(&self) -> Vec<u64> {
        let mut children: Vec<(usize, u64, u64)> = self
            .spans
            .iter()
            .filter_map(|span| {
                let parent = span.parent?;
                let outer = &self.spans[parent];
                // Clip to the parent: only the part of a child inside its
                // parent's interval covers the parent.
                let start = span.start_ns.max(outer.start_ns);
                let end = span.end_ns.min(outer.end_ns);
                (end > start).then_some((parent, start, end))
            })
            .collect();
        children.sort_unstable();
        let mut covered = vec![0u64; self.spans.len()];
        let mut run: Option<(usize, u64, u64)> = None;
        for (parent, start, end) in children {
            match &mut run {
                Some((p, _, run_end)) if *p == parent && start <= *run_end => {
                    *run_end = (*run_end).max(end);
                }
                _ => {
                    if let Some((p, s, e)) = run.take() {
                        covered[p] += e - s;
                    }
                    run = Some((parent, start, end));
                }
            }
        }
        if let Some((p, s, e)) = run {
            covered[p] += e - s;
        }
        covered
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_time_ns(&self) -> Vec<u64> {
        self.child_covered_ns()
            .iter()
            .zip(&self.spans)
            .map(|(covered, span)| span.duration_ns().saturating_sub(*covered))
            .collect()
    }

    /// Share of the time of all spans called `root` that their children
    /// cover: `1.0` means the child layers account for the whole request.
    /// `0.0` when no such span has any duration.
    pub fn coverage(&self, root: &str) -> f64 {
        let covered = self.child_covered_ns();
        let (mut inside, mut total) = (0u64, 0u64);
        for (span, covered) in self.spans.iter().zip(&covered) {
            if span.name == root {
                inside += covered;
                total += span.duration_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            inside as f64 / total as f64
        }
    }

    /// Writes the spans as tab-separated lines:
    /// `name start_ns end_ns self_ns parent request` (`-` for no parent).
    pub fn write_tsv(&self, out: &mut impl Write) -> io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tself_ns\tparent\trequest")?;
        for (span, self_ns) in self.spans.iter().zip(self.self_time_ns()) {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, self_ns, parent, span.request
            )?;
        }
        Ok(())
    }
}

/// 64-bit hash of a word sequence: word-wise FNV-1a with a splitmix
/// finalizer. For a fixed sequence length every step is a bijection of the
/// running state, so two sequences that differ in any single bit always
/// hash differently.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// [`digest`] of a result vector's exact bits, length first: a single
/// flipped bit anywhere changes it.
pub fn result_hash(values: &[f64]) -> u64 {
    digest(std::iter::once(values.len() as u64).chain(values.iter().map(|v| v.to_bits())))
}

/// One named metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name, e.g. `engine.select_p50_us`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `us`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The result object printed as the last line of standard output:
/// `{"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}}}`. Values keep every digit Rust's shortest
/// round-trip formatting gives; a non-finite value (which JSON cannot hold)
/// is written as `0`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|metric| {
            let value = if metric.value.is_finite() {
                metric.value
            } else {
                0.0
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
