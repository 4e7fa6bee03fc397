//! Kernel-launch accumulation and timing.

use crate::{Gpu, SimTime};

/// Whether a modelled launch was limited by arithmetic throughput or by the
/// memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// The SIMD pipelines were the bottleneck (typical for badly imbalanced launches).
    Compute,
    /// The memory system was the bottleneck (typical for well-balanced SpMV).
    Memory,
}

/// Utilisation statistics of a modelled launch, useful for explaining *why*
/// one kernel beat another on a given matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchStats {
    /// Number of wavefronts issued.
    pub wavefronts: usize,
    /// Fraction of lane-cycles that did useful work (1.0 = perfectly balanced).
    pub simd_utilization: f64,
    /// Estimated L2 hit ratio of the gathered traffic.
    pub gather_hit_ratio: f64,
    /// Fraction of the device's wavefront slots this launch could fill.
    pub occupancy: f64,
}

/// Modelled timing of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    /// End-to-end launch time (overhead + max(compute, memory)).
    pub total: SimTime,
    /// Time attributed to the SIMD pipelines.
    pub compute: SimTime,
    /// Time attributed to the memory system.
    pub memory: SimTime,
    /// Fixed dispatch overhead included in `total`.
    pub overhead: SimTime,
    /// Which resource bound the launch.
    pub bound: Boundedness,
    /// Utilisation statistics.
    pub stats: LaunchStats,
}

/// Accumulates the work of a kernel launch wavefront by wavefront and then
/// prices it against the device model.
///
/// Kernels describe their work in four quantities per wavefront:
///
/// * `max_lane_cycles` — cycles of the busiest lane; because SIMD lanes run in
///   lockstep this is what the wavefront actually costs,
/// * `total_lane_cycles` — sum over lanes; used to report utilisation,
/// * `streamed_bytes` — coalesced DRAM traffic issued by the wavefront,
/// * `gathered_words` — random reads of the dense input vector.
///
/// # Example
///
/// ```
/// use seer_gpu::Gpu;
///
/// let gpu = Gpu::default();
/// let mut launch = gpu.launch();
/// launch.set_gather_profile(8.0 * 10_000.0, 0.5);
/// for _ in 0..1000 {
///     launch.add_wavefront(100, 6400, 64 * 12, 64);
/// }
/// let timing = launch.finish();
/// assert!(timing.stats.simd_utilization <= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct LaunchBuilder<'a> {
    gpu: &'a Gpu,
    wavefronts: usize,
    critical_wavefront_cycles: f64,
    total_wavefront_cycles: f64,
    total_lane_cycles: f64,
    streamed_bytes: f64,
    gathered_words: f64,
    gather_word_bytes: f64,
    gather_footprint_bytes: f64,
    gather_locality: f64,
    atomic_ops: f64,
    atomic_conflict: f64,
    dispatches: usize,
    streaming_efficiency: f64,
}

impl<'a> LaunchBuilder<'a> {
    /// 2^53: every integer below it is an exact `f64`.
    const EXACT_INTEGER_BOUND: f64 = (1u64 << 53) as f64;

    pub(crate) fn new(gpu: &'a Gpu) -> Self {
        Self {
            gpu,
            wavefronts: 0,
            critical_wavefront_cycles: 0.0,
            total_wavefront_cycles: 0.0,
            total_lane_cycles: 0.0,
            streamed_bytes: 0.0,
            gathered_words: 0.0,
            gather_word_bytes: 8.0,
            gather_footprint_bytes: 0.0,
            gather_locality: 0.0,
            atomic_ops: 0.0,
            atomic_conflict: 1.0,
            dispatches: 1,
            streaming_efficiency: 1.0,
        }
    }

    /// Adds one wavefront's work to the launch.
    pub fn add_wavefront(
        &mut self,
        max_lane_cycles: u64,
        total_lane_cycles: u64,
        streamed_bytes: u64,
        gathered_words: u64,
    ) {
        self.wavefronts += 1;
        let max_cycles = max_lane_cycles as f64;
        self.critical_wavefront_cycles = self.critical_wavefront_cycles.max(max_cycles);
        self.total_wavefront_cycles += max_cycles;
        self.total_lane_cycles += total_lane_cycles as f64;
        self.streamed_bytes += streamed_bytes as f64;
        self.gathered_words += gathered_words as f64;
    }

    /// Adds `count` identical wavefronts in one call.
    ///
    /// Work-oriented schedules (merge-path, COO segments, ELL rows) produce
    /// thousands of wavefronts with identical per-lane work, and length-only
    /// row schedules produce one identical wavefront set per row of a given
    /// length; this bulk method keeps modelling them O(1) instead of
    /// O(wavefronts).
    ///
    /// It is exact, not an approximation: the per-wavefront quantities are
    /// integers, so while every accumulated sum stays an integer below 2^53
    /// each `f64` product and sum is exact, and the timing equals `count`
    /// calls of [`LaunchBuilder::add_wavefront`] in any order. Debug builds
    /// assert that bound.
    pub fn add_uniform_wavefronts(
        &mut self,
        count: usize,
        max_lane_cycles: u64,
        total_lane_cycles: u64,
        streamed_bytes: u64,
        gathered_words: u64,
    ) {
        if count == 0 {
            return;
        }
        self.wavefronts += count;
        let max_cycles = max_lane_cycles as f64;
        self.critical_wavefront_cycles = self.critical_wavefront_cycles.max(max_cycles);
        self.total_wavefront_cycles += max_cycles * count as f64;
        self.total_lane_cycles += total_lane_cycles as f64 * count as f64;
        self.streamed_bytes += streamed_bytes as f64 * count as f64;
        self.gathered_words += gathered_words as f64 * count as f64;
        debug_assert!(
            [
                self.total_wavefront_cycles,
                self.total_lane_cycles,
                self.streamed_bytes,
                self.gathered_words,
            ]
            .iter()
            .all(|&sum| sum < Self::EXACT_INTEGER_BOUND),
            "launch sums must stay integers below 2^53 to be exact"
        );
    }

    /// Declares the random-access profile of the launch: the footprint of the
    /// gathered structure (typically `8 * cols` bytes for the dense vector)
    /// and the spatial locality of the gathers in `[0, 1]`.
    pub fn set_gather_profile(&mut self, footprint_bytes: f64, locality: f64) {
        self.gather_footprint_bytes = footprint_bytes;
        self.gather_locality = locality;
    }

    /// Overrides the size of each gathered word (default 8 bytes).
    pub fn set_gather_word_bytes(&mut self, bytes: f64) {
        self.gather_word_bytes = bytes;
    }

    /// Declares how well the launch's streamed traffic coalesces, in `(0, 1]`.
    ///
    /// A value of 1 means every DRAM transaction is fully used (wavefront- and
    /// work-oriented schedules, ELL). Values below 1 inflate the DRAM traffic,
    /// modelling schedules such as CSR thread-mapping where neighbouring lanes
    /// read from strided locations and waste most of each cache line.
    pub fn set_streaming_efficiency(&mut self, efficiency: f64) {
        self.streaming_efficiency = efficiency.clamp(0.05, 1.0);
    }

    /// Adds `ops` atomic read-modify-write operations with the given conflict factor.
    pub fn add_atomics(&mut self, ops: u64, conflict_factor: f64) {
        self.atomic_ops += ops as f64;
        self.atomic_conflict = self.atomic_conflict.max(conflict_factor);
    }

    /// Declares that the kernel requires `count` separate device dispatches
    /// (e.g. one per row bin); each pays the launch overhead.
    pub fn set_dispatches(&mut self, count: usize) {
        self.dispatches = count.max(1);
    }

    /// Number of wavefronts accumulated so far.
    pub fn wavefront_count(&self) -> usize {
        self.wavefronts
    }

    /// Prices the accumulated work against the device model.
    pub fn finish(self) -> KernelTiming {
        let spec = self.gpu.spec();
        let memory_model = self.gpu.memory();

        let pipelines = spec.parallel_pipelines() as f64;
        // Every wavefront pays a fixed issue/drain cost on its SIMD pipeline
        // in addition to its lanes' work.
        let issue_cycles = self.wavefronts as f64 * spec.wavefront_overhead_cycles;
        // Throughput term: wavefronts spread over every SIMD pipeline.
        let throughput_cycles = (self.total_wavefront_cycles + issue_cycles) / pipelines;
        // Critical-path term: the slowest single wavefront cannot be split.
        let critical_cycles = if self.wavefronts == 0 {
            0.0
        } else {
            self.critical_wavefront_cycles + spec.wavefront_overhead_cycles
        };
        let compute_cycles = throughput_cycles.max(critical_cycles);
        let compute = SimTime::from_nanos(compute_cycles * spec.cycle_ns());

        let gather = memory_model.gather(
            self.gathered_words,
            self.gather_word_bytes,
            self.gather_footprint_bytes,
            self.gather_locality,
        );
        let memory = memory_model.stream_time(self.streamed_bytes / self.streaming_efficiency)
            + gather.time
            + memory_model.atomic_time(self.atomic_ops, self.atomic_conflict);

        let overhead =
            SimTime::from_micros(spec.kernel_launch_overhead_us) * self.dispatches as f64;
        let bound = if compute >= memory {
            Boundedness::Compute
        } else {
            Boundedness::Memory
        };
        let total = overhead + compute.max(memory);

        let issued_lane_cycles = self.total_wavefront_cycles * spec.wavefront_size as f64;
        let simd_utilization = if issued_lane_cycles > 0.0 {
            (self.total_lane_cycles / issued_lane_cycles).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let occupancy = if spec.full_occupancy_wavefronts() > 0 {
            (self.wavefronts as f64 / spec.full_occupancy_wavefronts() as f64).min(1.0)
        } else {
            0.0
        };

        KernelTiming {
            total,
            compute,
            memory,
            overhead,
            bound,
            stats: LaunchStats {
                wavefronts: self.wavefronts,
                simd_utilization,
                gather_hit_ratio: gather.hit_ratio,
                occupancy,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpu, GpuSpec};

    fn gpu() -> Gpu {
        Gpu::new(GpuSpec::mi100())
    }

    #[test]
    fn empty_launch_costs_only_overhead() {
        let gpu = gpu();
        let timing = gpu.launch().finish();
        assert_eq!(timing.total, timing.overhead);
        assert_eq!(timing.stats.wavefronts, 0);
    }

    #[test]
    fn imbalanced_wavefronts_cost_more_than_balanced() {
        let gpu = gpu();
        // Same total useful work, but one launch concentrates it in a straggler lane.
        let mut balanced = gpu.launch();
        let mut imbalanced = gpu.launch();
        for _ in 0..10_000 {
            balanced.add_wavefront(100, 6400, 0, 0);
            imbalanced.add_wavefront(6400, 6400, 0, 0);
        }
        let bal = balanced.finish();
        let imb = imbalanced.finish();
        assert!(imb.compute > bal.compute);
        assert!(imb.stats.simd_utilization < bal.stats.simd_utilization);
        assert!((bal.stats.simd_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn critical_path_bounds_small_launches() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        // A single enormous wavefront cannot be parallelised.
        launch.add_wavefront(1_000_000, 1_000_000, 0, 0);
        let t = launch.finish();
        let expected = (1_000_000.0 + gpu.spec().wavefront_overhead_cycles) * gpu.spec().cycle_ns();
        assert!((t.compute.as_nanos() - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn streaming_traffic_makes_launch_memory_bound() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        for _ in 0..1000 {
            launch.add_wavefront(10, 640, 1 << 20, 0);
        }
        let t = launch.finish();
        assert_eq!(t.bound, Boundedness::Memory);
        assert!(t.memory > t.compute);
    }

    #[test]
    fn compute_heavy_launch_is_compute_bound() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        for _ in 0..1000 {
            launch.add_wavefront(100_000, 64 * 100_000, 64, 0);
        }
        assert_eq!(launch.finish().bound, Boundedness::Compute);
    }

    #[test]
    fn extra_dispatches_add_overhead() {
        let gpu = gpu();
        let mut one = gpu.launch();
        one.add_wavefront(10, 640, 0, 0);
        let mut four = gpu.launch();
        four.add_wavefront(10, 640, 0, 0);
        four.set_dispatches(4);
        assert!(four.finish().overhead > one.finish().overhead);
    }

    #[test]
    fn gathers_with_large_footprint_slow_the_launch() {
        let gpu = gpu();
        let mut cached = gpu.launch();
        let mut thrash = gpu.launch();
        for _ in 0..5000 {
            cached.add_wavefront(20, 1280, 1024, 64);
            thrash.add_wavefront(20, 1280, 1024, 64);
        }
        cached.set_gather_profile(64.0 * 1024.0, 0.0);
        thrash.set_gather_profile(2e9, 0.0);
        let c = cached.finish();
        let t = thrash.finish();
        assert!(t.memory > c.memory);
        assert!(t.stats.gather_hit_ratio < c.stats.gather_hit_ratio);
    }

    #[test]
    fn atomics_add_memory_time() {
        let gpu = gpu();
        let mut without = gpu.launch();
        let mut with = gpu.launch();
        for _ in 0..1000 {
            without.add_wavefront(10, 640, 64, 0);
            with.add_wavefront(10, 640, 64, 0);
        }
        with.add_atomics(1_000_000, 2.0);
        assert!(with.finish().memory > without.finish().memory);
    }

    #[test]
    fn occupancy_saturates_at_one() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        for _ in 0..100_000 {
            launch.add_wavefront(1, 64, 0, 0);
        }
        assert!((launch.finish().stats.occupancy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poor_coalescing_inflates_memory_time() {
        let gpu = gpu();
        let mut coalesced = gpu.launch();
        let mut strided = gpu.launch();
        for _ in 0..2000 {
            coalesced.add_wavefront(10, 640, 1 << 16, 0);
            strided.add_wavefront(10, 640, 1 << 16, 0);
        }
        strided.set_streaming_efficiency(0.25);
        let c = coalesced.finish();
        let s = strided.finish();
        assert!((s.memory.as_nanos() / c.memory.as_nanos() - 4.0).abs() < 0.01);
    }

    #[test]
    fn streaming_efficiency_is_clamped() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        launch.add_wavefront(10, 640, 1 << 20, 0);
        launch.set_streaming_efficiency(0.0);
        // Clamped to 0.05, not a division by zero.
        assert!(launch.finish().memory.as_nanos().is_finite());
    }

    #[test]
    fn bulk_add_matches_individual_adds() {
        let gpu = gpu();
        let mut bulk = gpu.launch();
        let mut each = gpu.launch();
        bulk.add_uniform_wavefronts(500, 80, 4000, 1024, 64);
        for _ in 0..500 {
            each.add_wavefront(80, 4000, 1024, 64);
        }
        let b = bulk.finish();
        let e = each.finish();
        assert_eq!(b.stats.wavefronts, e.stats.wavefronts);
        assert!((b.total.as_nanos() - e.total.as_nanos()).abs() < 1e-6);
    }

    #[test]
    fn bulk_add_with_zero_count_is_noop() {
        let gpu = gpu();
        let mut launch = gpu.launch();
        launch.add_uniform_wavefronts(0, 100, 100, 100, 100);
        assert_eq!(launch.wavefront_count(), 0);
    }

    #[test]
    fn more_total_work_takes_longer() {
        let gpu = gpu();
        let mut small = gpu.launch();
        let mut large = gpu.launch();
        for _ in 0..10_000 {
            small.add_wavefront(50, 3200, 512, 32);
        }
        for _ in 0..40_000 {
            large.add_wavefront(50, 3200, 512, 32);
        }
        assert!(large.finish().total > small.finish().total);
    }
}
