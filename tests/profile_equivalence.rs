//! Equivalence suite for the fused one-pass matrix profile and the
//! allocation-free SpMV core.
//!
//! The fused [`MatrixProfile`] replaced ~10 independent derivations (one
//! sampled profile per kernel model, standalone `RowStats`, `max_row_len`
//! scans, the ELL padding estimate, the bandwidth scan, the per-wavefront row
//! groups, the structure-signature probe). This suite re-implements each
//! *legacy* derivation verbatim and asserts the fused pass is
//! **bit-identical** on the synthetic corpora plus the adversarial shapes
//! from `tests/kernel_differential.rs` — so the perf optimisation can never
//! silently shift a feature, a cost model or a selection. The length-only
//! cost models (`CSR,WM`, `CSR,BM`, `CSR,A`), which price from the profile's
//! row-length histogram, are compared field by field against frozen copies
//! of their row-by-row bodies on every reference device.

use std::collections::BTreeMap;

use seer::gpu::{Fleet, Gpu, KernelTiming};
use seer::kernels::{CostParams, CsrAdaptive, CsrBlockMapped, CsrWavefrontMapped, SpmvKernel};
use seer::sparse::collection::{generate, CollectionConfig, SizeScale};
use seer::sparse::stats::{bandwidth, ell_padding_ratio};
use seer::sparse::{
    generators, CsrMatrix, MatrixProfile, RowStats, SplitMix64, StructureSignature,
};

/// The legacy sampled access-pattern profile, copied verbatim from the
/// pre-fused `seer_kernels::MatrixProfile::new`.
fn legacy_profile(matrix: &CsrMatrix) -> (f64, f64, f64) {
    const LOCALITY_SAMPLES: usize = 4096;
    let cols = matrix.cols().max(1);
    let nnz = matrix.nnz();
    let rows = matrix.rows().max(1);
    let x_footprint_bytes = 8.0 * cols as f64;
    let gather_locality = if nnz == 0 {
        1.0
    } else {
        let step = (nnz / LOCALITY_SAMPLES).max(1);
        let col_indices = matrix.col_indices();
        let row_offsets = matrix.row_offsets();
        let mut sampled = 0usize;
        let mut distance_sum = 0.0f64;
        let mut row = 0usize;
        let mut idx = 0usize;
        while idx < nnz {
            while row + 1 < row_offsets.len() && row_offsets[row + 1] <= idx {
                row += 1;
            }
            let diag = (row as f64 / rows as f64) * cols as f64;
            let distance = (col_indices[idx] as f64 - diag).abs() / cols as f64;
            distance_sum += distance;
            sampled += 1;
            idx += step;
        }
        let mean_distance = if sampled == 0 {
            0.0
        } else {
            distance_sum / sampled as f64
        };
        (1.0 - 3.0 * mean_distance).clamp(0.0, 1.0)
    };
    (x_footprint_bytes, gather_locality, nnz as f64 / rows as f64)
}

/// The legacy standalone row statistics, copied verbatim from the pre-fused
/// `RowStats::from_row_lengths`.
fn legacy_row_stats(matrix: &CsrMatrix) -> RowStats {
    let cols = matrix.cols();
    let mut rows = 0usize;
    let mut nnz = 0usize;
    let mut max_row_len = 0usize;
    let mut min_row_len = usize::MAX;
    let mut empty_rows = 0usize;
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for r in 0..matrix.rows() {
        let len = matrix.row_len(r);
        rows += 1;
        nnz += len;
        max_row_len = max_row_len.max(len);
        min_row_len = min_row_len.min(len);
        if len == 0 {
            empty_rows += 1;
        }
        let lf = len as f64;
        sum += lf;
        sum_sq += lf * lf;
    }
    if rows == 0 {
        return RowStats::default();
    }
    let mean = sum / rows as f64;
    let var = (sum_sq / rows as f64 - mean * mean).max(0.0);
    let norm = if cols == 0 { 1.0 } else { cols as f64 };
    RowStats {
        rows,
        cols,
        nnz,
        max_row_len,
        min_row_len,
        mean_row_len: mean,
        var_row_len: var,
        max_density: max_row_len as f64 / norm,
        min_density: min_row_len as f64 / norm,
        mean_density: mean / norm,
        var_density: var / (norm * norm),
        empty_rows,
    }
}

/// The legacy per-wavefront row grouping, copied verbatim from the kernels'
/// `row_groups` helper at the CDNA wavefront width.
fn legacy_wavefront_groups(matrix: &CsrMatrix) -> Vec<(u32, u32)> {
    let rows = matrix.rows();
    let group = MatrixProfile::WAVEFRONT_GROUP;
    (0..rows.div_ceil(group))
        .map(|g| {
            let start = g * group;
            let end = ((g + 1) * group).min(rows);
            let mut max_len = 0;
            let mut sum_len = 0;
            for row in start..end {
                let len = matrix.row_len(row);
                max_len = max_len.max(len);
                sum_len += len;
            }
            (max_len as u32, sum_len as u32)
        })
        .collect()
}

/// The legacy padding estimate: recompute `RowStats` from scratch, then
/// derive the padded fraction — exactly the old `ell_padding_ratio`.
fn legacy_ell_padding_ratio(matrix: &CsrMatrix) -> f64 {
    let stats = legacy_row_stats(matrix);
    let padded = stats.rows * stats.max_row_len;
    if padded == 0 {
        0.0
    } else {
        1.0 - stats.nnz as f64 / padded as f64
    }
}

/// The per-row lengths counted one row at a time: the reference for the
/// profile's row-length histogram.
fn legacy_row_length_histogram(matrix: &CsrMatrix) -> Vec<(u32, u32)> {
    let mut counts = BTreeMap::new();
    for r in 0..matrix.rows() {
        *counts.entry(matrix.row_len(r) as u32).or_insert(0u32) += 1;
    }
    counts.into_iter().collect()
}

/// `CSR,WM`'s row-by-row cost body, frozen from before it priced from the
/// row-length histogram.
fn legacy_wavefront_mapped_timing(
    gpu: &Gpu,
    matrix: &CsrMatrix,
    profile: &MatrixProfile,
) -> KernelTiming {
    let p = CostParams::default();
    let wavefront = gpu.spec().wavefront_size;
    let reduction_steps = ceil_log2(wavefront) as f64;
    let mut launch = gpu.launch();
    launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
    for row in 0..matrix.rows() {
        let len = matrix.row_len(row);
        let strides = len.div_ceil(wavefront) as f64;
        let max_cycles = 2.0 * p.thread_prologue_cycles
            + strides * p.cycles_per_nnz
            + reduction_steps * p.reduction_cycles_per_step;
        let total_cycles = wavefront as f64 * p.thread_prologue_cycles
            + len as f64 * p.cycles_per_nnz
            + wavefront as f64 * p.reduction_cycles_per_step;
        let streamed = len as u64 * p.csr_bytes_per_nnz() + p.row_meta_bytes;
        launch.add_wavefront(max_cycles as u64, total_cycles as u64, streamed, len as u64);
    }
    launch.finish()
}

/// `CSR,BM`'s row-by-row cost body, frozen likewise.
fn legacy_block_mapped_timing(
    gpu: &Gpu,
    matrix: &CsrMatrix,
    profile: &MatrixProfile,
) -> KernelTiming {
    const BLOCK: usize = 256;
    let p = CostParams::default();
    let wavefront = gpu.spec().wavefront_size;
    let wavefronts_per_block = BLOCK / wavefront.max(1);
    let reduction_steps =
        ceil_log2(wavefront) as f64 + ceil_log2(wavefronts_per_block) as f64 + 1.0;
    let mut launch = gpu.launch();
    launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
    for row in 0..matrix.rows() {
        let len = matrix.row_len(row);
        let strides = len.div_ceil(BLOCK) as f64;
        let max_cycles = p.thread_prologue_cycles
            + strides * p.cycles_per_nnz
            + reduction_steps * p.reduction_cycles_per_step;
        let per_wavefront_len = (len as u64).div_ceil(wavefronts_per_block as u64);
        let total_cycles = wavefront as f64 * p.thread_prologue_cycles
            + per_wavefront_len as f64 * p.cycles_per_nnz
            + wavefront as f64 * p.reduction_cycles_per_step;
        let streamed = per_wavefront_len * p.csr_bytes_per_nnz() + p.row_meta_bytes;
        launch.add_uniform_wavefronts(
            wavefronts_per_block,
            max_cycles as u64,
            total_cycles as u64,
            streamed,
            per_wavefront_len,
        );
    }
    launch.finish()
}

/// `CSR,A`'s cost body over the host pass's row bins, frozen likewise.
fn legacy_adaptive_timing(gpu: &Gpu, matrix: &CsrMatrix, profile: &MatrixProfile) -> KernelTiming {
    const SMALL_ROW_LIMIT: usize = 64;
    const MEDIUM_ROW_LIMIT: usize = 1024;
    let p = CostParams::default();
    let wavefront = gpu.spec().wavefront_size;
    let (mut small, mut medium, mut large) = (Vec::new(), Vec::new(), Vec::new());
    for row in 0..matrix.rows() {
        let len = matrix.row_len(row);
        if len <= SMALL_ROW_LIMIT {
            small.push(row);
        } else if len <= MEDIUM_ROW_LIMIT {
            medium.push(row);
        } else {
            large.push(row);
        }
    }

    let mut launch = gpu.launch();
    launch.set_gather_profile(profile.x_footprint_bytes, profile.gather_locality);
    if !small.is_empty() {
        let small_nnz: usize = small.iter().map(|&r| matrix.row_len(r)).sum();
        let work_items = small_nnz + small.len();
        let wavefronts = work_items.div_ceil(wavefront).max(1);
        let per_lane = 1.0;
        let max_cycles = p.thread_prologue_cycles
            + per_lane * p.cycles_per_nnz
            + ceil_log2(wavefront) as f64 * p.reduction_cycles_per_step;
        let total_cycles = wavefront as f64 * max_cycles;
        let nnz_share = (small_nnz as u64).div_ceil(wavefronts as u64);
        let row_share = (small.len() as u64).div_ceil(wavefronts as u64);
        let streamed = nnz_share * p.csr_bytes_per_nnz() + row_share * p.row_meta_bytes;
        launch.add_uniform_wavefronts(
            wavefronts,
            max_cycles as u64,
            total_cycles as u64,
            streamed,
            nnz_share,
        );
    }
    for &row in &medium {
        let len = matrix.row_len(row);
        let strides = len.div_ceil(wavefront) as f64;
        let max_cycles = p.thread_prologue_cycles
            + strides * p.cycles_per_nnz
            + ceil_log2(wavefront) as f64 * p.reduction_cycles_per_step;
        let total_cycles = wavefront as f64 * p.thread_prologue_cycles
            + len as f64 * p.cycles_per_nnz
            + wavefront as f64 * p.reduction_cycles_per_step;
        let streamed = len as u64 * p.csr_bytes_per_nnz() + p.row_meta_bytes;
        launch.add_wavefront(max_cycles as u64, total_cycles as u64, streamed, len as u64);
    }
    let block = 4 * wavefront;
    for &row in &large {
        let len = matrix.row_len(row);
        let strides = len.div_ceil(block) as f64;
        let max_cycles = p.thread_prologue_cycles
            + strides * p.cycles_per_nnz
            + (ceil_log2(block) as f64 + 1.0) * p.reduction_cycles_per_step;
        let per_wavefront_len = (len as u64).div_ceil(4);
        let total_cycles = wavefront as f64 * p.thread_prologue_cycles
            + per_wavefront_len as f64 * p.cycles_per_nnz
            + wavefront as f64 * p.reduction_cycles_per_step;
        let streamed = per_wavefront_len * p.csr_bytes_per_nnz() + p.row_meta_bytes;
        launch.add_uniform_wavefronts(
            4,
            max_cycles as u64,
            total_cycles as u64,
            streamed,
            per_wavefront_len,
        );
    }
    launch.set_dispatches(1);
    launch.finish()
}

fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// Every field of a timing as raw bits, so the comparison is bit for bit
/// (`==` on `f64` would equate `0.0` with `-0.0`).
fn timing_bits(timing: &KernelTiming) -> [u64; 9] {
    [
        timing.total.as_nanos().to_bits(),
        timing.compute.as_nanos().to_bits(),
        timing.memory.as_nanos().to_bits(),
        timing.overhead.as_nanos().to_bits(),
        timing.bound as u64,
        timing.stats.wavefronts as u64,
        timing.stats.simd_utilization.to_bits(),
        timing.stats.gather_hit_ratio.to_bits(),
        timing.stats.occupancy.to_bits(),
    ]
}

/// One of the Small collections the end-to-end benchmark trains on (seed
/// 2024) and serves held-out patterns from (seed 0xC01D).
fn small_collection(seed: u64) -> Vec<(String, CsrMatrix)> {
    let config = CollectionConfig {
        seed,
        matrices_per_family: 4,
        scale: SizeScale::Small,
    };
    generate(&config)
        .into_iter()
        .map(|entry| (format!("small_{seed:#x}/{}", entry.name), entry.matrix))
        .collect()
}

/// Short rows plus rows at and past the histogram's dense-table limit of
/// 4,096 entries, two of them of equal length.
fn long_rows_matrix() -> CsrMatrix {
    let lengths = [3usize, 4_095, 5_000, 0, 4_096, 5_000, 7, 9_000, 3];
    let cols = 10_000;
    let mut offsets = vec![0];
    let mut col_indices = Vec::new();
    for (row, &len) in lengths.iter().enumerate() {
        col_indices.extend((0..len).map(|i| (i * 7 + row) % cols));
        offsets.push(col_indices.len());
    }
    for (row, window) in offsets.windows(2).enumerate() {
        col_indices[window[0]..window[1]].sort_unstable();
        let mut deduped = col_indices[window[0]..window[1]].to_vec();
        deduped.dedup();
        assert_eq!(
            deduped.len(),
            lengths[row],
            "row {row} has distinct columns"
        );
    }
    let nnz = col_indices.len();
    CsrMatrix::try_new(lengths.len(), cols, offsets, col_indices, vec![1.0; nnz]).unwrap()
}

/// The tiny corpus + the adversarial shapes of
/// `tests/kernel_differential.rs`: small enough for a dense reference.
fn dense_checkable_shapes() -> Vec<(String, CsrMatrix)> {
    let mut rng = SplitMix64::new(0xE01);
    let mut shapes = vec![
        ("empty_0x0".to_string(), CsrMatrix::zeros(0, 0)),
        ("empty_rows_8x5".to_string(), CsrMatrix::zeros(8, 5)),
        ("empty_cols_5x0".to_string(), CsrMatrix::zeros(5, 0)),
        ("one_by_one".to_string(), CsrMatrix::identity(1)),
        ("one_by_one_zero".to_string(), CsrMatrix::zeros(1, 1)),
        (
            "single_dense_row".to_string(),
            CsrMatrix::try_new(3, 64, vec![0, 64, 64, 64], (0..64).collect(), vec![1.5; 64])
                .unwrap(),
        ),
        (
            "extreme_skew".to_string(),
            generators::skewed_rows(600, 1, 400, 0.03, &mut rng),
        ),
        (
            "tall_skinny".to_string(),
            generators::tall_skinny(2_000, 16, 3, &mut rng),
        ),
        (
            "short_wide".to_string(),
            generators::tall_skinny(16, 2_000, 5, &mut rng),
        ),
        ("banded".to_string(), generators::banded(1_000, 2, &mut rng)),
        (
            "uniform_random".to_string(),
            generators::uniform_random(500, 700, 0.01, &mut rng),
        ),
    ];
    for entry in generate(&CollectionConfig::tiny()) {
        shapes.push((entry.name, entry.matrix));
    }
    shapes
}

/// [`dense_checkable_shapes`] + both Small collections, rows past the
/// histogram's dense-table limit, and a power-law matrix with hundreds of
/// distinct row lengths.
fn all_shapes() -> Vec<(String, CsrMatrix)> {
    let mut rng = SplitMix64::new(0xE02);
    let mut shapes = dense_checkable_shapes();
    shapes.extend(small_collection(2024));
    shapes.extend(small_collection(0xC01D));
    shapes.push(("long_rows".to_string(), long_rows_matrix()));
    let power_law = generators::power_law(20_000, 1.3, 3_000, &mut rng);
    shapes.push(("power_law_wide".to_string(), power_law));
    shapes
}

#[test]
fn the_extra_shapes_cover_what_they_are_for() {
    let shapes = all_shapes();
    let find = |name: &str| &shapes.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(find("long_rows").profile().max_row_len() > 4_096);
    let distinct = find("power_law_wide").profile().row_length_histogram.len();
    assert!(distinct >= 200, "only {distinct} distinct row lengths");
    let small = shapes.iter().filter(|(n, _)| n.starts_with("small_"));
    assert_eq!(small.count(), 2 * 44);
}

#[test]
fn profile_signature_and_histogram_match_the_standalone_derivations() {
    for (name, matrix) in all_shapes() {
        let profile = matrix.profile();
        assert_eq!(
            profile.signature,
            StructureSignature::probe(&matrix),
            "{name}: signature"
        );
        assert_eq!(
            profile.row_length_histogram[..],
            legacy_row_length_histogram(&matrix)[..],
            "{name}: row_length_histogram"
        );
        assert!(profile.aggregated(), "{name}: fits the u32 aggregates");
        // The memo answers from the profile from now on.
        assert_eq!(matrix.structure_signature(), profile.signature, "{name}");
    }
}

#[test]
fn length_only_cost_models_price_bit_identically_from_the_histogram() {
    let kernels: [(&dyn SpmvKernel, LegacyTiming); 3] = [
        (&CsrWavefrontMapped::new(), legacy_wavefront_mapped_timing),
        (&CsrBlockMapped::new(), legacy_block_mapped_timing),
        (&CsrAdaptive::new(), legacy_adaptive_timing),
    ];
    let gpus: Vec<Gpu> = Fleet::reference_presets()
        .into_iter()
        .map(Gpu::new)
        .collect();
    assert!(gpus.iter().any(|gpu| gpu.spec().wavefront_size == 32));
    for (name, matrix) in all_shapes() {
        let profile = matrix.profile();
        // A matrix too large for the u32 aggregates is priced one row at a
        // time through the same body; pretend this one is, to cover it.
        let mut unaggregated = profile.clone();
        unaggregated.nnz = u32::MAX as usize + 1;
        assert!(!unaggregated.aggregated());
        for gpu in &gpus {
            for (kernel, legacy) in &kernels {
                let want = timing_bits(&legacy(gpu, &matrix, profile));
                let label = format!("{name}: {} on {}", kernel.id(), gpu.spec().name);
                let got = kernel.iteration_timing(gpu, &matrix, profile);
                assert_eq!(timing_bits(&got), want, "{label}");
                let row_by_row = kernel.iteration_timing(gpu, &matrix, &unaggregated);
                assert_eq!(timing_bits(&row_by_row), want, "{label}, row by row");
            }
        }
    }
}

/// The signature of a frozen cost body.
type LegacyTiming = fn(&Gpu, &CsrMatrix, &MatrixProfile) -> KernelTiming;

#[test]
fn fused_profile_is_bit_identical_to_legacy_derivations() {
    for (name, matrix) in all_shapes() {
        let profile = matrix.profile();

        let (x_footprint, locality, avg_row_len) = legacy_profile(&matrix);
        assert_eq!(
            profile.x_footprint_bytes, x_footprint,
            "{name}: x_footprint_bytes"
        );
        assert_eq!(profile.gather_locality, locality, "{name}: gather_locality");
        assert_eq!(profile.avg_row_len, avg_row_len, "{name}: avg_row_len");

        assert_eq!(
            profile.row_stats,
            legacy_row_stats(&matrix),
            "{name}: row_stats"
        );
        // The live RowStats::compute path must also stay in lockstep.
        assert_eq!(
            profile.row_stats,
            RowStats::compute(&matrix),
            "{name}: RowStats::compute"
        );

        assert_eq!(
            profile.wavefront_groups[..],
            legacy_wavefront_groups(&matrix)[..],
            "{name}: wavefront_groups"
        );
        assert_eq!(
            profile.ell_padding_ratio,
            legacy_ell_padding_ratio(&matrix),
            "{name}: ell_padding_ratio"
        );
        assert_eq!(
            profile.ell_padding_ratio,
            ell_padding_ratio(&matrix),
            "{name}: stats::ell_padding_ratio routed through the profile"
        );
        assert_eq!(profile.bandwidth, bandwidth(&matrix), "{name}: bandwidth");

        assert_eq!(profile.rows, matrix.rows(), "{name}: rows");
        assert_eq!(profile.cols, matrix.cols(), "{name}: cols");
        assert_eq!(profile.nnz, matrix.nnz(), "{name}: nnz");
        assert_eq!(
            profile.max_row_len(),
            (0..matrix.rows())
                .map(|r| matrix.row_len(r))
                .max()
                .unwrap_or(0),
            "{name}: max_row_len"
        );
    }
}

#[test]
fn profile_is_memoized_and_shared_across_clones() {
    let mut rng = SplitMix64::new(42);
    let matrix = generators::power_law(400, 2.0, 64, &mut rng);
    let before = MatrixProfile::passes();
    let first = matrix.profile().clone();
    let passes_after_first = MatrixProfile::passes();
    assert_eq!(passes_after_first, before + 1, "first access runs the pass");
    let second = matrix.profile();
    assert_eq!(MatrixProfile::passes(), passes_after_first, "memoized");
    assert_eq!(&first, second);
    // A clone carries the cached profile along.
    let clone = matrix.clone();
    assert!(clone.cached_profile().is_some());
    let _ = clone.profile();
    assert_eq!(MatrixProfile::passes(), passes_after_first);
}

#[test]
fn spmv_into_matches_spmv_and_dense_reference() {
    for (name, matrix) in dense_checkable_shapes() {
        let x: Vec<f64> = (0..matrix.cols()).map(|i| 0.5 * i as f64 - 3.0).collect();
        let expected = matrix.spmv(&x);

        // Start from a poisoned buffer: every element must be overwritten.
        let mut y = vec![f64::NAN; matrix.rows()];
        matrix.spmv_into(&x, &mut y);
        assert_eq!(y, expected, "{name}: spmv_into vs spmv");

        // Dense reference.
        let dense = matrix.to_dense();
        for (row, &value) in y.iter().enumerate() {
            let want: f64 = (0..matrix.cols()).map(|c| dense.get(row, c) * x[c]).sum();
            assert!(
                (value - want).abs() <= 1e-9 * want.abs().max(1.0),
                "{name}: row {row}: {value} vs dense {want}"
            );
        }

        // The checked variant shares the same core.
        let mut y2 = vec![0.0; matrix.rows()];
        matrix.try_spmv_into(&x, &mut y2).unwrap();
        assert_eq!(y2, expected, "{name}: try_spmv_into");
    }
}

#[test]
fn spmv_into_rejects_bad_dimensions() {
    let matrix = CsrMatrix::identity(4);
    let mut y_short = vec![0.0; 3];
    assert!(matrix.try_spmv_into(&[1.0; 4], &mut y_short).is_err());
    assert!(matrix.try_spmv_into(&[1.0; 5], &mut [0.0; 4]).is_err());
    assert!(matrix.try_spmv_into(&[1.0; 4], &mut [0.0; 4]).is_ok());
}

#[test]
#[should_panic(expected = "output vector length")]
fn spmv_into_panics_on_wrong_output_length() {
    let matrix = CsrMatrix::identity(4);
    let mut y = vec![0.0; 5];
    matrix.spmv_into(&[1.0; 4], &mut y);
}
