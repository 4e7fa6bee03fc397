//! Before/after proof of the fused one-pass profiling, the allocation-free
//! execute hot path, and the prepared-execution-plan warm path.
//!
//! ```text
//! cargo run -p seer_bench --release --bin profile_selection             # full run
//! cargo run -p seer_bench --release --bin profile_selection -- --smoke  # CI smoke
//! cargo run -p seer_bench --release --bin profile_selection -- --check  # + golden check
//! cargo run -p seer_bench --release --bin profile_selection -- --mode streaming
//! ```
//!
//! The binary measures, on the pinned golden corpus (so numbers are
//! comparable across commits):
//!
//! 1. **Cold selection profiling passes** — fresh matrices, fresh engine:
//!    the fused profiler must run **exactly one** traversal per matrix for a
//!    full cold `execute` (plan miss + all eight kernel cost models + feature
//!    collection), where the pre-fused code ran ~10 redundant sweeps (one
//!    `MatrixProfile` per kernel model, plus the feature collector's
//!    `RowStats` pass and its own cost-model profile). The legacy cost is
//!    emulated by running the same fused pass 10x per matrix, which is what
//!    the old per-kernel derivations added up to.
//! 2. **Steady-state execute allocations** — with plan, profile, timing and
//!    prepared-plan caches warm, the engine's warm execute into a reused
//!    [`EngineWorkspace`] must perform **zero** heap allocations per request.
//!    `--mode prepared` (default) pins the prepared-plan path
//!    (`execute_into`); `--mode streaming` pins the PR-3 streaming baseline
//!    (`execute_streaming_into`); the allocating `execute` wrapper (the old
//!    hot path) is measured next to both.
//! 3. **Warm prepared vs streaming** — on the merge-path/ELL-heavy corpus
//!    slice (every matrix under `CSR,MP`, low-padding matrices additionally
//!    under `ELL,TM` — the kernels whose streaming `compute_into` re-derives
//!    partition tables / padded layouts per call), the prepared warm path
//!    must be **>= 1.5x** faster aggregate, allocation-free, bit-identical,
//!    and counter-verified: exactly one preparation per `(matrix, kernel)`
//!    miss, zero per hit.
//! 4. **Online recalibration** — a fleet device silently made 8x slower
//!    than modelled must lose placement within a bounded number of observed
//!    executions (EWMA correction factors), and win it back within a
//!    bounded number once the drift lifts (epsilon-greedy exploration).
//! 5. **Cold-path work counts** — signature probes per fleet cold selection
//!    (the signature is the profile pass's by-product, so none), and the
//!    live heap bytes a 2-device engine retains per fresh fingerprint,
//!    measured by the counting allocator over fresh row permutations of the
//!    end-to-end benchmark's held-out templates.
//!
//! All properties are *asserted*, not just reported — the binary exits
//! non-zero if any regresses. With `--check` it additionally replays every
//! corpus selection against `tests/golden_selections.txt` (same corpus seed
//! and training config as `cargo test --test selection_golden`), proving
//! neither the fused profile nor the prepared plans changed any selection,
//! and gates the cold-path work counts: one profile pass and zero signature
//! probes per fleet cold selection, and at most [`RETAINED_BYTES_BOUND`]
//! retained per fresh fingerprint.
//! Results are written to `BENCH_selection.json` (override with `--out
//! PATH`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

use seer_core::engine::{
    EngineStats, EngineWorkspace, ExplorationPolicy, RecalibrationConfig, SeerEngine,
};
use seer_core::inference::SelectionPolicy;
use seer_core::training::TrainingConfig;
use seer_gpu::{DeviceRegistry, Fleet, Gpu, GpuSpec};
use seer_kernels::{kernel, ComputeScratch, KernelId, MatrixBenchmark};
use seer_sparse::collection::{generate, CollectionConfig, DatasetEntry, SizeScale};
use seer_sparse::{CsrMatrix, MatrixProfile, SplitMix64, StructureSignature};

/// Counts every heap allocation in the process so the steady-state execute
/// path can be pinned at zero allocations per request, and tracks the live
/// heap bytes so a lane can measure what the engine retains.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Redundant full-matrix sweeps one cold 8-kernel selection performed before
/// the fused profile: one sampled `MatrixProfile` per kernel model (8), plus
/// the feature collector's `RowStats` pass and its cost model's profile.
const LEGACY_SWEEPS_PER_SELECTION: u64 = 10;

/// Requests of the retention lane. The live-bytes delta is read between
/// request `RETAINED_FROM` and request `RETAINED_TO`, after a warm-up that
/// serves every template under both policies and grows every per-engine
/// buffer, so what remains is what each fresh fingerprint keeps.
const RETAINED_FROM: usize = 2_000;
const RETAINED_TO: usize = 12_000;

/// `--check` bound on the heap bytes a 2-device engine retains per fresh
/// fingerprint. Storing the profile's row groups as `usize` pairs, with no
/// row-length histogram, retained about 1,500 B; the `u32` aggregates and
/// the eviction index retain under 1,200 B.
const RETAINED_BYTES_BOUND: f64 = 1_300.0;

/// Which engine execute path the steady-state section pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The prepared-plan warm path (`execute_into`), the serving default.
    Prepared,
    /// The PR-3 streaming baseline (`execute_streaming_into`).
    Streaming,
}

struct Options {
    smoke: bool,
    check: bool,
    mode: Mode,
    out: String,
}

fn parse_options() -> Options {
    let mut options = Options {
        smoke: false,
        check: false,
        mode: Mode::Prepared,
        out: "BENCH_selection.json".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--check" => options.check = true,
            "--mode" => {
                options.mode = match args.next().as_deref() {
                    Some("prepared") => Mode::Prepared,
                    Some("streaming") => Mode::Streaming,
                    other => {
                        eprintln!("--mode takes 'prepared' or 'streaming', got {other:?}");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => {
                options.out = args.next().expect("--out takes a path");
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: profile_selection [--smoke] [--check] \
                     [--mode prepared|streaming] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    options
}

/// The corpus pinned by `tests/selection_golden.rs`: same seed, same scale,
/// same training config, so `--check` can compare against the committed
/// golden table line for line.
fn golden_corpus() -> Vec<DatasetEntry> {
    generate(&CollectionConfig {
        seed: 0x601D,
        matrices_per_family: 5,
        scale: SizeScale::Tiny,
    })
}

/// A Small collection as the end-to-end benchmark (`seerbench`) builds it:
/// seed 2024 trains, seed 0xC01D holds out the templates it serves fresh.
fn small_collection(seed: u64) -> Vec<DatasetEntry> {
    generate(&CollectionConfig {
        seed,
        matrices_per_family: 4,
        scale: SizeScale::Small,
    })
}

/// A copy of `template` with its rows in a seeded random order: the same
/// row lengths and columns under a sparsity pattern nothing has served.
fn permute_rows(template: &CsrMatrix, rng: &mut SplitMix64) -> CsrMatrix {
    let mut order: Vec<usize> = (0..template.rows()).collect();
    rng.shuffle(&mut order);
    let offsets_in = template.row_offsets();
    let mut offsets = Vec::with_capacity(order.len() + 1);
    let mut cols = Vec::with_capacity(template.nnz());
    let mut vals = Vec::with_capacity(template.nnz());
    offsets.push(0);
    for &row in &order {
        let span = offsets_in[row]..offsets_in[row + 1];
        cols.extend_from_slice(&template.col_indices()[span.clone()]);
        vals.extend_from_slice(&template.values()[span]);
        offsets.push(cols.len());
    }
    CsrMatrix::try_new(template.rows(), template.cols(), offsets, cols, vals)
        .expect("a row permutation of a valid matrix is valid")
}

/// Live heap bytes a 2-device engine retains per fresh fingerprint.
///
/// The engine is the end-to-end benchmark's cold one: the first two
/// reference presets, models trained on its training set. Each request
/// executes a fresh row permutation of a held-out template once; one in
/// four is `GatheredOnly` and one in four, drawn per request, runs 19
/// iterations. Each matrix and input is dropped after its request, so the
/// delta between requests `RETAINED_FROM` and `RETAINED_TO` is the engine's.
fn retained_bytes_per_fresh_fingerprint() -> f64 {
    let (trained, _) = SeerEngine::train(
        Gpu::default(),
        &small_collection(2024),
        &TrainingConfig::fast(),
    )
    .expect("training on the Small collection");
    let fleet = Fleet::of_specs(Fleet::reference_presets().into_iter().take(2))
        .expect("the reference presets validate");
    let engine = SeerEngine::with_fleet(fleet, trained.models_handle());
    drop(trained);
    let templates = small_collection(0xC01D);
    let mut rng = SplitMix64::new(0x5EED_C01D);
    let mut workspace = EngineWorkspace::new();
    let mut live_before = 0;
    for request in 0..RETAINED_TO {
        if request == RETAINED_FROM {
            live_before = LIVE_BYTES.load(Ordering::Relaxed);
        }
        let template = &templates[rng.next_below(templates.len())].matrix;
        let iterations = if rng.next_f64() < 0.25 { 19 } else { 1 };
        let policy = if request % 4 == 3 {
            SelectionPolicy::GatheredOnly
        } else {
            SelectionPolicy::Adaptive
        };
        let matrix = permute_rows(template, &mut rng);
        let x = vec![1.0; matrix.cols()];
        let _ = engine.execute_with_policy_into(&matrix, &x, iterations, policy, &mut workspace);
    }
    let retained = LIVE_BYTES.load(Ordering::Relaxed) - live_before;
    assert_eq!(
        engine.stats().plan_misses,
        RETAINED_TO as u64,
        "every request must be a fresh fingerprint"
    );
    retained as f64 / (RETAINED_TO - RETAINED_FROM) as f64
}

fn locate_golden_table() -> Option<String> {
    let candidates = [
        "tests/golden_selections.txt".to_string(),
        format!(
            "{}/../../tests/golden_selections.txt",
            env!("CARGO_MANIFEST_DIR")
        ),
    ];
    candidates
        .iter()
        .find_map(|path| std::fs::read_to_string(path).ok())
}

fn main() {
    let options = parse_options();
    let gpu = Gpu::default();

    // Train once; the engine under measurement shares the device and models.
    let collection = golden_corpus();
    let (engine, _outcome) =
        SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())
            .expect("training the bench models");
    println!(
        "profile_selection: {} corpus matrices{}",
        collection.len(),
        if options.smoke { " (smoke)" } else { "" }
    );

    // ---- 1. Cold selection: profiling passes and time. -------------------
    // Fresh matrix values (the regenerated collection has empty profile
    // memos) against the engine's cold caches: a full cold execute — plan
    // miss, eight kernel cost models, possible feature collection — must
    // profile each matrix exactly once.
    let fresh = golden_corpus();
    let mut workspace = EngineWorkspace::new();
    let passes_before = MatrixProfile::passes();
    let cold_start = Instant::now();
    for entry in &fresh {
        let x = vec![1.0; entry.matrix.cols()];
        let _ = engine.execute_into(&entry.matrix, &x, 19, &mut workspace);
    }
    let cold_execute_secs = cold_start.elapsed().as_secs_f64();
    let cold_passes = MatrixProfile::passes() - passes_before;
    let engine_passes = engine.stats().profile_passes;
    assert_eq!(
        cold_passes,
        fresh.len() as u64,
        "cold execute must profile each matrix exactly once"
    );
    assert_eq!(
        engine_passes, cold_passes,
        "engine-attributed passes must match the global counter"
    );

    // Fleet-mode cold selection: ranking a 4-device heterogeneous fleet
    // evaluates the chosen kernel's cost models once per device, but the
    // fused profile feeding them is shared — still exactly one profiling
    // pass per matrix, not one per device.
    let fleet = Fleet::reference_heterogeneous();
    let fleet_engine = SeerEngine::with_fleet(fleet.clone(), engine.models_handle());
    let fleet_fresh = golden_corpus();
    let passes_before = MatrixProfile::passes();
    let probes_before = StructureSignature::probes();
    let fleet_start = Instant::now();
    for entry in &fleet_fresh {
        let _ = fleet_engine.select(&entry.matrix, 19);
    }
    let fleet_cold_secs = fleet_start.elapsed().as_secs_f64();
    let fleet_passes = MatrixProfile::passes() - passes_before;
    let fleet_probes = StructureSignature::probes() - probes_before;
    assert_eq!(
        fleet_passes,
        fleet_fresh.len() as u64,
        "fleet-mode cold selection must profile each matrix exactly once \
         (shared across {} devices), not once per device",
        fleet.len()
    );
    assert_eq!(
        fleet_engine.stats().profile_passes,
        fleet_passes,
        "fleet engine-attributed passes must match the global counter"
    );

    // The 8-kernel benchmark sweep (oracle/training path) on fresh matrices:
    // also exactly one pass per matrix.
    let fresh_bench = golden_corpus();
    let passes_before = MatrixProfile::passes();
    let bench_start = Instant::now();
    for entry in &fresh_bench {
        let _ = MatrixBenchmark::measure(&gpu, &entry.name, &entry.matrix, 1);
    }
    let cold_benchmark_secs = bench_start.elapsed().as_secs_f64();
    let bench_passes = MatrixProfile::passes() - passes_before;
    assert_eq!(
        bench_passes,
        fresh_bench.len() as u64,
        "an 8-kernel benchmark must profile each matrix exactly once"
    );

    // Legacy emulation: the pre-fused code re-derived the profile once per
    // kernel model plus twice in feature collection — run the same pass 10x
    // per matrix to time what those redundant sweeps cost.
    let legacy = golden_corpus();
    let legacy_start = Instant::now();
    for entry in &legacy {
        for _ in 0..LEGACY_SWEEPS_PER_SELECTION {
            let _ = MatrixProfile::compute(&entry.matrix);
        }
    }
    let legacy_profiling_secs = legacy_start.elapsed().as_secs_f64();
    let fused = golden_corpus();
    let fused_start = Instant::now();
    for entry in &fused {
        let _ = MatrixProfile::compute(&entry.matrix);
    }
    let fused_profiling_secs = fused_start.elapsed().as_secs_f64();

    println!("\ncold selection (per matrix):");
    println!("  profiling passes      before ~{LEGACY_SWEEPS_PER_SELECTION}   after 1 (measured: {} over {} matrices)",
        cold_passes, fresh.len());
    println!(
        "  profiling time        before {:.1}us   after {:.1}us   ({:.2}x)",
        1e6 * legacy_profiling_secs / legacy.len() as f64,
        1e6 * fused_profiling_secs / fused.len() as f64,
        legacy_profiling_secs / fused_profiling_secs.max(1e-12)
    );
    println!(
        "  cold execute          {:.1}us   cold 8-kernel benchmark {:.1}us",
        1e6 * cold_execute_secs / fresh.len() as f64,
        1e6 * cold_benchmark_secs / fresh_bench.len() as f64
    );
    println!(
        "  fleet cold select     {:.1}us/matrix over {} devices, 1 profiling pass/matrix \
         (measured: {} over {} matrices), {} signature probes",
        1e6 * fleet_cold_secs / fleet_fresh.len() as f64,
        fleet.len(),
        fleet_passes,
        fleet_fresh.len(),
        fleet_probes
    );

    // Retention: what each fresh fingerprint keeps in a 2-device engine.
    let retained_bytes = retained_bytes_per_fresh_fingerprint();
    println!(
        "  retained heap         {retained_bytes:.0} B per fresh fingerprint \
         (2-device engine, requests {RETAINED_FROM}..{RETAINED_TO}; bound {RETAINED_BYTES_BOUND:.0} B)"
    );
    if options.check {
        assert_eq!(
            fleet_probes, 0,
            "a fleet cold selection must read the signature its profile pass left, not probe"
        );
        assert!(
            retained_bytes <= RETAINED_BYTES_BOUND,
            "{retained_bytes:.0} B retained per fresh fingerprint, bound {RETAINED_BYTES_BOUND:.0} B"
        );
    }

    // ---- 2. Steady-state execute: zero allocations. ----------------------
    let hot = &collection[0].matrix;
    let x = vec![1.0; hot.cols()];
    let steady_iters: u64 = if options.smoke { 2_000 } else { 20_000 };
    let mode_label = match options.mode {
        Mode::Prepared => "execute_into (prepared)",
        Mode::Streaming => "execute_streaming_into",
    };
    // Warm every cache and the workspace buffers.
    for _ in 0..3 {
        let _ = engine.execute_into(hot, &x, 19, &mut workspace);
        let _ = engine.execute_streaming_into(hot, &x, 19, &mut workspace);
    }
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let steady_start = Instant::now();
    for _ in 0..steady_iters {
        let _ = match options.mode {
            Mode::Prepared => engine.execute_into(hot, &x, 19, &mut workspace),
            Mode::Streaming => engine.execute_streaming_into(hot, &x, 19, &mut workspace),
        };
    }
    let steady_secs = steady_start.elapsed().as_secs_f64();
    let steady_allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(
        steady_allocs, 0,
        "steady-state {mode_label} must not allocate"
    );

    // The allocating wrapper (the previous hot path) for comparison.
    for _ in 0..3 {
        let _ = engine.execute(hot, &x, 19);
    }
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let alloc_start = Instant::now();
    for _ in 0..steady_iters {
        let _ = engine.execute(hot, &x, 19);
    }
    let alloc_secs = alloc_start.elapsed().as_secs_f64();
    let wrapper_allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;

    println!("\nsteady-state execute ({steady_iters} requests on one hot matrix):");
    println!(
        "  {mode_label:<26} {:>8.0} ns/req   {} allocs/req",
        1e9 * steady_secs / steady_iters as f64,
        steady_allocs / steady_iters
    );
    println!(
        "  execute (allocating)       {:>8.0} ns/req   {} allocs/req",
        1e9 * alloc_secs / steady_iters as f64,
        wrapper_allocs / steady_iters
    );

    // ---- 3. Warm prepared vs streaming on the MP/ELL-heavy slice. --------
    // The slice pairs every corpus matrix with CSR,MP (whose streaming walk
    // re-runs one binary search per ~8-work-item segment) and the
    // low-padding matrices additionally with ELL,TM (whose prepared slab
    // replaces the per-row offset walk with the coalesced column-major
    // layout). These are the kernels whose preprocessing the warm path used
    // to re-pay per request.
    let slice: Vec<(&str, &seer_sparse::CsrMatrix, KernelId)> = collection
        .iter()
        .flat_map(|entry| {
            let mut pairs = vec![(entry.name.as_str(), &entry.matrix, KernelId::CsrMergePath)];
            if entry.matrix.profile().ell_padding_ratio < 0.25 {
                pairs.push((
                    entry.name.as_str(),
                    &entry.matrix,
                    KernelId::EllThreadMapped,
                ));
            }
            pairs
        })
        .collect();
    // A fresh engine so preparation counters start clean (the training
    // engine already prepared plans in section 2).
    let warm_engine = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    let slice_inputs: Vec<Vec<f64>> = slice
        .iter()
        .map(|(_, matrix, _)| (0..matrix.cols()).map(|i| 1.0 + (i % 7) as f64).collect())
        .collect();
    let max_rows = slice.iter().map(|(_, m, _)| m.rows()).max().unwrap_or(0);
    let mut y = vec![0.0; max_rows];
    let mut reference = vec![0.0; max_rows];
    let mut scratch = ComputeScratch::new();

    // Build every plan once (cold), verifying bit-identity along the way.
    for ((_, matrix, kernel_id), x) in slice.iter().zip(&slice_inputs) {
        let plan = warm_engine.prepared_plan(matrix, *kernel_id);
        let k = kernel(*kernel_id);
        k.compute_into(matrix, x, &mut reference[..matrix.rows()], &mut scratch);
        k.compute_prepared_into(&plan, matrix, x, &mut y[..matrix.rows()], &mut scratch);
        for (a, b) in y[..matrix.rows()].iter().zip(&reference[..matrix.rows()]) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "prepared path must be bit-identical"
            );
        }
    }
    let after_build = warm_engine.stats();
    assert_eq!(
        after_build.plan_preparations,
        slice.len() as u64,
        "exactly one preparation per (matrix, kernel) miss"
    );

    // Warm measurement: prepared (cache lookup + replay) vs streaming
    // (re-derivation), as two sequential rep loops over the same round-robin
    // pair order. Both start warm — the build/verify pass above already ran
    // every pair through both paths — and each loop cycles through all
    // pairs (a working set far beyond L2) between repeat visits, so
    // neither path inherits a same-matrix cache advantage from the other.
    let slice_reps: u64 = if options.smoke { 40 } else { 200 };
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let prepared_start = Instant::now();
    for _ in 0..slice_reps {
        for ((_, matrix, kernel_id), x) in slice.iter().zip(&slice_inputs) {
            let plan = warm_engine.prepared_plan(matrix, *kernel_id);
            kernel(*kernel_id).compute_prepared_into(
                &plan,
                matrix,
                x,
                &mut y[..matrix.rows()],
                &mut scratch,
            );
        }
    }
    let prepared_secs = prepared_start.elapsed().as_secs_f64();
    let prepared_allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    assert_eq!(prepared_allocs, 0, "warm prepared path must not allocate");
    assert_eq!(
        warm_engine.stats().plan_preparations,
        after_build.plan_preparations,
        "warm hits must prepare nothing"
    );

    let streaming_start = Instant::now();
    for _ in 0..slice_reps {
        for ((_, matrix, kernel_id), x) in slice.iter().zip(&slice_inputs) {
            kernel(*kernel_id).compute_into(matrix, x, &mut y[..matrix.rows()], &mut scratch);
        }
    }
    let streaming_secs = streaming_start.elapsed().as_secs_f64();

    let slice_requests = slice_reps * slice.len() as u64;
    let prepared_ns = 1e9 * prepared_secs / slice_requests as f64;
    let streaming_ns = 1e9 * streaming_secs / slice_requests as f64;
    let warm_speedup = streaming_secs / prepared_secs.max(1e-12);
    println!(
        "\nwarm prepared vs streaming ({} (matrix, kernel) pairs x {slice_reps} reps, \
         CSR,MP + low-padding ELL,TM):",
        slice.len()
    );
    println!("  prepared (plan replay)     {prepared_ns:>8.0} ns/req   {prepared_allocs} allocs");
    println!("  streaming (re-derive)      {streaming_ns:>8.0} ns/req");
    println!(
        "  speedup {warm_speedup:.2}x   preparations {} (1 per pair), resident {} KiB",
        after_build.plan_preparations,
        warm_engine.stats().resident_plan_bytes / 1024
    );
    assert!(
        warm_speedup >= 1.5,
        "prepared warm path must be >= 1.5x the streaming path, got {warm_speedup:.2}x"
    );

    // ---- 4. Family reuse: structure-class inheritance + value updates. ---
    // Two streams measure the amortization layers this PR adds to the cold
    // path. (a) `near_duplicate_families`: fresh matrices from already-served
    // structure classes inherit their `(kernel, device)` selection — the
    // modelled selection overhead per fresh matrix must drop >= 5x against
    // the reuse-free baseline (the PR-5 cold path). (b) `mutating_hot_set`:
    // value-only mutations replayed in place stay on the sparsity-keyed warm
    // path, against a content-keyed emulation that rebuilds the matrix (and
    // therefore goes cold) on every mutation.
    let family_members = if options.smoke { 4 } else { 10 };
    // Family generators are chosen so each draw has *fresh* sparsity (random
    // column placement — a deterministic-structure family like `banded` or
    // `stencil_2d` would short-circuit into the exact plan cache instead of
    // exercising inheritance) while staying inside one structure class
    // (fixed or tightly concentrated nnz, so no log2/CV bucket straddling).
    type FamilyShape = Box<dyn Fn(&mut seer_sparse::SplitMix64) -> seer_sparse::CsrMatrix>;
    let families: Vec<FamilyShape> = vec![
        Box::new(|rng| seer_sparse::generators::uniform_row_length(3_000, 8, rng)),
        Box::new(|rng| seer_sparse::generators::uniform_row_length(1_500, 24, rng)),
        Box::new(|rng| seer_sparse::generators::uniform_random(1_500, 1_500, 0.006, rng)),
        Box::new(|rng| seer_sparse::generators::uniform_random(3_000, 3_000, 0.003, rng)),
        Box::new(|rng| seer_sparse::generators::tall_skinny(3_000, 500, 6, rng)),
        Box::new(|rng| seer_sparse::generators::tall_skinny(6_000, 800, 4, rng)),
    ];
    // One warm seed member plus `family_members` fresh members per family,
    // generated twice (identical streams) so the baseline and reuse sweeps
    // each see matrices with cold memos.
    let generate_families = || -> (Vec<seer_sparse::CsrMatrix>, Vec<seer_sparse::CsrMatrix>) {
        let mut rng = seer_sparse::SplitMix64::new(0xFA417);
        let mut seeds = Vec::new();
        let mut fresh = Vec::new();
        for family in &families {
            seeds.push(family(&mut rng));
            for _ in 0..family_members {
                fresh.push(family(&mut rng));
            }
        }
        (seeds, fresh)
    };

    let fleet = Fleet::reference_heterogeneous();
    // Baseline: reuse off — every fresh matrix pays the full cold selection
    // (profile pass + per-device cost ranking + tree walks).
    let (base_seeds, base_fresh) = generate_families();
    let baseline_engine = SeerEngine::with_fleet(fleet.clone(), engine.models_handle());
    for seed in &base_seeds {
        let _ = baseline_engine.select(seed, 19);
    }
    let baseline_start = Instant::now();
    let mut baseline_overhead_ns = 0.0f64;
    for matrix in &base_fresh {
        baseline_overhead_ns += baseline_engine.select(matrix, 19).overhead().as_nanos();
    }
    let baseline_wall_secs = baseline_start.elapsed().as_secs_f64();

    // Reuse: class inheritance on — the seed members decide from scratch,
    // and the fresh members adopt their class's selection.
    let (reuse_seeds, reuse_fresh) = generate_families();
    let reuse_engine = SeerEngine::with_fleet(fleet.clone(), engine.models_handle());
    reuse_engine.set_structure_class_reuse(true);
    for seed in &reuse_seeds {
        let _ = reuse_engine.select(seed, 19);
    }
    let before_fresh = reuse_engine.stats();
    let reuse_start = Instant::now();
    let mut reuse_overhead_ns = 0.0f64;
    for matrix in &reuse_fresh {
        reuse_overhead_ns += reuse_engine.select(matrix, 19).overhead().as_nanos();
    }
    let reuse_wall_secs = reuse_start.elapsed().as_secs_f64();
    let inherited = reuse_engine.stats().inherited_selections - before_fresh.inherited_selections;
    let hit_rate = inherited as f64 / reuse_fresh.len() as f64;
    let fresh_count = base_fresh.len() as f64;
    let cold_reduction = baseline_overhead_ns / reuse_overhead_ns.max(1e-9);

    println!(
        "\nfamily reuse ({} families x {family_members} fresh members, 4-device fleet):",
        families.len()
    );
    println!(
        "  inheritance hit rate       {inherited}/{} ({:.0}%)",
        reuse_fresh.len(),
        100.0 * hit_rate
    );
    println!(
        "  modelled overhead/fresh    baseline {:.0} ns   inherited {:.0} ns   ({cold_reduction:.1}x)",
        baseline_overhead_ns / fresh_count,
        reuse_overhead_ns / fresh_count
    );
    println!(
        "  wall select/fresh          baseline {:.1} us   inherited {:.1} us",
        1e6 * baseline_wall_secs / fresh_count,
        1e6 * reuse_wall_secs / fresh_count
    );
    assert!(
        hit_rate >= 0.8,
        "family stream must mostly inherit, hit rate {hit_rate:.2}"
    );
    assert!(
        cold_reduction >= 5.0,
        "inherited cold path must cut modelled selection overhead >= 5x \
         vs the reuse-free baseline, got {cold_reduction:.1}x"
    );

    // (b) The mutating hot set: value-only updates served in place. Both
    // lanes warm the whole corpus first (at both iteration modes the stream
    // draws), so the measured window isolates what a value update costs on
    // an already-warm engine.
    let mutating_requests = if options.smoke { 1_000 } else { 5_000 };
    let traffic = seer_sparse::traffic::TrafficConfig::mutating_hot_set(collection.len(), 0x517);
    let stream: Vec<seer_sparse::traffic::TrafficRequest> =
        seer_sparse::traffic::TrafficGenerator::new(&traffic)
            .take(mutating_requests)
            .collect();
    let value_updates = stream.iter().filter(|r| r.value_update).count();

    // Sparsity-keyed engine (this PR): mutate in place, stay warm.
    let mut warm_corpus: Vec<seer_sparse::CsrMatrix> =
        collection.iter().map(|e| e.matrix.clone()).collect();
    let sparsity_engine = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    let mut mutating_ws = EngineWorkspace::new();
    let max_cols = warm_corpus.iter().map(|m| m.cols()).max().unwrap_or(0);
    let xs = vec![1.0; max_cols];
    for matrix in &warm_corpus {
        for iterations in [1, 19] {
            let _ = sparsity_engine.execute_into(
                matrix,
                &xs[..matrix.cols()],
                iterations,
                &mut mutating_ws,
            );
        }
    }
    let warm = sparsity_engine.stats();
    let sparsity_start = Instant::now();
    for request in &stream {
        let matrix = &mut warm_corpus[request.matrix_index];
        if request.value_update {
            matrix.map_values(|_, _, v| v * 1.000_1 + 0.01);
        }
        let _ = sparsity_engine.execute_into(
            matrix,
            &xs[..matrix.cols()],
            request.iterations,
            &mut mutating_ws,
        );
    }
    let sparsity_secs = sparsity_start.elapsed().as_secs_f64();
    let sparsity_stats = sparsity_engine.stats();
    assert_eq!(
        sparsity_stats.profile_passes, warm.profile_passes,
        "in-place value updates must never re-profile"
    );
    assert_eq!(
        sparsity_stats.feature_collections, warm.feature_collections,
        "in-place value updates must never re-collect features"
    );
    assert_eq!(
        sparsity_stats.plan_misses, warm.plan_misses,
        "in-place value updates must never miss the plan cache"
    );
    assert_eq!(
        sparsity_stats.plan_preparations, warm.plan_preparations,
        "in-place value updates must never rebuild a plan from scratch"
    );
    let slab_refreshes = sparsity_stats.plan_value_refreshes - warm.plan_value_refreshes;

    // Content-keyed emulation (the PR-5 behaviour): under content keying a
    // value update changed the matrix's fingerprint, so every cached
    // artifact for it was orphaned and the next request paid a full cold
    // contact; replays *between* mutations stayed warm. Emulated with a
    // warm engine for replays plus a dedicated probe engine whose caches
    // are dropped before each post-mutation execute (`clear_caches` also
    // resets stats, so cold work is accumulated per contact).
    let mut content_corpus: Vec<seer_sparse::CsrMatrix> =
        collection.iter().map(|e| e.matrix.clone()).collect();
    let content_engine = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    let cold_probe = SeerEngine::new(engine.gpu_handle(), engine.models_handle());
    for matrix in &content_corpus {
        for iterations in [1, 19] {
            let _ = content_engine.execute_into(
                matrix,
                &xs[..matrix.cols()],
                iterations,
                &mut mutating_ws,
            );
        }
    }
    let mut cold_contacts = EngineStats::default();
    let content_start = Instant::now();
    for request in &stream {
        let matrix = &mut content_corpus[request.matrix_index];
        if request.value_update {
            matrix.map_values(|_, _, v| v * 1.000_1 + 0.01);
            cold_probe.clear_caches();
            let _ = cold_probe.execute_into(
                matrix,
                &xs[..matrix.cols()],
                request.iterations,
                &mut mutating_ws,
            );
            cold_contacts = cold_contacts.saturating_add(cold_probe.stats());
        } else {
            let _ = content_engine.execute_into(
                matrix,
                &xs[..matrix.cols()],
                request.iterations,
                &mut mutating_ws,
            );
        }
    }
    let content_secs = content_start.elapsed().as_secs_f64();

    let mutating_speedup = content_secs / sparsity_secs.max(1e-12);
    println!(
        "\nmutating hot set ({mutating_requests} requests, {value_updates} value updates, warm corpus):"
    );
    println!(
        "  sparsity-keyed (in-place)  {:.1} us/req   0 plan misses, {slab_refreshes} slab refreshes",
        1e6 * sparsity_secs / mutating_requests as f64,
    );
    println!(
        "  content-keyed (re-keyed)   {:.1} us/req   {} plan misses, {} preparations   ({mutating_speedup:.1}x)",
        1e6 * content_secs / mutating_requests as f64,
        cold_contacts.plan_misses,
        cold_contacts.plan_preparations
    );
    assert!(
        cold_contacts.plan_misses >= value_updates as u64,
        "the content-keyed emulation must go cold on every mutation"
    );

    // ---- 5. Online recalibration: migrate off a drifting device & back. --
    // One device of a two-device fleet silently becomes 8x slower than its
    // analytical model claims (injected through the fleet's true-timing
    // perturbation table). With recalibration on, the per-(device, kernel)
    // EWMA correction must pull placement off that device within a bounded
    // number of observed executions, and — once the drift lifts —
    // epsilon-greedy exploration must re-observe the recovered device and
    // migrate placement back. Both bounds are asserted. The fleet pairs the
    // flagship with a half-bandwidth clone so the discredited device is
    // always the runner-up exploration revisits.
    let recal_fleet = {
        let mut registry = DeviceRegistry::new();
        let flagship = GpuSpec::mi100();
        let mut detuned = GpuSpec::mi100();
        detuned.name = "MI100 (half bandwidth)".to_string();
        detuned.memory_bandwidth_gbps /= 2.0;
        registry.register(flagship).expect("valid flagship spec");
        registry.register(detuned).expect("valid de-tuned spec");
        Fleet::from_registry(registry).expect("two-device fleet")
    };
    let recal_engine = SeerEngine::with_fleet(recal_fleet.clone(), engine.models_handle());
    recal_engine.set_recalibration(Some(RecalibrationConfig {
        smoothing: 0.5,
        clamp_max: 16.0,
        exploration: Some(ExplorationPolicy {
            near_tie_fraction: f64::INFINITY,
            epsilon: 0.5,
            seed: 0x5EED,
        }),
        ..RecalibrationConfig::default()
    }));
    let mut recal_rng = seer_sparse::SplitMix64::new(0xBEEF);
    let drift_matrix = seer_sparse::generators::uniform_random(2_500, 2_500, 0.05, &mut recal_rng);
    let drift_x = vec![1.0; drift_matrix.cols()];
    let mut recal_ws = EngineWorkspace::new();
    let home = recal_engine
        .execute_into(&drift_matrix, &drift_x, 19, &mut recal_ws)
        .0
        .device;

    const MIGRATE_OFF_BOUND: u64 = 25;
    recal_fleet.set_true_timing_factor(home, 8.0);
    let mut migrated_off_after = None;
    for observation in 1..=MIGRATE_OFF_BOUND {
        let explored_before = recal_engine.stats().explored_selections;
        let (selection, _) = recal_engine.execute_into(&drift_matrix, &drift_x, 19, &mut recal_ws);
        let explored = recal_engine.stats().explored_selections != explored_before;
        if !explored && selection.device != home {
            migrated_off_after = Some(observation);
            break;
        }
    }
    let migrated_off_after = migrated_off_after.unwrap_or_else(|| {
        panic!("placement must migrate off the drifting device within {MIGRATE_OFF_BOUND} observations")
    });
    let drift_kernel = recal_engine.select(&drift_matrix, 19).kernel;
    let drifted_factor = recal_engine.correction_factor(home, drift_kernel);
    let drift_millilog = recal_engine.stats().correction_drift_millilog;

    const MIGRATE_BACK_BOUND: u64 = 400;
    recal_fleet.clear_true_timing_factors();
    let mut migrated_back_after = None;
    for observation in 1..=MIGRATE_BACK_BOUND {
        let explored_before = recal_engine.stats().explored_selections;
        let (selection, _) = recal_engine.execute_into(&drift_matrix, &drift_x, 19, &mut recal_ws);
        let explored = recal_engine.stats().explored_selections != explored_before;
        if !explored && selection.device == home {
            migrated_back_after = Some(observation);
            break;
        }
    }
    let migrated_back_after = migrated_back_after.unwrap_or_else(|| {
        panic!("exploration must migrate placement back within {MIGRATE_BACK_BOUND} observations after the drift lifts")
    });
    let recal_stats = recal_engine.stats();

    println!("\nonline recalibration (8x injected slowdown on {home}, two-device fleet):");
    println!(
        "  migrated off after         {migrated_off_after} observations (bound {MIGRATE_OFF_BOUND}), \
         correction factor {drifted_factor:.2}"
    );
    println!(
        "  migrated back after        {migrated_back_after} observations (bound {MIGRATE_BACK_BOUND}) \
         once the drift lifted"
    );
    println!(
        "  observations {}   corrections {}   explored {}   peak drift {} millilog",
        recal_stats.timing_observations,
        recal_stats.corrections_applied,
        recal_stats.explored_selections,
        drift_millilog
    );
    assert!(
        drifted_factor > 2.0,
        "the EWMA must converge toward the injected slowdown, got {drifted_factor:.2}"
    );

    // ---- 6. Optional golden-selection agreement check. -------------------
    let mut golden_checked = false;
    if options.check {
        let golden = locate_golden_table().expect(
            "tests/golden_selections.txt not found; run from the workspace root \
             or regenerate it with SEER_BLESS_GOLDEN=1 cargo test --test selection_golden",
        );
        let golden_rows: Vec<&str> = golden.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(
            golden_rows.len(),
            collection.len(),
            "golden table size does not match the corpus"
        );
        for (entry, row) in collection.iter().zip(&golden_rows) {
            let fields: Vec<&str> = row.split_whitespace().collect();
            let single = engine.select(&entry.matrix, 1);
            let solver = engine.select(&entry.matrix, 19);
            assert_eq!(fields[0], entry.name, "golden row order drifted");
            assert_eq!(
                fields[2],
                single.kernel.label(),
                "{}: kernel@1 drifted from the golden table",
                entry.name
            );
            assert_eq!(
                fields[3],
                solver.kernel.label(),
                "{}: kernel@19 drifted from the golden table",
                entry.name
            );
        }
        golden_checked = true;
        println!(
            "\ngolden check: OK ({} selections agree with tests/golden_selections.txt)",
            2 * golden_rows.len()
        );
    }

    // ---- 6. Emit the JSON trajectory point. ------------------------------
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"profile_selection\",");
    let _ = writeln!(json, "  \"corpus_matrices\": {},", collection.len());
    let _ = writeln!(json, "  \"smoke\": {},", options.smoke);
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        match options.mode {
            Mode::Prepared => "prepared",
            Mode::Streaming => "streaming",
        }
    );
    let _ = writeln!(json, "  \"cold_selection\": {{");
    let _ = writeln!(
        json,
        "    \"profiling_passes_per_matrix_before\": {LEGACY_SWEEPS_PER_SELECTION},"
    );
    let _ = writeln!(
        json,
        "    \"profiling_passes_per_matrix_after\": {},",
        cold_passes / fresh.len() as u64
    );
    let _ = writeln!(
        json,
        "    \"profiling_us_per_matrix_before\": {:.3},",
        1e6 * legacy_profiling_secs / legacy.len() as f64
    );
    let _ = writeln!(
        json,
        "    \"profiling_us_per_matrix_after\": {:.3},",
        1e6 * fused_profiling_secs / fused.len() as f64
    );
    let _ = writeln!(
        json,
        "    \"cold_execute_us_per_matrix\": {:.3},",
        1e6 * cold_execute_secs / fresh.len() as f64
    );
    let _ = writeln!(
        json,
        "    \"cold_benchmark_us_per_matrix\": {:.3}",
        1e6 * cold_benchmark_secs / fresh_bench.len() as f64
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fleet_cold_selection\": {{");
    let _ = writeln!(json, "    \"devices\": {},", fleet.len());
    let _ = writeln!(
        json,
        "    \"profiling_passes_per_matrix\": {},",
        fleet_passes / fleet_fresh.len() as u64
    );
    let _ = writeln!(
        json,
        "    \"signature_probes_per_matrix\": {:.3},",
        fleet_probes as f64 / fleet_fresh.len() as f64
    );
    let _ = writeln!(
        json,
        "    \"cold_select_us_per_matrix\": {:.3}",
        1e6 * fleet_cold_secs / fleet_fresh.len() as f64
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cold_retention\": {{");
    let _ = writeln!(json, "    \"devices\": 2,");
    let _ = writeln!(
        json,
        "    \"fresh_fingerprints\": {},",
        RETAINED_TO - RETAINED_FROM
    );
    let _ = writeln!(
        json,
        "    \"retained_bytes_per_fresh_fingerprint\": {retained_bytes:.0},"
    );
    let _ = writeln!(
        json,
        "    \"retained_bytes_bound\": {RETAINED_BYTES_BOUND:.0}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"steady_state_execute\": {{");
    let _ = writeln!(json, "    \"requests\": {steady_iters},");
    let _ = writeln!(
        json,
        "    \"allocs_per_request_workspace\": {},",
        steady_allocs / steady_iters
    );
    let _ = writeln!(
        json,
        "    \"allocs_per_request_allocating\": {},",
        wrapper_allocs / steady_iters
    );
    let _ = writeln!(
        json,
        "    \"ns_per_request_workspace\": {:.0},",
        1e9 * steady_secs / steady_iters as f64
    );
    let _ = writeln!(
        json,
        "    \"ns_per_request_allocating\": {:.0}",
        1e9 * alloc_secs / steady_iters as f64
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"warm_prepared\": {{");
    let _ = writeln!(json, "    \"slice_pairs\": {},", slice.len());
    let _ = writeln!(json, "    \"requests_per_path\": {slice_requests},");
    let _ = writeln!(json, "    \"ns_per_request_prepared\": {prepared_ns:.0},");
    let _ = writeln!(json, "    \"ns_per_request_streaming\": {streaming_ns:.0},");
    let _ = writeln!(json, "    \"speedup\": {warm_speedup:.2},");
    let _ = writeln!(
        json,
        "    \"allocs_per_request_prepared\": {},",
        prepared_allocs / slice_requests.max(1)
    );
    let _ = writeln!(
        json,
        "    \"preparations\": {},",
        after_build.plan_preparations
    );
    let _ = writeln!(
        json,
        "    \"resident_plan_bytes\": {}",
        warm_engine.stats().resident_plan_bytes
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"family_reuse\": {{");
    let _ = writeln!(json, "    \"families\": {},", families.len());
    let _ = writeln!(json, "    \"fresh_members\": {},", base_fresh.len());
    let _ = writeln!(json, "    \"inheritance_hit_rate\": {hit_rate:.3},");
    let _ = writeln!(
        json,
        "    \"modelled_overhead_ns_per_fresh_baseline\": {:.0},",
        baseline_overhead_ns / fresh_count
    );
    let _ = writeln!(
        json,
        "    \"modelled_overhead_ns_per_fresh_inherited\": {:.0},",
        reuse_overhead_ns / fresh_count
    );
    let _ = writeln!(
        json,
        "    \"cold_selection_cost_reduction\": {cold_reduction:.1},"
    );
    let _ = writeln!(
        json,
        "    \"wall_us_per_fresh_baseline\": {:.1},",
        1e6 * baseline_wall_secs / fresh_count
    );
    let _ = writeln!(
        json,
        "    \"wall_us_per_fresh_inherited\": {:.1},",
        1e6 * reuse_wall_secs / fresh_count
    );
    let _ = writeln!(json, "    \"mutating_stream\": {{");
    let _ = writeln!(json, "      \"requests\": {mutating_requests},");
    let _ = writeln!(json, "      \"value_updates\": {value_updates},");
    let _ = writeln!(
        json,
        "      \"us_per_request_sparsity_keyed\": {:.1},",
        1e6 * sparsity_secs / mutating_requests as f64
    );
    let _ = writeln!(
        json,
        "      \"us_per_request_content_keyed\": {:.1},",
        1e6 * content_secs / mutating_requests as f64
    );
    let _ = writeln!(json, "      \"speedup\": {mutating_speedup:.1},");
    let _ = writeln!(
        json,
        "      \"plan_misses_sparsity_keyed\": {},",
        sparsity_stats.plan_misses - warm.plan_misses
    );
    let _ = writeln!(
        json,
        "      \"plan_misses_content_keyed\": {},",
        cold_contacts.plan_misses
    );
    let _ = writeln!(json, "      \"slab_refreshes\": {slab_refreshes}");
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"recalibration\": {{");
    let _ = writeln!(json, "    \"injected_slowdown\": 8.0,");
    let _ = writeln!(json, "    \"migrated_off_after\": {migrated_off_after},");
    let _ = writeln!(json, "    \"migrate_off_bound\": {MIGRATE_OFF_BOUND},");
    let _ = writeln!(json, "    \"migrated_back_after\": {migrated_back_after},");
    let _ = writeln!(json, "    \"migrate_back_bound\": {MIGRATE_BACK_BOUND},");
    let _ = writeln!(
        json,
        "    \"correction_factor_at_migration\": {drifted_factor:.2},"
    );
    let _ = writeln!(json, "    \"peak_drift_millilog\": {drift_millilog},");
    let _ = writeln!(
        json,
        "    \"timing_observations\": {},",
        recal_stats.timing_observations
    );
    let _ = writeln!(
        json,
        "    \"corrections_applied\": {},",
        recal_stats.corrections_applied
    );
    let _ = writeln!(
        json,
        "    \"explored_selections\": {}",
        recal_stats.explored_selections
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"golden_checked\": {golden_checked}");
    json.push_str("}\n");
    std::fs::write(&options.out, &json).expect("writing the bench report");
    println!("\nwrote {}", options.out);
}
