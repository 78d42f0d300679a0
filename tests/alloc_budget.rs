//! Heap-allocation budgets of the per-candidate layers.
//!
//! The optimizers clone a netlist, build a scoring base or run a full
//! evaluation for every candidate, so any per-gate heap allocation in
//! those layers multiplies into millions per flow. The netlist is
//! stored as flat arrays precisely so that these layers allocate a
//! small, size-independent number of buffers. A counting global
//! allocator (per thread, so concurrently running tests do not bleed
//! into each other) pins that: each budget must hold on a small and on
//! the largest suite circuit, and the two counts may differ by at most
//! [`MAX_SIZE_DRIFT`], so per-gate allocation cannot creep back in.
//!
//! A second pin counts the allocations as large as one simulation's
//! word storage in a whole one-thread DCGWO run: the optimizer keeps its
//! simulation buffers and scoring bases across iterations, so that
//! count must not grow with the iteration count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdals::circuits::Benchmark;
use tdals::core::{optimize, EvalContext, OptimizerConfig};
use tdals::netlist::Netlist;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;

/// Counts every fresh heap block (`alloc`, `alloc_zeroed`) obtained on
/// the calling thread, and separately those of at least
/// [`LARGE_BYTES`]. `realloc` takes the trait's default path through
/// `alloc`, so a growing `Vec` counts once per growth step: O(log n)
/// times, not the per-gate pattern this file guards against.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LARGE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Size from which an allocation also counts as large.
    static LARGE_BYTES: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count_one(size: usize) {
    // `try_with`: the allocator can run during thread-local teardown.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    if LARGE_BYTES
        .try_with(Cell::get)
        .is_ok_and(|large| size >= large)
    {
        let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialized thread-local `Cell`s, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const CLONE_BUDGET: u64 = 8;
const DELTA_EVAL_BUDGET: u64 = 32;
const EVALUATE_BUDGET: u64 = 32;
/// Largest allowed difference of one count between the two circuits.
const MAX_SIZE_DRIFT: u64 = 2;

/// `(clone, delta_eval, evaluate)` allocation counts on one circuit.
fn layer_counts(accurate: &Netlist) -> [u64; 3] {
    let ctx = EvalContext::new(
        accurate,
        Patterns::random(accurate.input_count(), 256, 7),
        ErrorMetric::Nmed,
        TimingConfig::default(),
        0.8,
    );
    // One untimed round first, so lazily created process-wide state
    // (metric registries and the like) is not charged to a layer.
    drop(ctx.delta_eval(accurate.clone()));
    drop(ctx.evaluate(accurate.clone()));

    let (clone, copy) = allocations(|| accurate.clone());
    assert_eq!(&copy, accurate);
    let (delta_eval, base) = allocations(|| ctx.delta_eval(copy));
    drop(base);
    let input = accurate.clone();
    let (evaluate, cand) = allocations(|| ctx.evaluate(input));
    drop(cand);
    [clone, delta_eval, evaluate]
}

#[test]
fn per_candidate_layers_allocate_a_size_independent_handful() {
    let small = layer_counts(&Benchmark::C880.build());
    let large = layer_counts(&Benchmark::Sqrt.build());
    let layers = [
        "Netlist::clone",
        "EvalContext::delta_eval",
        "EvalContext::evaluate",
    ];
    let budgets = [CLONE_BUDGET, DELTA_EVAL_BUDGET, EVALUATE_BUDGET];
    for (i, layer) in layers.into_iter().enumerate() {
        for (circuit, counts) in [("c880", small), ("Sqrt", large)] {
            assert!(
                counts[i] <= budgets[i],
                "{layer} on {circuit}: {} allocations, budget {}",
                counts[i],
                budgets[i]
            );
        }
        assert!(
            small[i].abs_diff(large[i]) <= MAX_SIZE_DRIFT,
            "{layer}: {} allocations on c880 but {} on Sqrt; per-gate allocation is back",
            small[i],
            large[i]
        );
    }
}

/// Allocations of at least `bytes` that `f` makes on this thread.
fn large_allocations<T>(bytes: usize, f: impl FnOnce() -> T) -> (u64, T) {
    LARGE_BYTES.with(|large| large.set(bytes));
    let before = LARGE_ALLOCATIONS.with(Cell::get);
    let out = f();
    let count = LARGE_ALLOCATIONS.with(Cell::get) - before;
    LARGE_BYTES.with(|large| large.set(usize::MAX));
    (count, out)
}

#[test]
fn one_thread_dcgwo_allocates_word_storage_a_fixed_number_of_times() {
    let accurate = Benchmark::C880.build();
    let patterns = Patterns::random(accurate.input_count(), 1024, 11);
    let words = accurate.gate_count() * patterns.word_count() * 8;
    let ctx = EvalContext::new(
        &accurate,
        patterns,
        ErrorMetric::Nmed,
        TimingConfig::default(),
        0.8,
    );
    let population = 10;
    // Word-storage-sized allocations a one-thread run makes: the seeding
    // base (a copy of the golden simulation), one copy of it per seeded
    // member, the recycled search-child base and the recycled
    // full-evaluation buffer.
    let budget = population as u64 + 2;
    let run = |iterations: usize| {
        let cfg = OptimizerConfig::default()
            .with_population(population)
            .with_iterations(iterations)
            .with_seed(5)
            .with_threads(1);
        let (count, result) = large_allocations(words, || optimize(&ctx, 0.02, &cfg));
        assert_eq!(result.history.len(), iterations);
        count
    };
    let (short, long) = (run(2), run(6));
    assert!(
        short <= budget,
        "{short} word-storage allocations in 2 iterations, budget {budget}"
    );
    assert_eq!(
        short, long,
        "word-storage allocations grow with iterations ({short} at 2, {long} at 6): \
         a per-child base or simulation buffer is back"
    );
}
