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
//! word storage in a whole one-thread DCGWO run: the optimizer keeps one
//! scoring base per worker across members and iterations, so that count
//! must not grow with the population or the iteration count. A third
//! pins the same for the VECBEE-S and HEDALS loops, which score every
//! candidate by cone previews on one base of the current netlist: their
//! count must not grow with the round count. A fourth pins that building
//! an `EvalContext` makes no allocation of that size: the context keeps
//! only the accurate circuit's output rows, from a simulation that
//! recycles rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tdals::baselines::{Greedy, GreedyConfig, Hedals, HedalsConfig};
use tdals::circuits::Benchmark;
use tdals::core::api::{Budget, NopObserver, Optimizer};
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
fn eval_context_allocates_no_full_simulation() {
    for bench in [Benchmark::C880, Benchmark::Sqrt] {
        let accurate = bench.build();
        let patterns = Patterns::random(accurate.input_count(), 1024, 11);
        let words = accurate.gate_count() * patterns.word_count() * 8;
        let (count, ctx) = large_allocations(words, || {
            EvalContext::new(
                &accurate,
                patterns,
                ErrorMetric::Nmed,
                TimingConfig::default(),
                0.8,
            )
        });
        assert_eq!(
            count, 0,
            "{bench}: EvalContext::new made {count} word-storage allocations; \
             it keeps a full simulation again"
        );
        assert_eq!(ctx.evaluate(accurate.clone()).error, 0.0);
    }
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
    // Word-storage-sized allocations a one-thread run makes: the one
    // worker's scoring base (one full simulation), which is rebuilt at
    // the accurate circuit for every seeded member and scores every
    // child, whatever the population. (The cone previews' overlay rows in it hold only the
    // changed gates of one cone.)
    let budget = 1;
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

#[test]
fn one_thread_baselines_allocate_word_storage_a_fixed_number_of_times() {
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
    // Word-storage-sized allocations a one-thread run makes: the
    // full-vector scoring base of the current netlist, which every
    // round's candidates preview and every winner is committed into.
    // (HEDALS's probe engine holds an eighth of the vectors, and the
    // preview overlays only the changed gates of one cone.)
    let budget = 1;
    let run = |method: &str, rounds: usize| {
        let mut optimizer: Box<dyn Optimizer> = match method {
            "VECBEE-S" => Box::new(Greedy::new(GreedyConfig {
                max_rounds: rounds,
                seed: 5,
                threads: 1,
                ..GreedyConfig::default()
            })),
            _ => Box::new(Hedals::new(HedalsConfig {
                max_rounds: rounds,
                seed: 5,
                threads: 1,
            })),
        };
        let (count, outcome) = large_allocations(words, || {
            optimizer.optimize(&ctx, 0.02, &Budget::unlimited(), &mut NopObserver)
        });
        assert_eq!(
            outcome.history.len(),
            rounds,
            "{method} commits every round"
        );
        count
    };
    for method in ["VECBEE-S", "HEDALS"] {
        let (short, long) = (run(method, 2), run(method, 6));
        assert!(
            short <= budget,
            "{method}: {short} word-storage allocations in 2 rounds, budget {budget}"
        );
        assert_eq!(
            short, long,
            "{method}: word-storage allocations grow with rounds ({short} at 2, {long} at 6): \
             a per-candidate simulation buffer is back"
        );
    }
}
