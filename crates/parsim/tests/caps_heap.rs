//! Heap witness of the CAPS memory model: a run's real live heap stays
//! within 10% of what `Rank::track_alloc`/`track_free` charge it,
//! `p × CapsPlan::projected_peak_words_per_rank()` words. A BFS step that
//! keeps its spent operands through its recursion peaks at 1.6× of that at
//! p = 49; ranks that keep all their buffers until they exit, at 3.4×.
//!
//! A counting global allocator tracks process-wide live bytes and their
//! high-water mark. The counters are process-wide because a message is
//! allocated by its sender's thread and freed by its receiver's. This
//! binary holds a single test, so nothing else allocates during a run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::recursive::multiply_scheme;
use fastmm_matrix::scheme::strassen;
use fastmm_parsim::caps::{caps_scheme, CapsPlan};
use fastmm_parsim::machine::MachineConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Statistics only: they publish no other data, so `Relaxed` suffices.
// Each read-modify-write is still atomic, so every value `PEAK` takes was
// the live total at some point.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counters are atomics,
// which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: forwarded unchanged; `ptr` came from `System` through
        // this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` and return its result and the most live heap it added, in
/// bytes, above what was live when it started.
fn peak_added<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - base)
}

#[test]
fn caps_live_heap_stays_within_the_tracked_memory_model() {
    let scheme = strassen();
    // BFS-only Strassen plans with 49 × 49 leaves, as at p = 2401, n = 784.
    // p = 7 is left out: its fixed per-run cost outweighs the shares there.
    for (p, n) in [(49usize, 196usize), (343, 392)] {
        let plan = CapsPlan::new(p, n, 0).unwrap();
        let mut rng = StdRng::seed_from_u64(0xCA95 + p as u64);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let want = multiply_scheme(&scheme, &a, &b, plan.local_cutoff());

        let ((c, res), peak) =
            peak_added(|| caps_scheme(MachineConfig::new(p), &scheme, &plan, &a, &b));
        assert!(c.bits_eq(&want), "p={p} n={n}: gather not bitwise");
        let per_rank = plan.projected_peak_words_per_rank();
        assert_eq!(res.max_memory() as u64, per_rank, "p={p} n={n}");

        let model = p as f64 * per_rank as f64 * 8.0;
        let ratio = peak as f64 / model;
        assert!(
            ratio <= 1.1,
            "p={p} n={n}: live heap peaked at {:.2} MiB, {ratio:.2}x the {:.2} MiB the \
             memory model charges",
            peak as f64 / (1 << 20) as f64,
            model / (1 << 20) as f64
        );
    }
}
