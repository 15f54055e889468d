//! One-allocation witness: `encode_request` and `encode_response` size the
//! frame before writing it, so each call makes exactly one heap
//! allocation — the returned buffer, whose capacity is its length. A
//! payload grown by doubling, or built apart and copied behind the header,
//! fails this.
//!
//! A counting global allocator tallies allocations per thread, so only
//! the encode under test is counted. This binary holds a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::all_schemes;
use fastmm_serve::{encode_request, encode_response, Job};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // The slot is gone while the thread shuts down; nothing is measured
    // then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; the counter is a const-
// initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s
        // contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System` through
        // this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `encode`, assert it allocated once and returned an exact-size
/// buffer.
fn assert_one_allocation(what: &str, encode: impl FnOnce() -> Vec<u8>) {
    let before = allocations();
    let wire = encode();
    let made = allocations() - before;
    assert_eq!(made, 1, "{what}: {made} allocations for one frame");
    assert_eq!(wire.len(), wire.capacity(), "{what}: buffer not exact-size");
}

#[test]
fn each_encode_is_one_exact_size_allocation() {
    let schemes = all_schemes();
    // One job per registry scheme, up to 72 x 72 operands (the serve
    // benchmark's small-job range), and a product per job.
    let jobs: Vec<Job> = (0..schemes.len())
        .map(|s| {
            let (m, k, n) = (8 + 9 * s, 72 - 5 * s, 16 + 7 * s);
            Job::new(
                s,
                Matrix::from_fn(m, k, |i, j| (i * k + j) as f64 * 0.5),
                Matrix::from_fn(k, n, |i, j| i as f64 - j as f64),
            )
        })
        .collect();
    let products: Vec<Matrix<f64>> = jobs
        .iter()
        .map(|j| Matrix::from_fn(j.a.rows(), j.b.cols(), |i, j| (i + j) as f64))
        .collect();

    assert_one_allocation("request", || encode_request(&jobs, &schemes));
    assert_one_allocation("response", || encode_response(&products));
    assert_one_allocation("one-job request", || encode_request(&jobs[..1], &schemes));
    assert_one_allocation("empty request", || encode_request(&[], &schemes));
    assert_one_allocation("empty response", || encode_response(&[]));
}
