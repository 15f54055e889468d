//! Zero-allocation witnesses: once an arena is warm, `multiply_into` takes
//! every temporary — encoded operands, products, pack panels and the
//! fused leaf's fold row — from it and allocates nothing; and a level
//! that pads takes no temporary at all beyond what its padded shape does.
//!
//! A counting global allocator tallies allocations per thread, so only
//! the multiply under test is counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastmm_matrix::arena::{multiply_into, padded, ScratchArena};
use fastmm_matrix::dense::Matrix;
use fastmm_matrix::scheme::{all_schemes, strassen, strassen_2x2x4};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn warm_multiply_into_allocates_nothing() {
    // At cutoff 16, n = 96 splits the 2 x 2 grids three times without
    // padding and ends the 4 x 4 one in leaves at or below the packed
    // kernel's small-shape edge (folds written out into arena buffers);
    // n = 77 pads at some level for every scheme.
    let mut rng = StdRng::seed_from_u64(23);
    for scheme in all_schemes() {
        for n in [96usize, 77] {
            let a = Matrix::<f64>::random(n, n, &mut rng);
            let b = Matrix::<f64>::random(n, n, &mut rng);
            let mut c = Matrix::zeros(n, n);
            let mut arena = ScratchArena::new();
            let mut multiply = |c: &mut Matrix<f64>| {
                c.view_mut().fill_zero();
                multiply_into(
                    &scheme,
                    a.view(),
                    b.view(),
                    &mut c.view_mut(),
                    16,
                    &mut arena,
                );
            };
            multiply(&mut c);
            let before = allocations();
            multiply(&mut c);
            let warm = allocations() - before;
            assert_eq!(
                warm, 0,
                "{} n={n}: {warm} allocations on a warm arena",
                scheme.name
            );
        }
    }
}

#[test]
fn a_padded_level_takes_no_pad_buffers() {
    // Zero-extension is virtual: a cold multiply at a shape that pads at
    // the top level leaves its arena holding exactly what one at the
    // padded shape does, after exactly as many allocations. Strassen 65³
    // at cutoff 16 pads at every level (65, 33, 17); ⟨2,2,4⟩ at 13x13x61
    // and cutoff 4 pads at both of its levels (to 14x14x64, then 7x7x16
    // to 8x8x16).
    let mut rng = StdRng::seed_from_u64(29);
    for (scheme, shape, cutoff) in [
        (strassen(), (65, 65, 65), 16),
        (strassen_2x2x4(), (13, 13, 61), 4),
    ] {
        let mut cold = |(m, k, n): (usize, usize, usize)| {
            let a = Matrix::<f64>::random(m, k, &mut rng);
            let b = Matrix::<f64>::random(k, n, &mut rng);
            let mut c = Matrix::zeros(m, n);
            let mut arena = ScratchArena::new();
            let before = allocations();
            multiply_into(
                &scheme,
                a.view(),
                b.view(),
                &mut c.view_mut(),
                cutoff,
                &mut arena,
            );
            (arena.retained_words(), allocations() - before)
        };
        let even = padded(scheme.dims(), shape);
        assert_ne!(even, shape);
        assert_eq!(
            cold(shape),
            cold(even),
            "{} {shape:?}: (retained words, allocations) differ from the padded {even:?}",
            scheme.name
        );
    }
}
