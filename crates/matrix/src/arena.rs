//! The zero-allocation arena recursion — the one sequential engine, behind
//! [`multiply_scheme`](crate::recursive::multiply_scheme),
//! [`multiply_scheme_parallel`](crate::parallel::multiply_scheme_parallel)
//! (both its `threads == 1` fast path and every DFS leaf of the BFS task
//! tree), and
//! [`multiply_non_stationary`](crate::recursive::multiply_non_stationary).
//!
//! The recursion ([`multiply_into`]) walks strided [`MatRef`]/[`MatMut`]
//! views of the *original* operands instead of materializing block copies:
//!
//! * above the leaves, encoding `T_l = Σ_q U[l][q]·A_q` reads the source
//!   blocks straight through grid views into one arena buffer, row by
//!   row: the first nonzero term is written with
//!   [`crate::dense::axpy_set_row`], the rest accumulated with
//!   [`crate::dense::axpy_row`] ([`encode_a_into`]/[`encode_b_into`],
//!   shared with the parallel BFS encoder), so `T_l` is never zero-filled;
//! * a node whose children are leaves takes no `T_l`/`S_l` buffers at all:
//!   each product is one *fused leaf*, the packed kernel run on two folds
//!   (`Σ_q U[l][q]·A_q` and `Σ_q V[l][q]·B_q` over the parent's grid
//!   blocks) that its pack loops compute row by row as they pack them, and
//!   that writes `M_l` with β = 0 (see [`crate::pack`]) — the one-level
//!   "AB" variant of Huang–Smith–Henry–van de Geijn, *Strassen's Algorithm
//!   Reloaded* (SC'16);
//! * each product `M_l` decodes by writing through strided `C` blocks
//!   ([`decode_product_into`]) with no intermediate result matrix: a block
//!   is written on the first product of its `W` row and accumulated on the
//!   later ones, so neither `M_l` nor `C` is zero-filled;
//! * a non-divisible level is zero-extended virtually, not copied: it
//!   splits the caller's `A`, `B` and `C` as if each were padded to the
//!   next block-grid multiple, the folds read every element past the
//!   stored corner of `A` or `B` as zero, and the decode writes only `C`'s
//!   stored corner — no pad buffer, no pad copy, no crop copy.
//!
//! Every temporary comes from — and returns to — a [`ScratchArena`], so
//! after the first recursion warms the pool the hot path performs **zero
//! heap allocation** (`crates/matrix/tests/zero_alloc.rs` counts). This
//! makes the engine's measured word traffic track the in-place model
//! `dfs_arena_io_recurrence_mkn` (crate `fastmm-memsim`) and hence the
//! Equation (1) recurrence `IO(n) ≤ r·IO(n/n₀) + O(n²)` whose solution the
//! paper's Theorem 1.1 lower-bounds. The model charges each encode one
//! read per source block and one write, and each decode term a read of
//! `M_l` and a read-modify-write of `C`; it stays an upper bound on what
//! the engine moves, since a first touch skips the read of `C`, a fused
//! leaf neither writes nor re-reads `T_l`/`S_l`, and a padded level, which
//! the model charges at its padded blocks, reads no zeros and writes no
//! cropped part of `C`.
//!
//! ## Bit-determinism
//!
//! The engine fixes its scalar arithmetic exactly: encode accumulates
//! blocks in ascending `q`, products run in order `l = 0, 1, …, r-1`,
//! decode accumulates `W`-column nonzeros in ascending `q`, and the base
//! case is the packed micro-kernel [`multiply_packed_into`], whose default
//! build is bit-identical to `multiply_naive` (see the [`crate::pack`]
//! contract). Outputs therefore match a plain copy-out recursion over
//! `multiply_naive` bit for bit at every non-NaN result, and are NaN
//! exactly where it is, at every cutoff and thread count — the determinism
//! suite (`crates/matrix/tests/determinism.rs`) keeps such a recursion as
//! its test oracle and enforces this. Which NaN comes out where two meet
//! is not promised (see the [`crate::pack`] contract).
//!
//! No write-instead-of-accumulate step changes a bit. A first touch
//! computes `0 ⊕ x` (`0 + x`, `0 - x`, `0 + c·x`), which is what the
//! zero-filled buffer it replaces held after its first accumulation —
//! including `+0.0` where a copy or negation of a signed zero would give
//! `-0.0`. A fold computes each row of `T_l` by that same rule, in the
//! same order, so it carries `T_l`'s bits; the β = 0 leaf starts its first
//! `k`-block from `+0.0`, which is what loading a zeroed `M_l` gave; and a
//! leaf at or below the packed kernel's small-shape edge materializes its
//! folds and runs the same unpacked loop the unfused recursion does.
//!
//! Nor does virtual padding. Past the stored corner a fold's first term
//! writes `+0.0`, which is `0 ⊕ c·0`, and a later term is skipped: no
//! accumulator started by a first touch ever holds `-0.0` (a round-to-
//! nearest sum or difference is `-0.0` only when its left operand is), and
//! `x + (±0) = x` for every other `x`, `±Inf` and NaN included. A padded
//! element of `C` depends on no stored one, so not writing it changes
//! nothing else.
//!
//! The packed base case adds `Θ(mk + kn)` pack-buffer traffic per leaf —
//! within the `O(n²)`-per-node constant of the Equation (1) recurrence the
//! word-traffic model charges, so the modeled asymptotics are unchanged.

use crate::dense::{axpy_row, axpy_set_row, MatMut, MatRef};
use crate::pack::{multiply_fold_into, multiply_packed_into, Fold, Operand};
use crate::scalar::Scalar;
use crate::scheme::BilinearScheme;

/// A pool of reusable scratch buffers — the arena backing the DFS hot
/// path (per worker thread in the parallel engine, per worker shard in
/// the `fastmm-serve` batched service).
///
/// [`ScratchArena::take`] hands out a zeroed buffer (recycling a returned
/// one when available), [`ScratchArena::take_any`] one with unspecified
/// contents for callers that overwrite every element, and
/// [`ScratchArena::give`] returns a buffer.
///
/// The pool is **bucketed by capacity class** (powers of two): a returned
/// buffer of capacity in `[2^b, 2^{b+1})` is only reissued to requests of
/// `len ≤ 2^b`, so a take can never pop a too-small buffer and silently
/// reallocate inside the "zero-allocation" hot path. The historical
/// single-stack pool did exactly that under mixed-shape workloads (the
/// batching regime of `fastmm-serve`): a small buffer returned last would
/// be popped for a large request, reallocated, and the large buffers
/// retained underneath forever. Within one capacity class, reuse is
/// LIFO — the recursion takes and gives in stack order with shapes fixed
/// per depth, so after the first descent warms the pool every subsequent
/// node runs without heap allocation.
///
/// Long-lived owners bound idle retention with
/// [`ScratchArena::trim`]; [`ScratchArena::retained_words`] reports the
/// pooled (idle) capacity.
pub struct ScratchArena<T> {
    /// `buckets[b]` holds returned buffers with capacity in
    /// `[2^b, 2^{b+1})`; every buffer in bucket `b` can serve any request
    /// of class `b` (`len ≤ 2^b`) without reallocating.
    buckets: Vec<Vec<Vec<T>>>,
    /// Total capacity (words) currently idle in the pool.
    retained: usize,
}

/// Capacity class a request of `len` words draws from: `⌈log₂ len⌉`, so
/// every buffer in that bucket (capacity `≥ 2^class`) fits the request.
fn class_of_len(len: usize) -> usize {
    len.max(1).next_power_of_two().trailing_zeros() as usize
}

/// Bucket a returned buffer of capacity `cap ≥ 1` files into:
/// `⌊log₂ cap⌋`, the largest class it can always serve.
fn class_of_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

impl<T: Scalar> ScratchArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        ScratchArena {
            buckets: Vec::new(),
            retained: 0,
        }
    }

    /// Pop a pooled buffer that fits `len`, if any.
    fn pop_class(&mut self, len: usize) -> Option<Vec<T>> {
        let buf = self.buckets.get_mut(class_of_len(len))?.pop()?;
        self.retained -= buf.capacity();
        Some(buf)
    }

    /// A zeroed buffer of `len` words, recycled from the pool when its
    /// capacity class has one (no allocation once warm). Fresh buffers are
    /// allocated at the class capacity (`len` rounded up to a power of
    /// two), so they return to the same bucket they are served from.
    pub fn take(&mut self, len: usize) -> Vec<T> {
        let mut buf = self
            .pop_class(len)
            .unwrap_or_else(|| Vec::with_capacity(len.max(1).next_power_of_two()));
        buf.clear();
        buf.resize(len, T::zero());
        buf
    }

    /// A buffer of `len` words with **unspecified contents** (stale values
    /// from a previous use are possible), for callers that overwrite every
    /// element — e.g. a product `M_l`, which its fused leaf writes with
    /// β = 0. Skips the `memset` that [`ScratchArena::take`] pays.
    pub fn take_any(&mut self, len: usize) -> Vec<T> {
        let mut buf = self
            .pop_class(len)
            .unwrap_or_else(|| Vec::with_capacity(len.max(1).next_power_of_two()));
        if buf.len() >= len {
            buf.truncate(len);
        } else {
            buf.resize(len, T::zero());
        }
        buf
    }

    /// Return a buffer to the pool for reuse (zero-capacity buffers are
    /// dropped — there is no allocation to retain).
    pub fn give(&mut self, buf: Vec<T>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let b = class_of_cap(cap);
        if self.buckets.len() <= b {
            self.buckets.resize_with(b + 1, Vec::new);
        }
        self.buckets[b].push(buf);
        self.retained += cap;
    }

    /// Words of capacity currently idle in the pool — what a long-lived
    /// owner is paying to keep the arena warm.
    pub fn retained_words(&self) -> usize {
        self.retained
    }

    /// Drop pooled buffers, largest class first, until at most
    /// `max_words` of idle capacity remain. The serve layer calls this
    /// between work items so one giant request does not pin its
    /// high-water scratch set for the life of the worker. Buffers
    /// currently taken are unaffected.
    pub fn trim(&mut self, max_words: usize) {
        let mut b = self.buckets.len();
        while self.retained > max_words && b > 0 {
            b -= 1;
            while self.retained > max_words {
                match self.buckets[b].pop() {
                    Some(buf) => self.retained -= buf.capacity(),
                    None => break,
                }
            }
        }
    }
}

impl<T: Scalar> Default for ScratchArena<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Operand/product footprint `MK + KN + MN` of a subproblem shape.
pub fn footprint(s: (usize, usize, usize)) -> usize {
    s.0 * s.1 + s.1 * s.2 + s.0 * s.2
}

/// Next block-grid multiples of a shape under base dims `(bm, bk, bn)` —
/// the per-level zero-padding target of the engine. Public so external
/// schedulers (the shared-memory BFS planner, the distributed-memory
/// engine in `fastmm-parsim`) replicate the engine's recursion shape
/// exactly instead of re-deriving it.
pub fn padded(dims: (usize, usize, usize), s: (usize, usize, usize)) -> (usize, usize, usize) {
    (
        s.0.div_ceil(dims.0) * dims.0,
        s.1.div_ceil(dims.1) * dims.1,
        s.2.div_ceil(dims.2) * dims.2,
    )
}

/// Whether the recursion splits this shape rather than running the base
/// kernel — the per-level test shared by the engine, the shared-memory
/// BFS planner, and the distributed-memory engine. Any scheduler that
/// mirrors the engine's recursion tree must use this exact predicate, or
/// its outputs stop being bit-identical to [`multiply_into`].
pub fn splits(dims: (usize, usize, usize), s: (usize, usize, usize), cutoff: usize) -> bool {
    if s.0.max(s.1).max(s.2) <= cutoff {
        return false;
    }
    let p = padded(dims, s);
    (p.0 / dims.0) * (p.1 / dims.1) * (p.2 / dims.2) < s.0 * s.1 * s.2
}

/// Shape of the `r` subproblems one level down (after per-level padding).
pub fn child_shape(dims: (usize, usize, usize), s: (usize, usize, usize)) -> (usize, usize, usize) {
    let p = padded(dims, s);
    (p.0 / dims.0, p.1 / dims.1, p.2 / dims.2)
}

/// Scratch words one DFS task needs below `shape`: per split level, the
/// product buffer `M_l` and the encoded operands `T_l`/`S_l` when the
/// children split too (a leaf product packs its operands straight from
/// the parent's blocks). A non-divisible level takes nothing more: its
/// padding is virtual.
pub(crate) fn dfs_working_set(
    dims: (usize, usize, usize),
    shape: (usize, usize, usize),
    cutoff: usize,
) -> usize {
    let mut total = 0usize;
    let mut cur = shape;
    while splits(dims, cur, cutoff) {
        let child = child_shape(dims, cur);
        let temps = if splits(dims, child, cutoff) {
            footprint(child)
        } else {
            child.0 * child.2
        };
        total = total.saturating_add(temps);
        cur = child;
    }
    total
}

/// Fused encode of product `l`'s left operand: `ta = Σ_q U[l][q] · A_q`,
/// reading the `A` blocks through strided grid views. Row by row, the
/// first nonzero term is written ([`crate::dense::axpy_set_row`]) and the
/// rest accumulated ([`crate::dense::axpy_row`]) in ascending `q`, so
/// `ta` may hold anything on entry and its bits equal those of zeroing it
/// and accumulating every term (the bit-determinism contract). An empty
/// `U` row writes zeros, and an `a` whose sides do not divide by the grid
/// is read as zero-extended to the next grid multiple. Shared by the
/// sequential recursion above the leaves, the non-stationary engine, the
/// parallel BFS encoder and the distributed engine.
#[inline]
pub fn encode_a_into<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    l: usize,
    ta: &mut MatMut<'_, T>,
) {
    let (bm, bk, _) = scheme.dims();
    Fold::new(a, (bm, bk), &scheme.u, l).write_into(ta);
}

/// Fused encode of product `l`'s right operand: `tb = Σ_q V[l][q] · B_q`
/// (see [`encode_a_into`]).
#[inline]
pub fn encode_b_into<T: Scalar>(
    scheme: &BilinearScheme,
    b: MatRef<'_, T>,
    l: usize,
    tb: &mut MatMut<'_, T>,
) {
    let (_, bk, bn) = scheme.dims();
    Fold::new(b, (bk, bn), &scheme.v, l).write_into(tb);
}

/// Fused decode of product `l`: `C_q ⊕= W[q][l] · M_l` for every nonzero
/// of `W`'s column `l`, writing through strided `C` grid blocks row by row
/// (each row of `M_l` is read once) — no intermediate result matrix is
/// ever materialized. A `C` whose sides do not divide by the grid is the
/// stored corner of its zero-extension: only that corner is written.
///
/// A block is *written* (`C_q = 0 ⊕ W[q][l]·M_l`,
/// [`crate::dense::axpy_set_row`]) on the first product of its `W` row
/// and accumulated on every later one; decoding `l = 0` also zeroes any
/// block whose `W` row is empty (no correct scheme has one). Decoding
/// every `l` in ascending order therefore writes all of `c`, whatever it
/// held, with the bits of accumulating into a zeroed `c`. Decoding out of
/// order is wrong: a later first touch would overwrite earlier products.
#[inline]
pub fn decode_product_into<T: Scalar>(
    scheme: &BilinearScheme,
    m: MatRef<'_, T>,
    l: usize,
    c: &mut MatMut<'_, T>,
) {
    let (bm, _, bn) = scheme.dims();
    let (br, bc) = (m.rows(), m.cols());
    assert_eq!(
        (c.rows().div_ceil(bm), c.cols().div_ceil(bn)),
        (br, bc),
        "C zero-extended is M_l's grid"
    );
    // Row `i` of grid block `q` starts at `C[r][c0]`.
    let at = |q: usize, i: usize| ((q / bn) * br + i, (q % bn) * bc);
    if l == 0 {
        for q in (0..bm * bn).filter(|&q| scheme.w.row_entries(q).next().is_none()) {
            for i in 0..br {
                let (r, c0) = at(q, i);
                c.clipped_row_mut(r, c0, bc).fill(T::zero());
            }
        }
    }
    for i in 0..br {
        let src = m.row(i);
        for (q, wc) in scheme.w.col_entries(l) {
            let (r, c0) = at(q, i);
            let dst = c.clipped_row_mut(r, c0, bc);
            let src = &src[..dst.len()];
            if scheme.w.row_entries(q).next().map(|(j, _)| j) == Some(l) {
                axpy_set_row(dst, src, wc);
            } else {
                axpy_row(dst, src, wc);
            }
        }
    }
}

/// The arena recursion: computes `c = a * b` into a **zeroed** `c` with
/// `scheme`, splitting a non-divisible level as if `a`, `b` and `c` were
/// zero-extended to the next block-grid multiple (no pad buffer, no copy;
/// see the module docs) and running the packed base kernel
/// ([`multiply_packed_into`]) below `cutoff`, with every temporary (pack
/// panels included) drawn from — and returned to — `arena`.
///
/// Zero-dimension shapes are defined: if any of `M`, `K`, `N` is zero the
/// product is the all-zero `M x N` matrix (empty when `M` or `N` is zero),
/// `c` is left untouched, and the recursion, base kernel, and arena are
/// never entered.
///
/// This is the engine [`multiply_scheme`](crate::recursive::multiply_scheme)
/// wraps; call it directly to amortize one arena (and one output buffer)
/// across many multiplies:
///
/// ```
/// use fastmm_matrix::arena::{multiply_into, ScratchArena};
/// use fastmm_matrix::dense::Matrix;
/// use fastmm_matrix::scheme::strassen;
///
/// let a = Matrix::<i64>::identity(16);
/// let b = Matrix::from_fn(16, 16, |i, j| (i * 16 + j) as i64);
/// let mut arena = ScratchArena::new();
/// let mut c = Matrix::zeros(16, 16);
/// multiply_into(&strassen(), a.view(), b.view(), &mut c.view_mut(), 2, &mut arena);
/// assert_eq!(c, b);
/// ```
pub fn multiply_into<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) {
    let shape = (a.rows(), a.cols(), b.cols());
    // Zero-dimension operands: the product is the all-zero `M x N` matrix
    // (empty when M or N is 0) and `c` enters zeroed, so there is nothing
    // to compute. Return before the base kernel so a degenerate multiply
    // never packs full-size operand panels or touches the arena.
    if shape.0 == 0 || shape.1 == 0 || shape.2 == 0 {
        return;
    }
    let dims = scheme.dims();
    if !splits(dims, shape, cutoff) {
        multiply_packed_into(a, b, c, arena);
        return;
    }
    let leaf_children = !splits(dims, child_shape(dims, shape), cutoff);
    multiply_split(scheme, a, b, c, leaf_children, arena, |ta, tb, m, arena| {
        multiply_into(scheme, ta, tb, m, cutoff, arena)
    });
}

/// One split node, shared by [`multiply_into`] and the non-stationary
/// engine: for each product `l = 0, 1, …, r-1`, form `M_l` into one arena
/// buffer, then decode it into `c` ([`decode_product_into`]), which
/// writes every element of `c`. Non-divisible sides are zero-extended
/// virtually: `M_l` has the padded child shape, the folds and the decode
/// stop at the stored corners.
///
/// When the children are leaves (`leaf_children`), `M_l` is one fused
/// leaf call on the folds of `U`'s and `V`'s row `l` over the grid blocks
/// of `a` and `b` — no `T_l`/`S_l` buffers (the one-level "AB" variant of
/// Huang–Smith–Henry–van de Geijn, *Strassen's Algorithm Reloaded*,
/// SC'16). Otherwise `T_l`/`S_l` are encoded into arena buffers and
/// `recurse` computes `M_l = T_l·S_l`, writing every element of its
/// output.
pub(crate) fn multiply_split<T: Scalar>(
    scheme: &BilinearScheme,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    leaf_children: bool,
    arena: &mut ScratchArena<T>,
    mut recurse: impl FnMut(MatRef<'_, T>, MatRef<'_, T>, &mut MatMut<'_, T>, &mut ScratchArena<T>),
) {
    let (bm, bk, bn) = scheme.dims();
    let (sm, sk, sn) = child_shape((bm, bk, bn), (a.rows(), a.cols(), b.cols()));
    let mut mbuf = arena.take_any(sm * sn);
    if leaf_children {
        for l in 0..scheme.r {
            multiply_fold_into(
                Operand::Fold(Fold::new(a, (bm, bk), &scheme.u, l)),
                Operand::Fold(Fold::new(b, (bk, bn), &scheme.v, l)),
                &mut MatMut::from_slice(&mut mbuf, sm, sn),
                arena,
            );
            decode_product_into(scheme, MatRef::from_slice(&mbuf, sm, sn), l, c);
        }
    } else {
        let mut ta = arena.take_any(sm * sk);
        let mut tb = arena.take_any(sk * sn);
        for l in 0..scheme.r {
            encode_a_into(scheme, a, l, &mut MatMut::from_slice(&mut ta, sm, sk));
            encode_b_into(scheme, b, l, &mut MatMut::from_slice(&mut tb, sk, sn));
            recurse(
                MatRef::from_slice(&ta, sm, sk),
                MatRef::from_slice(&tb, sk, sn),
                &mut MatMut::from_slice(&mut mbuf, sm, sn),
                arena,
            );
            decode_product_into(scheme, MatRef::from_slice(&mbuf, sm, sn), l, c);
        }
        arena.give(ta);
        arena.give(tb);
    }
    arena.give(mbuf);
}

/// Rank-local entry point for distributed runtimes: multiply two flat
/// row-major operand buffers (e.g. the payloads of incoming messages) and
/// return the flat row-major product, running the same arena recursion as
/// [`multiply_scheme`](crate::recursive::multiply_scheme) — so a
/// distributed execution whose per-rank leaves call this is bit-identical
/// to the sequential engine wherever the surrounding schedule preserves
/// the encode/decode order (see the module docs' bit-determinism
/// contract). `shape` is `(M, K, N)`; `a` must hold `M·K` words and `b`
/// `K·N`. Zero-dimension shapes return the correctly-sized all-zero (or
/// empty) product without entering the recursion (see [`multiply_into`]).
///
/// ```
/// use fastmm_matrix::arena::{multiply_flat, ScratchArena};
/// use fastmm_matrix::scheme::strassen;
///
/// let a = vec![1.0f64, 0.0, 0.0, 1.0]; // 2x2 identity
/// let b = vec![3.0f64, 4.0, 5.0, 6.0];
/// let mut arena = ScratchArena::new();
/// assert_eq!(multiply_flat(&strassen(), &a, &b, (2, 2, 2), 1, &mut arena), b);
/// ```
pub fn multiply_flat<T: Scalar>(
    scheme: &BilinearScheme,
    a: &[T],
    b: &[T],
    shape: (usize, usize, usize),
    cutoff: usize,
    arena: &mut ScratchArena<T>,
) -> Vec<T> {
    let (mm, kk, nn) = shape;
    assert_eq!(a.len(), mm * kk, "left operand length");
    assert_eq!(b.len(), kk * nn, "right operand length");
    let mut c = vec![T::zero(); mm * nn];
    multiply_into(
        scheme,
        MatRef::from_slice(a, mm, kk),
        MatRef::from_slice(b, kk, nn),
        &mut MatMut::from_slice(&mut c, mm, nn),
        cutoff.max(1),
        arena,
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::dense::Matrix;
    use crate::scheme::{all_schemes, strassen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn arena_recycles_buffers() {
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let b1 = arena.take(64);
        let ptr = b1.as_ptr();
        arena.give(b1);
        let b2 = arena.take(64);
        assert_eq!(b2.as_ptr(), ptr, "same allocation reused");
        assert!(b2.iter().all(|&x| x == 0), "reissued buffer is zeroed");
    }

    #[test]
    fn arena_buckets_by_capacity_class() {
        // Mixed-shape regression: with the historical single-stack pool,
        // the small buffer (returned last) was popped for the next large
        // request and reallocated, while the large buffer stayed buried.
        // Bucketing must hand each take its own capacity class back.
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let big = arena.take(1024);
        let small = arena.take(16);
        let (big_ptr, small_ptr) = (big.as_ptr(), small.as_ptr());
        arena.give(big);
        arena.give(small); // small on top of a LIFO stack
        let big2 = arena.take(1024);
        assert_eq!(big2.as_ptr(), big_ptr, "large take reuses the large buffer");
        let small2 = arena.take_any(16);
        assert_eq!(
            small2.as_ptr(),
            small_ptr,
            "small take reuses the small one"
        );
        // alternating take/give across classes stays allocation-stable
        arena.give(big2);
        arena.give(small2);
        for _ in 0..4 {
            let s = arena.take(16);
            assert_eq!(s.as_ptr(), small_ptr);
            let b = arena.take_any(1024);
            assert_eq!(b.as_ptr(), big_ptr);
            arena.give(b);
            arena.give(s);
        }
    }

    #[test]
    fn trim_bounds_idle_retention() {
        let mut arena: ScratchArena<f64> = ScratchArena::new();
        let bufs: Vec<_> = (0..4).map(|_| arena.take(1024)).collect();
        assert_eq!(arena.retained_words(), 0, "taken buffers are not idle");
        for b in bufs {
            arena.give(b);
        }
        assert_eq!(arena.retained_words(), 4 * 1024);
        arena.trim(1024);
        assert!(
            arena.retained_words() <= 1024,
            "retention bounded: {} words",
            arena.retained_words()
        );
        // the survivor is still recycled
        let b = arena.take(1024);
        assert_eq!(b.len(), 1024);
        assert_eq!(arena.retained_words(), 0);
        arena.give(b);
        arena.trim(0);
        assert_eq!(arena.retained_words(), 0, "trim(0) empties the pool");
        // trimming an empty pool is a no-op, and give after trim works
        arena.trim(0);
        let b = arena.take(8);
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn take_any_reuses_without_zeroing_contract() {
        let mut arena: ScratchArena<i64> = ScratchArena::new();
        let mut b = arena.take(8);
        b.iter_mut().for_each(|x| *x = 7);
        arena.give(b);
        // contents unspecified but length exact and allocation reused
        let b2 = arena.take_any(4);
        assert_eq!(b2.len(), 4);
        let b3 = arena.take_any(16);
        assert_eq!(b3.len(), 16);
    }

    #[test]
    fn multiply_into_is_exact_for_all_registry_schemes() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut arena = ScratchArena::new();
        for scheme in all_schemes() {
            let (bm, bk, bn) = scheme.dims();
            let (mm, kk, nn) = (bm * bm + 1, bk * bk, bn * bn + 1);
            let a = Matrix::random_fp(mm, kk, &mut rng);
            let b = Matrix::random_fp(kk, nn, &mut rng);
            let mut c = Matrix::zeros(mm, nn);
            multiply_into(
                &scheme,
                a.view(),
                b.view(),
                &mut c.view_mut(),
                1,
                &mut arena,
            );
            assert_eq!(c, multiply_naive(&a, &b), "scheme {}", scheme.name);
        }
    }

    #[test]
    fn multiply_flat_is_bit_identical_to_multiply_scheme() {
        // The rank-local contract: a distributed leaf calling multiply_flat
        // on message payloads computes exactly the sequential engine's bits.
        let mut rng = StdRng::seed_from_u64(67);
        let mut arena = ScratchArena::new();
        for scheme in all_schemes() {
            for (mm, kk, nn) in [(8usize, 8usize, 8usize), (7, 5, 9)] {
                let a = Matrix::<f64>::random(mm, kk, &mut rng);
                let b = Matrix::<f64>::random(kk, nn, &mut rng);
                let flat = multiply_flat(
                    &scheme,
                    a.as_slice(),
                    b.as_slice(),
                    (mm, kk, nn),
                    2,
                    &mut arena,
                );
                let reference = crate::recursive::multiply_scheme(&scheme, &a, &b, 2);
                assert!(
                    flat.iter()
                        .zip(reference.as_slice())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "{} {mm}x{kk}x{nn}",
                    scheme.name
                );
            }
        }
    }

    #[test]
    fn encode_decode_kernels_match_dense_reference() {
        // One Strassen level by hand: encode/decode kernels vs the flat
        // (U, V, W) definition evaluated through owned block copies.
        let s = strassen();
        let mut rng = StdRng::seed_from_u64(62);
        let a = Matrix::<f64>::random(4, 4, &mut rng);
        let b = Matrix::<f64>::random(4, 4, &mut rng);
        // quadrant q of a 4x4 matrix starts at (2·(q / 2), 2·(q % 2))
        let quadrant =
            |m: &Matrix<f64>, q: usize| m.view().block(q / 2 * 2, q % 2 * 2, 2, 2).to_matrix();
        let a_blocks: Vec<Matrix<f64>> = (0..4).map(|q| quadrant(&a, q)).collect();
        let b_blocks: Vec<Matrix<f64>> = (0..4).map(|q| quadrant(&b, q)).collect();
        let mut c_fast = Matrix::zeros(4, 4);
        let mut c_ref = Matrix::zeros(4, 4);
        for l in 0..s.r {
            let mut ta = Matrix::zeros(2, 2);
            encode_a_into(&s, a.view(), l, &mut ta.view_mut());
            let mut tb = Matrix::zeros(2, 2);
            encode_b_into(&s, b.view(), l, &mut tb.view_mut());
            let mut ta_ref = Matrix::zeros(2, 2);
            let mut tb_ref = Matrix::zeros(2, 2);
            for q in 0..4 {
                ta_ref
                    .view_mut()
                    .accumulate_scaled(a_blocks[q].view(), s.u.get(l, q));
                tb_ref
                    .view_mut()
                    .accumulate_scaled(b_blocks[q].view(), s.v.get(l, q));
            }
            assert_eq!(ta, ta_ref, "l={l}: encode A");
            assert_eq!(tb, tb_ref, "l={l}: encode B");
            let m = multiply_naive(&ta, &tb);
            decode_product_into(&s, m.view(), l, &mut c_fast.view_mut());
            for q in 0..4 {
                let wc = s.w.get(q, l);
                if wc != 0 {
                    c_ref
                        .view_mut()
                        .block_mut(q / 2 * 2, q % 2 * 2, 2, 2)
                        .accumulate_scaled(m.view(), wc);
                }
            }
        }
        let bits = |m: &Matrix<f64>| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&c_fast), bits(&c_ref), "decode reassociated");
    }
}
