//! BLIS-style packed micro-kernel — the near-peak base case of every
//! engine, and the only one.
//!
//! [`multiply_packed_into`] computes `C += A·B` with the classic five-loop
//! GEMM structure (Goto/van de Geijn; BLIS): the operands are repacked into
//! contiguous panels drawn from the shared [`ScratchArena`], and an
//! `MR x NR` register tile of `C` is accumulated by a branch-free inner
//! loop the compiler autovectorizes. Loop nest, outermost first:
//!
//! * `jc` over `N` in [`NC`]-wide column slabs (keeps the packed `B` slab
//!   L2/L3-resident),
//! * `pc` over `K` in [`KC`]-deep blocks — `B`'s slab is packed here into
//!   `NR`-wide micro-panels (`bp[k·NR + jr]`),
//! * `ic` over `M` in [`MC`]-tall blocks — `A`'s block is packed into
//!   `MR`-tall micro-panels (`ap[k·MR + ir]`),
//! * `jr`/`ir` over the packed micro-panels, each pair running the
//!   micro-kernel: `kc` rank-1 updates of an `MR x NR` accumulator held in
//!   registers, reading one `MR`-column of `ap` and one `NR`-row of `bp`
//!   per step — unit-stride, aligned, no bounds checks in the hot loop.
//!
//! Edge tiles are zero-padded *inside the packed panels* (never in `C`):
//! lanes beyond the true `mr/nr` extent compute garbage-times-zero that is
//! simply never stored back.
//!
//! ## Fused leaves
//!
//! Inside the crate a packed operand is either a view or a *fold*
//! `Σ_q c_q·X_q`: one row of a scheme's `U` or `V` over the grid blocks
//! `X_q` of a parent view, which is the encoded operand `T_l`/`S_l` of
//! one product, never stored. The pack loops compute a fold one source
//! row at a time into a contiguous row buffer from the arena (an `A` row
//! segment of at most `KC` words, a `B` slab row of at most `NC`) and
//! scatter it into the panels, as they scatter a view's row. The arena
//! recursion's leaves run this way with β = 0: the first `k`-block's
//! accumulators start from zero instead of loading `C`, so the product
//! `M_l` is written without being zero-filled first.
//!
//! ## Bit-determinism contract
//!
//! Per output element the floating-point operations are **exactly** those
//! of [`multiply_naive`](crate::classical::multiply_naive): the element is
//! loaded from `C`, products are accumulated in ascending `k`, and the
//! result is stored. The `KC` blocking stores and reloads `C` between
//! `k`-blocks, which splits the chain of additions across iterations but
//! never reorders or reassociates it; the `MC`/`NC`/`MR`/`NR` blocking
//! only permutes *which* output element is processed when, and dot
//! products of distinct output elements are independent. Starting from any
//! `C`, the default build therefore matches [`multiply_kernel_into`] (and,
//! from a zeroed `C`, `multiply_naive`) for every [`Scalar`] bit for bit
//! at every non-NaN result, and is NaN exactly where they are — which is
//! what lets the determinism suite pin every engine bitwise against a
//! copy-out recursion over `multiply_naive`. A NaN's own bits are not
//! part of the contract: Rust leaves NaN payloads unspecified and the
//! compiler may commute an addition's operands, so where an input NaN
//! meets a NaN the hardware generates (`Inf − Inf`), which of the two
//! comes out can differ between kernels and builds.
//!
//! Fused leaves keep these bits. A fold row is computed from zero in
//! ascending `q` — the first term as `0 ⊕ c·X` with
//! [`crate::dense::axpy_set_row`], the rest with
//! [`crate::dense::axpy_row`] — which is exactly the arithmetic of
//! zero-filling `T_l` and accumulating its terms. Starting from zero is
//! what loading a zeroed `C` gave (`+0.0`). And a fused leaf at or below
//! the small-shape edge materializes its folds and runs
//! [`multiply_kernel_into`], the loop `multiply_packed_into` runs there,
//! because under `fma` the two loops round differently.
//!
//! The SIMD story is runtime dispatch, not intrinsics: the generic body is
//! recompiled under `#[target_feature(enable = "avx512f")]` and
//! `"avx2"` wrappers and the best one is selected per call with
//! `is_x86_feature_detected!`. IEEE-754 `+`/`×` are exactly rounded, so
//! the vectorized instantiations produce the same bits as the portable
//! one — witnessed by [`multiply_packed_into_scalar`], the forced-portable
//! entry the determinism suite compares against the dispatched path.
//!
//! Under the **`fma` cargo feature** (off by default) the floats override
//! [`Scalar::mul_add`] with a hardware fused multiply-add: roughly 2-3x
//! more throughput on FMA hardware and *more* accurate (one rounding per
//! update instead of two), but a different well-defined result — so the
//! witnesses against the unfused `multiply_naive` are feature-gated off
//! while the packed-SIMD-vs-packed-portable and engine-vs-engine
//! witnesses remain (fused ops are exactly rounded too, so dispatch still
//! cannot change bits).

use crate::arena::ScratchArena;
use crate::classical::multiply_kernel_into;
use crate::dense::{axpy_row, axpy_set_row, MatMut, MatRef};
use crate::scalar::Scalar;
use crate::scheme::Coeffs;

/// Depth of one packed `k`-block: `KC` rank-1 updates run per micro-tile
/// before `C` is stored back. `256` keeps one `MR`-tall `A` micro-panel
/// (`8·256` f64 = 16 KiB) plus one `NR`-wide `B` micro-panel in L1 with
/// room for the `C` tile.
pub const KC: usize = 256;

/// Height of one packed `A` block: `MC x KC` f64 = 128 KiB, L2-resident
/// while a full `B` slab streams against it.
pub const MC: usize = 64;

/// Width of one packed `B` slab: bounds the packed-`B` working set
/// (`NC x KC` words) so it stays cache-resident across all `ic` blocks.
pub const NC: usize = 2048;

/// Shapes with every dimension at or below this edge skip packing and run
/// the cache-blocked [`multiply_kernel_into`] directly — at these sizes
/// the `O(mk + kn)` pack traffic costs more than it saves, and the two
/// loops are bit-identical so the switch is invisible to the determinism
/// suite.
const PACK_MIN: usize = 8;

/// Instruction-set level the packed kernel's runtime dispatch selected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable body compiled for the baseline target (still
    /// autovectorized, e.g. SSE2 on x86-64).
    Portable,
    /// 256-bit AVX2 instantiation.
    Avx2,
    /// 512-bit AVX-512F instantiation.
    Avx512,
}

impl std::fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512f",
        })
    }
}

/// The instruction-set level [`multiply_packed_into`] will dispatch to on
/// this machine (detection is cached by the standard library, so calling
/// this per multiply is cheap).
pub fn active_simd_level() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return SimdLevel::Avx512;
        }
        if is_x86_feature_detected!("avx2") {
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Portable
}

/// The fold `Σ_q c_q·X_q` of row `row` of a coefficient matrix (`U` or
/// `V`) over the `gr x gc` grid blocks `X_q` of a parent view (block `q`
/// is grid cell `(q / gc, q % gc)`), the parent read as zero-extended to
/// its padded extent, the next grid multiple: the encoded operand `T_l`
/// or `S_l` of one product, described without being stored. Its rows are
/// computed on demand from zero in ascending `q` with [`axpy_set_row`]
/// then [`axpy_row`], exactly the arithmetic of zero-filling `T_l` and
/// accumulating the terms, so a fold carries `T_l`'s bits. Past the
/// stored corner a first term writes zero and a later one is skipped,
/// which keeps those bits (see the [`crate::arena`] module docs).
#[derive(Clone, Copy)]
pub(crate) struct Fold<'a, T> {
    parent: MatRef<'a, T>,
    grid: (usize, usize),
    coeffs: &'a Coeffs,
    row: usize,
}

impl<'a, T: Scalar> Fold<'a, T> {
    /// The fold of `coeffs` row `row` over `parent` zero-extended and
    /// split as a `grid.0 x grid.1` grid (`coeffs` has one column per grid
    /// block).
    pub(crate) fn new(
        parent: MatRef<'a, T>,
        grid: (usize, usize),
        coeffs: &'a Coeffs,
        row: usize,
    ) -> Self {
        assert_eq!(coeffs.cols(), grid.0 * grid.1, "one coefficient per block");
        Fold {
            parent,
            grid,
            coeffs,
            row,
        }
    }

    fn rows(&self) -> usize {
        self.parent.rows().div_ceil(self.grid.0)
    }

    fn cols(&self) -> usize {
        self.parent.cols().div_ceil(self.grid.1)
    }

    /// `dst = Σ_q c_q · X_q[i][c0 .. c0 + dst.len()]`: the first nonzero
    /// term written, the rest accumulated, in ascending `q` (zeros if the
    /// coefficient row is empty), each over the part of its block row the
    /// parent stores. `dst` may hold anything on entry. Always inlined,
    /// so the pack loops' `#[target_feature]` instantiations vectorize the
    /// fold at their width.
    #[inline(always)]
    pub(crate) fn row_into(&self, i: usize, c0: usize, dst: &mut [T]) {
        let (br, bc, gc, len) = (self.rows(), self.cols(), self.grid.1, dst.len());
        let block_row = |q: usize| {
            self.parent
                .clipped_row((q / gc) * br + i, (q % gc) * bc + c0, len)
        };
        let mut terms = self.coeffs.row_entries(self.row);
        match terms.next() {
            Some((q, c)) => {
                let src = block_row(q);
                let (stored, past) = dst.split_at_mut(src.len());
                axpy_set_row(stored, src, c);
                past.fill(T::zero());
                for (q, c) in terms {
                    let src = block_row(q);
                    axpy_row(&mut dst[..src.len()], src, c);
                }
            }
            None => dst.fill(T::zero()),
        }
    }

    /// Write the whole fold into `dst` (same shape), row by row.
    pub(crate) fn write_into(&self, dst: &mut MatMut<'_, T>) {
        assert_eq!((dst.rows(), dst.cols()), (self.rows(), self.cols()));
        for i in 0..dst.rows() {
            self.row_into(i, 0, dst.row_mut(i));
        }
    }
}

/// One operand of the packed kernel: a plain view, or a [`Fold`] the
/// pack loops compute row by row as they pack it.
#[derive(Clone, Copy)]
pub(crate) enum Operand<'a, T> {
    View(MatRef<'a, T>),
    Fold(Fold<'a, T>),
}

impl<'a, T: Scalar> Operand<'a, T> {
    fn rows(&self) -> usize {
        match self {
            Operand::View(v) => v.rows(),
            Operand::Fold(f) => f.rows(),
        }
    }

    fn cols(&self) -> usize {
        match self {
            Operand::View(v) => v.cols(),
            Operand::Fold(f) => f.cols(),
        }
    }

    /// Columns `c0 .. c0 + len` of row `i`: borrowed from a view, folded
    /// into `buf` for a fold.
    #[inline(always)]
    fn row<'s>(&'s self, i: usize, c0: usize, len: usize, buf: &'s mut [T]) -> &'s [T] {
        match self {
            Operand::View(v) => &v.row(i)[c0..c0 + len],
            Operand::Fold(f) => {
                let dst = &mut buf[..len];
                f.row_into(i, c0, dst);
                dst
            }
        }
    }

    /// The operand as a plain view: a view as it is, a fold written into
    /// `buf`, which is taken from `arena` and which the caller gives back.
    fn as_view<'s>(&'s self, arena: &mut ScratchArena<T>, buf: &'s mut Vec<T>) -> MatRef<'s, T> {
        match self {
            Operand::View(v) => *v,
            Operand::Fold(f) => {
                let (rows, cols) = (f.rows(), f.cols());
                *buf = arena.take_any(rows * cols);
                f.write_into(&mut MatMut::from_slice(buf, rows, cols));
                MatRef::from_slice(buf, rows, cols)
            }
        }
    }
}

/// Pack one `MR`-tall micro-panel of `A` (`rows i0 .. i0+mr_eff`, inner
/// range `p0 .. p0+kc`) into `ap` in column-of-panel-major order
/// (`ap[k·MR + ir]`), zero-filling the `ir >= mr_eff` edge lanes. A fold
/// row is computed into the contiguous `buf` and scattered once.
#[inline(always)]
fn pack_a_panel<T: Scalar, const MR: usize>(
    a: Operand<'_, T>,
    i0: usize,
    mr_eff: usize,
    p0: usize,
    kc: usize,
    ap: &mut [T],
    buf: &mut [T],
) {
    for ir in 0..mr_eff {
        let row = a.row(i0 + ir, p0, kc, buf);
        for (k, &v) in row.iter().enumerate() {
            ap[k * MR + ir] = v;
        }
    }
    for ir in mr_eff..MR {
        for k in 0..kc {
            ap[k * MR + ir] = T::zero();
        }
    }
}

/// Pack the `kc x nc` slab of `B` at `(p0, j0)` into `NR`-wide row-major
/// micro-panels (`bp[pj·kc·NR + k·NR + jr]`), zero-filling the lanes past
/// `nc` in the last panel. Row by row, so a fold row is computed once
/// into `buf` and scattered across the panels.
#[inline(always)]
fn pack_b_slab<T: Scalar, const NR: usize>(
    b: Operand<'_, T>,
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    bp: &mut [T],
    buf: &mut [T],
) {
    for k in 0..kc {
        let row = b.row(p0 + k, j0, nc, buf);
        for (pj, src) in row.chunks(NR).enumerate() {
            let dst = &mut bp[(pj * kc + k) * NR..(pj * kc + k + 1) * NR];
            dst[..src.len()].copy_from_slice(src);
            dst[src.len()..].fill(T::zero());
        }
    }
}

/// The micro-kernel: `kc` rank-1 updates of the `MR x NR` register
/// accumulator from one packed `A` micro-panel and one packed `B`
/// micro-panel. The fixed-size array reborrows lift every bounds check
/// out of the loop, so the two inner loops compile to straight-line
/// vector code under the dispatch wrappers.
#[inline(always)]
fn micro_kernel<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    ap: &[T],
    bp: &[T],
    acc: &mut [[T; NR]; MR],
) {
    for (ak, bk) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(kc) {
        let ak: &[T; MR] = ak.try_into().unwrap();
        let bk: &[T; NR] = bk.try_into().unwrap();
        for ir in 0..MR {
            let av = ak[ir];
            for jr in 0..NR {
                acc[ir][jr] = av.mul_add(bk[jr], acc[ir][jr]);
            }
        }
    }
}

/// The five-loop macro-kernel over pre-sized pack buffers: `C += A·B`,
/// or `C = A·B` when `overwrite` (β = 0: the first `k`-block's
/// accumulators start from zero instead of loading `C`, which is what
/// loading a zeroed `C` would give). See the module docs for the loop
/// structure and the bit-determinism argument. `#[inline(always)]` so the
/// `#[target_feature]` wrappers below recompile the whole nest (packing
/// included) at their ISA level.
#[inline(always)]
fn packed_body<T: Scalar, const MR: usize, const NR: usize>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    overwrite: bool,
    ap: &mut [T],
    bp: &mut [T],
    fold_row: &mut [T],
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b_slab::<T, NR>(b, pc, kc, jc, nc, bp, fold_row);
            let load_c = !(overwrite && pc == 0);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                for (pi, i0) in (ic..ic + mc).step_by(MR).enumerate() {
                    let mr_eff = MR.min(ic + mc - i0);
                    pack_a_panel::<T, MR>(
                        a,
                        i0,
                        mr_eff,
                        pc,
                        kc,
                        &mut ap[pi * kc * MR..(pi + 1) * kc * MR],
                        fold_row,
                    );
                }
                for (pj, j0) in (jc..jc + nc).step_by(NR).enumerate() {
                    let nr_eff = NR.min(jc + nc - j0);
                    let bpan = &bp[pj * kc * NR..(pj + 1) * kc * NR];
                    for (pi, i0) in (ic..ic + mc).step_by(MR).enumerate() {
                        let mr_eff = MR.min(ic + mc - i0);
                        let apan = &ap[pi * kc * MR..(pi + 1) * kc * MR];
                        let mut acc = [[T::zero(); NR]; MR];
                        if load_c {
                            let cv = c.as_ref();
                            for (ir, row) in acc.iter_mut().enumerate().take(mr_eff) {
                                row[..nr_eff].copy_from_slice(&cv.row(i0 + ir)[j0..j0 + nr_eff]);
                            }
                        }
                        micro_kernel::<T, MR, NR>(kc, apan, bpan, &mut acc);
                        for (ir, row) in acc.iter().enumerate().take(mr_eff) {
                            c.row_mut(i0 + ir)[j0..j0 + nr_eff].copy_from_slice(&row[..nr_eff]);
                        }
                    }
                }
            }
        }
    }
}

/// AVX-512F instantiation of the macro-kernel.
///
/// Safety: caller must have verified `avx512f` support at runtime (the
/// dispatch in [`run_tile`] does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn packed_body_avx512<T: Scalar, const MR: usize, const NR: usize>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    overwrite: bool,
    ap: &mut [T],
    bp: &mut [T],
    fold_row: &mut [T],
) {
    packed_body::<T, MR, NR>(a, b, c, overwrite, ap, bp, fold_row)
}

/// AVX2 instantiation of the macro-kernel.
///
/// Safety: caller must have verified `avx2` support at runtime (the
/// dispatch in [`run_tile`] does).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn packed_body_avx2<T: Scalar, const MR: usize, const NR: usize>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    overwrite: bool,
    ap: &mut [T],
    bp: &mut [T],
    fold_row: &mut [T],
) {
    packed_body::<T, MR, NR>(a, b, c, overwrite, ap, bp, fold_row)
}

/// Size the pack buffers from the arena and run the macro-kernel at the
/// detected (or forced-portable) ISA level. The buffers cover one `A`
/// block (`≤ MC x KC`, rounded up to whole `MR` panels), one `B` slab
/// (`≤ KC x NC`, rounded up to whole `NR` panels) and, when an operand is
/// a fold, one row of either; every element is written before it is
/// read, so they are taken unzeroed.
fn run_tile<T: Scalar, const MR: usize, const NR: usize>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    overwrite: bool,
    arena: &mut ScratchArena<T>,
    force_portable: bool,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let kc_cap = KC.min(k);
    let ap_len = MC.min(m).div_ceil(MR) * MR * kc_cap;
    let bp_len = NC.min(n).div_ceil(NR) * NR * kc_cap;
    let mut ap = arena.take_any(ap_len);
    let mut bp = arena.take_any(bp_len);
    let mut fold_row = match (a, b) {
        (Operand::View(_), Operand::View(_)) => Vec::new(),
        _ => arena.take_any(kc_cap.max(NC.min(n))),
    };
    match (force_portable, active_simd_level()) {
        #[cfg(target_arch = "x86_64")]
        // Safety: the matched level was detected on this CPU.
        (false, SimdLevel::Avx512) => unsafe {
            packed_body_avx512::<T, MR, NR>(a, b, c, overwrite, &mut ap, &mut bp, &mut fold_row)
        },
        #[cfg(target_arch = "x86_64")]
        // Safety: as above.
        (false, SimdLevel::Avx2) => unsafe {
            packed_body_avx2::<T, MR, NR>(a, b, c, overwrite, &mut ap, &mut bp, &mut fold_row)
        },
        _ => packed_body::<T, MR, NR>(a, b, c, overwrite, &mut ap, &mut bp, &mut fold_row),
    }
    arena.give(ap);
    arena.give(bp);
    arena.give(fold_row);
}

/// Shared entry logic: shape checks, the tiny-shape fall-through to
/// [`multiply_kernel_into`], and the `(MR, NR)` tile dispatch. Associated consts
/// cannot parameterize array lengths on stable, so the supported tiles
/// are monomorphized explicitly: `(8, 8)` (f64), `(8, 16)` (f32), and the
/// conservative `(4, 4)` every other scalar (integers, `Fp`) uses — any
/// unlisted combination also runs `(4, 4)`.
fn dispatch<T: Scalar>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    overwrite: bool,
    arena: &mut ScratchArena<T>,
    force_portable: bool,
) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert_eq!(c.rows(), a.rows());
    assert_eq!(c.cols(), b.cols());
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    if m.max(k).max(n) <= PACK_MIN || k == 0 {
        // Folds are materialized first, so a fused leaf of this size runs
        // the same unpacked loop `multiply_packed_into` does.
        let (mut abuf, mut bbuf) = (Vec::new(), Vec::new());
        let av = a.as_view(arena, &mut abuf);
        let bv = b.as_view(arena, &mut bbuf);
        if overwrite {
            c.fill_zero();
        }
        multiply_kernel_into(av, bv, c);
        arena.give(abuf);
        arena.give(bbuf);
        return;
    }
    match (T::MR, T::NR) {
        (8, 8) => run_tile::<T, 8, 8>(a, b, c, overwrite, arena, force_portable),
        (8, 16) => run_tile::<T, 8, 16>(a, b, c, overwrite, arena, force_portable),
        _ => run_tile::<T, 4, 4>(a, b, c, overwrite, arena, force_portable),
    }
}

/// Packed accumulating product `C += A·B` — the base-case kernel of the
/// recursive engines ([`crate::arena::multiply_into`], the parallel DFS
/// leaves, [`multiply_non_stationary`](crate::recursive::multiply_non_stationary),
/// the distributed rank-local
/// [`multiply_flat`](crate::arena::multiply_flat)). Dispatches to the
/// fastest instruction-set instantiation the CPU supports; bit-identical
/// to [`multiply_kernel_into`] at every shape in the default build (see
/// the module docs).
pub fn multiply_packed_into<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    arena: &mut ScratchArena<T>,
) {
    dispatch(Operand::View(a), Operand::View(b), c, false, arena, false);
}

/// [`multiply_packed_into`] with the runtime SIMD dispatch forced off —
/// the portable scalar-fallback body every machine runs the same way.
/// The determinism suite compares this against the dispatched entry
/// bitwise; a divergence would mean an instantiation reassociated.
pub fn multiply_packed_into_scalar<T: Scalar>(
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: &mut MatMut<'_, T>,
    arena: &mut ScratchArena<T>,
) {
    dispatch(Operand::View(a), Operand::View(b), c, false, arena, true);
}

/// The fused leaf: `C = A·B` with β = 0 (whatever `c` holds on entry is
/// overwritten), where either operand may be a [`Fold`] packed straight
/// from its parent's blocks. Bit-identical to writing the folds out from
/// zero and running [`multiply_packed_into`] into a zeroed `C`.
pub(crate) fn multiply_fold_into<T: Scalar>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: &mut MatMut<'_, T>,
    arena: &mut ScratchArena<T>,
) {
    dispatch(a, b, c, true, arena, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::dense::Matrix;
    use crate::scalar::Fp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Shapes that cross every blocking boundary: below `PACK_MIN`, around
    /// `MR`/`NR` edges, across `MC`, and across `KC`.
    const SHAPES: [(usize, usize, usize); 7] = [
        (1, 1, 1),
        (7, 5, 9),
        (16, 16, 16),
        (23, 31, 17),
        (65, 64, 66),
        (70, 300, 96),
        (5, 257, 3),
    ];

    fn packed<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let mut arena = ScratchArena::new();
        let mut c = Matrix::zeros(a.rows(), b.cols());
        multiply_packed_into(a.view(), b.view(), &mut c.view_mut(), &mut arena);
        c
    }

    fn packed_portable<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
        let mut arena = ScratchArena::new();
        let mut c = Matrix::zeros(a.rows(), b.cols());
        multiply_packed_into_scalar(a.view(), b.view(), &mut c.view_mut(), &mut arena);
        c
    }

    #[test]
    fn packed_matches_dispatched_portable_bitwise_f64() {
        // SIMD dispatch must never change bits: +/x are exactly rounded,
        // so every instantiation of the same op sequence agrees.
        let mut rng = StdRng::seed_from_u64(71);
        for &(m, k, n) in &SHAPES {
            let a = Matrix::<f64>::random(m, k, &mut rng);
            let b = Matrix::<f64>::random(k, n, &mut rng);
            assert!(
                packed(&a, &b).bits_eq(&packed_portable(&a, &b)),
                "{m}x{k}x{n}: dispatch changed bits"
            );
        }
    }

    #[cfg(not(feature = "fma"))]
    #[test]
    fn packed_matches_ikj_bitwise_f64() {
        // The contract the arena engine's determinism promises build on.
        let mut rng = StdRng::seed_from_u64(72);
        for &(m, k, n) in &SHAPES {
            let a = Matrix::<f64>::random(m, k, &mut rng);
            let b = Matrix::<f64>::random(k, n, &mut rng);
            assert!(
                packed(&a, &b).bits_eq(&multiply_naive(&a, &b)),
                "{m}x{k}x{n}: packed f64 bits differ from multiply_naive"
            );
        }
    }

    #[test]
    fn packed_is_exact_over_fp() {
        let mut rng = StdRng::seed_from_u64(73);
        for &(m, k, n) in &SHAPES {
            let a = Matrix::random_fp(m, k, &mut rng);
            let b = Matrix::random_fp(k, n, &mut rng);
            let c = packed(&a, &b);
            assert_eq!(c, multiply_naive(&a, &b), "{m}x{k}x{n}: Fp mismatch");
            assert_eq!(c, packed_portable(&a, &b), "{m}x{k}x{n}: Fp dispatch");
        }
    }

    #[test]
    fn packed_accumulates_into_nonzero_c() {
        // C += A·B semantics, bit-identical to multiply_kernel_into even
        // when C enters dirty (the KC blocking reloads C between k-blocks).
        let mut rng = StdRng::seed_from_u64(74);
        let (m, k, n) = (33, 300, 21);
        let a = Matrix::<f64>::random(m, k, &mut rng);
        let b = Matrix::<f64>::random(k, n, &mut rng);
        let init = Matrix::<f64>::random(m, n, &mut rng);
        let mut c1 = init.clone();
        let mut c2 = init;
        let mut arena = ScratchArena::new();
        multiply_packed_into(a.view(), b.view(), &mut c1.view_mut(), &mut arena);
        multiply_kernel_into(a.view(), b.view(), &mut c2.view_mut());
        #[cfg(not(feature = "fma"))]
        assert!(
            c1.bits_eq(&c2),
            "accumulation diverged from multiply_kernel_into"
        );
        #[cfg(feature = "fma")]
        assert!(c1.max_abs_diff(&c2, |x| x) < 1e-9 * k as f64);
    }

    #[test]
    fn packed_reads_strided_views_and_writes_strided_outputs() {
        // The engines hand the kernel windows of larger allocations; the
        // pack loops must honor the stride on both operands and C.
        let mut rng = StdRng::seed_from_u64(75);
        let big_a = Matrix::<f64>::random(40, 40, &mut rng);
        let big_b = Matrix::<f64>::random(40, 40, &mut rng);
        let a = big_a.view().block(3, 5, 20, 17);
        let b = big_b.view().block(1, 2, 17, 30);
        let mut arena = ScratchArena::new();
        let mut cbig = Matrix::<f64>::zeros(32, 40);
        multiply_packed_into(
            a,
            b,
            &mut cbig.view_mut().block_mut(4, 6, 20, 30),
            &mut arena,
        );
        let mut cref = Matrix::<f64>::zeros(20, 30);
        multiply_kernel_into(a, b, &mut cref.view_mut());
        for i in 0..32 {
            for j in 0..40 {
                let inside = (4..24).contains(&i) && (6..36).contains(&j);
                let want = if inside { cref[(i - 4, j - 6)] } else { 0.0 };
                // Inside the window: bit-identical to multiply_kernel_into in
                // the default build, tolerance under `fma` (fused vs
                // unfused). Outside: exactly zero in both builds — the
                // kernel must never write past its window.
                #[cfg(not(feature = "fma"))]
                assert_eq!(cbig[(i, j)].to_bits(), want.to_bits(), "({i},{j})");
                #[cfg(feature = "fma")]
                if inside {
                    assert!((cbig[(i, j)] - want).abs() < 1e-12, "({i},{j})");
                } else {
                    assert_eq!(cbig[(i, j)].to_bits(), 0.0f64.to_bits(), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn pack_panels_layout_and_zero_fill() {
        let a = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as i64);
        let view = Operand::View(a.view());
        let mut ap = [-1i64; 4 * 2 * 2];
        // rows 1..3 (mr_eff = 2 of MR = 4... use MR = 4 with 2 valid rows)
        pack_a_panel::<i64, 4>(view, 1, 2, 1, 2, &mut ap[..4 * 2], &mut []);
        // column-of-panel-major: k-th column holds rows i0..i0+MR
        assert_eq!(&ap[..8], &[11, 21, 0, 0, 12, 22, 0, 0]);
        // a 2 x 3 slab: one full NR = 2 panel and one with a zero lane
        let mut bp = [-1i64; 2 * 2 * 2];
        pack_b_slab::<i64, 2>(view, 1, 2, 1, 3, &mut bp, &mut []);
        assert_eq!(&bp, &[11, 12, 21, 22, 13, 0, 23, 0]);
    }

    /// Coefficient rows of 1, 2, 3 and 4 terms over a 2 x 2 grid, using
    /// every coefficient in {1, −1, 2, −2} and skipping zeros.
    fn fold_coeffs() -> Coeffs {
        Coeffs::from_rows(
            4,
            4,
            vec![
                1, 0, 0, 0, //
                0, -1, 0, 2, //
                2, 1, -2, 0, //
                -2, 2, 1, -1,
            ],
        )
    }

    /// The fold written out from zeros the old way: a zeroed block
    /// accumulating every term in ascending `q`.
    fn fold_from_zeros<T: Scalar>(parent: &Matrix<T>, coeffs: &Coeffs, row: usize) -> Matrix<T> {
        let (br, bc) = (parent.rows() / 2, parent.cols() / 2);
        let mut t = Matrix::zeros(br, bc);
        for q in 0..4 {
            t.view_mut().accumulate_scaled(
                parent.view().block(q / 2 * br, q % 2 * bc, br, bc),
                coeffs.get(row, q),
            );
        }
        t
    }

    /// For every shape in `SHAPES` (as the product of two folds over
    /// parents twice its size) and pairs of fold rows that give each side
    /// 1 to 4 terms: the fused leaf, written with β = 0 over a `C` filled
    /// with `dirty`, against the folds materialized from zeros and run
    /// through `multiply_packed_into` into a zeroed `C`.
    fn assert_fold_witness<T: Scalar>(
        mut parent: impl FnMut(usize, usize) -> Matrix<T>,
        dirty: T,
        same: impl Fn(&Matrix<T>, &Matrix<T>) -> bool,
    ) {
        let coeffs = fold_coeffs();
        let mut arena = ScratchArena::new();
        for &(m, k, n) in &SHAPES {
            let (pa, pb) = (parent(2 * m, 2 * k), parent(2 * k, 2 * n));
            for (ra, rb) in [(0, 3), (1, 2), (2, 1), (3, 0), (3, 3)] {
                let mut fused = Matrix::from_fn(m, n, |_, _| dirty);
                multiply_fold_into(
                    Operand::Fold(Fold::new(pa.view(), (2, 2), &coeffs, ra)),
                    Operand::Fold(Fold::new(pb.view(), (2, 2), &coeffs, rb)),
                    &mut fused.view_mut(),
                    &mut arena,
                );
                let (ta, tb) = (
                    fold_from_zeros(&pa, &coeffs, ra),
                    fold_from_zeros(&pb, &coeffs, rb),
                );
                let mut want = Matrix::zeros(m, n);
                multiply_packed_into(ta.view(), tb.view(), &mut want.view_mut(), &mut arena);
                assert!(
                    same(&fused, &want),
                    "{m}x{k}x{n}, fold rows ({ra}, {rb}): fused leaf differs"
                );
            }
        }
    }

    #[test]
    fn fused_fold_leaf_matches_materialized_folds_bitwise() {
        // Covers PACK_MIN, the MR/NR edges, MC, and — the only test that
        // does — folds spanning several KC-deep k-blocks, where the β = 0
        // start applies to the first block only. The f64 parents carry
        // −0.0 and exact-zero entries, and a quarter of each is zero.
        let mut rng = StdRng::seed_from_u64(76);
        let mut f64_parent = |rows: usize, cols: usize| {
            let mut p = Matrix::<f64>::random(rows, cols, &mut rng);
            for i in 0..rows {
                for j in 0..cols {
                    if i < rows / 2 && j < cols / 2 {
                        p[(i, j)] = if (i + j) % 2 == 0 { 0.0 } else { -0.0 };
                    } else if (i * cols + j).is_multiple_of(5) {
                        p[(i, j)] = -0.0;
                    } else if (i * cols + j).is_multiple_of(7) {
                        p[(i, j)] = 0.0;
                    }
                }
            }
            p
        };
        assert_fold_witness(&mut f64_parent, f64::NAN, |x, y| x.bits_eq(y));
        let mut rng = StdRng::seed_from_u64(77);
        assert_fold_witness(
            |rows, cols| Matrix::<f32>::random_f32(rows, cols, &mut rng),
            f32::NAN,
            |x, y| x.bits_eq(y),
        );
        let mut rng = StdRng::seed_from_u64(78);
        assert_fold_witness(
            |rows, cols| Matrix::random_fp(rows, cols, &mut rng),
            Fp::new(12345),
            |x, y| x == y,
        );
    }

    #[test]
    fn active_level_is_detected_once_and_displayable() {
        let l = active_simd_level();
        assert_eq!(l, active_simd_level());
        assert!(["portable", "avx2", "avx512f"].contains(&l.to_string().as_str()));
    }
}
