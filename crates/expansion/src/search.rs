//! Heuristic sparse-cut search: produces *certified upper bounds* on edge
//! expansion (every returned cut is a real cut whose ratio is re-counted
//! from the graph).
//!
//! Three ingredients, combined by [`find_best_cut`]:
//!
//! 1. **Spectral sweep** — order vertices by the approximate Fiedler vector
//!    and evaluate every prefix (the classic Cheeger rounding).
//! 2. **Greedy cone growth** — from a seed vertex, repeatedly absorb the
//!    frontier vertex with the smallest marginal cut increase, recording the
//!    best ratio prefix along the trajectory. On the layered decode graphs
//!    this discovers the low-degree "cone" sets that realize small
//!    expansion.
//! 3. **Local refinement** — single-vertex toggles (Fiduccia–Mattheyses
//!    style) accepted when they improve the expansion ratio.

use fastmm_cdag::bitset::BitSet;
use fastmm_cdag::graph::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A concrete cut: the set, its recounted cut size, and expansion ratio.
#[derive(Clone, Debug)]
pub struct Cut {
    /// The vertex set `U`.
    pub set: BitSet,
    /// `|E(U, V∖U)|`.
    pub cut_edges: usize,
    /// `|E(U, V∖U)| / (d·|U|)`.
    pub expansion: f64,
}

/// Count the edges crossing `set` and package the ratio.
pub fn evaluate_cut(csr: &Csr, d: u32, set: BitSet) -> Cut {
    assert!(set.count() >= 1, "cut set must be nonempty");
    let mut cut = 0usize;
    for v in set.iter() {
        for &u in csr.neighbors(v) {
            if !set.contains(u) {
                cut += 1;
            }
        }
    }
    let expansion = cut as f64 / (d as f64 * set.count() as f64);
    Cut {
        set,
        cut_edges: cut,
        expansion,
    }
}

/// Evaluate every prefix of `order` (up to `max_size`) as a cut, returning
/// the best. Runs in `O(|E|)` via incremental cut maintenance.
pub fn sweep_cut(csr: &Csr, d: u32, order: &[u32], max_size: usize) -> Cut {
    assert!(!order.is_empty());
    let n = csr.n_vertices();
    let mut in_set = BitSet::new(n);
    let mut cut = 0i64;
    let mut best_prefix = 1usize;
    let mut best_ratio = f64::INFINITY;
    for (idx, &v) in order.iter().enumerate().take(max_size.min(order.len())) {
        let mut to_in = 0i64;
        for &u in csr.neighbors(v) {
            if in_set.contains(u) {
                to_in += 1;
            }
        }
        let deg = csr.neighbors(v).len() as i64;
        cut += deg - 2 * to_in;
        in_set.insert(v);
        let ratio = cut as f64 / (d as f64 * (idx + 1) as f64);
        if ratio < best_ratio {
            best_ratio = ratio;
            best_prefix = idx + 1;
        }
    }
    let set = BitSet::from_iter(n, order[..best_prefix].iter().copied());
    evaluate_cut(csr, d, set)
}

/// Greedily grow a set from `start`, always absorbing the frontier vertex
/// with minimal marginal cut increase; return the best-ratio prefix.
pub fn greedy_grow(csr: &Csr, d: u32, start: u32, max_size: usize) -> Cut {
    let n = csr.n_vertices();
    let mut in_set = BitSet::new(n);
    let mut e_to_set = vec![0u32; n];
    let mut heap: BinaryHeap<(Reverse<i64>, u32)> = BinaryHeap::new();
    let mut trajectory = Vec::with_capacity(max_size.min(n));
    let mut cut = 0i64;
    let mut best_prefix = 1usize;
    let mut best_ratio = f64::INFINITY;

    let absorb = |v: u32,
                  in_set: &mut BitSet,
                  e_to_set: &mut Vec<u32>,
                  heap: &mut BinaryHeap<(Reverse<i64>, u32)>,
                  cut: &mut i64| {
        in_set.insert(v);
        let deg = csr.neighbors(v).len() as i64;
        *cut += deg - 2 * e_to_set[v as usize] as i64;
        for &u in csr.neighbors(v) {
            if !in_set.contains(u) {
                e_to_set[u as usize] += 1;
                let delta = csr.neighbors(u).len() as i64 - 2 * e_to_set[u as usize] as i64;
                heap.push((Reverse(delta), u));
            }
        }
    };

    absorb(start, &mut in_set, &mut e_to_set, &mut heap, &mut cut);
    trajectory.push(start);
    while trajectory.len() < max_size.min(n) {
        // pop until a fresh, non-stale entry
        let v = loop {
            match heap.pop() {
                None => break None,
                Some((Reverse(delta), v)) => {
                    if in_set.contains(v) {
                        continue;
                    }
                    let fresh = csr.neighbors(v).len() as i64 - 2 * e_to_set[v as usize] as i64;
                    if fresh != delta {
                        heap.push((Reverse(fresh), v));
                        continue;
                    }
                    break Some(v);
                }
            }
        };
        let Some(v) = v else { break };
        absorb(v, &mut in_set, &mut e_to_set, &mut heap, &mut cut);
        trajectory.push(v);
        let ratio = cut as f64 / (d as f64 * trajectory.len() as f64);
        if ratio < best_ratio {
            best_ratio = ratio;
            best_prefix = trajectory.len();
        }
    }
    let set = BitSet::from_iter(n, trajectory[..best_prefix].iter().copied());
    evaluate_cut(csr, d, set)
}

/// Single-vertex toggle refinement: repeatedly scan boundary vertices and
/// apply any toggle that improves the expansion ratio while keeping
/// `1 ≤ |U| ≤ max_size`. Up to `passes` full scans.
pub fn refine(csr: &Csr, d: u32, cut: Cut, max_size: usize, passes: usize) -> Cut {
    let n = csr.n_vertices();
    let mut set = cut.set;
    let mut cut_edges = cut.cut_edges as i64;
    let df = d as f64;
    for _ in 0..passes {
        let mut improved = false;
        for v in 0..n as u32 {
            let inside = set.contains(v);
            let size = set.count() as i64;
            let new_size = if inside { size - 1 } else { size + 1 };
            if new_size < 1 || new_size as usize > max_size {
                continue;
            }
            let mut to_in = 0i64;
            for &u in csr.neighbors(v) {
                if set.contains(u) {
                    to_in += 1;
                }
            }
            let deg = csr.neighbors(v).len() as i64;
            // toggling v changes the cut by deg - 2*e(v, U∖{v})
            let delta = if inside {
                2 * to_in - deg
            } else {
                deg - 2 * to_in
            };
            let new_cut = cut_edges + delta;
            let old_ratio = cut_edges as f64 / (df * size as f64);
            let new_ratio = new_cut as f64 / (df * new_size as f64);
            if new_ratio + 1e-15 < old_ratio {
                set.toggle(v);
                cut_edges = new_cut;
                improved = true;
            }
        }
        if !improved {
            break;
        }
    }
    let out = evaluate_cut(csr, d, set);
    debug_assert_eq!(out.cut_edges as i64, cut_edges);
    out
}

/// Refinement passes per candidate.
const REFINE_PASSES: usize = 3;
/// Seed of the random greedy-grow starts.
const SEED: u64 = 42;

/// Run the full portfolio (spectral sweep + greedy grows + refinement) and
/// return the sparsest cut found with `|U| ≤ max_size` (use `n/2` for plain
/// `h(G)`, smaller for `h_s`). The result is an *upper bound certificate*
/// for `h_{max_size}(G)`. Above 100,000 vertices the spectral ordering runs
/// 120 power iterations and 2 random greedy restarts, otherwise 300 and 6.
pub fn find_best_cut(csr: &Csr, d: u32, max_size: usize) -> Cut {
    let n = csr.n_vertices();
    assert!(n >= 2);
    let max_size = max_size.clamp(1, n - 1);
    let (spectral_iters, restarts) = if n > 100_000 { (120, 2) } else { (300, 6) };
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut candidates: Vec<Cut> = Vec::new();

    // spectral sweep, both directions
    let (_, fiedler) = crate::spectral::spectral_bounds(csr, d, spectral_iters);
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        fiedler[a as usize]
            .partial_cmp(&fiedler[b as usize])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    candidates.push(sweep_cut(csr, d, &order, max_size));
    order.reverse();
    candidates.push(sweep_cut(csr, d, &order, max_size));

    // greedy cones from low-degree vertices and random starts
    let mut degree_order: Vec<u32> = (0..n as u32).collect();
    degree_order.sort_by_key(|&v| csr.neighbors(v).len());
    for &s in degree_order.iter().take(3) {
        candidates.push(greedy_grow(csr, d, s, max_size));
    }
    for _ in 0..restarts {
        let s = rng.gen_range(0..n as u32);
        candidates.push(greedy_grow(csr, d, s, max_size));
    }

    let mut best: Option<Cut> = None;
    for c in candidates {
        let refined = refine(csr, d, c, max_size, REFINE_PASSES);
        if best
            .as_ref()
            .is_none_or(|b| refined.expansion < b.expansion)
        {
            best = Some(refined);
        }
    }
    best.expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_h;

    fn cycle(n: usize) -> Csr {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Csr::from_undirected(n, &edges)
    }

    #[test]
    fn evaluate_cut_counts_correctly() {
        let csr = cycle(6);
        let set = BitSet::from_iter(6, [0u32, 1, 2]);
        let c = evaluate_cut(&csr, 2, set);
        assert_eq!(c.cut_edges, 2);
        assert!((c.expansion - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_finds_arc_on_cycle() {
        let csr = cycle(12);
        let order: Vec<u32> = (0..12).collect();
        let c = sweep_cut(&csr, 2, &order, 6);
        // best prefix is the 6-arc: cut 2, h = 2/(2*6)
        assert_eq!(c.cut_edges, 2);
        assert_eq!(c.set.count(), 6);
    }

    #[test]
    fn greedy_grow_matches_exact_on_cycle() {
        let csr = cycle(10);
        let exact = exact_h(&csr, 2);
        let grown = greedy_grow(&csr, 2, 0, 5);
        assert!((grown.expansion - exact.expansion).abs() < 1e-12);
    }

    #[test]
    fn find_best_cut_matches_exact_on_small_graphs() {
        // barbell: two K4's joined by a single edge — the optimal cut is the
        // bridge (cut 1, size 4).
        let mut edges = Vec::new();
        for i in 0..4u32 {
            for j in i + 1..4 {
                edges.push((i, j));
                edges.push((i + 4, j + 4));
            }
        }
        edges.push((3, 4));
        let csr = Csr::from_undirected(8, &edges);
        let d = 4; // vertices 3 and 4 have degree 4
        let exact = exact_h(&csr, d);
        let found = find_best_cut(&csr, d, 4);
        assert!(
            (found.expansion - exact.expansion).abs() < 1e-12,
            "found {} vs exact {}",
            found.expansion,
            exact.expansion
        );
        assert_eq!(found.cut_edges, 1);
    }

    #[test]
    fn refine_never_worsens() {
        let csr = cycle(16);
        let bad = evaluate_cut(&csr, 2, BitSet::from_iter(16, [0u32, 4, 8, 12]));
        let better = refine(&csr, 2, bad.clone(), 8, 5);
        assert!(better.expansion <= bad.expansion);
    }

    #[test]
    fn max_size_respected() {
        let csr = cycle(20);
        let c = find_best_cut(&csr, 2, 3);
        assert!(c.set.count() <= 3);
    }
}
