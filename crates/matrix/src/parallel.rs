//! Shared-memory parallel execution of Strassen-like schemes.
//!
//! [`multiply_scheme_parallel`] is a real multi-threaded recursive engine
//! over [`std::thread::scope`] — no external runtime — organized exactly
//! like CAPS, the communication-avoiding parallel Strassen of
//! Ballard–Demmel–Holtz–Rom–Schwartz (arXiv:1202.3173), transplanted from
//! distributed ranks to threads sharing one task stack:
//!
//! * **BFS steps** (the top [`BfsDfsPlan::bfs_levels`] recursion levels)
//!   materialize all `r` encoded subproblems of a node as independent
//!   tasks, trading memory for parallelism: each level multiplies the live
//!   footprint by `≈ r/(m·k·n)` per operand family (`r/(mk)` for the `A`
//!   encodings, `r/(kn)` for `B`, `r/(mn)` for the products — the `7/4` of
//!   CAPS in the square Strassen case).
//! * **DFS steps** (everything below) run inside a single task,
//!   sequentially and allocation-free: every temporary comes from the
//!   worker's [`ScratchArena`], so the hot path performs zero heap
//!   allocation once the arena is warm. The DFS recursion itself is
//!   [`crate::arena::multiply_into`] — the **same** engine behind the
//!   sequential [`multiply_scheme`], so every DFS leaf bottoms out in the
//!   packed SIMD micro-kernel ([`crate::pack`]) with pack panels drawn
//!   from the worker's own arena, and the BFS task encoder runs the same
//!   fused encode kernels
//!   ([`crate::arena::encode_a_into`]/[`crate::arena::encode_b_into`]),
//!   so there is exactly one copy of the encode/decode arithmetic in the
//!   codebase.
//!
//! The BFS/DFS switch point is chosen by [`plan_bfs_dfs`]: expand
//! breadth-first while the projected peak footprint fits the configurable
//! [`ParallelConfig::memory_budget`] *and* more tasks are still useful,
//! then switch to depth-first — the memory-aware interleaving of the CAPS
//! paper's Section 3 (its "unlimited memory" scheme is all-BFS; its
//! "limited memory" scheme interleaves exactly like this). One thread
//! gets no BFS level: it runs the sequential recursion.
//!
//! ## Scheduling
//!
//! Every node at one BFS depth has the same shape, so the BFS tree is one
//! array of node states per depth, indexed by `(depth, i)`: node `i` has
//! children `i·r .. (i+1)·r` one depth down. A node whose sides do not
//! divide by the scheme's grid is split as the sequential recursion splits
//! it, zero-extended virtually: its children encode through padded folds
//! and its decode writes only its stored corner, so padding takes no BFS
//! node and no copy. Workers pop tasks from **one shared LIFO stack**
//! and wait on a [`Condvar`] while it is empty; there is no work stealing
//! and no polling. An inner task encodes its operands from its parent's —
//! the root's are the caller's, borrowed — and pushes its children. A leaf
//! task encodes its operands, runs the DFS recursion on the worker's arena
//! and walks up: whoever finishes a node's last child decodes the node's
//! products in ascending `l`, frees the node's operands and keeps walking.
//!
//! The schedule is deliberately not level-synchronous (all encodes of a
//! depth, then all leaves, then all decodes): that would stop the
//! memory-bound encodes and decodes from overlapping leaf compute on the
//! other workers. The LIFO order keeps a worker inside the subtree it
//! just expanded and finishes subtrees before opening new ones, so the
//! live BFS tree stays well under the plan's accounting, which counts
//! every node as live at once.
//!
//! A task that panics ends the run: every worker holds a drop guard that
//! marks the stack done and wakes the others, so they stop waiting for a
//! product that will never come and [`std::thread::scope`] re-raises the
//! panic in the caller, as the sequential engine does.
//!
//! ## Determinism
//!
//! The engine is **bit-deterministic**: for any thread count and any
//! memory budget the output equals [`multiply_scheme`] bit for bit,
//! because every task performs the same scalar operations in the same
//! order as the sequential recursion — parallelism only reorders *whole
//! subproblems*, whose results land in disjoint buffers, and the decode
//! accumulation always runs in product order `l = 0, 1, …, r-1`. The
//! determinism suite (`crates/matrix/tests/determinism.rs`) enforces this
//! across schemes, thread counts, scalar types, and non-divisible shapes.

use crate::arena::{
    child_shape, decode_product_into, dfs_working_set, encode_a_into, encode_b_into, footprint,
    multiply_into, splits, ScratchArena,
};
use crate::dense::{MatMut, MatRef, Matrix};
use crate::recursive::multiply_scheme;
use crate::scalar::Scalar;
use crate::scheme::BilinearScheme;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};

/// Oversubscription target: [`plan_bfs_dfs`] stops adding BFS levels once
/// there are `threads · TASKS_PER_THREAD` leaf tasks (memory permitting),
/// so a worker that finishes early still finds a task.
const TASKS_PER_THREAD: usize = 4;

/// Execution knobs of the parallel engine.
///
/// `memory_budget` is in **words** (scalar elements, not bytes); `0` means
/// "auto": eight times the problem footprint `MK + KN + MN`, which admits
/// roughly three BFS levels for Strassen's `7/4`-per-level blowup.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker thread count (the calling thread is worker 0).
    pub threads: usize,
    /// Peak live words the BFS expansion may reach (0 = auto).
    pub memory_budget: usize,
}

impl ParallelConfig {
    /// A config running `threads` workers with the auto memory budget.
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            memory_budget: 0,
        }
    }

    /// Replace the memory budget (words; see type-level docs).
    pub fn with_memory_budget(mut self, words: usize) -> Self {
        self.memory_budget = words;
        self
    }
}

/// The BFS/DFS schedule chosen for one multiply, with its memory
/// accounting (all quantities in words).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsDfsPlan {
    /// Top recursion levels executed breadth-first (as parallel tasks).
    pub bfs_levels: usize,
    /// Leaf subproblem count, `r^bfs_levels`.
    pub task_count: usize,
    /// Live words held by the materialized BFS tree
    /// (`Σ_{j≤bfs_levels} r^j · footprint_j`).
    pub tree_memory_words: usize,
    /// Scratch working set of one DFS leaf (one arena's steady state).
    pub dfs_memory_words: usize,
    /// Projected peak: tree plus one DFS working set per thread.
    pub peak_memory_words: usize,
    /// The budget the plan was sized against, with the auto default
    /// (`8 * footprint`) resolved — the `M` to evaluate bounds at.
    pub budget_words: usize,
}

/// Choose how many top recursion levels to run breadth-first: the
/// CAPS-style memory-aware policy.
///
/// Starting from zero, a BFS level is added while (a) the shape still
/// splits, (b) more tasks are useful (`task_count < 4·threads`, and never
/// at one thread, which runs the sequential recursion), and (c) the
/// projected peak footprint — materialized tree plus one DFS working set
/// per thread — stays within the budget. Everything below the chosen
/// depth runs depth-first.
///
/// `dims`/`r` are the scheme's base shape `⟨m,k,n⟩` and rank, so the plan
/// can be computed from
/// [`SchemeParams`](https://docs.rs/fastmm-core)-style abstract entries as
/// well as executable schemes.
pub fn plan_bfs_dfs(
    dims: (usize, usize, usize),
    r: usize,
    shape: (usize, usize, usize),
    cutoff: usize,
    config: &ParallelConfig,
) -> BfsDfsPlan {
    let threads = config.threads.max(1);
    let cutoff = cutoff.max(1);
    let budget = if config.memory_budget > 0 {
        config.memory_budget
    } else {
        footprint(shape).saturating_mul(8)
    };
    let task_target = if threads > 1 {
        threads.saturating_mul(TASKS_PER_THREAD)
    } else {
        1
    };
    let mut bfs_levels = 0usize;
    let mut task_count = 1usize;
    let mut tree_memory = footprint(shape);
    let mut cur = shape;
    while task_count < task_target && splits(dims, cur, cutoff) {
        let child = child_shape(dims, cur);
        let new_count = task_count.saturating_mul(r);
        let new_tree = tree_memory.saturating_add(new_count.saturating_mul(footprint(child)));
        let new_peak =
            new_tree.saturating_add(threads.saturating_mul(dfs_working_set(dims, child, cutoff)));
        if new_peak > budget {
            break;
        }
        bfs_levels += 1;
        task_count = new_count;
        tree_memory = new_tree;
        cur = child;
    }
    let dfs_memory = dfs_working_set(dims, cur, cutoff);
    BfsDfsPlan {
        bfs_levels,
        task_count,
        tree_memory_words: tree_memory,
        dfs_memory_words: dfs_memory,
        peak_memory_words: tree_memory.saturating_add(threads.saturating_mul(dfs_memory)),
        budget_words: budget,
    }
}

/// Multiply `a * b` (any conformal `M x K` by `K x N`) with `scheme` on
/// `config.threads` threads sharing one task stack, bit-identically to
/// [`multiply_scheme`].
///
/// The top [`BfsDfsPlan::bfs_levels`] recursion levels (chosen by
/// [`plan_bfs_dfs`] against `config`) become a task tree whose leaves run
/// the depth-first recursion on per-worker [`ScratchArena`]s; when no BFS
/// level is planned (one thread, or no level fits the budget), the
/// sequential [`multiply_scheme`] runs on the calling thread. A panic in
/// any task reaches the caller.
///
/// ```
/// use fastmm_matrix::dense::Matrix;
/// use fastmm_matrix::parallel::{multiply_scheme_parallel, ParallelConfig};
/// use fastmm_matrix::scheme::strassen;
///
/// let a = Matrix::<i64>::identity(32);
/// let b = Matrix::<i64>::identity(32);
/// let c = multiply_scheme_parallel(&strassen(), &a, &b, 4, &ParallelConfig::new(4));
/// assert_eq!(c, Matrix::identity(32));
/// ```
pub fn multiply_scheme_parallel<T: Scalar>(
    scheme: &BilinearScheme,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
    config: &ParallelConfig,
) -> Matrix<T> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let cutoff = cutoff.max(1);
    let shape = (a.rows(), a.cols(), b.cols());
    let plan = plan_bfs_dfs(scheme.dims(), scheme.r, shape, cutoff, config);
    if plan.bfs_levels == 0 {
        return multiply_scheme(scheme, a, b, cutoff);
    }
    let run = Run::new(scheme, cutoff, a, b, plan.bfs_levels);
    std::thread::scope(|s| {
        for _ in 1..config.threads.max(1) {
            s.spawn(|| run.worker());
        }
        run.worker();
    });
    let out = std::mem::take(&mut *run.depths[0].nodes[0].out.lock().expect(UNPOISONED));
    Matrix::from_vec(shape.0, shape.2, out)
}

/// Why no lock of a [`Run`] can be poisoned: only a panic under a mutex
/// guard or an `RwLock` write guard poisons, and those are held across
/// moves of whole buffers, never across a task's arithmetic.
const UNPOISONED: &str = "no poisoning guard is held across arithmetic";

/// One depth of the flat BFS tree: every node at a depth has the same
/// shape, and gets its product from the depth below in the same way.
struct Depth<T> {
    shape: (usize, usize, usize),
    /// Children per node: `r`, or 0 at leaves.
    fan: usize,
    nodes: Vec<Node<T>>,
}

/// The state of one BFS-tree node.
struct Node<T> {
    /// Operands of an inner node below the root: written by its own task,
    /// read by its children's, freed once its product is decoded. Leaves
    /// never store theirs; the root's are the caller's.
    ops: RwLock<Option<(Vec<T>, Vec<T>)>>,
    /// The node's product, until its parent's decode takes it.
    out: Mutex<Vec<T>>,
    /// Children still running; whoever drops it to zero decodes.
    pending: AtomicUsize,
}

/// The task stack all workers share: `(depth, i)` tasks, popped LIFO, and
/// whether the run is over (the root's product is in, or a task panicked).
struct Stack {
    tasks: Vec<(usize, usize)>,
    done: bool,
}

/// Shared state of one parallel multiply.
struct Run<'a, T> {
    scheme: &'a BilinearScheme,
    cutoff: usize,
    /// The root operands, borrowed — never copied: depth-1 nodes encode
    /// straight from these views, so the tree holds only encoded
    /// subproblems (which is what the plan's memory accounting counts).
    a: &'a Matrix<T>,
    b: &'a Matrix<T>,
    depths: Vec<Depth<T>>,
    stack: Mutex<Stack>,
    /// Signalled when tasks are pushed and when the run ends.
    ready: Condvar,
}

impl<'a, T: Scalar> Run<'a, T> {
    /// Lay out the tree down to `bfs_levels` splits, mirroring the
    /// sequential recursion's per-level split decisions exactly, with the
    /// root as the only task.
    fn new(
        scheme: &'a BilinearScheme,
        cutoff: usize,
        a: &'a Matrix<T>,
        b: &'a Matrix<T>,
        bfs_levels: usize,
    ) -> Self {
        let dims = scheme.dims();
        let mut depths = Vec::new();
        let (mut shape, mut count) = ((a.rows(), a.cols(), b.cols()), 1);
        loop {
            let inner = depths.len() < bfs_levels && splits(dims, shape, cutoff);
            let fan = if inner { scheme.r } else { 0 };
            let nodes = (0..count)
                .map(|_| Node {
                    ops: RwLock::new(None),
                    out: Mutex::new(Vec::new()),
                    pending: AtomicUsize::new(fan),
                })
                .collect();
            depths.push(Depth { shape, fan, nodes });
            if !inner {
                break;
            }
            shape = child_shape(dims, shape);
            count *= fan;
        }
        Run {
            scheme,
            cutoff,
            a,
            b,
            depths,
            stack: Mutex::new(Stack {
                tasks: vec![(0, 0)],
                done: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Run tasks until the stack is done. The guard ends the run when
    /// this worker leaves, so a panicking task wakes every other worker
    /// instead of leaving them waiting for the root.
    fn worker(&self) {
        struct StopOnDrop<'r, 'a, T: Scalar>(&'r Run<'a, T>);
        impl<T: Scalar> Drop for StopOnDrop<'_, '_, T> {
            fn drop(&mut self) {
                self.0.stop();
            }
        }
        let _stop = StopOnDrop(self);
        let mut arena = ScratchArena::new();
        while let Some((d, i)) = self.pop() {
            self.run_task(d, i, &mut arena);
        }
    }

    /// The next task, waiting while the stack is empty; `None` once done.
    fn pop(&self) -> Option<(usize, usize)> {
        let mut stack = self.stack.lock().expect(UNPOISONED);
        loop {
            if stack.done {
                return None;
            }
            if let Some(task) = stack.tasks.pop() {
                return Some(task);
            }
            stack = self.ready.wait(stack).expect(UNPOISONED);
        }
    }

    /// End the run and wake every waiting worker. Runs in a drop guard,
    /// so it must not panic.
    fn stop(&self) {
        self.stack
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .done = true;
        self.ready.notify_all();
    }

    /// Run node `(d, i)`: build its operands from its parent's, then push
    /// its children — or, at the leaf depth, multiply depth-first and walk
    /// the product up.
    fn run_task(&self, d: usize, i: usize, arena: &mut ScratchArena<T>) {
        let ops = (d > 0).then(|| self.operands(d, i));
        if d + 1 < self.depths.len() {
            *self.depths[d].nodes[i].ops.write().expect(UNPOISONED) = ops;
            let fan = self.depths[d].fan;
            let children = (i * fan..(i + 1) * fan).map(|c| (d + 1, c));
            self.stack.lock().expect(UNPOISONED).tasks.extend(children);
            self.ready.notify_all();
            return;
        }
        let (mm, kk, nn) = self.depths[d].shape;
        let out = {
            let (a, b) = ops.expect("the root is never a leaf");
            let mut out = vec![T::zero(); mm * nn];
            multiply_into(
                self.scheme,
                MatRef::from_slice(&a, mm, kk),
                MatRef::from_slice(&b, kk, nn),
                &mut MatMut::from_slice(&mut out, mm, nn),
                self.cutoff,
                arena,
            );
            out
        };
        self.finish(d, i, out);
    }

    /// Node `(d, i)`'s operands: the encoded pair of its product index,
    /// read from its parent's.
    fn operands(&self, d: usize, i: usize) -> (Vec<T>, Vec<T>) {
        let parent = &self.depths[d - 1];
        let (pm, pk, pn) = parent.shape;
        let guard = (d > 1).then(|| parent.nodes[i / parent.fan].ops.read().expect(UNPOISONED));
        let (pa, pb) = match guard.as_deref() {
            None => (self.a.view(), self.b.view()),
            Some(ops) => {
                let (pa, pb) = ops.as_ref().expect("operands live until decoded");
                (
                    MatRef::from_slice(pa, pm, pk),
                    MatRef::from_slice(pb, pk, pn),
                )
            }
        };
        encode_child(self.scheme, pa, pb, i % parent.fan, self.depths[d].shape)
    }

    /// Store node `(d, i)`'s product and walk up: the worker that brings
    /// a parent's last child decodes it and keeps walking; the root's
    /// product ends the run.
    fn finish(&self, mut d: usize, mut i: usize, mut out: Vec<T>) {
        loop {
            *self.depths[d].nodes[i].out.lock().expect(UNPOISONED) = out;
            if d == 0 {
                self.stop();
                return;
            }
            (d, i) = (d - 1, i / self.depths[d - 1].fan);
            if self.depths[d].nodes[i]
                .pending
                .fetch_sub(1, Ordering::AcqRel)
                != 1
            {
                return;
            }
            out = self.combine(d, i);
        }
    }

    /// Node `(d, i)`'s product from its children's: decode them in product
    /// order `l = 0..r` with the sequential engine's own
    /// [`decode_product_into`]. Frees the node's operands.
    fn combine(&self, d: usize, i: usize) -> Vec<T> {
        let (mm, _, nn) = self.depths[d].shape;
        let (cm, _, cn) = self.depths[d + 1].shape;
        let fan = self.depths[d].fan;
        let mut out = vec![T::zero(); mm * nn];
        let mut c = MatMut::from_slice(&mut out, mm, nn);
        for (l, child) in self.depths[d + 1].nodes[i * fan..(i + 1) * fan]
            .iter()
            .enumerate()
        {
            let m = std::mem::take(&mut *child.out.lock().expect(UNPOISONED));
            decode_product_into(self.scheme, MatRef::from_slice(&m, cm, cn), l, &mut c);
        }
        *self.depths[d].nodes[i].ops.write().expect(UNPOISONED) = None;
        out
    }
}

/// Encode one child's operand pair `(T_l, S_l)` from the parent's
/// operands into fresh BFS-tree buffers, via the shared fused kernels
/// ([`encode_a_into`]/[`encode_b_into`]) — the sequential engine's exact
/// encode arithmetic, deduplicated (this function used to carry its own
/// copy of the accumulate loops; a bitwise regression test in the tests
/// module pins the shared kernels to that historical arithmetic).
fn encode_child<T: Scalar>(
    scheme: &BilinearScheme,
    pa: MatRef<'_, T>,
    pb: MatRef<'_, T>,
    l: usize,
    shape: (usize, usize, usize),
) -> (Vec<T>, Vec<T>) {
    let (sm, sk, sn) = shape;
    let mut ta = vec![T::zero(); sm * sk];
    encode_a_into(scheme, pa, l, &mut MatMut::from_slice(&mut ta, sm, sk));
    let mut tb = vec![T::zero(); sk * sn];
    encode_b_into(scheme, pb, l, &mut MatMut::from_slice(&mut tb, sk, sn));
    (ta, tb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::scheme::{strassen, strassen_2x2x4, winograd};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parallel_matches_naive_exact() {
        let mut rng = StdRng::seed_from_u64(41);
        let cfg = ParallelConfig::new(4);
        for n in [8usize, 16, 32, 48] {
            let a = Matrix::random_int(n, n, 30, &mut rng);
            let b = Matrix::random_int(n, n, 30, &mut rng);
            assert_eq!(
                multiply_scheme_parallel(&strassen(), &a, &b, 2, &cfg),
                multiply_naive(&a, &b),
                "n={n}"
            );
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_sequential_f64() {
        let mut rng = StdRng::seed_from_u64(43);
        for (mm, kk, nn) in [(32usize, 32usize, 32usize), (33, 17, 29), (16, 64, 8)] {
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let seq = multiply_scheme(&winograd(), &a, &b, 4);
            for threads in [1usize, 2, 4] {
                let par =
                    multiply_scheme_parallel(&winograd(), &a, &b, 4, &ParallelConfig::new(threads));
                assert_eq!(par, seq, "{mm}x{kk}x{nn} threads={threads}");
                assert!(par
                    .as_slice()
                    .iter()
                    .zip(seq.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn rectangular_parallel_is_correct() {
        let mut rng = StdRng::seed_from_u64(47);
        let s = strassen_2x2x4();
        let a = Matrix::random_int(8, 8, 20, &mut rng);
        let b = Matrix::random_int(8, 64, 20, &mut rng);
        assert_eq!(
            multiply_scheme_parallel(&s, &a, &b, 2, &ParallelConfig::new(3)),
            multiply_naive(&a, &b)
        );
    }

    #[test]
    fn plan_respects_memory_budget() {
        let dims = (2, 2, 2);
        // Tight budget: barely above the problem footprint, so no BFS
        // level fits.
        let tight = ParallelConfig::new(8).with_memory_budget(3 * 256 * 256 + 1);
        let p = plan_bfs_dfs(dims, 7, (256, 256, 256), 32, &tight);
        assert_eq!(p.bfs_levels, 0);
        assert_eq!(p.task_count, 1);
        assert_eq!(p.budget_words, 3 * 256 * 256 + 1);
        // The auto budget (0) resolves to eight problem footprints.
        let auto = plan_bfs_dfs(dims, 7, (256, 256, 256), 32, &ParallelConfig::new(2));
        assert_eq!(auto.budget_words, 8 * 3 * 256 * 256);
        // Generous budget: expansion runs to the task target.
        let roomy = ParallelConfig::new(8).with_memory_budget(usize::MAX);
        let p = plan_bfs_dfs(dims, 7, (256, 256, 256), 32, &roomy);
        assert!(p.task_count >= 32, "{p:?}");
        assert!(p.peak_memory_words >= p.tree_memory_words);
    }

    #[test]
    fn plan_stops_at_task_target() {
        // 7^2 = 49 >= 4 threads * 4 tasks/thread = 16: two levels suffice.
        let cfg = ParallelConfig::new(4).with_memory_budget(usize::MAX);
        let p = plan_bfs_dfs((2, 2, 2), 7, (1024, 1024, 1024), 32, &cfg);
        assert_eq!(p.bfs_levels, 2);
        assert_eq!(p.task_count, 49);
    }

    #[test]
    fn plan_memory_grows_by_r_over_mkn_per_operand_family() {
        // One Strassen BFS level adds 7 subproblems at a quarter the
        // footprint each: tree memory = (1 + 7/4) * footprint. At cutoff
        // 64 only the top level of a 128-cube splits.
        let cfg = ParallelConfig::new(2).with_memory_budget(usize::MAX);
        let f0 = footprint((128, 128, 128));
        let p = plan_bfs_dfs((2, 2, 2), 7, (128, 128, 128), 64, &cfg);
        assert_eq!(p.bfs_levels, 1);
        assert_eq!(p.tree_memory_words, f0 + 7 * footprint((64, 64, 64)));
        assert_eq!(p.tree_memory_words, f0 + f0 * 7 / 4);
    }

    #[test]
    fn plan_at_one_thread_is_sequential() {
        // One thread runs the sequential recursion, so its plan must say
        // so: no BFS level, one task, the footprint plus one DFS working
        // set — whatever the budget admits.
        let shape = (1024, 1024, 1024);
        for budget in [0, usize::MAX] {
            let cfg = ParallelConfig::new(1).with_memory_budget(budget);
            let p = plan_bfs_dfs((2, 2, 2), 7, shape, 64, &cfg);
            assert_eq!((p.bfs_levels, p.task_count), (0, 1), "{p:?}");
            assert_eq!(p.tree_memory_words, footprint(shape));
            assert_eq!(p.dfs_memory_words, dfs_working_set((2, 2, 2), shape, 64));
            assert_eq!(p.peak_memory_words, footprint(shape) + p.dfs_memory_words);
        }
    }

    /// A ring whose multiply panics on a sentinel operand: a task that
    /// fails mid-run.
    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Tripwire(i64);

    /// Out of reach of any sum of the test's operand entries, so only the
    /// one task whose operand is the bare corner block of `A` trips.
    const SENTINEL: i64 = i64::MIN;

    impl Scalar for Tripwire {
        fn zero() -> Self {
            Tripwire(0)
        }
        fn one() -> Self {
            Tripwire(1)
        }
        fn add(self, other: Self) -> Self {
            Tripwire(self.0.wrapping_add(other.0))
        }
        fn sub(self, other: Self) -> Self {
            Tripwire(self.0.wrapping_sub(other.0))
        }
        fn mul(self, other: Self) -> Self {
            assert!(self.0 != SENTINEL && other.0 != SENTINEL, "tripwire");
            Tripwire(self.0.wrapping_mul(other.0))
        }
        fn neg(self) -> Self {
            Tripwire(self.0.wrapping_neg())
        }
        fn from_i64(v: i64) -> Self {
            Tripwire(v)
        }
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        // The multiply runs on its own thread so that a hang fails this
        // test after the timeout instead of wedging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(59);
            let mut ring = |_, _| Tripwire(rng.gen_range(1i64..1 << 40));
            let mut a = Matrix::from_fn(64, 64, &mut ring);
            a[(0, 0)] = Tripwire(SENTINEL);
            let b = Matrix::from_fn(64, 64, ring);
            let cfg = ParallelConfig::new(2);
            assert!(plan_bfs_dfs((2, 2, 2), 7, (64, 64, 64), 8, &cfg).bfs_levels > 0);
            let outcome =
                std::panic::catch_unwind(|| multiply_scheme_parallel(&strassen(), &a, &b, 8, &cfg));
            tx.send(outcome.is_err()).unwrap();
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("multiply_scheme_parallel hung after a task panicked");
        assert!(panicked, "the task's panic must reach the caller");
    }

    #[test]
    fn encode_child_matches_historical_encode_bitwise() {
        // Satellite regression for the encode deduplication: the shared
        // fused kernels must reproduce, bit for bit, the per-module encode
        // loop `encode_child` used to carry (accumulate every q in
        // ascending order, zeros skipped), for every registry scheme.
        use crate::scheme::all_schemes;
        let mut rng = StdRng::seed_from_u64(53);
        for scheme in all_schemes() {
            let (bm, bk, bn) = scheme.dims();
            let (mm, kk, nn) = (bm * 3, bk * 3, bn * 3);
            let a = Matrix::<f64>::random(mm, kk, &mut rng);
            let b = Matrix::<f64>::random(kk, nn, &mut rng);
            let shape = (mm / bm, kk / bk, nn / bn);
            for l in 0..scheme.r {
                let (ta, tb) = encode_child(&scheme, a.view(), b.view(), l, shape);
                // the historical implementation, verbatim
                let mut ta_old = vec![0.0f64; shape.0 * shape.1];
                {
                    let mut tm = MatMut::from_slice(&mut ta_old, shape.0, shape.1);
                    for q in 0..bm * bk {
                        tm.accumulate_scaled(
                            a.view()
                                .block(q / bk * shape.0, q % bk * shape.1, shape.0, shape.1),
                            scheme.u.get(l, q),
                        );
                    }
                }
                let mut tb_old = vec![0.0f64; shape.1 * shape.2];
                {
                    let mut tm = MatMut::from_slice(&mut tb_old, shape.1, shape.2);
                    for q in 0..bk * bn {
                        tm.accumulate_scaled(
                            b.view()
                                .block(q / bn * shape.1, q % bn * shape.2, shape.1, shape.2),
                            scheme.v.get(l, q),
                        );
                    }
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&ta), bits(&ta_old), "{} l={l}: T_l", scheme.name);
                assert_eq!(bits(&tb), bits(&tb_old), "{} l={l}: S_l", scheme.name);
            }
        }
    }
}
