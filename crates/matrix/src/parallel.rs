//! Shared-memory parallel execution of Strassen-like schemes.
//!
//! [`multiply_scheme_parallel`] is a real multi-threaded recursive engine
//! over [`std::thread::scope`] — no external runtime — organized exactly
//! like CAPS, the communication-avoiding parallel Strassen of
//! Ballard–Demmel–Holtz–Rom–Schwartz (arXiv:1202.3173), transplanted from
//! distributed ranks to a work-stealing thread pool:
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
//!   sequential [`multiply_scheme`](crate::recursive::multiply_scheme),
//!   so every DFS leaf bottoms out in the packed SIMD micro-kernel
//!   ([`crate::pack`]) with pack panels drawn from the worker's own
//!   arena, and the BFS task encoder runs the same fused encode kernels
//!   ([`crate::arena::encode_a_into`]/[`crate::arena::encode_b_into`]),
//!   so there is exactly one copy of the encode/decode arithmetic in the
//!   codebase.
//!
//! The BFS/DFS switch point is chosen by [`plan_bfs_dfs`]: expand
//! breadth-first while the projected peak footprint fits the configurable
//! [`ParallelConfig::memory_budget`] *and* more tasks are still useful,
//! then switch to depth-first — the memory-aware interleaving of the CAPS
//! paper's Section 3 (its "unlimited memory" scheme is all-BFS; its
//! "limited memory" scheme interleaves exactly like this).
//!
//! ## Determinism
//!
//! The engine is **bit-deterministic**: for any thread count and any
//! memory budget the output equals
//! [`multiply_scheme`](crate::recursive::multiply_scheme) bit for bit,
//! because every task performs the same scalar operations in the same
//! order as the sequential recursion — parallelism only reorders *whole
//! subproblems*, whose results land in disjoint buffers, and the decode
//! accumulation always runs in product order `l = 0, 1, …, r-1`. The
//! determinism suite (`crates/matrix/tests/determinism.rs`) enforces this
//! across schemes, thread counts, scalar types, and non-divisible shapes.

use crate::arena::{
    child_shape, decode_product_into, dfs_working_set, encode_a_into, encode_b_into, footprint,
    multiply_into, padded, splits, ScratchArena,
};
use crate::dense::{MatMut, MatRef, Matrix};
use crate::scalar::Scalar;
use crate::scheme::BilinearScheme;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};

/// Sentinel parent id of the root node.
const NO_PARENT: usize = usize::MAX;

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
    /// Oversubscription target: stop expanding BFS levels once the task
    /// count reaches `threads * tasks_per_thread` (memory permitting).
    pub tasks_per_thread: usize,
}

impl ParallelConfig {
    /// A config running `threads` workers with the auto memory budget.
    pub fn new(threads: usize) -> Self {
        ParallelConfig {
            threads: threads.max(1),
            memory_budget: 0,
            tasks_per_thread: 4,
        }
    }

    /// Replace the memory budget (words; see type-level docs).
    pub fn with_memory_budget(mut self, words: usize) -> Self {
        self.memory_budget = words;
        self
    }

    /// Build from the environment: `FASTMM_THREADS` overrides the thread
    /// count (default: [`std::thread::available_parallelism`]),
    /// `FASTMM_MEMORY_BUDGET` overrides the word budget (default: auto).
    ///
    /// Panics with the [`ParallelConfig::try_from_env`] error on malformed
    /// values — a set-but-broken `FASTMM_*` variable aborts loudly instead
    /// of silently running with a default the operator did not ask for.
    pub fn from_env() -> Self {
        Self::try_from_env().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`ParallelConfig::from_env`]: rejects `FASTMM_THREADS` /
    /// `FASTMM_MEMORY_BUDGET` values that are non-numeric, zero, or absurd
    /// (threads above 4096, budgets above 2⁵⁰ words) with an error naming
    /// the variable and the accepted range. Zero is rejected rather than
    /// treated as "auto": the auto behaviors are requested by *unsetting*
    /// the variable, so a literal `0` cannot fall through to a silent
    /// default.
    pub fn try_from_env() -> Result<Self, String> {
        Self::try_from_lookup(process_env)
    }

    /// [`ParallelConfig::try_from_env`] over an arbitrary variable lookup,
    /// so tests can pass a map instead of mutating the process environment.
    fn try_from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let threads = match parse_env_positive(&lookup, "FASTMM_THREADS", MAX_ENV_THREADS)? {
            Some(t) => t,
            None => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        let memory_budget =
            parse_env_positive(&lookup, "FASTMM_MEMORY_BUDGET", MAX_ENV_MEMORY_WORDS)?.unwrap_or(0);
        Ok(ParallelConfig {
            threads,
            memory_budget,
            tasks_per_thread: 4,
        })
    }
}

/// Largest thread count `FASTMM_THREADS` accepts (no machine this engine
/// targets has more hardware threads; larger values are a typo).
const MAX_ENV_THREADS: usize = 4096;

/// Largest word budget `FASTMM_MEMORY_BUDGET` accepts: 2⁵⁰ words = 8 PiB
/// of f64 — beyond any single-node memory, so larger values are a typo
/// (e.g. a byte count pasted where words were expected, squared).
const MAX_ENV_MEMORY_WORDS: usize = 1 << 50;

/// The process environment as a variable lookup (unset and non-UTF-8
/// values both read as `None`).
pub(crate) fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The crate's one environment parser, behind `FASTMM_THREADS`,
/// `FASTMM_MEMORY_BUDGET` and `FASTMM_CUTOFF`: read the optional
/// positive integer `name` through `lookup`. Returns `Ok(None)` when
/// unset, `Ok(Some(v))` for `1 ..= max`, and an error naming the variable
/// otherwise — so a malformed value can never silently select a default.
pub(crate) fn parse_env_positive(
    lookup: impl Fn(&str) -> Option<String>,
    name: &str,
    max: usize,
) -> Result<Option<usize>, String> {
    let Some(raw) = lookup(name) else {
        return Ok(None);
    };
    let v = raw
        .trim()
        .parse::<usize>()
        .map_err(|_| format!("{name}={raw:?} is not a positive integer (expected 1..={max})"))?;
    if v == 0 {
        return Err(format!(
            "{name}=0 is invalid: unset the variable for the auto default (expected 1..={max})"
        ));
    }
    if v > max {
        return Err(format!(
            "{name}={v} is absurdly large (expected 1..={max}); refusing to run with it"
        ));
    }
    Ok(Some(v))
}

/// A variable lookup over fixed `(name, value)` pairs — what tests pass
/// to [`parse_env_positive`] instead of mutating the process environment.
#[cfg(test)]
pub(crate) fn fake_env<'a>(
    pairs: &'a [(&'a str, &'a str)],
) -> impl Fn(&str) -> Option<String> + 'a {
    move |name| {
        pairs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.to_string())
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
/// splits, (b) more tasks are useful (`task_count <
/// threads·tasks_per_thread`), and (c) the projected peak footprint —
/// materialized tree plus one DFS working set per thread — stays within
/// the budget. Everything below the chosen depth runs depth-first.
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
    let task_target = threads.saturating_mul(config.tasks_per_thread.max(1));
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

/// Multiply `a * b` (any conformal `M x K` by `K x N`) with `scheme` on a
/// work-stealing thread pool, bit-identically to
/// [`multiply_scheme`](crate::recursive::multiply_scheme).
///
/// The top [`BfsDfsPlan::bfs_levels`] recursion levels (chosen by
/// [`plan_bfs_dfs`] against `config`) become a task tree whose leaves run
/// the depth-first recursion on per-worker [`ScratchArena`]s; with
/// `config.threads == 1` or when no BFS level fits, the whole multiply
/// runs on the calling thread through the same arena-backed code path.
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
    let threads = config.threads.max(1);
    let plan = plan_bfs_dfs(scheme.dims(), scheme.r, shape, cutoff, config);
    if threads == 1 || plan.bfs_levels == 0 {
        let mut arena = ScratchArena::new();
        let mut c = Matrix::zeros(shape.0, shape.2);
        multiply_into(
            scheme,
            a.view(),
            b.view(),
            &mut c.view_mut(),
            cutoff,
            &mut arena,
        );
        return c;
    }
    let ctx = BuildCtx {
        scheme,
        cutoff,
        bfs_levels: plan.bfs_levels,
    };
    let mut nodes: Vec<Node<T>> = Vec::new();
    build_tree(&ctx, &mut nodes, shape, 0, NO_PARENT, 0);
    let exec = Exec {
        scheme,
        cutoff,
        a,
        b,
        nodes,
        queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
        done: AtomicBool::new(false),
        result: Mutex::new(None),
    };
    exec.queues[0].lock().unwrap().push_back(0);
    std::thread::scope(|s| {
        for w in 1..threads {
            let exec = &exec;
            s.spawn(move || {
                let mut arena = ScratchArena::new();
                worker(exec, w, &mut arena);
            });
        }
        let mut arena = ScratchArena::new();
        worker(&exec, 0, &mut arena);
    });
    let out = exec
        .result
        .into_inner()
        .unwrap()
        .expect("root task completed");
    Matrix::from_vec(shape.0, shape.2, out)
}

/// How a task-tree node produces its product.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeKind {
    /// Run the DFS recursion on an arena.
    Leaf,
    /// `r` children (one per scheme product); decode combines them.
    Split,
    /// One padded child; combine crops it.
    Pad,
}

/// One subproblem of the BFS task tree.
struct Node<T> {
    kind: NodeKind,
    mm: usize,
    kk: usize,
    nn: usize,
    parent: usize,
    /// Child index within the parent (the product index `l` under a
    /// `Split` parent).
    slot: usize,
    children: Vec<usize>,
    /// Dense operands, materialized by this node's task and freed at
    /// combine time.
    ops: RwLock<Option<(Vec<T>, Vec<T>)>>,
    /// The `mm x nn` product, written once when the node completes.
    out: Mutex<Vec<T>>,
    /// Children still running; the worker that drops it to zero combines.
    pending: AtomicUsize,
}

struct BuildCtx<'a> {
    scheme: &'a BilinearScheme,
    cutoff: usize,
    bfs_levels: usize,
}

/// Materialize the task-tree skeleton (shapes and kinds only) down to
/// `bfs_levels`, mirroring the sequential recursion's per-level
/// pad-or-split decisions exactly.
fn build_tree<T: Scalar>(
    ctx: &BuildCtx<'_>,
    nodes: &mut Vec<Node<T>>,
    shape: (usize, usize, usize),
    depth: usize,
    parent: usize,
    slot: usize,
) -> usize {
    let id = nodes.len();
    nodes.push(Node {
        kind: NodeKind::Leaf,
        mm: shape.0,
        kk: shape.1,
        nn: shape.2,
        parent,
        slot,
        children: Vec::new(),
        ops: RwLock::new(None),
        out: Mutex::new(Vec::new()),
        pending: AtomicUsize::new(0),
    });
    let dims = ctx.scheme.dims();
    if depth >= ctx.bfs_levels || !splits(dims, shape, ctx.cutoff) {
        return id;
    }
    let p = padded(dims, shape);
    if p != shape {
        // Padding does not consume a BFS level (it is not a subdivision),
        // matching the sequential engine, which pads and re-enters the
        // same level.
        let child = build_tree(ctx, nodes, p, depth, id, 0);
        nodes[id].kind = NodeKind::Pad;
        nodes[id].children.push(child);
        nodes[id].pending.store(1, Ordering::Relaxed);
    } else {
        let sub = child_shape(dims, shape);
        let r = ctx.scheme.r;
        let mut children = Vec::with_capacity(r);
        for l in 0..r {
            children.push(build_tree(ctx, nodes, sub, depth + 1, id, l));
        }
        nodes[id].kind = NodeKind::Split;
        nodes[id].children = children;
        nodes[id].pending.store(r, Ordering::Relaxed);
    }
    id
}

/// Shared state of one parallel multiply.
struct Exec<'a, T> {
    scheme: &'a BilinearScheme,
    cutoff: usize,
    /// The root operands, borrowed — never copied: depth-0 children
    /// encode straight from these views, so the task tree holds only
    /// encoded subproblems (which is what the plan's memory accounting
    /// counts).
    a: &'a Matrix<T>,
    b: &'a Matrix<T>,
    nodes: Vec<Node<T>>,
    /// One work-stealing deque per worker: owners push/pop the back
    /// (LIFO, cache-friendly); thieves steal from the front (FIFO, takes
    /// the largest-granularity task).
    queues: Vec<Mutex<VecDeque<usize>>>,
    done: AtomicBool,
    result: Mutex<Option<Vec<T>>>,
}

fn worker<T: Scalar>(exec: &Exec<'_, T>, w: usize, arena: &mut ScratchArena<T>) {
    let mut idle_spins = 0u32;
    while !exec.done.load(Ordering::Acquire) {
        match pop_task(exec, w) {
            Some(v) => {
                idle_spins = 0;
                run_node(exec, w, v, arena);
            }
            None => {
                // Nothing runnable right now (tasks may be in flight on
                // other workers). Spin briefly, then back off; the done
                // flag bounds the wait.
                idle_spins += 1;
                if idle_spins < 64 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        }
    }
}

fn pop_task<T>(exec: &Exec<'_, T>, w: usize) -> Option<usize> {
    if let Some(v) = exec.queues[w].lock().unwrap().pop_back() {
        return Some(v);
    }
    let n = exec.queues.len();
    for i in 1..n {
        if let Some(v) = exec.queues[(w + i) % n].lock().unwrap().pop_front() {
            return Some(v);
        }
    }
    None
}

/// Run one node's task: materialize its operands (encoding from the
/// parent), then either solve it depth-first (leaves) or enqueue its
/// children.
fn run_node<T: Scalar>(exec: &Exec<'_, T>, w: usize, v: usize, arena: &mut ScratchArena<T>) {
    let node = &exec.nodes[v];
    if node.parent != NO_PARENT {
        let parent = &exec.nodes[node.parent];
        let materialize = |pa: MatRef<'_, T>, pb: MatRef<'_, T>| match parent.kind {
            NodeKind::Split => {
                encode_child(exec.scheme, pa, pb, node.slot, (node.mm, node.kk, node.nn))
            }
            NodeKind::Pad => (
                pad_copy(pa, node.mm, node.kk),
                pad_copy(pb, node.kk, node.nn),
            ),
            NodeKind::Leaf => unreachable!("leaf nodes have no children"),
        };
        let ops = if parent.parent == NO_PARENT {
            // The parent is the root: encode straight from the borrowed
            // input matrices (never copied into the tree).
            materialize(exec.a.view(), exec.b.view())
        } else {
            let guard = parent.ops.read().unwrap();
            let (pa, pb) = guard.as_ref().expect("parent operands materialized");
            materialize(
                MatRef::from_slice(pa, parent.mm, parent.kk),
                MatRef::from_slice(pb, parent.kk, parent.nn),
            )
        };
        *node.ops.write().unwrap() = Some(ops);
    }
    match node.kind {
        NodeKind::Leaf => {
            let mut out = vec![T::zero(); node.mm * node.nn];
            {
                let guard = node.ops.read().unwrap();
                let (a, b) = guard.as_ref().expect("leaf operands materialized");
                multiply_into(
                    exec.scheme,
                    MatRef::from_slice(a, node.mm, node.kk),
                    MatRef::from_slice(b, node.kk, node.nn),
                    &mut MatMut::from_slice(&mut out, node.mm, node.nn),
                    exec.cutoff,
                    arena,
                );
            }
            *node.ops.write().unwrap() = None;
            *node.out.lock().unwrap() = out;
            complete(exec, v);
        }
        NodeKind::Split | NodeKind::Pad => {
            let mut q = exec.queues[w].lock().unwrap();
            for &c in &node.children {
                q.push_back(c);
            }
        }
    }
}

/// Propagate a finished node upward: the worker that finishes a parent's
/// last child combines (decodes/crops) it and continues cascading.
fn complete<T: Scalar>(exec: &Exec<'_, T>, start: usize) {
    let mut v = start;
    loop {
        let node = &exec.nodes[v];
        if node.parent == NO_PARENT {
            let out = std::mem::take(&mut *node.out.lock().unwrap());
            *exec.result.lock().unwrap() = Some(out);
            exec.done.store(true, Ordering::Release);
            return;
        }
        let parent = &exec.nodes[node.parent];
        if parent.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            combine(exec, node.parent);
            v = node.parent;
        } else {
            return;
        }
    }
}

/// Build a completed node's product from its children: decode in product
/// order `l = 0..r` with the sequential engine's own
/// [`decode_product_into`] (`Split`), or crop the padded result (`Pad`).
fn combine<T: Scalar>(exec: &Exec<'_, T>, p: usize) {
    let parent = &exec.nodes[p];
    let mut out = vec![T::zero(); parent.mm * parent.nn];
    match parent.kind {
        NodeKind::Split => {
            let mut cm = MatMut::from_slice(&mut out, parent.mm, parent.nn);
            for (l, &cid) in parent.children.iter().enumerate() {
                let child = &exec.nodes[cid];
                let m = std::mem::take(&mut *child.out.lock().unwrap());
                decode_product_into(
                    exec.scheme,
                    MatRef::from_slice(&m, child.mm, child.nn),
                    l,
                    &mut cm,
                );
            }
        }
        NodeKind::Pad => {
            let child = &exec.nodes[parent.children[0]];
            let m = std::mem::take(&mut *child.out.lock().unwrap());
            let mref = MatRef::from_slice(&m, child.mm, child.nn);
            MatMut::from_slice(&mut out, parent.mm, parent.nn)
                .copy_from(mref.block(0, 0, parent.mm, parent.nn));
        }
        NodeKind::Leaf => unreachable!("leaves complete directly"),
    }
    *parent.ops.write().unwrap() = None;
    *parent.out.lock().unwrap() = out;
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

/// Zero-extend `src` into a fresh `rows x cols` BFS-tree buffer.
fn pad_copy<T: Scalar>(src: MatRef<'_, T>, rows: usize, cols: usize) -> Vec<T> {
    let mut out = vec![T::zero(); rows * cols];
    MatMut::from_slice(&mut out, rows, cols).zero_extend_from(src);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classical::multiply_naive;
    use crate::recursive::multiply_scheme;
    use crate::scheme::{strassen, strassen_2x2x4, winograd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        // footprint each: tree memory = (1 + 7/4) * footprint.
        let cfg = ParallelConfig::new(1).with_memory_budget(usize::MAX);
        let cfg = ParallelConfig {
            tasks_per_thread: 7, // force exactly one level
            ..cfg
        };
        let f0 = footprint((128, 128, 128));
        let p = plan_bfs_dfs((2, 2, 2), 7, (128, 128, 128), 1, &cfg);
        assert_eq!(p.bfs_levels, 1);
        assert_eq!(p.tree_memory_words, f0 + 7 * footprint((64, 64, 64)));
        assert_eq!(p.tree_memory_words, f0 + f0 * 7 / 4);
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
                            a.view().grid_block_rect(bm, bk, q / bk, q % bk),
                            scheme.u.get(l, q),
                        );
                    }
                }
                let mut tb_old = vec![0.0f64; shape.1 * shape.2];
                {
                    let mut tm = MatMut::from_slice(&mut tb_old, shape.1, shape.2);
                    for q in 0..bk * bn {
                        tm.accumulate_scaled(
                            b.view().grid_block_rect(bk, bn, q / bn, q % bn),
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

    #[test]
    fn config_from_env_overrides_threads_and_rejects_garbage() {
        // The variables come from a map, never the process environment.
        let cfg = ParallelConfig::try_from_lookup(fake_env(&[
            ("FASTMM_THREADS", "3"),
            ("FASTMM_MEMORY_BUDGET", "12345"),
        ]))
        .unwrap();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.memory_budget, 12345);

        // Zero, non-numeric, and absurd values are rejected with an error
        // naming the variable — never silently replaced by a default.
        for (bad, needle) in [
            ("0", "FASTMM_THREADS=0"),
            ("lots", "not a positive integer"),
            ("-2", "not a positive integer"),
            ("999999", "absurdly large"),
        ] {
            let err =
                ParallelConfig::try_from_lookup(fake_env(&[("FASTMM_THREADS", bad)])).unwrap_err();
            assert!(err.contains(needle), "threads={bad:?}: {err}");
        }
        let too_big = (1u64 << 51).to_string();
        for (bad, needle) in [
            ("0", "FASTMM_MEMORY_BUDGET=0"),
            ("8GiB", "not a positive integer"),
            ("9999999999999999999", "not a positive integer"),
            (too_big.as_str(), "absurdly large"),
        ] {
            let err = ParallelConfig::try_from_lookup(fake_env(&[("FASTMM_MEMORY_BUDGET", bad)]))
                .unwrap_err();
            assert!(
                err.contains(needle) || err.contains("absurdly large"),
                "budget={bad:?}: {err}"
            );
        }

        let cfg = ParallelConfig::try_from_lookup(fake_env(&[])).unwrap();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.memory_budget, 0);
    }

    #[test]
    #[should_panic(expected = "FASTMM_DOC_EXAMPLE")]
    fn parse_env_positive_error_names_the_variable() {
        // parse_env_positive is the crate's one env parser (also behind
        // FASTMM_CUTOFF); its error must carry the variable name.
        let r = parse_env_positive(
            fake_env(&[("FASTMM_DOC_EXAMPLE", "zero")]),
            "FASTMM_DOC_EXAMPLE",
            16,
        );
        panic!("{}", r.unwrap_err());
    }
}
