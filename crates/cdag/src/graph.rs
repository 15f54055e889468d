//! The computation directed acyclic graph (CDAG) representation.
//!
//! Per Section 3.1 of the paper: one vertex per input element and per
//! arithmetic operation; a directed edge `(u, v)` whenever the value produced
//! at `u` is an operand of `v`. In-degree is at most 2 for genuine binary
//! operations, but the *flat* decode graphs (Comment 4.1) use higher
//! in-degree sum vertices, which [`Cdag::expand_high_in_degree`] rewrites
//! into binary trees (chains) when bounded degree is needed (Fact 4.2).
//!
//! # Flat-array core
//!
//! The graph is stored structure-of-arrays: a `kinds` vector plus a CSR
//! successor array (`row_ptr`/`col_idx`, rows sorted ascending) and its
//! transpose (predecessors), built once per mutation epoch by a three-pass
//! counting sort — no per-row comparison sorts, no per-node `Vec<Vec<u32>>`.
//! Consumers read adjacency through [`Cdag::succs`]/[`Cdag::preds`] slices;
//! the raw `(src, dst)` tuple log survives only as the internal build buffer
//! behind the deprecated [`Cdag::edges`] compatibility shim. This is what
//! lets layering, pebbling, and expansion certificates run on the ℓ≥7
//! million-vertex decode graphs (see the e15 `repro_graph_scale` experiment).

use std::collections::VecDeque;
use std::sync::OnceLock;

/// The role of a vertex in the computation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum VKind {
    /// An input element (no predecessors).
    Input,
    /// An addition/subtraction (linear combination) vertex.
    Add,
    /// A scalar multiplication vertex (the bilinear products).
    Mul,
}

/// Directed adjacency in CSR form: sorted successor rows plus the transpose.
#[derive(Clone, Debug, Default)]
struct AdjCache {
    /// `succ_ptr[v]..succ_ptr[v+1]` indexes `succ_idx`, row sorted ascending.
    succ_ptr: Vec<u32>,
    succ_idx: Vec<u32>,
    /// Transpose: predecessor rows, also sorted ascending.
    pred_ptr: Vec<u32>,
    pred_idx: Vec<u32>,
}

/// A computation DAG with directed edges `(src, dst)` meaning "dst consumes
/// the value produced by src".
#[derive(Clone, Debug, Default)]
pub struct Cdag {
    kinds: Vec<VKind>,
    edges: Vec<(u32, u32)>,
    adj: OnceLock<AdjCache>,
    und: OnceLock<Csr>,
    /// Vertices designated as program inputs.
    pub inputs: Vec<u32>,
    /// Vertices designated as program outputs.
    pub outputs: Vec<u32>,
}

impl Cdag {
    /// Empty graph.
    pub fn new() -> Self {
        Cdag::default()
    }

    /// Add a vertex of the given kind, returning its id.
    pub fn add_vertex(&mut self, kind: VKind) -> u32 {
        self.invalidate_adj();
        self.kinds.push(kind);
        (self.kinds.len() - 1) as u32
    }

    /// Add a directed edge `src -> dst`.
    pub fn add_edge(&mut self, src: u32, dst: u32) {
        debug_assert!((src as usize) < self.kinds.len());
        debug_assert!((dst as usize) < self.kinds.len());
        self.invalidate_adj();
        self.edges.push((src, dst));
    }

    fn invalidate_adj(&mut self) {
        if self.adj.get().is_some() {
            self.adj = OnceLock::new();
        }
        if self.und.get().is_some() {
            self.und = OnceLock::new();
        }
    }

    /// The CSR adjacency for the current edge set, built lazily by a
    /// three-pass counting sort (O(V+E), no comparison sorts):
    /// 1. counting-sort the edge log by source (rows in insertion order),
    /// 2. scatter sources ascending into the transpose → sorted pred rows,
    /// 3. scatter destinations ascending back → sorted succ rows.
    fn adj(&self) -> &AdjCache {
        self.adj.get_or_init(|| {
            let n = self.n_vertices();
            let ne = self.edges.len();
            debug_assert!(ne <= u32::MAX as usize, "edge count exceeds u32 index");
            let mut succ_ptr = vec![0u32; n + 1];
            for &(u, _) in &self.edges {
                succ_ptr[u as usize + 1] += 1;
            }
            for i in 0..n {
                succ_ptr[i + 1] += succ_ptr[i];
            }
            let mut by_src = vec![0u32; ne];
            let mut cur: Vec<u32> = succ_ptr[..n].to_vec();
            for &(u, v) in &self.edges {
                let c = &mut cur[u as usize];
                by_src[*c as usize] = v;
                *c += 1;
            }
            let mut pred_ptr = vec![0u32; n + 1];
            for &(_, v) in &self.edges {
                pred_ptr[v as usize + 1] += 1;
            }
            for i in 0..n {
                pred_ptr[i + 1] += pred_ptr[i];
            }
            let mut pred_idx = vec![0u32; ne];
            cur.copy_from_slice(&pred_ptr[..n]);
            for u in 0..n {
                for &v in &by_src[succ_ptr[u] as usize..succ_ptr[u + 1] as usize] {
                    let c = &mut cur[v as usize];
                    pred_idx[*c as usize] = u as u32;
                    *c += 1;
                }
            }
            let mut succ_idx = by_src;
            cur.copy_from_slice(&succ_ptr[..n]);
            for v in 0..n {
                for &u in &pred_idx[pred_ptr[v] as usize..pred_ptr[v + 1] as usize] {
                    let c = &mut cur[u as usize];
                    succ_idx[*c as usize] = v as u32;
                    *c += 1;
                }
            }
            AdjCache {
                succ_ptr,
                succ_idx,
                pred_ptr,
                pred_idx,
            }
        })
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.kinds.len()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Kind of vertex `v`.
    pub fn kind(&self, v: u32) -> VKind {
        self.kinds[v as usize]
    }

    /// Successors of `v` (sorted ascending).
    #[inline]
    pub fn succs(&self, v: u32) -> &[u32] {
        let a = self.adj();
        &a.succ_idx[a.succ_ptr[v as usize] as usize..a.succ_ptr[v as usize + 1] as usize]
    }

    /// Predecessors of `v` (sorted ascending).
    #[inline]
    pub fn preds(&self, v: u32) -> &[u32] {
        let a = self.adj();
        &a.pred_idx[a.pred_ptr[v as usize] as usize..a.pred_ptr[v as usize + 1] as usize]
    }

    /// All edges as the raw `(src, dst)` insertion log.
    #[deprecated(note = "iterate `succs(v)` / `preds(v)` over the CSR core instead; \
                the tuple log is now an internal build buffer")]
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Count of vertices per kind `(inputs, adds, muls)`.
    pub fn kind_counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for k in &self.kinds {
            match k {
                VKind::Input => c.0 += 1,
                VKind::Add => c.1 += 1,
                VKind::Mul => c.2 += 1,
            }
        }
        c
    }

    /// In-degrees of all vertices (a row-pointer difference, no edge scan).
    pub fn in_degrees(&self) -> Vec<u32> {
        let a = self.adj();
        (0..self.n_vertices())
            .map(|v| a.pred_ptr[v + 1] - a.pred_ptr[v])
            .collect()
    }

    /// Out-degrees of all vertices.
    pub fn out_degrees(&self) -> Vec<u32> {
        let a = self.adj();
        (0..self.n_vertices())
            .map(|v| a.succ_ptr[v + 1] - a.succ_ptr[v])
            .collect()
    }

    /// Total (undirected) degrees.
    pub fn degrees(&self) -> Vec<u32> {
        let a = self.adj();
        (0..self.n_vertices())
            .map(|v| (a.succ_ptr[v + 1] - a.succ_ptr[v]) + (a.pred_ptr[v + 1] - a.pred_ptr[v]))
            .collect()
    }

    /// Maximum total degree (the `d` against which expansion is normalized
    /// after conceptually adding loops; Section 2.0.2).
    pub fn max_degree(&self) -> u32 {
        self.degrees().into_iter().max().unwrap_or(0)
    }

    /// Undirected adjacency in CSR form, built once and cached.
    pub fn undirected_csr(&self) -> &Csr {
        self.und
            .get_or_init(|| Csr::from_undirected(self.n_vertices(), &self.edges))
    }

    /// Is the underlying undirected graph connected?
    pub fn is_connected(&self) -> bool {
        self.connected_components() == 1
    }

    /// Number of connected components of the underlying undirected graph.
    pub fn connected_components(&self) -> usize {
        let n = self.n_vertices();
        if n == 0 {
            return 0;
        }
        let csr = self.undirected_csr();
        let mut seen = vec![false; n];
        let mut comps = 0;
        let mut queue = VecDeque::new();
        for s in 0..n {
            if seen[s] {
                continue;
            }
            comps += 1;
            seen[s] = true;
            queue.push_back(s as u32);
            while let Some(u) = queue.pop_front() {
                for &w in csr.neighbors(u) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push_back(w);
                    }
                }
            }
        }
        comps
    }

    /// A topological order (Kahn). Panics if the graph has a cycle, which
    /// would mean the builder produced something that is not a DAG.
    pub fn topological_order(&self) -> Vec<u32> {
        let n = self.n_vertices();
        let mut indeg = self.in_degrees();
        let mut queue: VecDeque<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &w in self.succs(u) {
                indeg[w as usize] -= 1;
                if indeg[w as usize] == 0 {
                    queue.push_back(w);
                }
            }
        }
        assert_eq!(order.len(), n, "cycle detected in CDAG");
        order
    }

    /// Vectorized Kahn / Coffman–Graham layering over the flat CSR arrays:
    /// level 0 is the sources, and every other vertex sits one past its
    /// deepest predecessor (longest-path layering). One sweep over the
    /// topological order assigns levels; a counting sort groups vertices
    /// into the flat [`Layering`] (within a level, ids ascend). Panics on a
    /// cycle.
    pub fn kahn_layers(&self) -> Layering {
        let n = self.n_vertices();
        let topo = self.topological_order();
        let mut level = vec![0u32; n];
        let mut n_levels = if n == 0 { 0 } else { 1 };
        for &v in &topo {
            let lv = level[v as usize] + 1;
            for &w in self.succs(v) {
                if level[w as usize] < lv {
                    level[w as usize] = lv;
                    if (lv + 1) as usize > n_levels {
                        n_levels = (lv + 1) as usize;
                    }
                }
            }
        }
        let mut level_ptr = vec![0u32; n_levels + 1];
        for &l in &level {
            level_ptr[l as usize + 1] += 1;
        }
        for i in 0..n_levels {
            level_ptr[i + 1] += level_ptr[i];
        }
        let mut order = vec![0u32; n];
        let mut cur: Vec<u32> = level_ptr[..n_levels].to_vec();
        for (v, &l) in level.iter().enumerate() {
            let c = &mut cur[l as usize];
            order[*c as usize] = v as u32;
            *c += 1;
        }
        Layering { level_ptr, order }
    }

    /// Rewrite every vertex of in-degree `> 2` into a chain of binary Add
    /// vertices (Comment 4.1: a high in-degree vertex "represents a full
    /// binary (not necessarily balanced) tree"). Returns the new graph; the
    /// vertex ids of the original graph are preserved, chain-internal
    /// vertices are appended at the end. Input/output designations carry
    /// over. Predecessors are consumed in ascending-id order (identical to
    /// the historical edge-insertion order on the layered decode graphs).
    pub fn expand_high_in_degree(&self) -> Cdag {
        let n = self.n_vertices();
        let mut out = Cdag {
            kinds: self.kinds.clone(),
            edges: Vec::with_capacity(self.edges.len()),
            adj: OnceLock::new(),
            und: OnceLock::new(),
            inputs: self.inputs.clone(),
            outputs: self.outputs.clone(),
        };
        for v in 0..n as u32 {
            let ps = self.preds(v);
            if ps.len() <= 2 {
                for &p in ps {
                    out.add_edge(p, v);
                }
            } else {
                // chain: acc = p0 + p1; acc = acc + p2; ...; v = acc + p_last
                let mut acc = out.add_vertex(VKind::Add);
                out.add_edge(ps[0], acc);
                out.add_edge(ps[1], acc);
                for &p in &ps[2..ps.len() - 1] {
                    let nxt = out.add_vertex(VKind::Add);
                    out.add_edge(acc, nxt);
                    out.add_edge(p, nxt);
                    acc = nxt;
                }
                out.add_edge(acc, v);
                out.add_edge(ps[ps.len() - 1], v);
            }
        }
        out
    }

    /// GraphViz DOT rendering (used for the Figure 2 reproductions). Only
    /// sensible for small graphs.
    pub fn to_dot(&self, name: &str) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "digraph {name} {{");
        let _ = writeln!(s, "  rankdir=BT;");
        for v in 0..self.n_vertices() as u32 {
            let (shape, label) = match self.kind(v) {
                VKind::Input => ("box", "in"),
                VKind::Add => ("circle", "+"),
                VKind::Mul => ("doublecircle", "*"),
            };
            let extra = if self.outputs.contains(&v) {
                ", style=filled, fillcolor=gray85"
            } else {
                ""
            };
            let _ = writeln!(s, "  v{v} [shape={shape}, label=\"{label}{v}\"{extra}];");
        }
        for &(u, v) in &self.edges {
            let _ = writeln!(s, "  v{u} -> v{v};");
        }
        let _ = writeln!(s, "}}");
        s
    }
}

/// A level assignment in flat CSR-of-levels form: `order` lists vertices
/// grouped by level (ids ascending within a level), `level_ptr[j]..level_ptr
/// [j+1]` delimits level `j`. Produced by [`Cdag::kahn_layers`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layering {
    /// `n_levels + 1` offsets into `order`.
    pub level_ptr: Vec<u32>,
    /// All vertices, grouped by level.
    pub order: Vec<u32>,
}

impl Layering {
    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.level_ptr.len().saturating_sub(1)
    }

    /// Vertices at level `j` (ascending ids).
    pub fn level(&self, j: usize) -> &[u32] {
        &self.order[self.level_ptr[j] as usize..self.level_ptr[j + 1] as usize]
    }

    /// Total vertex count.
    pub fn n_vertices(&self) -> usize {
        self.order.len()
    }

    /// Per-vertex level indices (inverse of the grouping).
    pub fn level_of(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.order.len()];
        for j in 0..self.n_levels() {
            for &v in self.level(j) {
                lv[v as usize] = j as u32;
            }
        }
        lv
    }
}

/// Compressed sparse row adjacency.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
}

impl Csr {
    /// Build undirected adjacency (each edge appears in both endpoint lists).
    pub fn from_undirected(n: usize, edges: &[(u32, u32)]) -> Csr {
        let mut deg = vec![0usize; n];
        for &(u, v) in edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut neighbors = vec![0u32; offsets[n]];
        let mut cursor = offsets.clone();
        for &(u, v) in edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    /// Neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cdag {
        // in0 -> a, in1 -> a, a -> b, in1 -> b
        let mut g = Cdag::new();
        let i0 = g.add_vertex(VKind::Input);
        let i1 = g.add_vertex(VKind::Input);
        let a = g.add_vertex(VKind::Add);
        let b = g.add_vertex(VKind::Add);
        g.add_edge(i0, a);
        g.add_edge(i1, a);
        g.add_edge(a, b);
        g.add_edge(i1, b);
        g.inputs = vec![i0, i1];
        g.outputs = vec![b];
        g
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.n_vertices(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(g.kind_counts(), (2, 2, 0));
        assert_eq!(g.in_degrees(), vec![0, 0, 2, 2]);
        assert_eq!(g.out_degrees(), vec![1, 2, 1, 0]);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn csr_accessors_are_sorted_views() {
        let g = diamond();
        assert_eq!(g.succs(0), &[2]);
        assert_eq!(g.succs(1), &[2, 3]);
        assert_eq!(g.succs(2), &[3]);
        assert_eq!(g.succs(3), &[] as &[u32]);
        assert_eq!(g.preds(2), &[0, 1]);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.preds(0), &[] as &[u32]);
    }

    #[test]
    fn csr_cache_invalidated_on_mutation() {
        let mut g = diamond();
        assert_eq!(g.succs(3), &[] as &[u32]);
        let c = g.add_vertex(VKind::Add);
        g.add_edge(3, c);
        assert_eq!(g.succs(3), &[c]);
        assert_eq!(g.preds(c), &[3]);
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(g.is_connected());
        let mut g2 = diamond();
        let lonely = g2.add_vertex(VKind::Input);
        assert!(!g2.is_connected());
        assert_eq!(g2.connected_components(), 2);
        let _ = lonely;
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = diamond();
        let order = g.topological_order();
        let pos: Vec<usize> = (0..4u32)
            .map(|v| order.iter().position(|&x| x == v).unwrap())
            .collect();
        for v in 0..g.n_vertices() as u32 {
            for &w in g.succs(v) {
                assert!(
                    pos[v as usize] < pos[w as usize],
                    "edge {v}->{w} out of order"
                );
            }
        }
    }

    #[test]
    fn kahn_layers_match_longest_paths() {
        let g = diamond();
        let l = g.kahn_layers();
        assert_eq!(l.n_levels(), 3);
        assert_eq!(l.level(0), &[0, 1]);
        assert_eq!(l.level(1), &[2]);
        assert_eq!(l.level(2), &[3]);
        assert_eq!(l.n_vertices(), 4);
        assert_eq!(l.level_of(), vec![0, 0, 1, 2]);
    }

    #[test]
    fn kahn_layers_every_vertex_past_its_preds() {
        let g = diamond().expand_high_in_degree();
        let l = g.kahn_layers();
        let lv = l.level_of();
        for v in 0..g.n_vertices() as u32 {
            for &p in g.preds(v) {
                assert!(lv[p as usize] < lv[v as usize], "pred {p} not below {v}");
            }
        }
    }

    #[test]
    fn expand_high_in_degree_makes_binary() {
        let mut g = Cdag::new();
        let ins: Vec<u32> = (0..5).map(|_| g.add_vertex(VKind::Input)).collect();
        let sum = g.add_vertex(VKind::Add);
        for &i in &ins {
            g.add_edge(i, sum);
        }
        let e = g.expand_high_in_degree();
        let indeg = e.in_degrees();
        assert!(indeg.iter().all(|&d| d <= 2), "in-degrees {indeg:?}");
        // 5 inputs need 4 binary adds total; the original vertex is one of
        // them, so 3 fresh chain vertices appear.
        assert_eq!(e.n_vertices(), g.n_vertices() + 3);
        // value dependency preserved: all inputs still reach `sum`
        let mut reach = vec![false; e.n_vertices()];
        let mut stack = vec![ins[0]];
        while let Some(u) = stack.pop() {
            if reach[u as usize] {
                continue;
            }
            reach[u as usize] = true;
            stack.extend(e.succs(u));
        }
        assert!(reach[sum as usize]);
    }

    #[test]
    fn expand_leaves_binary_untouched() {
        let g = diamond();
        let e = g.expand_high_in_degree();
        assert_eq!(e.n_vertices(), g.n_vertices());
        assert_eq!(e.n_edges(), g.n_edges());
    }

    #[test]
    fn dot_output_mentions_all_vertices() {
        let g = diamond();
        let dot = g.to_dot("d");
        for v in 0..4 {
            assert!(dot.contains(&format!("v{v} ")), "missing v{v}");
        }
        assert!(dot.contains("->"));
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection() {
        let mut g = Cdag::new();
        let a = g.add_vertex(VKind::Add);
        let b = g.add_vertex(VKind::Add);
        g.add_edge(a, b);
        g.add_edge(b, a);
        let _ = g.topological_order();
    }
}
