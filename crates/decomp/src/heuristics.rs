//! Tree-decomposition construction.
//!
//! Bodlaender's linear-time algorithm (\[3\] in the paper) is famously
//! impractical; like the paper's own prototype we rely on elimination-order
//! heuristics (min-degree, min-fill) which are exact on chordal inputs and
//! near-optimal on the bounded-treewidth workloads used here, plus an exact
//! exponential search for small instances (used in tests to certify widths,
//! e.g. that Example 2.2 has treewidth 2).
//!
//! # Cost model
//!
//! The greedy heuristics run the elimination game once, with local work
//! per step. Every alive vertex sits in an ordered queue keyed by
//! `(score, vertex)`, so the next vertex is the queue's minimum and only
//! vertices whose score changed are re-keyed (`O(log n)` each). The
//! min-degree score is the current degree, which changes only on `N(v)`
//! when `v` is eliminated. The min-fill score is kept exactly as
//! `fill(w) = C(deg(w), 2) − tri(w)`, where `tri(w)` counts the edges
//! inside `N(w)`:
//!
//! * a fill edge `(a, b)` adds `|N(a) ∩ N(b)|` to `tri(a)` and `tri(b)`
//!   and one to `tri(c)` for every common neighbour `c` (found by scanning
//!   the smaller of the two adjacencies);
//! * removing `v` once `N(v)` is a clique takes `|N(v)| − 1` from `tri(u)`
//!   for each `u ∈ N(v)`.
//!
//! Eliminating `v` thus costs `O(|N(v)|²)` adjacency probes to close
//! `N(v)` into a clique, `O(min(deg a, deg b))` per fill edge, and one
//! re-key per changed score; nothing is rescanned and nothing is allocated
//! per candidate. [`decompose`] takes its bags from this same pass.

use crate::tree::{NodeId, TreeDecomposition};
use mdtw_structure::fx::FxHashSet;
use mdtw_structure::{ElemId, Structure};
use std::collections::BTreeSet;

/// The primal (Gaifman) graph of a structure: one vertex per domain
/// element, an edge whenever two elements co-occur in some EDB tuple.
#[derive(Debug, Clone)]
pub struct PrimalGraph {
    /// `adj[v]` is the sorted set of neighbours of `v`.
    adj: Vec<Vec<u32>>,
}

impl PrimalGraph {
    /// Builds the primal graph of `structure`.
    pub fn of(structure: &Structure) -> Self {
        let tuples = structure
            .signature()
            .preds()
            .flat_map(|p| structure.relation(p).iter());
        let pairs = tuples.flat_map(|t| {
            (0..t.len()).flat_map(move |i| t[i + 1..].iter().map(move |b| (t[i].0, b.0)))
        });
        Self::build(structure.domain().len(), pairs)
    }

    /// Builds a primal graph directly from an edge list on `n` vertices.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        Self::build(n, edges.iter().copied())
    }

    /// Pushes both directions of every non-loop edge, then sorts and
    /// dedups each adjacency list.
    fn build(n: usize, edges: impl IntoIterator<Item = (u32, u32)>) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            if a != b {
                adj[a as usize].push(b);
                adj[b as usize].push(a);
            }
        }
        for ns in &mut adj {
            ns.sort_unstable();
            ns.dedup();
        }
        Self { adj }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbours of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }
}

/// Elimination-order heuristic to use for decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Heuristic {
    /// Repeatedly eliminate a vertex of minimum current degree.
    MinDegree,
    /// Repeatedly eliminate a vertex adding the fewest fill-in edges.
    MinFill,
}

/// Work graph for elimination: mutable adjacency sets.
struct WorkGraph {
    adj: Vec<FxHashSet<u32>>,
}

impl WorkGraph {
    fn new(g: &PrimalGraph) -> Self {
        Self {
            adj: g
                .adj
                .iter()
                .map(|ns| ns.iter().copied().collect())
                .collect(),
        }
    }

    /// Eliminates `v`: connects its neighbourhood into a clique, removes
    /// `v`, and leaves `N(v)` in `nbrs`. `on_fill(adj, a, b)` sees each
    /// fill edge `(a, b)` just before it is added (`v` is then still a
    /// neighbour of both).
    fn eliminate(
        &mut self,
        v: u32,
        nbrs: &mut Vec<u32>,
        mut on_fill: impl FnMut(&[FxHashSet<u32>], u32, u32),
    ) {
        nbrs.clear();
        nbrs.extend(std::mem::take(&mut self.adj[v as usize]));
        for (i, &a) in nbrs.iter().enumerate() {
            for &b in &nbrs[i + 1..] {
                if !self.adj[a as usize].contains(&b) {
                    on_fill(&self.adj, a, b);
                    self.adj[a as usize].insert(b);
                    self.adj[b as usize].insert(a);
                }
            }
        }
        for &u in nbrs.iter() {
            self.adj[u as usize].remove(&v);
        }
    }
}

/// Calls `f` on every common neighbour of `a` and `b`, scanning the
/// smaller of the two adjacencies.
fn for_common_neighbors(adj: &[FxHashSet<u32>], a: u32, b: u32, mut f: impl FnMut(u32)) {
    let (mut small, mut large) = (&adj[a as usize], &adj[b as usize]);
    if small.len() > large.len() {
        std::mem::swap(&mut small, &mut large);
    }
    for &c in small {
        if large.contains(&c) {
            f(c);
        }
    }
}

/// Plays the elimination game with `heuristic`: repeatedly eliminates the
/// alive vertex with the least `(score, vertex id)` and calls
/// `visit(v, N(v))` with its neighbourhood at elimination time.
fn eliminate_greedy(g: &PrimalGraph, heuristic: Heuristic, mut visit: impl FnMut(u32, &[u32])) {
    let n = g.len();
    let min_fill = heuristic == Heuristic::MinFill;
    let mut wg = WorkGraph::new(g);
    // Min-fill only: `tri[w]` is the number of edges inside `N(w)`.
    let mut tri = Vec::new();
    if min_fill {
        tri = vec![0usize; n];
        for a in 0..n as u32 {
            for &b in g.neighbors(a).iter().filter(|&&b| a < b) {
                for_common_neighbors(&wg.adj, a, b, |c| tri[c as usize] += 1);
            }
        }
    }
    let score = |adj: &[FxHashSet<u32>], tri: &[usize], w: u32| {
        let d = adj[w as usize].len();
        if min_fill {
            d * d.saturating_sub(1) / 2 - tri[w as usize]
        } else {
            d
        }
    };
    // `key[w]` is the score `w` is queued under.
    let mut key: Vec<usize> = (0..n as u32).map(|w| score(&wg.adj, &tri, w)).collect();
    let mut queue: BTreeSet<(usize, u32)> = key.iter().zip(0..).map(|(&k, w)| (k, w)).collect();
    let mut nbrs = Vec::new();
    // Alive vertices whose score may have changed (repeats allowed).
    let mut touched = Vec::new();
    while let Some((_, v)) = queue.pop_first() {
        wg.eliminate(v, &mut nbrs, |adj, a, b| {
            if !min_fill {
                return;
            }
            let mut common = 0;
            for_common_neighbors(adj, a, b, |c| {
                common += 1;
                if c != v {
                    tri[c as usize] += 1;
                    touched.push(c);
                }
            });
            tri[a as usize] += common;
            tri[b as usize] += common;
        });
        visit(v, &nbrs);
        if min_fill {
            // `N(v)` is now a clique, so each `u ∈ N(v)` lost the edges
            // from `v` to the other `|N(v)| − 1` members of `N(u)`.
            for &u in &nbrs {
                tri[u as usize] -= nbrs.len() - 1;
            }
        }
        touched.extend_from_slice(&nbrs);
        for w in touched.drain(..) {
            let s = score(&wg.adj, &tri, w);
            let k = &mut key[w as usize];
            if s != *k {
                queue.remove(&(*k, w));
                queue.insert((s, w));
                *k = s;
            }
        }
    }
}

/// Computes an elimination order with the given heuristic.
///
/// Each step eliminates an alive vertex of least score (current degree
/// for [`Heuristic::MinDegree`], number of fill-in edges for
/// [`Heuristic::MinFill`]); ties go to the smallest vertex id. That
/// tie-break is part of the contract: the order is a pure function of the
/// graph, pinned against a rescanning oracle in the test suite.
///
/// Scores are maintained incrementally (see the module docs), so a step
/// costs work local to the eliminated vertex's neighbourhood plus
/// `O(log n)` per changed score, not a rescan of all alive vertices.
pub fn elimination_order(g: &PrimalGraph, heuristic: Heuristic) -> Vec<u32> {
    let mut order = Vec::with_capacity(g.len());
    eliminate_greedy(g, heuristic, |v, _| order.push(v));
    order
}

/// The bag `{v} ∪ N(v)` of an eliminated vertex.
fn bag_of(v: u32, nbrs: &[u32]) -> Vec<ElemId> {
    std::iter::once(v)
        .chain(nbrs.iter().copied())
        .map(ElemId)
        .collect()
}

/// Builds a rooted tree decomposition from an elimination order over the
/// primal graph (the standard "elimination tree" construction: the bag of
/// `v` is `{v} ∪ N(v)` at elimination time; its parent is the bag of the
/// earliest-eliminated element of `N(v)`).
///
/// # Panics
///
/// If `order` is not a permutation of the vertices `0..g.len()`; the
/// message names the first vertex that is out of range or repeated.
pub fn decompose_with_order(g: &PrimalGraph, order: &[u32]) -> TreeDecomposition {
    let n = g.len();
    assert_eq!(order.len(), n, "order must cover all vertices");
    let mut seen = vec![false; n];
    for &v in order {
        assert!(
            (v as usize) < n,
            "order must be a permutation: vertex {v} is not in the graph"
        );
        assert!(
            !seen[v as usize],
            "order must be a permutation: vertex {v} appears twice"
        );
        seen[v as usize] = true;
    }
    let mut wg = WorkGraph::new(g);
    let mut nbrs = Vec::new();
    let bags = order
        .iter()
        .map(|&v| {
            wg.eliminate(v, &mut nbrs, |_, _, _| {});
            bag_of(v, &nbrs)
        })
        .collect();
    elimination_tree(order, bags)
}

/// Convenience: decomposes `structure` with the given heuristic, taking
/// the bags from the elimination pass that picks the order.
pub fn decompose(structure: &Structure, heuristic: Heuristic) -> TreeDecomposition {
    let g = PrimalGraph::of(structure);
    let mut order = Vec::with_capacity(g.len());
    let mut bags = Vec::with_capacity(g.len());
    eliminate_greedy(&g, heuristic, |v, nbrs| {
        order.push(v);
        bags.push(bag_of(v, nbrs));
    });
    elimination_tree(&order, bags)
}

/// Links the bags of an elimination (`bags[i]` belongs to `order[i]`)
/// into a tree: the parent of bag `i` is the bag of its earliest-eliminated
/// other member, all of which are eliminated after `order[i]`.
fn elimination_tree(order: &[u32], mut bags: Vec<Vec<ElemId>>) -> TreeDecomposition {
    let n = order.len();
    if n == 0 {
        return TreeDecomposition::singleton(Vec::new());
    }
    let mut pos = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        pos[v as usize] = i;
    }
    let parent: Vec<Option<usize>> = bags
        .iter()
        .zip(order)
        .map(|(bag, &v)| {
            bag.iter()
                .filter(|u| u.0 != v)
                .map(|u| pos[u.index()])
                .min()
        })
        .collect();
    // Roots: bags with no parent (one per connected component). Chain the
    // components together under the last root so we return a single tree
    // (bags may be disjoint; attaching preserves all conditions because the
    // connecting edges carry no shared elements).
    let roots: Vec<usize> = (0..n).filter(|&i| parent[i].is_none()).collect();
    let main_root = *roots.last().expect("at least one root");
    // Build via DFS from main_root over child lists.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, p) in parent.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(i);
        }
    }
    for &r in &roots {
        if r != main_root {
            children[main_root].push(r);
        }
    }
    let mut td = TreeDecomposition::singleton(std::mem::take(&mut bags[main_root]));
    let mut stack: Vec<(usize, NodeId)> = vec![(main_root, td.root())];
    while let Some((i, node)) = stack.pop() {
        for &c in &children[i] {
            let child_node = td.add_child(node, std::mem::take(&mut bags[c]));
            stack.push((c, child_node));
        }
    }
    td
}

/// Exact treewidth by dynamic programming over vertex subsets
/// (Bodlaender–Held–Karp style, `O(2^n · n²)`). Only for `n ≤ 20`;
/// intended for tests and tiny instances.
///
/// Returns the treewidth of the primal graph.
pub fn exact_treewidth(g: &PrimalGraph) -> usize {
    let n = g.len();
    assert!(n <= 20, "exact_treewidth is exponential; n ≤ 20 required");
    if n == 0 {
        return 0;
    }
    // f[S] = minimal over elimination orders of S (eliminated first) of the
    // maximal back-degree encountered. Back-degree of v w.r.t. already
    // eliminated set E: number of vertices outside E∪{v} reachable from v
    // through E.
    let full: u32 = (1u32 << n) - 1;
    let mut f = vec![u8::MAX; (full as usize) + 1];
    f[0] = 0;
    let mut stack = Vec::with_capacity(n);
    // Iterate subsets in increasing popcount order implicitly: increasing
    // numeric order suffices since S' = S \ {v} < S numerically.
    for s in 1..=full {
        let su = s as usize;
        let mut best = u8::MAX;
        let mut bits = s;
        while bits != 0 {
            let v = bits.trailing_zeros();
            bits &= bits - 1;
            let prev = f[(s & !(1 << v)) as usize];
            if prev == u8::MAX {
                continue;
            }
            let deg = reach_degree(g, v, s & !(1 << v), &mut stack) as u8;
            best = best.min(prev.max(deg));
        }
        f[su] = best;
    }
    f[full as usize] as usize
}

/// Number of vertices outside `eliminated ∪ {v}` reachable from `v` via
/// vertices in `eliminated`. `stack` is scratch space.
fn reach_degree(g: &PrimalGraph, v: u32, eliminated: u32, stack: &mut Vec<u32>) -> usize {
    let mut seen = 1u32 << v;
    stack.clear();
    stack.push(v);
    let mut degree = 0;
    while let Some(u) = stack.pop() {
        for &w in g.neighbors(u) {
            let bit = 1u32 << w;
            if seen & bit != 0 {
                continue;
            }
            seen |= bit;
            if eliminated & bit != 0 {
                stack.push(w);
            } else {
                degree += 1;
            }
        }
    }
    degree
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycle(n: usize) -> PrimalGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        PrimalGraph::from_edges(n, &edges)
    }

    fn clique(n: usize) -> PrimalGraph {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in i + 1..n as u32 {
                edges.push((i, j));
            }
        }
        PrimalGraph::from_edges(n, &edges)
    }

    #[test]
    fn exact_treewidth_of_known_graphs() {
        assert_eq!(exact_treewidth(&cycle(5)), 2);
        assert_eq!(exact_treewidth(&clique(4)), 3);
        assert_eq!(exact_treewidth(&clique(6)), 5);
        // A tree (star) has treewidth 1.
        let star = PrimalGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(exact_treewidth(&star), 1);
        // A single vertex / empty graph.
        assert_eq!(exact_treewidth(&PrimalGraph::from_edges(1, &[])), 0);
    }

    #[test]
    fn heuristics_produce_valid_width_on_cycle() {
        let g = cycle(8);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let order = elimination_order(&g, h);
            let td = decompose_with_order(&g, &order);
            // Heuristics are exact on cycles: width 2.
            assert_eq!(td.width(), 2, "{h:?}");
        }
    }

    #[test]
    fn decomposition_of_structure_is_valid() {
        use mdtw_structure::{Domain, Signature};
        use std::sync::Arc;
        // Build a small 2-tree-ish structure with a ternary relation.
        let sig = Arc::new(Signature::from_pairs([("r", 3), ("e", 2)]));
        let dom = Domain::anonymous(7);
        let mut s = Structure::new(sig, dom);
        let r = s.signature().lookup("r").unwrap();
        let e = s.signature().lookup("e").unwrap();
        s.insert(r, &[ElemId(0), ElemId(1), ElemId(2)]);
        s.insert(r, &[ElemId(2), ElemId(3), ElemId(4)]);
        s.insert(e, &[ElemId(4), ElemId(5)]);
        s.insert(e, &[ElemId(5), ElemId(6)]);
        for h in [Heuristic::MinDegree, Heuristic::MinFill] {
            let td = decompose(&s, h);
            assert_eq!(td.validate(&s), Ok(()), "{h:?}");
            assert!(td.width() <= 2);
        }
    }

    #[test]
    fn disconnected_structure_still_decomposes() {
        use mdtw_structure::{Domain, Signature};
        use std::sync::Arc;
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(4);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        s.insert(e, &[ElemId(2), ElemId(3)]);
        let td = decompose(&s, Heuristic::MinDegree);
        assert_eq!(td.validate(&s), Ok(()));
    }

    #[test]
    fn elimination_tree_parent_is_earliest_neighbor() {
        // Path 0-1-2, order (0,2,1): bag(0)={0,1}, bag(2)={1,2}, bag(1)={1}.
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let td = decompose_with_order(&g, &[0, 2, 1]);
        assert_eq!(td.len(), 3);
        assert_eq!(td.width(), 1);
    }

    #[test]
    #[should_panic(expected = "vertex 0 appears twice")]
    fn order_with_repeated_vertex_is_rejected() {
        // Unchecked, the never-eliminated vertex 2 keeps position 0 and the
        // result is one node with bag {0}: vertices 1 and 2 are lost.
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        decompose_with_order(&g, &[0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "vertex 3 is not in the graph")]
    fn order_with_unknown_vertex_is_rejected() {
        let g = PrimalGraph::from_edges(3, &[(0, 1), (1, 2)]);
        decompose_with_order(&g, &[0, 3, 1]);
    }

    #[test]
    fn constructors_agree_on_adjacency() {
        use mdtw_structure::{Domain, Signature};
        use std::sync::Arc;
        let sig = Arc::new(Signature::from_pairs([("r", 3), ("e", 2)]));
        let mut s = Structure::new(sig, Domain::anonymous(5));
        let r = s.signature().lookup("r").unwrap();
        let e = s.signature().lookup("e").unwrap();
        s.insert(r, &[ElemId(0), ElemId(1), ElemId(0)]);
        s.insert(e, &[ElemId(3), ElemId(1)]);
        s.insert(e, &[ElemId(1), ElemId(3)]);
        let g = PrimalGraph::of(&s);
        let h = PrimalGraph::from_edges(5, &[(1, 0), (3, 1), (0, 1), (2, 2)]);
        for v in 0..5 {
            assert_eq!(g.neighbors(v), h.neighbors(v), "vertex {v}");
        }
        assert_eq!(g.neighbors(1), &[0, 3]);
        assert!(g.neighbors(4).is_empty());
    }
}
