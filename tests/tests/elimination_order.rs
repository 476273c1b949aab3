//! The incremental min-degree / min-fill elimination against a rescanning
//! oracle, plus a seeded regression pin of the orders the §5 pipelines
//! decompose with.
//!
//! The oracle is the textbook greedy loop: at every step it recomputes the
//! score of every alive vertex from scratch and takes the least
//! `(score, vertex id)`. The library keeps the scores incrementally; both
//! must produce the same order, ties included.

use mdtw_core::three_coloring_fpt;
use mdtw_decomp::{
    decompose, decompose_with_order, elimination_order, Heuristic, PrimalGraph, TreeDecomposition,
};
use mdtw_graph::{encode_graph, partial_k_tree, Graph};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The greedy elimination order by full rescans: `O(n)` candidates per
/// step, each scored from scratch.
fn rescan_order(g: &PrimalGraph, heuristic: Heuristic) -> Vec<u32> {
    let n = g.len();
    let mut adj: Vec<BTreeSet<u32>> = (0..n as u32)
        .map(|v| g.neighbors(v).iter().copied().collect())
        .collect();
    let mut alive = vec![true; n];
    let fill_in = |adj: &[BTreeSet<u32>], v: u32| {
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        let mut missing = 0;
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                if !adj[a as usize].contains(&b) {
                    missing += 1;
                }
            }
        }
        missing
    };
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        let v = (0..n as u32)
            .filter(|&v| alive[v as usize])
            .min_by_key(|&v| match heuristic {
                Heuristic::MinDegree => (adj[v as usize].len(), v),
                Heuristic::MinFill => (fill_in(&adj, v), v),
            })
            .expect("alive vertex exists");
        let ns: Vec<u32> = adj[v as usize].iter().copied().collect();
        for (i, &a) in ns.iter().enumerate() {
            for &b in &ns[i + 1..] {
                adj[a as usize].insert(b);
                adj[b as usize].insert(a);
            }
        }
        for &u in &ns {
            adj[u as usize].remove(&v);
        }
        adj[v as usize].clear();
        alive[v as usize] = false;
        order.push(v);
    }
    order
}

/// Every node's bag and parent, in arena order.
fn shape(td: &TreeDecomposition) -> Vec<(Vec<u32>, Option<u32>)> {
    td.node_ids()
        .map(|id| {
            let node = td.node(id);
            let bag = node.bag.iter().map(|e| e.0).collect();
            (bag, node.parent.map(|p| p.0))
        })
        .collect()
}

/// Checks both heuristics on `g` against the oracle, and that `decompose`
/// is valid and equals the replay of its own order.
fn check_against_oracle(g: &Graph) {
    let s = encode_graph(g);
    let pg = PrimalGraph::of(&s);
    for h in [Heuristic::MinDegree, Heuristic::MinFill] {
        let order = elimination_order(&pg, h);
        assert_eq!(order, rescan_order(&pg, h), "{h:?}");
        let td = decompose(&s, h);
        assert_eq!(td.validate(&s), Ok(()), "{h:?}");
        assert_eq!(
            shape(&td),
            shape(&decompose_with_order(&pg, &order)),
            "{h:?}"
        );
    }
}

/// Relabels the vertices of `g` by a random permutation, so that the
/// id tie-break is exercised away from construction order.
fn relabel(g: &Graph, seed: u64) -> Graph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..g.len() as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let mut h = Graph::new(g.len());
    for (a, b) in g.edges() {
        h.add_edge(perm[a as usize], perm[b as usize]);
    }
    h
}

/// Partial k-trees, k = 1..4, each edge kept with probability 0.6–1.0.
fn arb_partial_k_tree() -> impl Strategy<Value = Graph> {
    (1usize..=4, 0usize..=60, 60u32..=100, 0u64..u64::MAX).prop_map(|(k, extra, keep, seed)| {
        let mut rng = SmallRng::seed_from_u64(seed);
        partial_k_tree(&mut rng, k + 1 + extra, k, f64::from(keep) / 100.0).0
    })
}

/// Sparse graphs: fewer edges than vertices, so isolated vertices and
/// several components are the rule.
fn arb_sparse_graph() -> impl Strategy<Value = Graph> {
    (1usize..=40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..n).prop_map(move |edges| {
            let mut g = Graph::new(n);
            for (a, b) in edges {
                if a != b {
                    g.add_edge(a, b);
                }
            }
            g
        })
    })
}

/// Disjoint unions of up to four cliques and stars, randomly relabelled:
/// nearly every score is tied.
fn arb_cliques_and_stars() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec((0u8..2, 1usize..=8), 1..=4),
        0u64..u64::MAX,
    )
        .prop_map(|(parts, seed)| {
            let n = parts.iter().map(|&(_, size)| size).sum();
            let mut g = Graph::new(n);
            let mut base = 0u32;
            for (kind, size) in parts {
                let size = size as u32;
                for i in 0..size {
                    for j in i + 1..size {
                        // kind 0: clique; kind 1: star centred on `base`.
                        if kind == 0 || i == 0 {
                            g.add_edge(base + i, base + j);
                        }
                    }
                }
                base += size;
            }
            relabel(&g, seed)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn partial_k_trees_match_the_rescan_oracle(g in arb_partial_k_tree()) {
        check_against_oracle(&g);
    }

    #[test]
    fn sparse_graphs_match_the_rescan_oracle(g in arb_sparse_graph()) {
        check_against_oracle(&g);
    }

    #[test]
    fn cliques_and_stars_match_the_rescan_oracle(g in arb_cliques_and_stars()) {
        check_against_oracle(&g);
    }
}

#[test]
fn empty_graph_has_empty_order_and_one_empty_bag() {
    let g = PrimalGraph::from_edges(0, &[]);
    for h in [Heuristic::MinDegree, Heuristic::MinFill] {
        assert!(elimination_order(&g, h).is_empty());
    }
    let td = decompose_with_order(&g, &[]);
    assert_eq!(td.len(), 1);
    assert!(td.bag(td.root()).is_empty());
}

/// FNV-1a over the little-endian bytes of the order.
fn fnv(order: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in order {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The orders, widths and 3-colourability answer on one seeded partial
/// 3-tree. Every literal was measured with the rescanning implementation
/// that the incremental one replaced.
#[test]
fn seeded_partial_3_tree_orders_are_pinned() {
    let mut rng = SmallRng::seed_from_u64(15);
    let (g, _) = partial_k_tree(&mut rng, 600, 3, 0.85);
    let s = encode_graph(&g);
    let pg = PrimalGraph::of(&s);

    let order = elimination_order(&pg, Heuristic::MinFill);
    assert_eq!(
        order[..16],
        [36, 30, 79, 80, 87, 95, 100, 102, 110, 131, 135, 143, 111, 150, 152, 159]
    );
    assert_eq!(fnv(&order), 0x07b6_60d1_d9b0_9e5d);
    assert_eq!(decompose(&s, Heuristic::MinFill).width(), 4);

    let order = elimination_order(&pg, Heuristic::MinDegree);
    assert_eq!(
        order[..16],
        [152, 193, 202, 213, 216, 218, 288, 334, 368, 375, 389, 400, 401, 462, 467, 482]
    );
    assert_eq!(fnv(&order), 0x815d_1e74_b0c2_c5d1);
    assert_eq!(decompose(&s, Heuristic::MinDegree).width(), 3);

    assert!(!three_coloring_fpt(&g).0);
}
