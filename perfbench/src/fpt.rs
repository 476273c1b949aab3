//! `fpt_solvers`: the §5 solvers end to end — Figure 6 PRIMALITY on the
//! generated decomposition, §5.3 enumeration through min-fill, and
//! Figure 5 3-colourability through min-fill — with the datalog engine
//! idle.

use crate::rng::{log_grid, Rng};
use crate::trace::Tracer;
use crate::{Outcome, Workload};
use mdtw_core::{is_prime_fpt_with_td, prime_attributes_fpt, three_coloring_fpt};
use mdtw_core::{PrimalityContext, ThreeColSolver};
use mdtw_decomp::{decompose, Heuristic, NiceOptions, NiceTd, NodeId, TreeDecomposition};
use mdtw_graph::{encode_graph, is_proper_coloring, Graph};
use mdtw_schema::{encode_schema, AttrId, Schema, SchemaEncoding};
use mdtw_structure::ElemId;

/// Requests per pass. Odd counts per kind and per pass (105) put the p50
/// and p90 ranks in the middle of one request's repeated samples.
const PRIMALITY_PER_PASS: usize = 45;
const ENUMERATE_PER_PASS: usize = 25;
const THREE_COL_PER_PASS: usize = 35;
/// FD counts (= blocks) of the primality and enumeration schemas.
const PRIMALITY_FDS: (usize, usize) = (31, 511);
const ENUMERATE_FDS: (usize, usize) = (7, 127);
/// Vertex counts of the partial 3-trees.
const THREE_COL_VERTICES: (usize, usize) = (100, 600);
/// Edge survival probability of the unplanted partial 3-trees: high
/// enough that some 4-clique survives, so the answer is "no" in practice.
const UNPLANTED_KEEP: f64 = 0.9;

enum Request {
    Primality(usize),
    Enumerate(usize),
    ThreeCol(usize),
}

/// A Table 1 block-tree schema with its decomposition and known answer.
struct BlockTree {
    schema: Schema,
    encoding: SchemaEncoding,
    td: TreeDecomposition,
    /// Exactly the `u_i` and `v_i`, sorted.
    expected_primes: Vec<AttrId>,
}

struct PrimalityCase {
    inst: BlockTree,
    attr: AttrId,
}

struct ThreeColCase {
    graph: Graph,
    td: TreeDecomposition,
    planted: bool,
    /// The NFTA's answer on the generator's decomposition.
    expected: bool,
    /// `e` atoms of the encoding: both directions of every edge.
    atoms: usize,
}

pub struct FptSolvers {
    order: Vec<Request>,
    primality: Vec<PrimalityCase>,
    enumerate: Vec<BlockTree>,
    three_col: Vec<ThreeColCase>,
}

impl Workload for FptSolvers {
    const KINDS: [&'static str; 3] = ["primality", "enumerate", "three_col"];
    const SETUP_EVERY: usize = 50;

    fn setup(seed: u64, _t: &mut Tracer) -> Self {
        let mut rng = Rng::new(seed, 1);
        let primality = log_grid(PRIMALITY_PER_PASS, PRIMALITY_FDS.0, PRIMALITY_FDS.1)
            .into_iter()
            .map(|blocks| {
                let inst = block_tree(&mut rng, blocks);
                let attr = AttrId(rng.below(inst.schema.attr_count()) as u32);
                PrimalityCase { inst, attr }
            })
            .collect();
        let enumerate = log_grid(ENUMERATE_PER_PASS, ENUMERATE_FDS.0, ENUMERATE_FDS.1)
            .into_iter()
            .map(|blocks| block_tree(&mut rng, blocks))
            .collect();
        let three_col = log_grid(
            THREE_COL_PER_PASS,
            THREE_COL_VERTICES.0,
            THREE_COL_VERTICES.1,
        )
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let planted = i % 2 == 0;
            let (graph, td) = partial_3_tree(&mut rng, n, planted);
            ThreeColCase {
                atoms: 2 * graph.edge_count(),
                graph,
                td,
                planted,
                expected: false,
            }
        })
        .collect();
        let mut order: Vec<Request> = (0..PRIMALITY_PER_PASS)
            .map(Request::Primality)
            .chain((0..ENUMERATE_PER_PASS).map(Request::Enumerate))
            .chain((0..THREE_COL_PER_PASS).map(Request::ThreeCol))
            .collect();
        rng.shuffle(&mut order);
        FptSolvers {
            order,
            primality,
            enumerate,
            three_col,
        }
    }

    fn prepare_oracle(&mut self) {
        for case in &mut self.three_col {
            let nice = NiceTd::from_td(&case.td, NiceOptions::default());
            case.expected = mdtw_fta::nfta_3col(&case.graph, &nice);
            assert!(
                case.expected || !case.planted,
                "a planted colouring must make the graph 3-colourable"
            );
        }
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn request(&mut self, i: usize, t: &mut Tracer) -> Outcome {
        match self.order[i] {
            Request::Primality(k) => self.primality(k, t),
            Request::Enumerate(k) => self.enumerate(k, t),
            Request::ThreeCol(k) => self.three_col(k, t),
        }
    }
}

impl FptSolvers {
    fn primality(&self, k: usize, t: &mut Tracer) -> Outcome {
        let case = &self.primality[k];
        let (schema, attr) = (&case.inst.schema, case.attr);
        let td = case.inst.td.clone();
        let (prime, nanos) = t.request("primality", |t| {
            if !t.steps() {
                return is_prime_fpt_with_td(encode_schema(schema), td, attr);
            }
            // The steps of `is_prime_fpt_with_td`, one span each.
            let enc = t.span("schema.encode", || encode_schema(schema));
            let ctx = t.span("decomp.nice", || {
                PrimalityContext::for_decision(enc, td, attr)
            });
            let up = t.span("core.primality_up", || ctx.run_up());
            t.count("decomp.nice_nodes", ctx.nice.len());
            t.count("core.primality_up_states", up.iter().map(|s| s.len()).sum());
            let root = ctx.nice.root();
            ctx.accepts(root, &up[root.index()], ctx.encoding.elem_of_attr(attr))
        });
        Outcome {
            kind: 0,
            atoms: case.inst.encoding.structure.atom_count(),
            nanos,
            ok: prime == case.inst.expected_primes.contains(&attr),
        }
    }

    fn enumerate(&self, k: usize, t: &mut Tracer) -> Outcome {
        let inst = &self.enumerate[k];
        let (mut primes, nanos) = t.request("enumerate", |t| {
            if !t.steps() {
                return prime_attributes_fpt(&inst.schema);
            }
            // The steps of `prime_attributes_fpt`, one span each.
            let enc = t.span("schema.encode", || encode_schema(&inst.schema));
            let td = t.span("decomp.min_fill", || {
                decompose(&enc.structure, Heuristic::MinFill)
            });
            let ctx = t.span("decomp.nice", || PrimalityContext::from_parts(enc, td));
            let up = t.span("core.primality_up", || ctx.run_up());
            let down = t.span("core.primality_down", || ctx.run_down(&up));
            t.count("decomp.nice_nodes", ctx.nice.len());
            t.count("core.primality_up_states", up.iter().map(|s| s.len()).sum());
            t.count(
                "core.primality_down_states",
                down.iter().map(|s| s.len()).sum(),
            );
            // The acceptance sweep of `enumerate_primes` over the leaves.
            let mut prime = vec![false; inst.schema.attr_count()];
            for leaf in ctx.nice.leaves() {
                for &e in ctx.nice.bag(leaf) {
                    if let Some(a) = ctx.encoding.attr_of_elem(e) {
                        if !prime[a.index()] && ctx.accepts(leaf, &down[leaf.index()], e) {
                            prime[a.index()] = true;
                        }
                    }
                }
            }
            inst.schema.attrs().filter(|a| prime[a.index()]).collect()
        });
        primes.sort_unstable();
        Outcome {
            kind: 1,
            atoms: inst.encoding.structure.atom_count(),
            nanos,
            ok: primes == inst.expected_primes,
        }
    }

    fn three_col(&self, k: usize, t: &mut Tracer) -> Outcome {
        let case = &self.three_col[k];
        let g = &case.graph;
        let ((colourable, witness), nanos) = t.request("three_col", |t| {
            if !t.steps() {
                return three_coloring_fpt(g);
            }
            // The steps of `three_coloring_fpt`, one span each.
            let s = t.span("graph.encode", || encode_graph(g));
            let td = t.span("decomp.min_fill", || decompose(&s, Heuristic::MinFill));
            let nice = t.span("decomp.nice", || {
                NiceTd::from_td(&td, NiceOptions::default())
            });
            let solver = t.span("core.three_col_dp", || ThreeColSolver::run(g, &nice));
            t.count("decomp.nice_nodes", nice.len());
            t.count("core.three_col_states", solver.fact_count);
            let ok = solver.is_colorable();
            let witness = if ok {
                t.span("core.three_col_witness", || solver.witness())
            } else {
                None
            };
            (ok, witness)
        });
        let ok = colourable == case.expected
            && match witness {
                Some(colours) => colourable && is_proper_coloring(g, &colours, 3),
                None => !colourable,
            };
        Outcome {
            kind: 2,
            atoms: case.atoms,
            nanos,
            ok,
        }
    }
}

/// The Table 1 workload family (`mdtw_schema::block_tree_instance`):
/// block `i` has attributes `u_i`, `v_i`, `w_i` and the FD
/// `w_parent u_i v_i → w_i`, the blocks forming a balanced binary tree,
/// with the same width-3 decomposition-first bags. The seed shuffles the
/// order in which attributes and FDs are declared, so each seed gets a
/// differently numbered encoding. The `u_i`, `v_i` form the only key.
fn block_tree(rng: &mut Rng, blocks: usize) -> BlockTree {
    let mut slots: Vec<(usize, char)> = (0..blocks)
        .flat_map(|i| [(i, 'u'), (i, 'v'), (i, 'w')])
        .collect();
    rng.shuffle(&mut slots);
    let mut schema = Schema::new();
    let mut attr = vec![[AttrId(0); 3]; blocks];
    for (i, role) in slots {
        let id = schema.add_attr(format!("{role}{i}"));
        attr[i][(role as u8 - b'u') as usize] = id;
    }
    let [u, v, w] = [0, 1, 2].map(|r| attr.iter().map(|a| a[r]).collect::<Vec<_>>());
    let parent = |i: usize| (i - 1) / 2;
    let mut fd_order: Vec<usize> = (0..blocks).collect();
    rng.shuffle(&mut fd_order);
    let mut fd_of = vec![0; blocks];
    for (f, &i) in fd_order.iter().enumerate() {
        let mut lhs = vec![u[i], v[i]];
        if i > 0 {
            lhs.push(w[parent(i)]);
        }
        schema.add_fd(&lhs, w[i]);
        fd_of[i] = f;
    }
    let encoding = encode_schema(&schema);
    // Bags per block: top {w_parent, f_i, w_i} (root: {f_0, w_0}),
    // mid {f_i, w_i, u_i, v_i}, and iface {w_i}, where children attach.
    let ae = |a: AttrId| encoding.elem_of_attr(a);
    let fe = |i: usize| encoding.elem_of_fd(fd_of[i]);
    let mut td = TreeDecomposition::singleton(vec![fe(0), ae(w[0])]);
    let mut iface = Vec::with_capacity(blocks);
    for i in 0..blocks {
        let top = if i == 0 {
            td.root()
        } else {
            td.add_child(iface[parent(i)], vec![ae(w[parent(i)]), fe(i), ae(w[i])])
        };
        let mid = td.add_child(top, vec![fe(i), ae(w[i]), ae(u[i]), ae(v[i])]);
        iface.push(td.add_child(mid, vec![ae(w[i])]));
    }
    let mut expected_primes: Vec<AttrId> = u.iter().chain(&v).copied().collect();
    expected_primes.sort_unstable();
    BlockTree {
        schema,
        encoding,
        td,
        expected_primes,
    }
}

/// A random partial 3-tree on `n` vertices with the width-3 tree
/// decomposition built alongside it. Each new vertex joins a random
/// 3-clique. `planted`: every vertex gets a random colour and edges
/// between equal colours are dropped, so the graph is 3-colourable;
/// otherwise each edge survives with probability [`UNPLANTED_KEEP`].
fn partial_3_tree(rng: &mut Rng, n: usize, planted: bool) -> (Graph, TreeDecomposition) {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    for a in 0..4u32 {
        for b in a + 1..4 {
            edges.push((a, b));
        }
    }
    let mut td = TreeDecomposition::singleton((0..4).map(ElemId).collect());
    let mut cliques: Vec<([u32; 3], NodeId)> = Vec::new();
    for drop in 0..4u32 {
        let mut c = [0u32; 3];
        for (slot, v) in c.iter_mut().zip((0..4).filter(|&v| v != drop)) {
            *slot = v;
        }
        cliques.push((c, td.root()));
    }
    for v in 4..n as u32 {
        let (clique, host) = cliques[rng.below(cliques.len())];
        edges.extend(clique.iter().map(|&u| (u, v)));
        let mut bag: Vec<ElemId> = clique.iter().map(|&u| ElemId(u)).collect();
        bag.push(ElemId(v));
        let node = td.add_child(host, bag);
        for slot in 0..3 {
            let mut c = clique;
            c[slot] = v;
            cliques.push((c, node));
        }
    }
    let kept: Vec<(u32, u32)> = if planted {
        let colour: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
        edges
            .into_iter()
            .filter(|&(a, b)| colour[a as usize] != colour[b as usize])
            .collect()
    } else {
        edges
            .into_iter()
            .filter(|_| rng.chance(UNPLANTED_KEEP))
            .collect()
    };
    (Graph::from_edges(n, &kept), td)
}
