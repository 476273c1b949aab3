//! `thm45_tau_td`: the Theorem 4.5 pipeline. Set-up compiles two MSO
//! queries to monadic datalog over τ_td; each forest is encoded as a
//! τ_td structure and evaluated by a quasi-guarded session (Theorem 4.4)
//! and by an indexed semi-naive session.

use crate::rng::{log_grid, Rng};
use crate::trace::{Mode, Tracer};
use crate::{count_eval_stats, Outcome, Workload};
use mdtw_datalog::{ground, EvalOptions, Evaluator, FdCatalog, Grounding, IdbId, IdbStore};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TdEncoding, TupleTd};
use mdtw_graph::{encode_graph, graph_signature, Graph};
use mdtw_mso::compile::compile_unary_filtered;
use mdtw_mso::{
    eval_unary, has_neighbor, isolated, Budget, CompileLimits, CompiledQuery, IndVar, Mso,
};
use mdtw_structure::{ElemId, Structure};
use std::sync::Arc;

/// Forests per pass, three requests each. Odd counts per kind and per
/// pass (75) put the p50 and p90 ranks in the middle of one request's
/// repeated samples.
const FORESTS_PER_PASS: usize = 25;
const FOREST_VERTICES: (usize, usize) = (32, 384);
/// Probability that a vertex hangs below an earlier vertex rather than
/// starting a new tree.
const ATTACH: f64 = 0.7;

struct Query {
    formula: Mso,
    compiled: CompiledQuery,
    qg: Evaluator,
    seminaive: Evaluator,
}

struct Forest {
    graph: Graph,
    query: usize,
    /// Naive MSO model checking of the query at every vertex.
    expected: Vec<bool>,
}

/// The quasi-guarded answer, kept until the semi-naive request on the
/// same structure compares against it.
enum QgAnswer {
    Store(IdbStore),
    Model(Grounding, Vec<bool>),
}

impl QgAnswer {
    fn holds(&self, pred: IdbId, args: &[ElemId]) -> bool {
        match self {
            QgAnswer::Store(s) => s.holds(pred, args),
            QgAnswer::Model(g, model) => g.atom_id(pred, args).is_some_and(|id| model[id as usize]),
        }
    }

    fn fact_count(&self) -> usize {
        match self {
            QgAnswer::Store(s) => s.fact_count(),
            QgAnswer::Model(_, model) => model.iter().filter(|&&b| b).count(),
        }
    }
}

#[derive(Clone, Copy)]
enum Step {
    TauTd,
    Qg,
    Seminaive,
}

pub struct Thm45 {
    queries: Vec<Query>,
    catalog: FdCatalog,
    forests: Vec<Forest>,
    order: Vec<(usize, Step)>,
    encoded: Option<(Structure, TdEncoding)>,
    qg_answer: Option<QgAnswer>,
}

fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

/// The Theorem 4.5 encoding: graph → τ-structure → min-degree
/// decomposition → width-1 normal form → τ_td structure.
fn encode_forest(g: &Graph, t: &mut Tracer) -> (Structure, TdEncoding) {
    let s = t.span("graph.encode", || encode_graph(g));
    let td = t.span("decomp.min_degree", || decompose(&s, Heuristic::MinDegree));
    let tuple_td = t
        .span("decomp.tuple_td", || {
            TupleTd::from_td_with_width(&td, s.domain().len(), 1)
        })
        .expect("a forest's min-degree decomposition has width 1");
    let enc = t.span("decomp.encode_tuple_td", || encode_tuple_td(&s, &tuple_td));
    (s, enc)
}

/// A random forest: each vertex after the first hangs below a uniformly
/// chosen earlier vertex with probability [`ATTACH`].
fn random_forest(rng: &mut Rng, n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        if rng.chance(ATTACH) {
            g.add_edge(rng.below(v) as u32, v as u32);
        }
    }
    g
}

impl Workload for Thm45 {
    const KINDS: [&'static str; 3] = ["qg", "seminaive", "tau_td"];
    /// Every second forest, before its `tau_td` request.
    const SETUP_EVERY: usize = 6;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let sig = Arc::new(graph_signature());
        // Any τ_td encoding of a graph carries the same FD catalogue.
        let (_, probe) = encode_forest(
            &Graph::from_edges(2, &[(0, 1)]),
            &mut Tracer::new(Mode::Entry),
        );
        let catalog = FdCatalog::for_td_signature(&probe.structure);
        let queries = [has_neighbor(), isolated()]
            .into_iter()
            .map(|formula| {
                let compiled = t
                    .span("mso.compile", || {
                        compile_unary_filtered(
                            &formula,
                            IndVar(0),
                            &sig,
                            1,
                            CompileLimits::default(),
                            &undirected,
                        )
                    })
                    .expect("width-1 compilation fits the default limits");
                t.count("mso.compiled_rules", compiled.program.rules.len());
                let qg = Evaluator::with_options(
                    compiled.program.clone(),
                    EvalOptions::new().fd_catalog(catalog.clone()),
                )
                .expect("compiled programs are quasi-guarded");
                let seminaive = Evaluator::new(compiled.program.clone()).expect("valid program");
                Query {
                    formula,
                    compiled,
                    qg,
                    seminaive,
                }
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        let forests = log_grid(FORESTS_PER_PASS, FOREST_VERTICES.0, FOREST_VERTICES.1)
            .into_iter()
            .enumerate()
            .map(|(i, n)| Forest {
                graph: random_forest(&mut rng, n),
                query: i % 2,
                expected: Vec::new(),
            })
            .collect();
        let mut forests_order: Vec<usize> = (0..FORESTS_PER_PASS).collect();
        rng.shuffle(&mut forests_order);
        let order = forests_order
            .into_iter()
            .flat_map(|f| [(f, Step::TauTd), (f, Step::Qg), (f, Step::Seminaive)])
            .collect();
        Thm45 {
            queries,
            catalog,
            forests,
            order,
            encoded: None,
            qg_answer: None,
        }
    }

    fn prepare_oracle(&mut self) {
        for f in &mut self.forests {
            let s = encode_graph(&f.graph);
            let phi = &self.queries[f.query].formula;
            f.expected = s
                .domain()
                .elems()
                .map(|v| {
                    eval_unary(phi, IndVar(0), &s, v, &mut Budget::unlimited()).expect("unbudgeted")
                })
                .collect();
        }
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn request(&mut self, i: usize, t: &mut Tracer) -> Outcome {
        let (f, step) = self.order[i];
        let forest = &self.forests[f];
        let query = &mut self.queries[forest.query];
        let phi = query.compiled.phi;
        match step {
            Step::TauTd => {
                let (encoded, nanos) = t.request("tau_td", |t| encode_forest(&forest.graph, t));
                let (base, enc) = &encoded;
                t.count("decomp.tau_td_atoms", enc.structure.atom_count());
                // The τ_td structure itself is checked through the answers
                // the next two requests compute from it.
                let ok = base.atom_count() == 2 * forest.graph.edge_count();
                let atoms = base.atom_count();
                self.encoded = Some(encoded);
                Outcome {
                    kind: 2,
                    atoms,
                    nanos,
                    ok,
                }
            }
            Step::Qg => {
                let (_, enc) = self.encoded.as_ref().expect("tau_td runs first");
                let s = &enc.structure;
                let catalog = &self.catalog;
                let (answer, nanos) = t.request("qg", |t| {
                    if !t.steps() {
                        return query.qg.evaluate(s).ok().map(|r| QgAnswer::Store(r.store));
                    }
                    // What the quasi-guarded session runs: ground, then
                    // solve the propositional Horn program. The session's
                    // last step, copying the model into an `IdbStore`,
                    // has no public entry and is left out.
                    let g = t
                        .span("datalog.ground", || {
                            ground(&query.compiled.program, s, catalog)
                        })
                        .ok()?;
                    let model = t.span("datalog.horn_solve", || g.horn.least_model());
                    t.count("datalog.guard_instantiations", g.stats.guard_instantiations);
                    t.count("datalog.ground_rules", g.stats.ground_rules);
                    t.count("datalog.ground_atoms", g.stats.ground_atoms);
                    Some(QgAnswer::Model(g, model))
                });
                let ok = answer
                    .as_ref()
                    .is_some_and(|a| matches_expected(forest, |v| a.holds(phi, &[v])));
                self.qg_answer = answer;
                Outcome {
                    kind: 0,
                    atoms: s.atom_count(),
                    nanos,
                    ok,
                }
            }
            Step::Seminaive => {
                let (_, enc) = self.encoded.as_ref().expect("tau_td runs first");
                let s = &enc.structure;
                let (result, nanos) = t.request("seminaive", |t| {
                    t.span("datalog.eval", || query.seminaive.evaluate(s))
                });
                let ok = match (result, self.qg_answer.take()) {
                    (Ok(r), Some(qg)) => {
                        count_eval_stats(t, &r.stats);
                        matches_expected(forest, |v| r.store.holds(phi, &[v]))
                            && stores_agree(&r.store, &qg, query.compiled.program.idb_arities.len())
                    }
                    _ => false,
                };
                Outcome {
                    kind: 1,
                    atoms: s.atom_count(),
                    nanos,
                    ok,
                }
            }
        }
    }
}

fn matches_expected(forest: &Forest, holds: impl Fn(ElemId) -> bool) -> bool {
    forest
        .expected
        .iter()
        .enumerate()
        .all(|(v, &want)| holds(ElemId(v as u32)) == want)
}

/// The semi-naive store and the quasi-guarded answer hold the same facts.
fn stores_agree(store: &IdbStore, qg: &QgAnswer, idbs: usize) -> bool {
    store.fact_count() == qg.fact_count()
        && (0..idbs as u32).all(|p| {
            store
                .relation(IdbId(p))
                .iter()
                .all(|args| qg.holds(IdbId(p), args))
        })
}
