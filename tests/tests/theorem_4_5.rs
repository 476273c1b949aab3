//! End-to-end validation of the Theorem 4.5 pipeline: MSO query →
//! generic compilation → quasi-guarded monadic datalog over τ_td →
//! linear-time evaluation, cross-checked against the naive model checker
//! on randomized bounded-treewidth inputs.

use mdtw_datalog::{EvalOptions, Evaluator, FdCatalog};
use mdtw_decomp::{decompose, encode_tuple_td, Heuristic, TupleTd};
use mdtw_graph::{encode_graph, Graph};
use mdtw_mso::{
    compile::compile_unary_filtered, eval_unary, has_neighbor, isolated, Budget, CompileLimits,
    IndVar, Mso,
};
use mdtw_structure::{ElemId, Structure};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn undirected(s: &Structure) -> bool {
    let e = s.signature().lookup("e").expect("e");
    s.relation(e)
        .iter()
        .all(|t| t[0] != t[1] && s.holds(e, &[t[1], t[0]]))
}

/// A random forest on `n` vertices (treewidth ≤ 1).
fn random_forest(rng: &mut SmallRng, n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n as u32 {
        if rng.random::<f64>() < 0.7 {
            let parent = rng.random_range(0..v);
            g.add_edge(parent, v);
        }
    }
    g
}

fn check_query_on_forests(phi: &Mso, seed: u64) {
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        phi,
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .expect("width-1 compilation fits the limits");
    compiled.program.check_semipositive().unwrap();

    // One compiled program, many decomposition encodings: both paths run
    // as reused Evaluator sessions (created lazily on the first encoding,
    // whose τ_td signature is shared by all of them).
    let mut qg_session: Option<Evaluator> = None;
    let mut reference_session: Option<Evaluator> = None;

    let mut rng = SmallRng::seed_from_u64(seed);
    for i in 0..10 {
        let g = random_forest(&mut rng, 4 + i);
        let s = encode_graph(&g);
        let td = decompose(&s, Heuristic::MinDegree);
        let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
        assert_eq!(tuple_td.validate_normal_form(), Ok(()));
        let enc = encode_tuple_td(&s, &tuple_td);

        // Linear path: quasi-guarded grounding + LTUR.
        let qg_session = qg_session.get_or_insert_with(|| {
            let catalog = FdCatalog::for_td_signature(&enc.structure);
            Evaluator::with_options(
                compiled.program.clone(),
                EvalOptions::new().fd_catalog(catalog),
            )
            .expect("compiled programs are quasi-guarded")
        });
        let store = qg_session
            .evaluate(&enc.structure)
            .expect("compiled programs are quasi-guarded")
            .store;
        // Reference path: general semi-naive engine on the same program.
        let reference_session = reference_session
            .get_or_insert_with(|| Evaluator::new(compiled.program.clone()).unwrap());
        let reference = reference_session.evaluate(&enc.structure).unwrap().store;

        for v in s.domain().elems() {
            let expected = eval_unary(phi, IndVar(0), &s, v, &mut Budget::unlimited()).unwrap();
            assert_eq!(
                store.holds(compiled.phi, &[v]),
                expected,
                "instance {i}, vertex {v}, quasi-guarded"
            );
            assert_eq!(
                reference.holds(compiled.phi, &[v]),
                expected,
                "instance {i}, vertex {v}, semi-naive"
            );
        }
    }
}

#[test]
fn compiled_has_neighbor_matches_naive_mso() {
    check_query_on_forests(&has_neighbor(), 11);
}

#[test]
fn compiled_isolated_matches_naive_mso() {
    // ¬∃y (e(x,y) ∨ e(y,x)) — same depth, negated: exercises the type
    // partitioning (a type set and its complement feed `phi`).
    check_query_on_forests(&isolated(), 13);
}

#[test]
fn compiled_program_is_quasi_guarded_by_construction() {
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .unwrap();
    // Grounding must succeed for any valid τ_td input — the guard
    // analysis itself is input-independent, so one instance suffices.
    let g = Graph::from_edges(3, &[(0, 1)]);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, 3, 1).unwrap();
    let enc = encode_tuple_td(&s, &tuple_td);
    let catalog = FdCatalog::for_td_signature(&enc.structure);
    let grounding = mdtw_datalog::ground(&compiled.program, &enc.structure, &catalog).unwrap();
    // |P′| ≤ |P| · |𝒜| (Theorem 4.4's bound).
    assert!(grounding.horn.rules.len() <= compiled.program.rules.len() * enc.structure.size());
}

/// A regression pin on one seeded forest with compiled `has_neighbor`.
/// The ground program does not depend on which guard a rule is grounded
/// from, so its size and the `phi` answers are pinned exactly; the guard
/// instantiations must stay below the count of body-order guards.
#[test]
fn grounding_of_seeded_forest_is_pinned() {
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .unwrap();
    let g = random_forest(&mut SmallRng::seed_from_u64(45), 24);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
    let enc = encode_tuple_td(&s, &tuple_td);
    let catalog = FdCatalog::for_td_signature(&enc.structure);
    let grounding = mdtw_datalog::ground(&compiled.program, &enc.structure, &catalog).unwrap();
    let model = grounding.horn.least_model();
    let bits = |holds: &dyn Fn(ElemId) -> bool| -> String {
        s.domain()
            .elems()
            .map(|v| if holds(v) { '1' } else { '0' })
            .collect()
    };
    let answers = bits(&|v| {
        grounding
            .atom_id(compiled.phi, &[v])
            .is_some_and(|id| model[id as usize])
    });
    let naive =
        bits(&|v| eval_unary(&has_neighbor(), IndVar(0), &s, v, &mut Budget::unlimited()).unwrap());
    assert_eq!(answers, naive);
    assert_eq!(answers, "111110111110101010110010");
    let stats = grounding.stats;
    assert_eq!(stats.ground_rules, 21856);
    assert_eq!(stats.ground_atoms, 2072);
    // 51968: every rule grounded from its first valid guard in body
    // order, which in compiled programs is always a `bag` literal.
    assert!(
        stats.guard_instantiations < 51968,
        "{}",
        stats.guard_instantiations
    );
}

/// The semi-naive kernel on the pinned forest above. The fixpoint and the
/// work that derives it (facts, firings, negative checks) do not depend
/// on the join order, so they are pinned exactly; the tuples the joins
/// enumerate must stay below 22326, the count of the planner that ranked
/// every literal by bound count alone (functional probes first enumerates
/// 14714).
#[test]
fn seminaive_on_seeded_forest_is_pinned() {
    let sig = Arc::new(mdtw_graph::graph_signature());
    let compiled = compile_unary_filtered(
        &has_neighbor(),
        IndVar(0),
        &sig,
        1,
        CompileLimits::default(),
        &undirected,
    )
    .unwrap();
    let g = random_forest(&mut SmallRng::seed_from_u64(45), 24);
    let s = encode_graph(&g);
    let td = decompose(&s, Heuristic::MinDegree);
    let tuple_td = TupleTd::from_td_with_width(&td, s.domain().len(), 1).unwrap();
    let enc = encode_tuple_td(&s, &tuple_td);
    let mut session = Evaluator::new(compiled.program.clone()).unwrap();
    let result = session.evaluate(&enc.structure).unwrap();
    let answers: String = s
        .domain()
        .elems()
        .map(|v| {
            if result.store.holds(compiled.phi, &[v]) {
                '1'
            } else {
                '0'
            }
        })
        .collect();
    assert_eq!(answers, "111110111110101010110010");
    let stats = result.stats;
    assert_eq!(stats.facts, 144);
    assert_eq!(stats.firings, 261);
    assert_eq!(stats.negative_checks, 808);
    assert!(
        stats.tuples_considered < 22326,
        "{}",
        stats.tuples_considered
    );
}
