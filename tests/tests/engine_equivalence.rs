//! Property test: the indexed semi-naive engine, through one reused
//! `Evaluator` session (plan cache cold and warm), computes exactly the
//! least fixpoint of the brute-force [`oracle`] on randomly generated
//! semipositive programs over randomly generated structures. The oracle
//! enumerates every variable assignment and shares no join code with the
//! engine. Deterministic pins cover multi-position index keys and the
//! quasi-guarded engine.

use mdtw_datalog::{Engine, EvalOptions, Evaluator, IdbId};
use mdtw_structure::{Domain, ElemId, Signature, Structure};
use mdtw_tests::{build_program, build_structure, oracle};
use proptest::collection::vec;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pin of indexed-vs-oracle agreement on a program whose
/// joins carry multi-position index keys over a ternary relation: the
/// recursive rule binds two of `t`'s argument positions before the
/// probe, and the projection rule probes `t` on all three. Exercises the
/// packed multi-`ElemId` key path of [`mdtw_structure::PosIndex`], which
/// the random generator (arities ≤ 2) cannot reach.
#[test]
fn multi_position_keys_agree_across_engines_arity_3() {
    use mdtw_datalog::parse_program;

    let sig = Arc::new(Signature::from_pairs([("t", 3)]));
    let n = 9u32;
    let dom = Domain::anonymous(n as usize);
    let mut s = Structure::new(sig, dom);
    let t = s.signature().lookup("t").unwrap();
    for i in 0..n {
        s.insert(t, &[ElemId(i), ElemId((i + 1) % n), ElemId((i + 2) % n)]);
        s.insert(t, &[ElemId(i), ElemId(i), ElemId((i * i) % n)]);
    }
    let p = parse_program(
        "tri(X, Y, Z) :- t(X, Y, Z).\n\
         tri(X, W, Z) :- tri(X, Y, W), t(Y, W, Z).\n\
         pin(X, Z) :- tri(X, Y, Z), t(X, Y, Z).",
        &s,
    )
    .unwrap();

    let expected = oracle(&p, &s);
    let indexed = Evaluator::new(p.clone()).unwrap().evaluate(&s).unwrap();
    for name in ["tri", "pin"] {
        let id = p.idb(name).unwrap();
        assert!(!expected[id.index()].is_empty(), "{name} must derive facts");
        assert_eq!(
            indexed.store.tuples(id),
            expected[id.index()],
            "indexed vs oracle: {name}"
        );
    }
    assert_eq!(
        indexed.stats.facts,
        expected.iter().map(Vec::len).sum::<usize>()
    );
    assert!(
        indexed.stats.index_probes > 0,
        "multi-position joins must probe, not scan"
    );
    assert!(indexed.stats.tuples_considered > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// One reused indexed session per random program/structure: the
    /// cold and the warm evaluation both match the oracle, agree on
    /// every work counter but the cache hit, and the warm one reuses the
    /// compiled plans.
    #[test]
    fn engines_compute_identical_fixpoints(
        n in 2usize..6,
        edges in vec((0u8..8, 0u8..8), 0..10),
        marks in vec(0u8..8, 0..4),
        raw_rules in vec(
            (
                0u8..4,
                (0u8..8, 0u8..8),
                vec((0u8..8, 0u8..8, 0u8..8), 1..4),
                (0u8..6, 0u8..8, 0u8..8),
            ),
            1..5,
        ),
    ) {
        let s = build_structure(n, &edges, &marks);
        let p = build_program(&raw_rules, &s);
        let expected = oracle(&p, &s);
        let mut session = Evaluator::new(p.clone()).unwrap();
        let cold = session.evaluate(&s).unwrap();
        let warm = session.evaluate(&s).unwrap();

        for (idb, expected_tuples) in expected.iter().enumerate() {
            let id = IdbId(idb as u32);
            prop_assert_eq!(&cold.store.tuples(id), expected_tuples, "cold vs oracle, idb {}", idb);
            prop_assert_eq!(&warm.store.tuples(id), expected_tuples, "warm vs oracle, idb {}", idb);
        }
        let total: usize = expected.iter().map(Vec::len).sum();
        prop_assert_eq!(cold.store.fact_count(), total);
        prop_assert_eq!(cold.stats.facts, total);
        prop_assert_eq!(cold.stats.plan_cache_hits, 0, "session cache starts cold");
        prop_assert!(
            warm.stats.plan_cache_hits > 0,
            "reused session must reuse compiled plans"
        );
        prop_assert_eq!(
            mdtw_datalog::EvalStats { plan_cache_hits: 0, ..warm.stats },
            cold.stats
        );
    }
}

/// The quasi-guarded session against the free grounding functions it is
/// built from: [`mdtw_datalog::ground`] plus the LTUR least model of the
/// ground Horn program, decoded by hand, on the chain-reachability
/// workload of Theorem 4.4 (the random generator declares no functional
/// dependencies, so it cannot produce quasi-guarded programs), cache
/// cold and warm.
#[test]
fn quasi_guarded_session_matches_free_function() {
    use mdtw_datalog::{ground, parse_program, FdCatalog};

    let sig = Arc::new(Signature::from_pairs([("next", 2), ("first", 1)]));
    let n = 40usize;
    let dom = Domain::anonymous(n);
    let mut s = Structure::new(sig, dom);
    let next = s.signature().lookup("next").unwrap();
    let first = s.signature().lookup("first").unwrap();
    s.insert(first, &[ElemId(0)]);
    for i in 0..n - 1 {
        s.insert(next, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
    }
    let p = parse_program(
        "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).\n\
         inner(X) :- reach(X), next(X, Y), !first(X).",
        &s,
    )
    .unwrap();
    let mut catalog = FdCatalog::new();
    catalog.declare(next, vec![0], vec![1]);
    catalog.declare(next, vec![1], vec![0]);

    let grounding = ground(&p, &s, &catalog).unwrap();
    let model = grounding.horn.least_model();
    let free_holds = |name: &str, x: ElemId| {
        grounding
            .atom_id(p.idb(name).unwrap(), &[x])
            .is_some_and(|a| model[a as usize])
    };
    let mut session =
        Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(catalog)).unwrap();
    assert_eq!(session.engine(), Engine::QuasiGuarded);
    let cold = session.evaluate(&s).unwrap();
    let warm = session.evaluate(&s).unwrap();
    for name in ["reach", "inner"] {
        let id = p.idb(name).unwrap();
        let free: Vec<ElemId> = s
            .domain()
            .elems()
            .filter(|&x| free_holds(name, x))
            .collect();
        assert!(!free.is_empty(), "{name} must derive facts");
        assert_eq!(free, cold.store.unary(id), "{name} cold");
        assert_eq!(free, warm.store.unary(id), "{name} warm");
    }
    for r in [&cold, &warm] {
        let qg = r.qg.expect("quasi-guarded sessions report QgStats");
        assert_eq!(qg.ground_rules, grounding.stats.ground_rules);
        assert_eq!(qg.ground_atoms, grounding.stats.ground_atoms);
    }
}
