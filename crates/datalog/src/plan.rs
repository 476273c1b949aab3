//! Join planning for the indexed evaluation engine.
//!
//! Per rule, the planner orders the positive body literals greedily and
//! records, for every literal, which secondary index
//! ([`mdtw_structure::PosIndex`]) it probes: the key positions are exactly
//! the argument positions held by a constant or by a variable bound at an
//! earlier step. Negative literals are scheduled at the first step after
//! which all their variables are bound, so failing branches are pruned as
//! early as possible.
//!
//! The greedy order is *functional probes first*. A bound literal whose
//! probe is functional — every argument position bound, or an estimated
//! probe of at most one row — goes before any non-functional literal,
//! whatever their bound counts: it can at most confirm the bindings or
//! extend them by one tuple, so it never multiplies the partial results.
//! Under [`StructureStats`] an estimate of at most one row means the
//! relation has as many distinct keys at the probed positions as rows,
//! which is an exact functional-dependency test on the data (the
//! `child1`/`child2`/`bag` relations of a τ_td encoding are keyed by
//! node, so the Theorem 4.5 programs are joined along these
//! dependencies). Below that split, literals are ranked by bound-argument
//! count, then by cardinality, then by body order. A [`CardEstimator`]
//! supplies relation sizes ([`Relation::len`]) and probe selectivities
//! (relation size over [`PosIndex::key_count`]). [`plan_program`] plans
//! without statistics ([`NoEstimates`]: only fully bound probes count as
//! functional, and ties fall back to body order); [`plan_program_with`]
//! takes real statistics, usually [`StructureStats`] wrapping the
//! structure under evaluation, and asks the estimator at most once per
//! `(predicate, positions)` pair. In the *base* plan (executed only in
//! round 0, where every intensional relation is still empty) intensional
//! literals cost 0 by definition, so recursive rules short-circuit on an
//! empty scan instead of enumerating their extensional atoms first.
//!
//! For semi-naive evaluation the planner additionally produces one *delta
//! plan* per positive intensional body literal: that literal is forced to
//! the front of the join order (the delta is the smallest relation in the
//! round) and the evaluator reads it from the per-predicate delta store.
//!
//! The stratified pipeline plans each stratum after rewriting
//! lower-stratum predicates to materialized extensional relations, so
//! those literals — including the negated ones — arrive here as ordinary
//! EDB atoms with real [`StructureStats`] cardinalities behind them.
//!
//! [`Relation::len`]: mdtw_structure::Relation::len
//! [`PosIndex::key_count`]: mdtw_structure::PosIndex::key_count

use crate::ast::{PredRef, Program, Rule, Term};
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::Structure;
use std::cell::RefCell;
use std::cmp::Reverse;

/// How a positive body literal is matched at its step of the join order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// No argument position is bound when the literal runs: enumerate the
    /// whole relation.
    Scan,
    /// Probe the secondary index on `positions` (the argument positions
    /// bound by constants or by variables of earlier steps).
    Probe {
        /// Indexed argument positions, in key order.
        positions: Vec<usize>,
    },
}

/// One step of a rule's join order.
#[derive(Debug, Clone)]
pub struct JoinStep {
    /// Index of the positive literal in the rule body.
    pub literal: usize,
    /// Access path used to enumerate candidate tuples.
    pub access: Access,
    /// Negative body literals whose variables are all bound once this
    /// step's atom is matched; checked immediately after the match.
    pub negatives_after: Vec<usize>,
}

/// A compiled join plan for one rule.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Steps over the positive body literals, in execution order.
    pub steps: Vec<JoinStep>,
    /// Negative body literals without variables, checked before any step.
    pub ground_negatives: Vec<usize>,
}

/// All plans of one rule.
#[derive(Debug, Clone)]
pub struct RulePlans {
    /// The unconstrained plan (round 0 of semi-naive evaluation).
    pub base: JoinPlan,
    /// One `(body literal index, plan)` pair per positive intensional body
    /// literal; the plan joins that literal first, reading it from the
    /// delta store.
    pub delta: Vec<(usize, JoinPlan)>,
}

/// Cardinality and selectivity estimates feeding the planner's
/// functional-probe test and its tie-breaks. `None` means "unknown";
/// unknown literals sort after every literal with a known estimate and
/// tie among themselves by body order.
pub trait CardEstimator {
    /// Estimated number of tuples of `pred`'s relation.
    fn relation_len(&self, pred: PredRef) -> Option<usize>;

    /// Estimated number of rows a probe of `pred` on the index over
    /// `positions` returns.
    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize>;
}

/// The statistics-free estimator: everything is unknown, so greedy ties
/// are broken by body order alone (the pre-cost-model behavior, and the
/// deterministic default of [`plan_program`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoEstimates;

impl CardEstimator for NoEstimates {
    fn relation_len(&self, _pred: PredRef) -> Option<usize> {
        None
    }
    fn probe_len(&self, _pred: PredRef, _positions: &[usize]) -> Option<usize> {
        None
    }
}

/// Real statistics from the structure under evaluation: extensional
/// cardinalities come from [`Relation::len`] and probe selectivities from
/// `len / distinct keys` at the probed positions
/// ([`Relation::distinct_key_count`]: the cached index's exact
/// [`PosIndex::key_count`] when evaluation already built it, otherwise a
/// one-shot count that leaves no index behind for access paths the
/// planner ends up rejecting). Intensional relations are unknown — their
/// size varies by round.
///
/// [`Relation::len`]: mdtw_structure::Relation::len
/// [`Relation::distinct_key_count`]: mdtw_structure::Relation::distinct_key_count
/// [`PosIndex::key_count`]: mdtw_structure::PosIndex::key_count
#[derive(Debug, Clone, Copy)]
pub struct StructureStats<'a> {
    structure: &'a Structure,
}

impl<'a> StructureStats<'a> {
    /// Wraps the structure the program will be evaluated over.
    pub fn new(structure: &'a Structure) -> Self {
        Self { structure }
    }
}

impl CardEstimator for StructureStats<'_> {
    fn relation_len(&self, pred: PredRef) -> Option<usize> {
        match pred {
            PredRef::Edb(p) => Some(self.structure.relation(p).len()),
            PredRef::Idb(_) => None,
        }
    }

    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
        match pred {
            PredRef::Edb(p) => {
                let rel = self.structure.relation(p);
                if rel.is_empty() {
                    return Some(0);
                }
                let keys = rel.distinct_key_count(positions).max(1);
                Some(rel.len().div_ceil(keys))
            }
            PredRef::Idb(_) => None,
        }
    }
}

/// Plans every rule of `program` without cardinality statistics.
pub fn plan_program(program: &Program) -> Vec<RulePlans> {
    plan_program_with(program, &NoEstimates)
}

/// Plans every rule of `program` with the statistics of `est`. Each
/// `(predicate, positions)` estimate is asked of `est` at most once per
/// call, however many rules and candidate steps need it.
pub fn plan_program_with(program: &Program, est: &dyn CardEstimator) -> Vec<RulePlans> {
    let memo = MemoEstimator::new(est);
    program
        .rules
        .iter()
        .map(|r| plan_rule_with(r, &memo))
        .collect()
}

/// Memoizes an estimator for the span of one planning call. The greedy
/// planner costs the same `(predicate, positions)` pair once per rule
/// and candidate step, and [`StructureStats`] answers a probe estimate
/// with a full pass over the relation unless evaluation already built
/// that index, so an unmemoized plan of a large compiled program spends
/// longer in statistics than in evaluation. A relation-size query is keyed by the
/// empty position list (probes always have at least one position).
struct MemoEstimator<'a> {
    inner: &'a dyn CardEstimator,
    seen: RefCell<FxHashMap<EstimateKey, Option<usize>>>,
}

/// A memoized estimate's key: the predicate and the probed positions.
type EstimateKey = (PredRef, Vec<usize>);

impl<'a> MemoEstimator<'a> {
    fn new(inner: &'a dyn CardEstimator) -> Self {
        Self {
            inner,
            seen: RefCell::default(),
        }
    }

    fn get(
        &self,
        pred: PredRef,
        positions: &[usize],
        ask: impl FnOnce() -> Option<usize>,
    ) -> Option<usize> {
        *self
            .seen
            .borrow_mut()
            .entry((pred, positions.to_vec()))
            .or_insert_with(ask)
    }
}

impl CardEstimator for MemoEstimator<'_> {
    fn relation_len(&self, pred: PredRef) -> Option<usize> {
        self.get(pred, &[], || self.inner.relation_len(pred))
    }

    fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
        self.get(pred, positions, || self.inner.probe_len(pred, positions))
    }
}

/// Plans a single rule without cardinality statistics.
pub fn plan_rule(rule: &Rule) -> RulePlans {
    plan_rule_with(rule, &NoEstimates)
}

/// Plans a single rule: the base plan plus one delta plan per positive
/// intensional body literal.
pub fn plan_rule_with(rule: &Rule, est: &dyn CardEstimator) -> RulePlans {
    let idb_positions: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.positive && matches!(l.atom.pred, PredRef::Idb(_)))
        .map(|(i, _)| i)
        .collect();
    RulePlans {
        base: plan_with_first(rule, None, est),
        delta: idb_positions
            .into_iter()
            .map(|pos| (pos, plan_with_first(rule, Some(pos), est)))
            .collect(),
    }
}

/// Plans the incremental seed passes of every rule: one
/// `(body literal index, plan)` pair per positive *extensional* body
/// literal, with that literal forced to the front of the join order —
/// the EDB twin of [`RulePlans::delta`], used by incremental maintenance
/// to join a batch's inserted base tuples first (the insertion delta is
/// the smallest relation of the pass).
pub(crate) fn plan_edb_deltas(
    program: &Program,
    est: &dyn CardEstimator,
) -> Vec<Vec<(usize, JoinPlan)>> {
    let memo = MemoEstimator::new(est);
    program
        .rules
        .iter()
        .map(|rule| {
            rule.body
                .iter()
                .enumerate()
                .filter(|(_, l)| l.positive && matches!(l.atom.pred, PredRef::Edb(_)))
                .map(|(i, _)| (i, plan_with_first(rule, Some(i), &memo)))
                .collect()
        })
        .collect()
}

/// The estimated number of tuples enumerating literal `li` would yield
/// with the positions in `bp` bound. In the base plan (`first` is
/// `None`), intensional relations are empty by definition of round 0, so
/// their cost is 0 regardless of the estimator; everywhere else unknown
/// estimates sort last (`usize::MAX`).
fn candidate_cost(
    rule: &Rule,
    li: usize,
    bp: &[usize],
    base_plan: bool,
    est: &dyn CardEstimator,
) -> usize {
    let pred = rule.body[li].atom.pred;
    if base_plan && matches!(pred, PredRef::Idb(_)) {
        return 0;
    }
    let cost = if bp.is_empty() {
        est.relation_len(pred)
    } else {
        est.probe_len(pred, bp)
    };
    cost.unwrap_or(usize::MAX)
}

/// Greedy planner. `first`, if set, forces that body literal to the front
/// (used for delta literals).
fn plan_with_first(rule: &Rule, first: Option<usize>, est: &dyn CardEstimator) -> JoinPlan {
    let nvars = rule.var_count as usize;
    let mut bound = vec![false; nvars];

    let mut remaining: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(i, l)| l.positive && Some(*i) != first)
        .map(|(i, _)| i)
        .collect();
    let negatives: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.positive)
        .map(|(i, _)| i)
        .collect();

    let mut neg_emitted = vec![false; rule.body.len()];
    let mut ground_negatives = Vec::new();
    for &ni in &negatives {
        if rule.body[ni].atom.vars().next().is_none() {
            ground_negatives.push(ni);
            neg_emitted[ni] = true;
        }
    }

    let mut steps = Vec::new();
    let mut push_step = |li: usize, bound: &mut Vec<bool>, neg_emitted: &mut Vec<bool>| {
        let access = access_for(rule, li, bound);
        for v in rule.body[li].atom.vars() {
            bound[v.index()] = true;
        }
        let negatives_after: Vec<usize> = negatives
            .iter()
            .copied()
            .filter(|&ni| !neg_emitted[ni] && rule.body[ni].atom.vars().all(|v| bound[v.index()]))
            .collect();
        for &ni in &negatives_after {
            neg_emitted[ni] = true;
        }
        steps.push(JoinStep {
            literal: li,
            access,
            negatives_after,
        });
    };

    let base_plan = first.is_none();
    if let Some(li) = first {
        push_step(li, &mut bound, &mut neg_emitted);
    }
    while !remaining.is_empty() {
        // Greedy: a functional probe (at most one matching row: fully
        // bound, or costed at ≤ 1, which includes the empty intensional
        // relations of the base plan) next, whatever its bound count;
        // then the literal with the most bound argument positions; ties
        // broken by estimated enumeration cost, then by body order
        // (stable ordering for reproducibility).
        let (slot, _) = remaining
            .iter()
            .enumerate()
            .min_by_key(|&(slot, &li)| {
                let bp = bound_positions(rule, li, &bound);
                let cost = candidate_cost(rule, li, &bp, base_plan, est);
                let functional =
                    !bp.is_empty() && (bp.len() == rule.body[li].atom.terms.len() || cost <= 1);
                (!functional, Reverse(bp.len()), cost, slot)
            })
            .expect("remaining non-empty");
        let li = remaining.remove(slot);
        push_step(li, &mut bound, &mut neg_emitted);
    }

    // Every negative literal must have been scheduled (safety: all its
    // variables occur in positive literals, which are all bound by now).
    // Failing loudly here keeps hand-built unsafe programs from being
    // silently evaluated as if the unschedulable negation were absent.
    assert!(
        negatives.iter().all(|&ni| neg_emitted[ni]),
        "unsafe rule: a negative literal's variable occurs in no positive body literal"
    );

    JoinPlan {
        steps,
        ground_negatives,
    }
}

/// The argument positions of body literal `li` that are bound under
/// `bound`: constants, plus variables already bound by earlier steps.
fn bound_positions(rule: &Rule, li: usize, bound: &[bool]) -> Vec<usize> {
    rule.body[li]
        .atom
        .terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound[v.index()],
        })
        .map(|(p, _)| p)
        .collect()
}

fn access_for(rule: &Rule, li: usize, bound: &[bool]) -> Access {
    let positions = bound_positions(rule, li, bound);
    if positions.is_empty() {
        Access::Scan
    } else {
        Access::Probe { positions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, ElemId, Signature, Structure};
    use std::sync::Arc;

    fn edge_structure() -> Structure {
        let sig = Arc::new(Signature::from_pairs([("e", 2)]));
        let dom = Domain::anonymous(4);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        s
    }

    #[test]
    fn linear_rule_probes_on_join_variable() {
        let s = edge_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).",
            &s,
        )
        .unwrap();
        let plans = plan_program(&p);
        // Recursive rule, delta plan for the `path` literal (body index 0):
        // `path` first (scan of the delta), then `e` probed on position 0
        // (its first argument Y is bound by the delta literal).
        let (pos, plan) = &plans[1].delta[0];
        assert_eq!(*pos, 0);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].literal, 0);
        assert_eq!(plan.steps[0].access, Access::Scan);
        assert_eq!(plan.steps[1].literal, 1);
        assert_eq!(plan.steps[1].access, Access::Probe { positions: vec![0] });
    }

    #[test]
    fn greedy_order_prefers_most_bound() {
        let s = edge_structure();
        // Base plan (= round 0, where intensional relations are empty by
        // definition): sg(X,Y) costs 0 and goes first, its empty scan
        // short-circuiting the round-0 pass; then e(X,Y) (two bound
        // positions) before the unbound literals.
        let p = parse_program(
            "sg(X, Y) :- e(X, Y).\nq(X) :- e(X, Y), e(Z, W), sg(X, Y), sg(Z, W).",
            &s,
        )
        .unwrap();
        let rule = p.rules.last().unwrap();
        let plans = plan_rule(rule);
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![2, 0, 3, 1]);
        assert_eq!(
            plans.base.steps[1].access,
            Access::Probe {
                positions: vec![0, 1]
            }
        );
    }

    #[test]
    fn cardinality_estimates_break_ties() {
        use mdtw_structure::{Domain, Signature};
        // big/2 has 9 tuples, small/2 has 1; at equal bound count the
        // statistics-aware planner starts from the smaller relation,
        // while the statistics-free planner keeps body order.
        let sig = Arc::new(Signature::from_pairs([("big", 2), ("small", 2)]));
        let dom = Domain::anonymous(10);
        let mut s = Structure::new(sig, dom);
        let big = s.signature().lookup("big").unwrap();
        let small = s.signature().lookup("small").unwrap();
        for i in 0..9u32 {
            s.insert(big, &[ElemId(i), ElemId(i + 1)]);
        }
        s.insert(small, &[ElemId(0), ElemId(1)]);
        let p = parse_program("q(X) :- big(X, Y), small(Y, Z).", &s).unwrap();

        let blind = plan_rule(&p.rules[0]);
        let blind_order: Vec<usize> = blind.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(blind_order, vec![0, 1]);

        let plans = plan_rule_with(&p.rules[0], &StructureStats::new(&s));
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![1, 0], "smaller relation joins first");
        assert_eq!(
            plans.base.steps[1].access,
            Access::Probe { positions: vec![1] }
        );
    }

    #[test]
    fn probe_selectivity_prefers_more_distinct_keys() {
        use mdtw_structure::{Domain, Signature};
        // Both relations have 8 tuples; `sel`'s first column has 8
        // distinct keys (probe yields ~1 row), `dup`'s only 1 (probe
        // yields all 8). With X bound, the planner probes `sel` first.
        let sig = Arc::new(Signature::from_pairs([("dup", 2), ("sel", 2), ("u", 1)]));
        let dom = Domain::anonymous(10);
        let mut s = Structure::new(sig, dom);
        let dup = s.signature().lookup("dup").unwrap();
        let sel = s.signature().lookup("sel").unwrap();
        let u = s.signature().lookup("u").unwrap();
        for i in 0..8u32 {
            s.insert(dup, &[ElemId(0), ElemId(i)]);
            s.insert(sel, &[ElemId(i), ElemId(i)]);
        }
        s.insert(u, &[ElemId(0)]);
        let p = parse_program("q(X) :- u(X), dup(X, Y), sel(X, Z).", &s).unwrap();
        let plans = plan_rule_with(&p.rules[0], &StructureStats::new(&s));
        let order: Vec<usize> = plans.base.steps.iter().map(|st| st.literal).collect();
        assert_eq!(order, vec![0, 2, 1], "selective probe scheduled first");
    }

    /// A miniature of the τ_td branch-rule shape: `bag` is keyed by node
    /// (its first column is functional) but every node has the same bag
    /// contents, and `child1` is keyed by parent. Once `V, X0, X1` are
    /// bound, `bag(W, X0, X1)` has two bound positions and a fanout of 8,
    /// `child1(W, V)` one bound position and a fanout of 1.
    fn tau_td_miniature() -> (Structure, Program) {
        use mdtw_structure::{Domain, Signature};
        let sig = Arc::new(Signature::from_pairs([("bag", 3), ("child1", 2)]));
        let dom = Domain::anonymous(10);
        let mut s = Structure::new(sig, dom);
        let bag = s.signature().lookup("bag").unwrap();
        let child1 = s.signature().lookup("child1").unwrap();
        for v in 0..8u32 {
            s.insert(bag, &[ElemId(v), ElemId(8), ElemId(9)]);
        }
        for v in 0..7u32 {
            s.insert(child1, &[ElemId(v + 1), ElemId(v)]);
        }
        let p = parse_program(
            "p(V) :- bag(V, X0, X1).\n\
             q(V) :- p(V), bag(V, X0, X1), bag(W, X0, X1), child1(W, V).",
            &s,
        )
        .unwrap();
        (s, p)
    }

    fn order(plan: &JoinPlan) -> Vec<usize> {
        plan.steps.iter().map(|st| st.literal).collect()
    }

    #[test]
    fn functional_probe_goes_before_more_bound_positions() {
        let (s, p) = tau_td_miniature();
        let plans = plan_rule_with(&p.rules[1], &StructureStats::new(&s));
        let (pos, plan) = &plans.delta[0];
        assert_eq!(*pos, 0);
        assert_eq!(order(plan), vec![0, 1, 3, 2], "child1 before bag(W, ..)");
        assert_eq!(plan.steps[2].access, Access::Probe { positions: vec![1] });
        assert_eq!(
            plan.steps[3].access,
            Access::Probe {
                positions: vec![0, 1, 2]
            }
        );
    }

    #[test]
    fn without_estimates_only_bound_count_orders_the_miniature() {
        let (_, p) = tau_td_miniature();
        let plans = plan_rule(&p.rules[1]);
        assert_eq!(order(&plans.delta[0].1), vec![0, 1, 2, 3]);
        assert_eq!(order(&plans.base), vec![0, 1, 2, 3]);
    }

    #[test]
    fn fully_bound_idb_literal_is_scheduled_once_its_variables_are_bound() {
        use mdtw_structure::{Domain, Signature};
        let sig = Arc::new(Signature::from_pairs([("e", 2), ("r", 3)]));
        let dom = Domain::anonymous(6);
        let mut s = Structure::new(sig, dom);
        let e = s.signature().lookup("e").unwrap();
        let r = s.signature().lookup("r").unwrap();
        s.insert(e, &[ElemId(0), ElemId(1)]);
        for x in 0..4u32 {
            s.insert(r, &[ElemId(0), ElemId(1), ElemId(x + 2)]);
        }
        let p = parse_program(
            "p(V) :- e(V, W).\nq(V) :- p(V), e(V, W), r(V, W, X), p(W).",
            &s,
        )
        .unwrap();
        // Delta plan on p(V): after e(V, W), p(W) is fully bound with one
        // position, r(V, W, X) has two bound positions; the membership
        // test p(W) goes first, with or without statistics.
        for plans in [
            plan_rule(&p.rules[1]),
            plan_rule_with(&p.rules[1], &StructureStats::new(&s)),
        ] {
            let (pos, plan) = &plans.delta[0];
            assert_eq!(*pos, 0);
            assert_eq!(order(plan), vec![0, 1, 3, 2]);
            assert_eq!(plan.steps[2].access, Access::Probe { positions: vec![0] });
        }
    }

    /// Counts every question asked of the wrapped estimator, keyed by
    /// `(predicate, positions, is a probe)`.
    struct CountingEstimator<'a> {
        inner: StructureStats<'a>,
        asked: RefCell<FxHashMap<(EstimateKey, bool), usize>>,
    }

    impl CardEstimator for CountingEstimator<'_> {
        fn relation_len(&self, pred: PredRef) -> Option<usize> {
            *self
                .asked
                .borrow_mut()
                .entry(((pred, Vec::new()), false))
                .or_default() += 1;
            self.inner.relation_len(pred)
        }
        fn probe_len(&self, pred: PredRef, positions: &[usize]) -> Option<usize> {
            *self
                .asked
                .borrow_mut()
                .entry(((pred, positions.to_vec()), true))
                .or_default() += 1;
            self.inner.probe_len(pred, positions)
        }
    }

    #[test]
    fn program_planning_asks_each_estimate_once() {
        let (s, p) = tau_td_miniature();
        let counting = CountingEstimator {
            inner: StructureStats::new(&s),
            asked: RefCell::default(),
        };
        let memoized = plan_program_with(&p, &counting);
        let asked = counting.asked.into_inner();
        assert!(asked.len() >= 3, "{asked:?}");
        for (key, times) in &asked {
            assert_eq!(*times, 1, "{key:?} asked {times} times");
        }
        // The memo changes how often the estimator is asked, not what the
        // planner decides.
        for (rule, plans) in p.rules.iter().zip(&memoized) {
            let direct = plan_rule_with(rule, &StructureStats::new(&s));
            assert_eq!(order(&plans.base), order(&direct.base));
            for ((_, a), (_, b)) in plans.delta.iter().zip(&direct.delta) {
                assert_eq!(order(a), order(b));
            }
        }
    }

    #[test]
    fn constants_are_bound_from_the_start() {
        let s = edge_structure();
        let p = parse_program("from_start(Y) :- e(x0, Y).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        assert_eq!(
            plans.base.steps[0].access,
            Access::Probe { positions: vec![0] }
        );
    }

    #[test]
    fn negatives_scheduled_at_earliest_bound_step() {
        let s = edge_structure();
        let p = parse_program("q(X) :- e(X, Y), e(Y, Z), !e(X, Y), !e(X, Z).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        // !e(X,Y) is fully bound after step 0; !e(X,Z) only after step 1.
        assert_eq!(plans.base.steps[0].negatives_after, vec![2]);
        assert_eq!(plans.base.steps[1].negatives_after, vec![3]);
        assert!(plans.base.ground_negatives.is_empty());
    }

    #[test]
    fn fact_rule_has_empty_plan() {
        let s = edge_structure();
        let p = parse_program("mark(x1).", &s).unwrap();
        let plans = plan_rule(&p.rules[0]);
        assert!(plans.base.steps.is_empty());
        assert!(plans.delta.is_empty());
    }

    #[test]
    #[should_panic(expected = "unsafe rule")]
    fn unsafe_negative_literal_is_rejected_loudly() {
        use crate::ast::{Atom, Literal, PredRef, Program, Rule, Term, Var};
        let s = edge_structure();
        let e = s.signature().lookup("e").unwrap();
        let mut p = Program::default();
        let q = p.intern_idb("q", 1).unwrap();
        // q(X) :- e(X, Y), !e(Z, Z).  — Z occurs in no positive literal;
        // the parser rejects this, but hand-built programs must not have
        // the negation silently dropped.
        let rule = Rule {
            head: Atom {
                pred: PredRef::Idb(q),
                terms: vec![Term::Var(Var(0))],
            },
            body: vec![
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(e),
                        terms: vec![Term::Var(Var(0)), Term::Var(Var(1))],
                    },
                    positive: true,
                },
                Literal {
                    atom: Atom {
                        pred: PredRef::Edb(e),
                        terms: vec![Term::Var(Var(2)), Term::Var(Var(2))],
                    },
                    positive: false,
                },
            ],
            var_count: 3,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(!rule.is_safe());
        let _ = plan_rule(&rule);
    }

    #[test]
    fn one_delta_plan_per_idb_literal() {
        let s = edge_structure();
        let p = parse_program(
            "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), path(Y, Z).",
            &s,
        )
        .unwrap();
        let plans = plan_rule(&p.rules[1]);
        let positions: Vec<usize> = plans.delta.iter().map(|(p, _)| *p).collect();
        assert_eq!(positions, vec![0, 1]);
        // Second delta plan: path(Y,Z) from the delta first, then path(X,Y)
        // probed on position 1 (Y bound).
        let (_, dp) = &plans.delta[1];
        assert_eq!(dp.steps[0].literal, 1);
        assert_eq!(dp.steps[1].literal, 0);
        assert_eq!(dp.steps[1].access, Access::Probe { positions: vec![1] });
    }
}
