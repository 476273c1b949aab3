//! Quasi-guarded datalog (Definition 4.3) and its linear-time evaluation
//! (Theorem 4.4).
//!
//! A rule is *quasi-guarded* if it contains an extensional body atom `B`
//! such that every rule variable either occurs in `B` or is *functionally
//! dependent* on `B`: its value is uniquely determined by `B`'s in every
//! ground instantiation. Functional dependencies are declared per
//! extensional predicate in an [`FdCatalog`] — e.g. in the τ_td signature
//! the tree-node argument of `bag` determines the whole bag, and `child1`
//! is functional in both directions (a node has at most one first child
//! and at most one parent).
//!
//! Evaluation follows the proof of Theorem 4.4: instantiate each rule once
//! per tuple of its smallest valid guard (≤ |𝒜| instantiations), resolve
//! the remaining variables through unique-index lookups, check the
//! residual extensional literals (those neither the guard nor a lookup
//! fetched), and hand the resulting ground program `P′` (of size
//! `O(|P|·|𝒜|)`) to the LTUR solver of the [`horn`](mod@crate::horn) module.
//! Every satisfying instantiation is reached from exactly one tuple of any
//! valid guard, so `P′` does not depend on which guard is chosen.

use crate::ast::{Atom, IdbId, Literal, PredRef, Program, Rule, Term, Var};
use crate::eval::IdbStore;
use crate::horn::{HornProgram, HornRule};
use crate::limits::Governor;
use mdtw_structure::fx::FxHashMap;
use mdtw_structure::{ElemId, PosIndex, PredId, Relation, Structure};
use std::sync::Arc;

/// A declared functional dependency on an extensional predicate: the
/// argument positions in `determinant` uniquely determine the positions in
/// `determined`. Together they must cover the full arity so that a
/// determinant value identifies at most one tuple.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncDep {
    /// Determinant argument positions.
    pub determinant: Vec<usize>,
    /// Determined argument positions.
    pub determined: Vec<usize>,
}

/// A catalog of functional dependencies per extensional predicate.
#[derive(Debug, Clone, Default)]
pub struct FdCatalog {
    deps: FxHashMap<PredId, Vec<FuncDep>>,
}

impl FdCatalog {
    /// An empty catalog (only literal guards are then usable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a functional dependency.
    ///
    /// Nothing is checked here. The guard analysis skips a declaration,
    /// for one body literal, when one of its positions is out of that
    /// literal's arity: the declaration then binds nothing, and a rule
    /// that needs it is reported as [`QgError::NotQuasiGuarded`]. Whether
    /// the data satisfies a dependency is checked during grounding, for
    /// every index a plan looks up ([`QgError::FdViolated`]).
    pub fn declare(&mut self, pred: PredId, determinant: Vec<usize>, determined: Vec<usize>) {
        self.deps.entry(pred).or_default().push(FuncDep {
            determinant,
            determined,
        });
    }

    /// The standard catalog for a τ_td signature (paper §4): `child1` and
    /// `child2` are functional in both directions, and the node argument
    /// of `bag` determines the bag contents.
    pub fn for_td_signature(structure: &Structure) -> Self {
        let sig = structure.signature();
        let mut cat = Self::new();
        for name in ["child1", "child2"] {
            if let Some(p) = sig.lookup(name) {
                cat.declare(p, vec![0], vec![1]);
                cat.declare(p, vec![1], vec![0]);
            }
        }
        if let Some(bag) = sig.lookup("bag") {
            let arity = sig.arity(bag);
            cat.declare(bag, vec![0], (1..arity).collect());
        }
        cat
    }

    fn of(&self, pred: PredId) -> &[FuncDep] {
        self.deps.get(&pred).map_or(&[], Vec::as_slice)
    }
}

/// Errors from quasi-guard analysis or grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QgError {
    /// A rule has no quasi-guard under the declared dependencies.
    NotQuasiGuarded {
        /// Index of the offending rule.
        rule: usize,
    },
    /// The data violates a declared functional dependency.
    FdViolated {
        /// The predicate whose relation violates the dependency.
        pred: PredId,
    },
    /// The program negates an intensional atom: the quasi-guarded
    /// pipeline evaluates semipositive programs only.
    NotSemipositive {
        /// What the semipositivity check rejected.
        message: String,
    },
}

impl std::fmt::Display for QgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QgError::NotQuasiGuarded { rule } => {
                write!(f, "rule {rule} is not quasi-guarded")
            }
            QgError::FdViolated { pred } => {
                write!(
                    f,
                    "relation {pred} violates a declared functional dependency"
                )
            }
            QgError::NotSemipositive { message } => {
                write!(f, "quasi-guarded pipeline is semipositive-only: {message}")
            }
        }
    }
}

impl std::error::Error for QgError {}

/// Statistics from quasi-guarded evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct QgStats {
    /// Number of ground rules produced (`|P′| ≤ |P|·|𝒜|`).
    pub ground_rules: usize,
    /// Number of guard instantiations attempted: one per tuple of each
    /// rule's guard (the valid guard with the smallest relation), plus one
    /// per variable-free rule.
    pub guard_instantiations: usize,
    /// Number of distinct ground atoms.
    pub ground_atoms: usize,
}

/// One step of a rule's variable-resolution plan.
#[derive(Debug, Clone)]
struct PlanStep<'c> {
    /// Body literal index supplying the lookup.
    literal: usize,
    /// Functional dependency used.
    fd: &'c FuncDep,
}

/// The grounding plan of one rule.
#[derive(Debug, Clone)]
struct RulePlan<'c> {
    /// Guard literal index (`None` for variable-free rules).
    guard: Option<usize>,
    /// Lookup steps executed after binding the guard.
    steps: Vec<PlanStep<'c>>,
}

/// Verifies that every rule of `program` is quasi-guarded under `catalog`
/// (structure-independent, so an [`Evaluator`](crate::evaluator::Evaluator)
/// session can validate once at construction).
pub(crate) fn check_quasi_guarded(program: &Program, catalog: &FdCatalog) -> Result<(), QgError> {
    analyze(program, catalog, |_| 0).map(|_| ())
}

/// Verifies that every rule of `program` is quasi-guarded under `catalog`
/// and returns the per-rule plans. Each rule's guard is the valid
/// candidate whose relation is smallest by `size`; ties keep body order.
fn analyze<'c>(
    program: &Program,
    catalog: &'c FdCatalog,
    size: impl Fn(PredId) -> usize,
) -> Result<Vec<RulePlan<'c>>, QgError> {
    let mut plans = Vec::with_capacity(program.rules.len());
    for (ri, rule) in program.rules.iter().enumerate() {
        plans
            .push(analyze_rule(rule, catalog, &size).ok_or(QgError::NotQuasiGuarded { rule: ri })?);
    }
    Ok(plans)
}

fn analyze_rule<'c>(
    rule: &Rule,
    catalog: &'c FdCatalog,
    size: &impl Fn(PredId) -> usize,
) -> Option<RulePlan<'c>> {
    let nvars = rule.var_count as usize;
    if nvars == 0 {
        return Some(RulePlan {
            guard: None,
            steps: Vec::new(),
        });
    }
    let edb_literals: Vec<(usize, PredId)> = rule
        .body
        .iter()
        .enumerate()
        .filter_map(|(i, l)| match l.atom.pred {
            PredRef::Edb(p) if l.positive => Some((i, p)),
            _ => None,
        })
        .collect();
    // A stable sort: equal sizes keep body order.
    let mut candidates = edb_literals.clone();
    candidates.sort_by_key(|&(_, p)| size(p));
    'guards: for &(gi, _) in &candidates {
        let mut bound = vec![false; nvars];
        for v in rule.body[gi].atom.vars() {
            bound[v.index()] = true;
        }
        let mut steps = Vec::new();
        loop {
            if bound.iter().all(|&b| b) {
                return Some(RulePlan {
                    guard: Some(gi),
                    steps,
                });
            }
            // Find a literal+FD whose determinant is fully bound and which
            // binds at least one new variable.
            let mut progressed = false;
            for &(li, pred) in &edb_literals {
                let lit = &rule.body[li];
                for fd in catalog.of(pred) {
                    if fd
                        .determinant
                        .iter()
                        .chain(&fd.determined)
                        .any(|&pos| pos >= lit.atom.terms.len())
                    {
                        continue; // malformed declaration for this arity
                    }
                    let det_bound = fd.determinant.iter().all(|&pos| match lit.atom.terms[pos] {
                        Term::Const(_) => true,
                        Term::Var(v) => bound[v.index()],
                    });
                    if !det_bound {
                        continue;
                    }
                    let mut news = false;
                    for &pos in &fd.determined {
                        if let Term::Var(v) = lit.atom.terms[pos] {
                            if !bound[v.index()] {
                                bound[v.index()] = true;
                                news = true;
                            }
                        }
                    }
                    if news {
                        steps.push(PlanStep { literal: li, fd });
                        progressed = true;
                    }
                }
            }
            if !progressed {
                continue 'guards;
            }
        }
    }
    None
}

/// Builds (through the relation's shared index cache) the secondary index
/// on `pred`'s determinant positions and verifies the declared dependency
/// actually holds in the data: a [`PosIndex`] bucket with two rows means
/// two distinct tuples share a determinant value — an FD violation.
///
/// This *is* the unique index of Theorem 4.4's proof; uniqueness makes
/// every bucket a singleton, so lookups are `rows_matching(..).first()`.
fn unique_index(
    structure: &Structure,
    pred: PredId,
    key_positions: &[usize],
) -> Result<Arc<PosIndex>, QgError> {
    let idx = structure.relation(pred).index_on(key_positions);
    if idx.buckets().any(|b| b.len() > 1) {
        return Err(QgError::FdViolated { pred });
    }
    Ok(idx)
}

/// How one cell of a fetched tuple meets the rule's bindings.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// The variable's first occurrence in the plan: bind it to the cell.
    Bind(Var),
    /// The cell must equal this constant or already bound variable.
    Check(Term),
}

/// One FD lookup of a plan, resolved against the structure.
struct Lookup<'s> {
    rel: &'s Relation,
    /// The validated unique index on the determinant positions.
    index: Arc<PosIndex>,
    /// The determinant terms, bound by the time the lookup runs.
    key: Vec<Term>,
    /// The non-key cells of the matching tuple.
    cells: Vec<(usize, Cell)>,
}

/// One rule's plan resolved against the structure being grounded.
struct Grounder<'s, 'p> {
    rule: &'p Rule,
    /// The guard relation and how its tuples bind (`None` for
    /// variable-free rules).
    guard: Option<(&'s Relation, Vec<(usize, Cell)>)>,
    lookups: Vec<Lookup<'s>>,
    /// The extensional literals neither the guard nor a lookup fetched:
    /// the only ones that can still fail once every variable is bound.
    residual: Vec<(&'s Relation, &'p Literal)>,
}

impl<'s, 'p> Grounder<'s, 'p> {
    fn new<'c>(
        rule: &'p Rule,
        plan: &RulePlan<'c>,
        structure: &'s Structure,
        validated: &mut FxHashMap<(PredId, &'c [usize]), Arc<PosIndex>>,
    ) -> Result<Self, QgError> {
        let edb = |li: usize| match rule.body[li].atom.pred {
            PredRef::Edb(p) => p,
            PredRef::Idb(_) => unreachable!("guards and lookups are extensional"),
        };
        let mut bound = vec![false; rule.var_count as usize];
        let mut fetched = vec![false; rule.body.len()];
        let guard = plan.guard.map(|gi| {
            fetched[gi] = true;
            let cells = cells(&rule.body[gi].atom.terms, &[], &mut bound);
            (structure.relation(edb(gi)), cells)
        });
        let mut lookups = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            let pred = edb(step.literal);
            let terms = &rule.body[step.literal].atom.terms;
            let key_positions = step.fd.determinant.as_slice();
            let index = match validated.get(&(pred, key_positions)) {
                Some(idx) => Arc::clone(idx),
                None => {
                    let idx = unique_index(structure, pred, key_positions)?;
                    validated.insert((pred, key_positions), Arc::clone(&idx));
                    idx
                }
            };
            fetched[step.literal] = true;
            lookups.push(Lookup {
                rel: structure.relation(pred),
                index,
                key: key_positions.iter().map(|&pos| terms[pos]).collect(),
                cells: cells(terms, key_positions, &mut bound),
            });
        }
        let residual = rule
            .body
            .iter()
            .zip(&fetched)
            .filter_map(|(lit, &f)| match lit.atom.pred {
                PredRef::Edb(p) if !f => Some((structure.relation(p), lit)),
                _ => None,
            })
            .collect();
        Ok(Self {
            rule,
            guard,
            lookups,
            residual,
        })
    }

    /// Checks the residual extensional literals under full `bindings`
    /// and, if they all hold, interns the rule's intensional atoms and
    /// adds the instantiated rule to `horn`.
    fn emit(
        &self,
        bindings: &[ElemId],
        buf: &mut Vec<ElemId>,
        atoms: &mut [AtomTable],
        horn: &mut HornProgram,
    ) {
        for &(rel, lit) in &self.residual {
            instantiate(&lit.atom.terms, bindings, buf);
            if rel.contains(buf) != lit.positive {
                return; // extensional literal fails: drop instantiation
            }
        }
        let n_atoms = &mut horn.n_atoms;
        let mut atom_id = |atom: &Atom| {
            let PredRef::Idb(id) = atom.pred else {
                unreachable!("extensional heads rejected earlier")
            };
            instantiate(&atom.terms, bindings, buf);
            atoms[id.index()].intern(buf, n_atoms)
        };
        let body = (self.rule.body.iter())
            .filter(|l| matches!(l.atom.pred, PredRef::Idb(_)))
            .map(|l| atom_id(&l.atom))
            .collect();
        let head = atom_id(&self.rule.head);
        horn.rules.push(HornRule { head, body });
    }
}

/// The match actions for a fetched tuple of `terms`, skipping the `skip`
/// positions (a lookup key, equal by construction). Marks the variables
/// it binds in `bound`.
fn cells(terms: &[Term], skip: &[usize], bound: &mut [bool]) -> Vec<(usize, Cell)> {
    (terms.iter().enumerate())
        .filter(|(pos, _)| !skip.contains(pos))
        .map(|(pos, &t)| match t {
            Term::Var(v) if !bound[v.index()] => {
                bound[v.index()] = true;
                (pos, Cell::Bind(v))
            }
            t => (pos, Cell::Check(t)),
        })
        .collect()
}

#[inline]
fn value(t: Term, bindings: &[ElemId]) -> ElemId {
    match t {
        Term::Const(c) => c,
        Term::Var(v) => bindings[v.index()],
    }
}

/// Matches `tuple` against `cells`, binding first occurrences; `false`
/// on a mismatch.
#[inline]
fn bind(tuple: &[ElemId], cells: &[(usize, Cell)], bindings: &mut [ElemId]) -> bool {
    for &(pos, cell) in cells {
        match cell {
            Cell::Bind(v) => bindings[v.index()] = tuple[pos],
            Cell::Check(t) => {
                if value(t, bindings) != tuple[pos] {
                    return false;
                }
            }
        }
    }
    true
}

/// Writes `terms` under `bindings` into `buf`.
#[inline]
fn instantiate(terms: &[Term], bindings: &[ElemId], buf: &mut Vec<ElemId>) {
    buf.clear();
    buf.extend(terms.iter().map(|&t| value(t, bindings)));
}

/// The ground atoms of one intensional predicate: `args` deduplicates the
/// argument tuples in a flat arena, and `ids[row]` is the atom id of row
/// `row`.
#[derive(Debug)]
struct AtomTable {
    args: Relation,
    ids: Vec<u32>,
}

impl AtomTable {
    /// The atom id of `args`, allocating the next id (`*n_atoms`) if new.
    #[inline]
    fn intern(&mut self, args: &[ElemId], n_atoms: &mut usize) -> u32 {
        let (row, new) = self.args.insert_row(args);
        if new {
            self.ids
                .push(u32::try_from(*n_atoms).expect("atom ids fit in u32"));
            *n_atoms += 1;
        }
        self.ids[row as usize]
    }
}

/// The ground program plus the atom interner used to decode the model.
#[derive(Debug)]
pub struct Grounding {
    /// The propositional Horn program `P′`.
    pub horn: HornProgram,
    /// Ground atom interner, indexed by [`IdbId`].
    atoms: Vec<AtomTable>,
    /// Statistics.
    pub stats: QgStats,
}

impl Grounding {
    /// The atom id of `pred(args)` if it occurs in the grounding.
    pub fn atom_id(&self, pred: IdbId, args: &[ElemId]) -> Option<u32> {
        let table = self.atoms.get(pred.index())?;
        if args.len() != table.args.arity() {
            return None;
        }
        table.args.row_of(args).map(|row| table.ids[row as usize])
    }
}

/// Grounds a quasi-guarded program over a structure (the construction in
/// the proof of Theorem 4.4).
///
/// # Errors
/// [`QgError::NotSemipositive`] if the program negates an intensional
/// atom, [`QgError::NotQuasiGuarded`] / [`QgError::FdViolated`] from the
/// guard analysis and FD validation.
pub fn ground(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
) -> Result<Grounding, QgError> {
    ground_governed(program, structure, catalog, &mut Governor::new(None))
}

/// [`ground`] with a resource governor: the guard-instantiation loop is
/// the pipeline's only data-proportional loop, so it carries the work
/// checkpoints (1 fuel unit per guard instantiation). On a trip the
/// grounding is *incomplete* — the caller must not solve it for a model
/// (an incomplete grounding under-constrains nothing but proves nothing).
pub(crate) fn ground_governed(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
    gov: &mut Governor<'_>,
) -> Result<Grounding, QgError> {
    program
        .check_semipositive()
        .map_err(|message| QgError::NotSemipositive { message })?;
    let plans = analyze(program, catalog, |p| structure.relation(p).len())?;

    // Resolve each plan against the structure, validating the declared
    // FDs once per distinct index.
    let mut validated = FxHashMap::default();
    let mut grounders = Vec::with_capacity(plans.len());
    for (rule, plan) in program.rules.iter().zip(&plans) {
        grounders.push(Grounder::new(rule, plan, structure, &mut validated)?);
    }

    let mut atoms: Vec<AtomTable> = (program.idb_arities.iter())
        .map(|&arity| AtomTable {
            args: Relation::new(arity),
            ids: Vec::new(),
        })
        .collect();
    let mut horn = HornProgram::default();
    let mut instantiations = 0;
    let mut bindings: Vec<ElemId> = Vec::new();
    let mut buf: Vec<ElemId> = Vec::new();
    'rules: for g in &grounders {
        bindings.clear();
        bindings.resize(g.rule.var_count as usize, ElemId(0));
        let Some((guard, guard_cells)) = &g.guard else {
            // Variable-free rule: single instantiation.
            instantiations += 1;
            g.emit(&bindings, &mut buf, &mut atoms, &mut horn);
            continue;
        };
        'tuples: for tuple in guard.iter() {
            instantiations += 1;
            if gov.work(instantiations, 0) {
                break 'rules;
            }
            if !bind(tuple, guard_cells, &mut bindings) {
                continue;
            }
            for step in &g.lookups {
                instantiate(&step.key, &bindings, &mut buf);
                // FD validation made every bucket a singleton.
                let Some(&row) = step.rel.rows_matching(&step.index, &buf).first() else {
                    continue 'tuples; // no matching tuple: rule body unsatisfiable
                };
                if !bind(step.rel.tuple(row), &step.cells, &mut bindings) {
                    continue 'tuples;
                }
            }
            g.emit(&bindings, &mut buf, &mut atoms, &mut horn);
        }
    }
    let stats = QgStats {
        ground_rules: horn.rules.len(),
        guard_instantiations: instantiations,
        ground_atoms: horn.n_atoms,
    };
    Ok(Grounding { horn, atoms, stats })
}

/// Full quasi-guarded evaluation: ground, run LTUR, decode into an
/// [`IdbStore`]. Runs in `O(|P| · |𝒜|)` (Theorem 4.4); the engine of
/// [`Evaluator`](crate::evaluator::Evaluator) sessions with an attached
/// [`FdCatalog`]. On a governor trip the grounding is incomplete, so the
/// LTUR solve is *skipped* — a least model of a partial grounding is not a
/// subset of the real one — and an empty store is returned; the caller
/// reads the trip off the governor and reports no partial result.
pub(crate) fn run_quasi_guarded(
    program: &Program,
    structure: &Structure,
    catalog: &FdCatalog,
    gov: &mut Governor<'_>,
) -> Result<(IdbStore, QgStats), QgError> {
    let grounding = ground_governed(program, structure, catalog, gov)?;
    // Stage checkpoint at the grounding → solve boundary: guarantees every
    // governed QG run passes at least one checkpoint, however small the
    // structure (the amortized work checks inside the grounding loop only
    // fire every few thousand guard instantiations).
    gov.round(grounding.stats.guard_instantiations, 0);
    if gov.tripped().is_some() {
        return Ok((IdbStore::new_for(program), grounding.stats));
    }
    let model = grounding.horn.least_model();
    let mut store = IdbStore::new_for(program);
    for (pred, table) in grounding.atoms.iter().enumerate() {
        for (row, &id) in table.ids.iter().enumerate() {
            if model[id as usize] {
                store.insert_raw(IdbId(pred as u32), table.args.tuple(row as u32));
            }
        }
    }
    Ok((store, grounding.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{EvalOptions, Evaluator};
    use crate::parser::parse_program;
    use mdtw_structure::{Domain, Signature};
    use std::sync::Arc;

    /// One evaluation through a fresh session with `cat` attached (which
    /// selects the quasi-guarded engine).
    fn eval_quasi_guarded(p: &Program, s: &Structure, cat: &FdCatalog) -> (IdbStore, QgStats) {
        let r = Evaluator::with_options(p.clone(), EvalOptions::new().fd_catalog(cat.clone()))
            .unwrap()
            .evaluate(s)
            .unwrap();
        (
            r.store,
            r.qg.expect("quasi-guarded sessions report QgStats"),
        )
    }

    /// A chain encoded τ_td-style: next(a,b) functional both ways.
    fn chain_structure(n: usize) -> Structure {
        let sig = Arc::new(Signature::from_pairs([("next", 2), ("first", 1)]));
        let dom = Domain::anonymous(n);
        let mut s = Structure::new(sig, dom);
        let next = s.signature().lookup("next").unwrap();
        let first = s.signature().lookup("first").unwrap();
        s.insert(first, &[ElemId(0)]);
        for i in 0..n - 1 {
            s.insert(next, &[ElemId(i as u32), ElemId(i as u32 + 1)]);
        }
        s
    }

    fn chain_catalog(s: &Structure) -> FdCatalog {
        let mut cat = FdCatalog::new();
        let next = s.signature().lookup("next").unwrap();
        cat.declare(next, vec![0], vec![1]);
        cat.declare(next, vec![1], vec![0]);
        cat
    }

    #[test]
    fn quasi_guarded_chain_reachability() {
        let s = chain_structure(6);
        let cat = chain_catalog(&s);
        let p = parse_program(
            "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).",
            &s,
        )
        .unwrap();
        let (store, stats) = eval_quasi_guarded(&p, &s, &cat);
        let reach = p.idb("reach").unwrap();
        assert_eq!(store.unary(reach).len(), 6);
        // Ground rules: one per `first` tuple + one per `next` tuple.
        assert_eq!(stats.ground_rules, 1 + 5);
    }

    #[test]
    fn agrees_with_seminaive() {
        let s = chain_structure(9);
        let cat = chain_catalog(&s);
        let src = "reach(X) :- first(X).\nreach(Y) :- reach(X), next(X, Y).\n\
                   inner(X) :- reach(X), next(X, Y), !first(X).";
        let p = parse_program(src, &s).unwrap();
        let (qg, _) = eval_quasi_guarded(&p, &s, &cat);
        let sn = Evaluator::new(p.clone())
            .unwrap()
            .evaluate(&s)
            .unwrap()
            .store;
        for name in ["reach", "inner"] {
            let id = p.idb(name).unwrap();
            assert_eq!(qg.tuples(id), sn.tuples(id), "{name}");
        }
    }

    #[test]
    fn rejects_unguarded_rule() {
        let s = chain_structure(4);
        let cat = FdCatalog::new(); // no FDs declared
                                    // Y is not functionally dependent on any single EDB atom's vars.
        let p = parse_program("pair(X, Y) :- first(X), first(Y).", &s).unwrap();
        // first(X) binds X only; first(Y) binds Y only; neither atom alone
        // covers both and no FDs help... but wait: both are EDB candidates
        // and the *other* literal is also extensional. Without FDs the
        // analysis cannot bind the other variable.
        let err = ground(&p, &s, &cat).unwrap_err();
        assert_eq!(err, QgError::NotQuasiGuarded { rule: 0 });
    }

    #[test]
    fn variable_free_rules_are_quasi_guarded() {
        let s = chain_structure(3);
        let cat = chain_catalog(&s);
        let p = parse_program("flag :- next(x0, x1).\nflag2 :- flag.", &s).unwrap();
        let (store, _) = eval_quasi_guarded(&p, &s, &cat);
        assert!(store.holds(p.idb("flag2").unwrap(), &[]));
    }

    #[test]
    fn failing_lookup_drops_instantiation() {
        let s = chain_structure(3);
        let cat = chain_catalog(&s);
        // The last element has no successor: rule must simply not fire.
        let p = parse_program("succ_of(Y) :- first(X), next(X, Y).", &s).unwrap();
        let (store, _) = eval_quasi_guarded(&p, &s, &cat);
        assert_eq!(store.unary(p.idb("succ_of").unwrap()), vec![ElemId(1)]);
    }

    #[test]
    fn fd_violation_is_detected() {
        let sig = Arc::new(Signature::from_pairs([("next", 2)]));
        let dom = Domain::anonymous(3);
        let mut s = Structure::new(sig, dom);
        let next = s.signature().lookup("next").unwrap();
        s.insert(next, &[ElemId(0), ElemId(1)]);
        s.insert(next, &[ElemId(0), ElemId(2)]); // violates {0}→{1}
        let mut cat = FdCatalog::new();
        cat.declare(next, vec![0], vec![1]);
        // Guard next(X, X) binds only X; resolving Y requires the (bad)
        // index on next keyed by position 0.
        let p = parse_program("r(Y) :- next(X, X), next(X, Y).", &s).unwrap();
        assert_eq!(
            ground(&p, &s, &cat).unwrap_err(),
            QgError::FdViolated { pred: next }
        );
    }

    #[test]
    fn negative_literals_checked_at_grounding() {
        let s = chain_structure(4);
        let cat = chain_catalog(&s);
        let p = parse_program("mid(Y) :- next(X, Y), !first(X).", &s).unwrap();
        let (store, _) = eval_quasi_guarded(&p, &s, &cat);
        assert_eq!(
            store.unary(p.idb("mid").unwrap()),
            vec![ElemId(2), ElemId(3)]
        );
    }

    #[test]
    fn malformed_fd_declaration_is_skipped() {
        let s = chain_structure(4);
        let next = s.signature().lookup("next").unwrap();
        // Either `next` literal binds two of the three variables; the
        // third needs an FD lookup.
        let p = parse_program("two(Z) :- next(X, Y), next(Y, Z).", &s).unwrap();
        let mut cat = FdCatalog::new();
        cat.declare(next, vec![0], vec![5]); // position 5 is out of arity 2
        assert_eq!(
            ground(&p, &s, &cat).unwrap_err(),
            QgError::NotQuasiGuarded { rule: 0 }
        );
        cat.declare(next, vec![0], vec![1]);
        assert_eq!(ground(&p, &s, &cat).unwrap().stats.ground_rules, 2);
    }

    /// A path of tree nodes `0 → 1 → … → 6` encoded as `bag(v, v+1)`
    /// (the node determines its bag), with two `leaf` nodes and one
    /// `mark`ed element: `leaf(4)` meets the marked `bag(4, 5)`,
    /// `leaf(5)` the unmarked `bag(5, 6)`.
    fn bag_structure() -> (Structure, FdCatalog) {
        let sig = Arc::new(Signature::from_pairs([
            ("bag", 2),
            ("leaf", 1),
            ("mark", 1),
        ]));
        let mut s = Structure::new(sig, Domain::anonymous(8));
        let [bag, leaf, mark] = ["bag", "leaf", "mark"].map(|n| s.signature().lookup(n).unwrap());
        for v in 0..6 {
            s.insert(bag, &[ElemId(v), ElemId(v + 1)]);
        }
        s.insert(leaf, &[ElemId(4)]);
        s.insert(leaf, &[ElemId(5)]);
        s.insert(mark, &[ElemId(5)]);
        let mut cat = FdCatalog::new();
        cat.declare(bag, vec![0], vec![1]);
        (s, cat)
    }

    fn assert_matches_seminaive(p: &Program, s: &Structure, qg: &IdbStore) {
        let sn = Evaluator::new(p.clone())
            .unwrap()
            .evaluate(s)
            .unwrap()
            .store;
        for (i, name) in p.idb_names.iter().enumerate() {
            let id = IdbId(i as u32);
            assert_eq!(qg.tuples(id), sn.tuples(id), "{name}");
        }
    }

    #[test]
    fn guard_is_the_smallest_valid_candidate() {
        let (s, cat) = bag_structure();
        let p = parse_program("r(V) :- bag(V, X), leaf(V).", &s).unwrap();
        let (store, stats) = eval_quasi_guarded(&p, &s, &cat);
        // One instantiation per `leaf` tuple (2), not per `bag` tuple (6).
        assert_eq!(stats.guard_instantiations, 2);
        assert_eq!(stats.ground_rules, 2);
        assert_eq!(store.unary(p.idb("r").unwrap()), vec![ElemId(4), ElemId(5)]);
        assert_matches_seminaive(&p, &s, &store);
    }

    #[test]
    fn failing_residual_literal_interns_no_atoms() {
        let (s, cat) = bag_structure();
        // `mark` (1 tuple) is the smallest candidate of the second rule,
        // but no FD recovers the node `V` from `X`, so `leaf` (2 tuples)
        // guards it; `mark(X)` is then the residual positive literal.
        let p = parse_program(
            "w(X) :- mark(X).\nr(V) :- w(X), bag(V, X), leaf(V), mark(X).",
            &s,
        )
        .unwrap();
        let (store, stats) = eval_quasi_guarded(&p, &s, &cat);
        assert_eq!(stats.guard_instantiations, 1 + 2);
        assert_matches_seminaive(&p, &s, &store);

        let g = ground(&p, &s, &cat).unwrap();
        let model = g.horn.least_model();
        let (w, r) = (p.idb("w").unwrap(), p.idb("r").unwrap());
        let r4 = g.atom_id(r, &[ElemId(4)]).unwrap();
        assert!(model[r4 as usize]);
        // `leaf(5)` meets `bag(5, 6)` with `6` unmarked: the instantiation
        // is dropped before any of its intensional atoms is interned.
        assert_eq!(g.atom_id(r, &[ElemId(5)]), None);
        assert_eq!(g.atom_id(w, &[ElemId(6)]), None);
        assert_eq!(g.stats.ground_rules, 2);
        assert_eq!(g.stats.ground_atoms, 2);
    }
}
