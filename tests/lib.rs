//! Shared fixtures of the workspace integration tests (the suites live
//! in `tests/`): the brute-force per-stratum [`oracle`] that the
//! differential suites check the engines against, the random-structure
//! builder [`build_structure`], and the random safe-semipositive program
//! generator [`build_program`]. Each suite draws its own strategy ranges.

use mdtw_datalog::{stratify, Atom, IdbId, Literal, PredRef, Program, Rule, Term, Var};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use std::collections::HashSet;
use std::sync::Arc;

/// Raw material for one body literal: `(kind, arg, arg)`.
pub type RawLit = (u8, u8, u8);
/// Raw material for one rule:
/// `(head pick, (head arg, head arg), positive body, negative pick)`.
pub type RawRule = (u8, (u8, u8), Vec<RawLit>, RawLit);

/// Variables per generated rule (`X`, `Y`, `Z`).
pub const NVARS: u8 = 3;

/// A structure over `e/2` and `m/1` on `n` anonymous elements; edge and
/// mark endpoints are taken modulo `n`.
pub fn build_structure(n: usize, edges: &[(u8, u8)], marks: &[u8]) -> Structure {
    let sig = Arc::new(Signature::from_pairs([("e", 2), ("m", 1)]));
    let dom = Domain::anonymous(n);
    let mut s = Structure::new(sig, dom);
    let e = s.signature().lookup("e").unwrap();
    let m = s.signature().lookup("m").unwrap();
    for &(a, b) in edges {
        s.insert(
            e,
            &[ElemId(a as u32 % n as u32), ElemId(b as u32 % n as u32)],
        );
    }
    for &a in marks {
        s.insert(m, &[ElemId(a as u32 % n as u32)]);
    }
    s
}

/// The variable `i mod NVARS`.
pub fn var(i: u8) -> Term {
    Term::Var(Var((i % NVARS) as u32))
}

/// Builds a positive body literal from raw ints. Kinds: e/2, m/1, q0/1,
/// q1/2 (IDB ids 0 and 1).
pub fn positive_literal(raw: RawLit, e: PredId, m: PredId) -> Literal {
    let (kind, a, b) = raw;
    let atom = match kind % 4 {
        0 => Atom {
            pred: PredRef::Edb(e),
            terms: vec![var(a), var(b)],
        },
        1 => Atom {
            pred: PredRef::Edb(m),
            terms: vec![var(a)],
        },
        2 => Atom {
            pred: PredRef::Idb(IdbId(0)),
            terms: vec![var(a)],
        },
        _ => Atom {
            pred: PredRef::Idb(IdbId(1)),
            terms: vec![var(a), var(b)],
        },
    };
    Literal {
        atom,
        positive: true,
    }
}

/// Builds a random but always-safe semipositive program over `q0/1` and
/// `q1/2`: head variables and negative-literal variables are drawn from
/// the variables of the positive body (never empty: every positive
/// literal has a variable), so `Rule::is_safe` holds by construction.
pub fn build_program(raw_rules: &[RawRule], structure: &Structure) -> Program {
    let e = structure.signature().lookup("e").unwrap();
    let m = structure.signature().lookup("m").unwrap();
    let mut program = Program::default();
    program.intern_idb("q0", 1).unwrap();
    program.intern_idb("q1", 2).unwrap();

    for (head_pick, (h1, h2), body_raw, neg_raw) in raw_rules {
        let body: Vec<Literal> = body_raw
            .iter()
            .map(|&raw| positive_literal(raw, e, m))
            .collect();
        let mut pos_vars: Vec<Var> = body
            .iter()
            .flat_map(|l| l.atom.vars().collect::<Vec<_>>())
            .collect();
        pos_vars.sort();
        pos_vars.dedup();
        debug_assert!(!pos_vars.is_empty(), "every positive literal has a var");
        let pick = |sel: u8| Term::Var(pos_vars[sel as usize % pos_vars.len()]);

        let head = if head_pick % 2 == 0 {
            Atom {
                pred: PredRef::Idb(IdbId(0)),
                terms: vec![pick(*h1)],
            }
        } else {
            Atom {
                pred: PredRef::Idb(IdbId(1)),
                terms: vec![pick(*h1), pick(*h2)],
            }
        };

        let mut body = body;
        let (nkind, na, nb) = *neg_raw;
        // Negation only on EDB atoms (semipositive fragment), with
        // variables from the positive body (safety).
        match nkind % 3 {
            0 => {}
            1 => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(e),
                    terms: vec![pick(na), pick(nb)],
                },
                positive: false,
            }),
            _ => body.push(Literal {
                atom: Atom {
                    pred: PredRef::Edb(m),
                    terms: vec![pick(na)],
                },
                positive: false,
            }),
        }

        let rule = Rule {
            head,
            body,
            var_count: NVARS as u32,
            var_names: vec!["X".into(), "Y".into(), "Z".into()],
        };
        assert!(rule.is_safe(), "generator must only build safe rules");
        program.rules.push(rule);
    }
    program
        .check_semipositive()
        .expect("generator must only build semipositive programs");
    program
}

/// Evaluates `program` stratum by stratum with brute-force substitution
/// enumeration: every rule is tried under every assignment of domain
/// elements to its variables, positives and negatives are checked against
/// the fact sets directly, and each stratum runs to fixpoint before the
/// next starts. Independent of the engine's join plans, delta sets,
/// rewriting and materialization — it shares only the stratum assignment.
pub fn oracle(program: &Program, s: &Structure) -> Vec<Vec<Vec<ElemId>>> {
    let strat = stratify(program).expect("oracle needs a stratifiable program");
    let elems: Vec<ElemId> = s.domain().elems().collect();
    let mut facts: Vec<HashSet<Vec<ElemId>>> = vec![HashSet::new(); program.idb_count()];

    let instantiate = |atom: &Atom, asg: &[ElemId]| -> Vec<ElemId> {
        atom.terms
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => asg[v.index()],
            })
            .collect()
    };

    for stratum_rules in strat.strata() {
        loop {
            let mut changed = false;
            for &ri in stratum_rules {
                let rule = &program.rules[ri];
                let nvars = rule.var_count as usize;
                // Odometer over all assignments domain^nvars (including
                // the single empty assignment for ground rules).
                let mut asg: Vec<usize> = vec![0; nvars];
                'assignments: loop {
                    let values: Vec<ElemId> = asg.iter().map(|&i| elems[i]).collect();
                    let body_holds = rule.body.iter().all(|lit| {
                        let tuple = instantiate(&lit.atom, &values);
                        let holds = match lit.atom.pred {
                            PredRef::Edb(p) => s.holds(p, &tuple),
                            PredRef::Idb(id) => facts[id.index()].contains(&tuple),
                        };
                        holds == lit.positive
                    });
                    if body_holds {
                        let head = instantiate(&rule.head, &values);
                        let PredRef::Idb(id) = rule.head.pred else {
                            panic!("oracle: IDB heads only");
                        };
                        changed |= facts[id.index()].insert(head);
                    }
                    // Next assignment.
                    for slot in &mut asg {
                        *slot += 1;
                        if *slot < elems.len() {
                            continue 'assignments;
                        }
                        *slot = 0;
                    }
                    break;
                }
            }
            if !changed {
                break;
            }
        }
    }

    facts
        .into_iter()
        .map(|set| {
            let mut v: Vec<Vec<ElemId>> = set.into_iter().collect();
            v.sort();
            v
        })
        .collect()
}
