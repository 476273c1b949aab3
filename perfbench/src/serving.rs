//! `datalog_serving`: long-lived `Evaluator` sessions serving reads
//! beside writes. Reads evaluate four programs on candidate structures
//! whose sizes span several power-of-two plan-cache buckets; writes are
//! mixed insert/retract batches on a `MaterializedView`, each followed
//! by a point read of the view.

use crate::rng::{log_grid, Rng, Zipf};
use crate::trace::Tracer;
use crate::{count_eval_stats, Outcome, Workload};
use mdtw_datalog::{
    parse_program, EvalOptions, Evaluator, IdbId, IdbStore, MaterializedView, Update,
};
use mdtw_structure::{Domain, ElemId, PredId, Signature, Structure};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// 3-stratum negation chain.
const STRATIFIED_PROGRAM: &str = "reach(X) :- first(X).\nreach(Y) :- reach(X), e(X, Y).\n\
     unreach(X) :- node(X), !reach(X).\n\
     settled(X) :- node(X), !unreach(X), !first(X).";
/// Transitive closure: the segmented-chain reads and the view.
const TC_PROGRAM: &str = "path(X, Y) :- e(X, Y).\npath(X, Z) :- path(X, Y), e(Y, Z).";
/// Reachability from one source, evaluated with the magic-set rewrite.
const POINT_QUERY_PROGRAM: &str = "path(X, Y) :- e(X, Y).\n\
     path(X, Z) :- path(X, Y), e(Y, Z).\n\
     answer(Y) :- source(X), path(X, Y).";
/// 3-way join (directed triangles) over a Zipf-skewed edge relation.
const JOIN_PROGRAM: &str = "tri(X, Y, Z) :- e(X, Y), e(Y, Z), e(Z, X).";

/// Candidates per read program in one pass. Odd request counts per
/// kind and per pass (75 = 45 eval + 15 join + 15 apply) put the p50 and
/// p90 ranks in the middle of one request's repeated samples instead of
/// between two requests of different cost, where they would flip from
/// run to run.
const CANDIDATES: usize = 15;
/// Node-count ranges of the candidates; each spans three or more
/// power-of-two buckets of the plan cache's cardinality shape.
const STRATIFIED_NODES: (usize, usize) = (512, 4096);
const TC_NODES: (usize, usize) = (256, 2048);
const POINT_NODES: (usize, usize) = (512, 4096);
const JOIN_NODES: (usize, usize) = (128, 1024);
/// Segment lengths of the TC candidates.
const TC_SEGMENT: (usize, usize) = (8, 24);
/// Zipf exponent and edges per node of the join candidates.
const ZIPF_S: f64 = 1.0;
const JOIN_EDGES_PER_NODE: usize = 3;
/// The view: a segmented chain with forward shortcuts, so retracting a
/// chain edge overdeletes paths that the shortcuts partly re-derive.
const VIEW_NODES: usize = 1536;
const VIEW_SEGMENT: usize = 32;
const VIEW_SHORTCUT: f64 = 0.25;
const MAX_HOP: usize = 6;
/// Batches per pass (one toggle cycle, see [`view_batches`]).
const BATCHES: usize = 15;
/// Every this many applies the view is compared with a from-scratch
/// evaluation.
const VIEW_CHECK_EVERY: u64 = 4;

#[derive(Clone, Copy)]
enum Prog {
    Stratified,
    Tc,
    Point,
    Join,
}

struct Candidate {
    program: Prog,
    structure: Structure,
    nodes: usize,
    edges: Vec<(u32, u32)>,
    /// Stratified: the `first` sources; point query: the source.
    sources: Vec<u32>,
    expected: Expected,
}

enum Expected {
    Pending,
    Stratified { reach: Vec<bool>, first: Vec<bool> },
    Tuples(&'static str, Vec<Vec<u32>>),
    Answer(Vec<bool>),
}

struct Batch {
    update: Update,
    read: (u32, u32),
    expected: bool,
    /// The batch as edge toggles, replayed by the oracle.
    inserted: Vec<(u32, u32)>,
    retracted: Vec<(u32, u32)>,
}

#[derive(Clone, Copy)]
enum Slot {
    Read(usize),
    Apply,
}

pub struct DatalogServing {
    sessions: Vec<Evaluator>,
    candidates: Vec<Candidate>,
    view: MaterializedView,
    base_edges: Vec<(u32, u32)>,
    batches: Vec<Batch>,
    next_batch: usize,
    order: Vec<Slot>,
}

fn structure(preds: &[(&str, usize)], n: usize) -> Structure {
    Structure::new(
        Arc::new(Signature::from_pairs(preds.iter().copied())),
        Domain::anonymous(n),
    )
}

fn lookup(s: &Structure, name: &str) -> PredId {
    s.signature().lookup(name).expect("declared")
}

fn add_edges(s: &mut Structure, edges: &[(u32, u32)]) {
    let e = lookup(s, "e");
    for &(a, b) in edges {
        s.insert(e, &[ElemId(a), ElemId(b)]);
    }
}

impl Prog {
    fn preds(self) -> &'static [(&'static str, usize)] {
        match self {
            Prog::Stratified => &[("e", 2), ("node", 1), ("first", 1)],
            Prog::Tc | Prog::Join => &[("e", 2)],
            Prog::Point => &[("e", 2), ("source", 1)],
        }
    }

    fn session(self) -> Evaluator {
        let (text, options) = match self {
            Prog::Stratified => (STRATIFIED_PROGRAM, EvalOptions::new()),
            Prog::Tc => (TC_PROGRAM, EvalOptions::new()),
            Prog::Point => (
                POINT_QUERY_PROGRAM,
                EvalOptions::new().outputs(["answer"]).magic_sets(true),
            ),
            Prog::Join => (JOIN_PROGRAM, EvalOptions::new()),
        };
        let program = parse_program(text, &structure(self.preds(), 0)).expect("valid program");
        Evaluator::with_options(program, options).expect("valid session")
    }

    fn candidate(self, rng: &mut Rng, n: usize) -> Candidate {
        let mut sources = Vec::new();
        let mut edges = Vec::new();
        match self {
            Prog::Stratified => {
                for v in 0..n {
                    edges.push((v as u32, rng.below(n) as u32));
                    if rng.chance(0.5) {
                        edges.push((v as u32, rng.below(n) as u32));
                    }
                }
                sources = (0..2).map(|_| rng.below(n) as u32).collect();
            }
            Prog::Tc => {
                let mut start = 0;
                while start < n {
                    let len =
                        (TC_SEGMENT.0 + rng.below(TC_SEGMENT.1 - TC_SEGMENT.0 + 1)).min(n - start);
                    edges.extend((start..start + len - 1).map(|v| (v as u32, v as u32 + 1)));
                    start += len;
                }
            }
            Prog::Point => {
                for v in 0..n - 1 {
                    edges.push((v as u32, v as u32 + 1));
                    let hop = 2 + rng.below(MAX_HOP - 1);
                    if v + hop < n && rng.chance(0.3) {
                        edges.push((v as u32, (v + hop) as u32));
                    }
                }
                sources.push(rng.below(n / 2) as u32);
            }
            Prog::Join => {
                // Zipf degrees, random wiring: the k-th of m edge ends
                // takes the rank at quantile (k + 0.5) / m, so every seed
                // gets the same skewed degree sequence (and join cost);
                // ranks map to random vertices and heads are shuffled
                // against tails.
                let m = JOIN_EDGES_PER_NODE * n;
                let zipf = Zipf::new(n, ZIPF_S);
                let ends: Vec<usize> = (0..m)
                    .map(|k| zipf.quantile((k as f64 + 0.5) / m as f64))
                    .collect();
                let mut heads = ends.clone();
                rng.shuffle(&mut heads);
                let mut vertex: Vec<u32> = (0..n as u32).collect();
                rng.shuffle(&mut vertex);
                let mut seen = HashSet::new();
                for (&a, &b) in ends.iter().zip(&heads) {
                    let (a, b) = (vertex[a], vertex[b]);
                    if a != b && seen.insert((a, b)) {
                        edges.push((a, b));
                    }
                }
            }
        }
        let mut s = structure(self.preds(), n);
        add_edges(&mut s, &edges);
        match self {
            Prog::Stratified => {
                let (node, first) = (lookup(&s, "node"), lookup(&s, "first"));
                for v in 0..n as u32 {
                    s.insert(node, &[ElemId(v)]);
                }
                for &v in &sources {
                    s.insert(first, &[ElemId(v)]);
                }
            }
            Prog::Point => {
                let source = lookup(&s, "source");
                s.insert(source, &[ElemId(sources[0])]);
            }
            Prog::Tc | Prog::Join => {}
        }
        Candidate {
            program: self,
            structure: s,
            nodes: n,
            edges,
            sources,
            expected: Expected::Pending,
        }
    }
}

/// Vertices reachable from `sources` (sources included) by BFS.
fn reachable(n: usize, edges: &[(u32, u32)], sources: &[u32]) -> Vec<bool> {
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        out[a as usize].push(b);
    }
    let mut seen = vec![false; n];
    let mut queue: VecDeque<u32> = sources.iter().copied().collect();
    for &s in sources {
        seen[s as usize] = true;
    }
    while let Some(v) = queue.pop_front() {
        for &w in &out[v as usize] {
            if !seen[w as usize] {
                seen[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    seen
}

/// Vertices at the end of a non-empty path from `a`.
fn path_targets(n: usize, edges: &[(u32, u32)], a: u32) -> Vec<bool> {
    let starts: Vec<u32> = edges
        .iter()
        .filter(|&&(x, _)| x == a)
        .map(|&(_, y)| y)
        .collect();
    reachable(n, edges, &starts)
}

/// Every pair `(a, b)` with a non-empty path from `a` to `b`.
fn closure_pairs(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let mut pairs = Vec::new();
    for a in 0..n as u32 {
        let seen = path_targets(n, edges, a);
        pairs.extend(
            (0..n as u32)
                .filter(|&b| seen[b as usize])
                .map(|b| vec![a, b]),
        );
    }
    pairs
}

/// Nested-loop reference of the triangle join.
fn triangles(n: usize, edges: &[(u32, u32)]) -> Vec<Vec<u32>> {
    let set: HashSet<(u32, u32)> = edges.iter().copied().collect();
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        out[a as usize].push(b);
    }
    let mut tri = Vec::new();
    for &(x, y) in edges {
        for &z in &out[y as usize] {
            if set.contains(&(z, x)) {
                tri.push(vec![x, y, z]);
            }
        }
    }
    tri
}

fn stores_equal(a: &IdbStore, b: &IdbStore, idbs: usize) -> bool {
    (0..idbs as u32).all(|p| {
        let (ra, rb) = (a.relation(IdbId(p)), b.relation(IdbId(p)));
        ra.len() == rb.len() && ra.iter().all(|t| rb.contains(t))
    })
}

/// The view's base edges: chains cut into segments plus forward
/// shortcuts inside each segment.
fn view_edges(rng: &mut Rng) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for v in 0..VIEW_NODES {
        let seg_end = (v / VIEW_SEGMENT + 1) * VIEW_SEGMENT;
        if v + 1 < seg_end {
            edges.push((v as u32, v as u32 + 1));
        }
        let hop = 2 + rng.below(MAX_HOP - 1);
        if v + hop < seg_end && rng.chance(VIEW_SHORTCUT) {
            edges.push((v as u32, (v + hop) as u32));
        }
    }
    edges
}

/// A cycle of [`BATCHES`] mixed batches of ≈1% of the base facts. The
/// edges are cut into disjoint toggle sets `S_0 .. S_{L-1}`, each half
/// present and half absent edges; batch `j` toggles `S_j` and
/// `S_{j+1 mod L}` (retract if present, insert if absent). Every set is
/// toggled twice per cycle, so a pass returns the view to its base state
/// although the cycle length is odd.
fn view_batches(rng: &mut Rng, base: &[(u32, u32)], e: PredId) -> Vec<Batch> {
    let half = (base.len() / 400).max(1);
    let mut present: Vec<(u32, u32)> = base.to_vec();
    let mut chosen: HashSet<(u32, u32)> = base.iter().copied().collect();
    let sets: Vec<Vec<(u32, u32)>> = (0..BATCHES)
        .map(|_| {
            let mut set: Vec<(u32, u32)> = (0..half)
                .map(|_| present.swap_remove(rng.below(present.len())))
                .collect();
            while set.len() < 2 * half {
                let a = rng.below(VIEW_NODES);
                let b = a + 1 + rng.below(MAX_HOP);
                if b / VIEW_SEGMENT == a / VIEW_SEGMENT && chosen.insert((a as u32, b as u32)) {
                    set.push((a as u32, b as u32));
                }
            }
            set
        })
        .collect();
    let mut state: HashSet<(u32, u32)> = base.iter().copied().collect();
    (0..BATCHES)
        .map(|j| {
            let mut batch = Batch {
                update: Update::new(),
                read: (0, 0),
                expected: false,
                inserted: Vec::new(),
                retracted: Vec::new(),
            };
            for &(a, b) in sets[j].iter().chain(&sets[(j + 1) % BATCHES]) {
                let tuple = [ElemId(a), ElemId(b)];
                if state.remove(&(a, b)) {
                    batch.update.push_retract(e, &tuple);
                    batch.retracted.push((a, b));
                } else {
                    state.insert((a, b));
                    batch.update.push_insert(e, &tuple);
                    batch.inserted.push((a, b));
                }
            }
            let seg = rng.below(VIEW_NODES / VIEW_SEGMENT) * VIEW_SEGMENT;
            let a = seg + rng.below(VIEW_SEGMENT - 1);
            batch.read = (
                a as u32,
                (a + 1 + rng.below(seg + VIEW_SEGMENT - a - 1)) as u32,
            );
            batch
        })
        .collect()
}

impl Workload for DatalogServing {
    const KINDS: [&'static str; 3] = ["eval", "apply", "join"];
    /// Every second pass.
    const SETUP_EVERY: usize = 150;

    fn setup(seed: u64, t: &mut Tracer) -> Self {
        let mut rng = Rng::new(seed, 3);
        let programs = [Prog::Stratified, Prog::Tc, Prog::Point, Prog::Join];
        let sessions = programs.iter().map(|p| p.session()).collect();
        let mut candidates = Vec::new();
        for program in programs {
            let (lo, hi) = match program {
                Prog::Stratified => STRATIFIED_NODES,
                Prog::Tc => TC_NODES,
                Prog::Point => POINT_NODES,
                Prog::Join => JOIN_NODES,
            };
            for n in log_grid(CANDIDATES, lo, hi) {
                candidates.push(program.candidate(&mut rng, n));
            }
        }
        let edges = view_edges(&mut rng);
        let mut base = structure(Prog::Tc.preds(), VIEW_NODES);
        add_edges(&mut base, &edges);
        let batches = view_batches(&mut rng, &edges, lookup(&base, "e"));
        let view = t
            .span("incremental.materialize", || {
                Prog::Tc.session().materialize(&base)
            })
            .expect("materialize");
        let mut order: Vec<Slot> = (0..candidates.len())
            .map(Slot::Read)
            .chain((0..batches.len()).map(|_| Slot::Apply))
            .collect();
        rng.shuffle(&mut order);
        DatalogServing {
            sessions,
            candidates,
            view,
            base_edges: edges,
            batches,
            next_batch: 0,
            order,
        }
    }

    fn prepare_oracle(&mut self) {
        for c in &mut self.candidates {
            c.expected = match c.program {
                Prog::Stratified => {
                    let mut first = vec![false; c.nodes];
                    for &s in &c.sources {
                        first[s as usize] = true;
                    }
                    Expected::Stratified {
                        reach: reachable(c.nodes, &c.edges, &c.sources),
                        first,
                    }
                }
                Prog::Tc => Expected::Tuples("path", closure_pairs(c.nodes, &c.edges)),
                Prog::Point => Expected::Answer(path_targets(c.nodes, &c.edges, c.sources[0])),
                Prog::Join => Expected::Tuples("tri", triangles(c.nodes, &c.edges)),
            };
        }
        let mut edges: HashSet<(u32, u32)> = self.base_edges.iter().copied().collect();
        for b in &mut self.batches {
            for e in &b.retracted {
                edges.remove(e);
            }
            edges.extend(&b.inserted);
            let list: Vec<(u32, u32)> = edges.iter().copied().collect();
            let (a, target) = b.read;
            b.expected = path_targets(VIEW_NODES, &list, a)[target as usize];
        }
    }

    fn pass_len(&self) -> usize {
        self.order.len()
    }

    fn request(&mut self, i: usize, t: &mut Tracer) -> Outcome {
        match self.order[i] {
            Slot::Read(c) => self.read(c, t),
            Slot::Apply => self.apply(t),
        }
    }
}

impl DatalogServing {
    fn read(&mut self, c: usize, t: &mut Tracer) -> Outcome {
        let cand = &self.candidates[c];
        let (kind, name) = match cand.program {
            Prog::Join => (2, "join"),
            _ => (0, "eval"),
        };
        let session = &mut self.sessions[cand.program as usize];
        let (result, nanos) = t.request(name, |t| {
            t.span("datalog.eval", || session.evaluate(&cand.structure))
        });
        let ok = match result {
            Ok(r) => {
                count_eval_stats(t, &r.stats);
                check_read(&cand.expected, &r.store, session.program())
            }
            Err(e) => {
                eprintln!("perfbench: evaluate failed: {e}");
                false
            }
        };
        Outcome {
            kind,
            atoms: cand.structure.atom_count(),
            nanos,
            ok,
        }
    }

    fn apply(&mut self, t: &mut Tracer) -> Outcome {
        let batch = &self.batches[self.next_batch];
        self.next_batch = (self.next_batch + 1) % self.batches.len();
        let view = &mut self.view;
        let (a, b) = batch.read;
        let (hit, nanos) = t.request("apply", |t| {
            let profile = t.span("incremental.apply", || view.apply(&batch.update));
            t.count("incremental.overdeleted", profile.overdeleted);
            t.count("incremental.rederived", profile.rederived);
            t.count(
                "incremental.fell_back",
                usize::from(profile.fell_back.is_some()),
            );
            view.holds("path", &[ElemId(a), ElemId(b)])
        });
        let mut ok = hit == batch.expected;
        if view.updates_applied().is_multiple_of(VIEW_CHECK_EVERY) {
            let fresh = Evaluator::new(view.program().clone())
                .and_then(|mut s| s.evaluate(&view.base_structure()));
            ok &= fresh.is_ok_and(|r| {
                stores_equal(view.store(), &r.store, view.program().idb_arities.len())
            });
        }
        Outcome {
            kind: 1,
            atoms: batch.update.len(),
            nanos,
            ok,
        }
    }
}

fn check_read(expected: &Expected, store: &IdbStore, program: &mdtw_datalog::Program) -> bool {
    let holds = |name: &str, v: usize| store.holds_named(name, &[ElemId(v as u32)]);
    match expected {
        Expected::Pending => false,
        Expected::Stratified { reach, first } => {
            reach.iter().zip(first).enumerate().all(|(v, (&r, &f))| {
                holds("reach", v) == r
                    && holds("unreach", v) != r
                    && holds("settled", v) == (r && !f)
            })
        }
        Expected::Tuples(name, tuples) => program.idb(name).is_some_and(|id| {
            let rel = store.relation(id);
            rel.len() == tuples.len()
                && tuples
                    .iter()
                    .all(|t| rel.contains(&t.iter().map(|&v| ElemId(v)).collect::<Vec<_>>()))
        }),
        Expected::Answer(reach) => reach
            .iter()
            .enumerate()
            .all(|(v, &r)| holds("answer", v) == r),
    }
}
