//! Lowering safe plans to bytecode, and the shape-keyed plan cache.
//!
//! The compile pipeline turns one planning verdict into a reusable
//! artifact:
//!
//! 1. **Shape key** — [`crate::algebra::Flattened::shape_hash`]
//!    fingerprints the query shape (scan names, relations, raw
//!    predicates, join pairs; the projection is excluded). The statistic
//!    tag joins it in the cache key, and every hit re-verifies full
//!    structural equality ([`CachedPlan::matches`]) so fingerprint
//!    collisions cannot reuse a wrong plan.
//! 2. **Lowering** — [`lower`] walks the component/covering-root
//!    recursion, which lives only here and in the reference tape
//!    (`grad::record`, reachable only through
//!    [`crate::testutil::interpreted`] and the gradient), but emits flat
//!    [`vm::Op`]s instead of recursing over row maps. It lowers one
//!    dissociation: the empty one is the exact safe plan, and a bounds
//!    candidate is one program that [`vm::run_prebound`] runs once per
//!    bracket side. [`render`] reads a program back as the [`SafePlan`]
//!    reports show. [`compile_count`] captures the deterministic
//!    mass-join schedule.
//! 3. **Peephole** — [`peephole`] fuses all-leaf partition bodies into
//!    inline leaf lists; the lowering itself already hoists
//!    loop-invariant (copied-only) subtrees and records per-term sort
//!    paths so partition keys are sorted once at bind time instead of
//!    hashed per recursion level.
//! 4. **Cache** — [`PlanCache`], one exact-LRU table under one mutex,
//!    stores [`CachedPlan`]s: the query's [`Flattened`] shape, its
//!    resolved [`Shape`] (kept once, behind an [`Arc`]), the compiled
//!    program and the data-dependent guard verdicts. Each plan is the
//!    single owner of its term scans, term records and bound registers,
//!    behind one lock ([`PlanMemo`]). A cold miss captures the entry with
//!    its scans and registers and runs it through the same executor as a
//!    warm hit; a warm hit skips flatten-resolve-classify-dissociate
//!    entirely: it binds the kept shape to current column data (one
//!    lookup and schema check per term) and executes the cached program.
//!
//! **Incremental refresh.** The memo keeps, beside each term's scan, one
//! [`TermRecord`] of what changed since the plan last answered: the
//! relation's version, its mass stamp and the register cut. Its
//! data-derived state comes in two kinds:
//!
//! - the **term scans** ([`TermScan`]): live-row bitmaps, per-segment
//!   key-straddle and alias verdicts and pruned-block counts. They read
//!   values only, so they sit under the *value stamps* of
//!   [`crate::ProbDb`], one per [`crate::SEGMENT_LEN`] rows, which each
//!   scan carries as the plan's only copy. A refresh re-scans only the
//!   segments whose value stamps moved; a mass update moves none. A cold
//!   capture is the same refresh with no segment kept.
//! - the **registers and mass tables** ([`BoundRegs`]): they carry
//!   masses, so while the mass stamp holds and no segment before the cut
//!   moved, a write can only have appended rows from the cut on, and the
//!   memo merges those rows in ([`vm::append_term`], [`exact::StepMass`]);
//!   otherwise (a mass update, another generation's rows) it rebinds.
//!
//! **Invalidation.** Classification is partly data-dependent (the
//! key-straddle and alias-live-set guards), so a cached verdict is only
//! reused when it is provably still right. A refresh ([`CachedPlan::refresh`],
//! in place, under the memo lock) re-reads both guards from the scans'
//! per-segment verdicts. A flipped guard marks the memo *dead*, since its
//! scans now describe data its registers do not: the plan never answers
//! again, and its entry is invalidated and replanned cold, as it is when a
//! relation's schema changed.

use super::classify::{
    alias_live_mismatch, compile_terms, components, key_straddle, refresh_scans, CompiledTerm,
    Moved, Resolved, Shape, TermScan,
};
use super::dissociate::{
    alias_multiplicities, bracket, covering_root, extended_class_terms, DissociatedBounds,
    Dissociation, Mode,
};
use super::exact::{self, MassStep, StepMass};
use super::report::{EvalPath, PlanClass, SafePlan};
use super::vm::{self, BodyStep, CountProgram, Op, Program};
use crate::algebra::{Flattened, Statistic};
use crate::database::{ProbDb, SEGMENT_LEN};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache tag of a statistic, for statistics whose planning verdict and
/// program are pure functions of the query shape (plus the guarded data
/// properties). Other statistics always plan fresh.
pub(crate) fn cache_tag(stat: Statistic) -> Option<u8> {
    match stat {
        Statistic::Probability => Some(1),
        Statistic::ProbabilityBounds => Some(2),
        Statistic::ExpectedCount => Some(3),
        _ => None,
    }
}

/// Lowers one dissociation — the query with the `ext` class memberships
/// added — to a program, mirroring the reference tape's recursion
/// (`grad::record`) exactly: terms binding the root partition as usual,
/// dissociated copies replicated with their replication registers
/// accumulating the branch count, and every leaf carrying its alias
/// multiplicity for the run's [`Mode`]. `lower(resolved, &[])` is the
/// exact safe plan of a liftable shape. `None` when some component has
/// no covering root class: such extension sets are not admissible.
pub(crate) fn lower(resolved: &Resolved, ext: &[(usize, usize)]) -> Option<Program> {
    let mut lowering = Lowering {
        resolved,
        class_terms: extended_class_terms(resolved, ext),
        alias_k: alias_multiplicities(resolved),
        paths: vec![Vec::new(); resolved.shape.terms.len()],
        ops: Vec::new(),
    };
    // A flattened query is one connected component: every join links a
    // term of its left side to one of its right side.
    let all: Vec<usize> = (0..resolved.shape.terms.len()).collect();
    let active: Vec<usize> = (0..resolved.shape.classes.len()).collect();
    let root = lowering.component(&all, &active)?;
    Some(peephole(Program {
        ops: lowering.ops,
        root,
        paths: lowering.paths,
    }))
}

/// The lowering's shape context and the program it emits.
struct Lowering<'a, 'b> {
    resolved: &'a Resolved<'b>,
    class_terms: Vec<Vec<usize>>,
    alias_k: Vec<f64>,
    paths: Vec<Vec<usize>>,
    ops: Vec<Op>,
}

impl Lowering<'_, '_> {
    fn component(&mut self, comp: &[usize], active: &[usize]) -> Option<u32> {
        if comp.len() == 1 {
            let t = comp[0];
            return Some(self.emit(Op::Leaf {
                term: t as u32,
                k: self.alias_k[t],
            }));
        }
        let root = covering_root(self.resolved, &self.class_terms, comp, active)?;
        let root_terms = self.resolved.shape.classes[root].terms();
        let (binding, copied): (Vec<usize>, Vec<usize>) =
            comp.iter().partition(|t| root_terms.contains(t));
        let binding = binding
            .into_iter()
            .map(|t| {
                self.paths[t].push(root);
                (t as u32, (self.paths[t].len() - 1) as u32)
            })
            .collect();
        let remaining: Vec<usize> = active.iter().copied().filter(|&c| c != root).collect();
        let body = components(&self.class_terms, comp, &remaining)
            .iter()
            .map(|sub| {
                let op = self.component(sub, &remaining)?;
                // Copied-only subtrees see the same windows and
                // replication registers in every branch — loop-invariant,
                // hoist.
                Some(if sub.iter().all(|t| copied.contains(t)) {
                    BodyStep::Hoisted(op)
                } else {
                    BodyStep::Eval(op)
                })
            })
            .collect::<Option<_>>()?;
        Some(self.emit(Op::Partition {
            binding,
            copied: copied.iter().map(|&t| t as u32).collect(),
            body,
            fused: None,
        }))
    }

    fn emit(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }
}

/// Renders a lowered dissociation — the query with the `ext` class
/// memberships added — as the [`SafePlan`] reports show: a partition is
/// keyed by its root class (the class its binding terms sit on at that
/// level of their sort paths), its body in order; a leaf is a
/// [`SafePlan::Scan`], or a [`SafePlan::Copy`] on the classes `ext`
/// dissociates its term on.
pub(crate) fn render(program: &Program, resolved: &Resolved, ext: &[(usize, usize)]) -> SafePlan {
    render_op(program, resolved, ext, program.root)
}

fn render_op(program: &Program, resolved: &Resolved, ext: &[(usize, usize)], op: u32) -> SafePlan {
    match &program.ops[op as usize] {
        Op::Leaf { term, .. } => {
            let t = *term as usize;
            let relation = resolved.shape.terms[t].name.clone();
            let keys: Vec<&str> = ext
                .iter()
                .filter(|&&(_, et)| et == t)
                .map(|&(c, _)| resolved.shape.classes[c].label.as_str())
                .collect();
            if keys.is_empty() {
                SafePlan::Scan { relation }
            } else {
                SafePlan::Copy {
                    relation,
                    key: keys.join(" ∥ "),
                }
            }
        }
        Op::Partition { binding, body, .. } => {
            let (t, level) = binding[0];
            let root = program.paths[t as usize][level as usize];
            SafePlan::KeyPartition {
                key: resolved.shape.classes[root].label.clone(),
                inputs: body
                    .iter()
                    .map(|(BodyStep::Eval(op) | BodyStep::Hoisted(op))| {
                        render_op(program, resolved, ext, *op)
                    })
                    .collect(),
            }
        }
    }
}

/// Lowers the expected-count statistic: the single-relation closed form
/// when there are no join classes, the mass-join schedule otherwise.
pub(crate) fn compile_count(resolved: &Resolved) -> CountProgram {
    if resolved.shape.classes.is_empty() && resolved.shape.terms.len() == 1 {
        CountProgram {
            steps: None,
            classes: 0,
        }
    } else {
        CountProgram {
            steps: Some(exact::count_steps(resolved)),
            classes: resolved.shape.classes.len(),
        }
    }
}

/// The peephole pass: partitions whose body is entirely un-hoisted leaves
/// get the fused inline leaf list (no op dispatch per branch). Selection
/// fusion happens upstream of lowering — flattening conjoins adjacent
/// `Filter`s into one per-term predicate, compiled into a single live-row
/// bitmap — and leaf-mass hoisting plus the one-time key pre-sort are
/// encoded by the lowering itself ([`BodyStep::Hoisted`],
/// [`Program::paths`]).
fn peephole(mut prog: Program) -> Program {
    for i in 0..prog.ops.len() {
        let fused = match &prog.ops[i] {
            Op::Partition {
                binding,
                body,
                fused: None,
                ..
            } => body
                .iter()
                .map(|step| match step {
                    BodyStep::Eval(op) => match &prog.ops[*op as usize] {
                        // Memoizable iff this partition is the term's
                        // first binding level (outer window = the full
                        // register for the whole fold).
                        Op::Leaf { term, k } => Some((
                            *term,
                            *k,
                            binding.iter().any(|&(t, lvl)| t == *term && lvl == 0),
                        )),
                        _ => None,
                    },
                    BodyStep::Hoisted(_) => None,
                })
                .collect::<Option<Vec<_>>>(),
            _ => None,
        };
        if let Some(f) = fused {
            if let Op::Partition { fused: slot, .. } = &mut prog.ops[i] {
                *slot = Some(f);
            }
        }
    }
    prog
}

/// Executes compiled bounds candidates over bound registers and
/// intersects the brackets — the VM counterpart of
/// `dissociate::evaluate_bounds`, ending in the same [`bracket`] tail so
/// both pick identical winners. `regs[i]` is candidate `i`'s one register
/// set: its upper and lower bound are the same program run in the two
/// modes, and a program's sort paths depend only on its dissociation, so
/// both runs read the same registers.
pub(crate) fn run_bounds_prebound(
    resolved: &Resolved,
    candidates: &[Dissociation],
    regs: &[Vec<vm::TermRegs>],
) -> DissociatedBounds {
    let evals: Vec<(f64, f64)> = candidates
        .iter()
        .zip(regs)
        .map(|(cand, regs)| {
            (
                vm::run_prebound(&cand.program, regs, Mode::Upper).clamp(0.0, 1.0),
                vm::run_prebound(&cand.program, regs, Mode::Lower).clamp(0.0, 1.0),
            )
        })
        .collect();
    bracket(resolved, candidates, &evals)
}

/// The executable part of a cached plan.
#[derive(Debug)]
pub(crate) enum CompiledProgram {
    /// Exact boolean probability (also the collapsed-bracket case of
    /// `ProbabilityBounds` on safe shapes): the empty dissociation, run
    /// in [`Mode::Upper`].
    Boolean(Program),
    /// Dissociation ensemble: one program per candidate, run once per
    /// bracket side, stored beside the plan it renders as.
    Bounds(Vec<Dissociation>),
    /// Expected count.
    Count(CountProgram),
    /// The verdict was Monte Carlo — no bytecode, but caching it still
    /// skips replanning (for `ProbabilityBounds`, the entry's
    /// decomposition records why dissociation refused).
    Sampled,
}

impl CompiledProgram {
    /// The programs that bind register sets (one for a boolean program,
    /// one per candidate of a bounds ensemble) and the mass-join steps of
    /// a count program.
    fn parts(&self) -> (Vec<&Program>, Option<&[MassStep]>) {
        match self {
            Self::Boolean(p) => (vec![p], None),
            Self::Bounds(candidates) => (candidates.iter().map(|c| &c.program).collect(), None),
            Self::Count(cp) => (Vec::new(), cp.steps.as_deref()),
            Self::Sampled => (Vec::new(), None),
        }
    }
}

/// The mutable state of a cached plan, behind its one lock: per term, its
/// scan and the record of what changed since the plan last answered, and
/// the registers bound under them. An evaluation whose relations carry
/// exactly the recorded versions skips the guards, predicate evaluation
/// and register binding and goes straight to the fold; any mutation moves
/// a version, and [`CachedPlan::refresh`] brings the memo up to date in
/// place.
#[derive(Debug)]
pub(crate) struct PlanMemo {
    /// Per-term scans, each valid for the value stamps it carries (see
    /// [`TermScan`]); sampling verdicts keep them too. Behind an [`Arc`]
    /// so a sampler or refiner reads them after the lock is released; a
    /// refresh copies them only while such a reader still holds them.
    pub scans: Arc<Vec<TermScan>>,
    /// Per term, beside its scan: what its relation looked like when the
    /// plan last answered.
    pub records: Vec<TermRecord>,
    /// Bound registers; empty for sampling verdicts, which bind nothing.
    pub regs: BoundRegs,
    /// Set when a refresh found a guard flipped. The scans then describe
    /// data the registers do not, so the plan never answers again.
    pub dead: bool,
}

/// The gathered, pre-sorted columns of a deterministic program, describing
/// the data its memo's records name. Unlike the scans they carry masses,
/// so a refresh keeps them only under the conditions of
/// [`TermRecord::appends`]: then it merges in the rows from each term's
/// cut on; otherwise it rebinds.
#[derive(Debug)]
pub(crate) struct BoundRegs {
    /// One register set per program: `[regs]` for a boolean program, one
    /// per candidate (in candidate order, shared by both bracket sides)
    /// for a bounds ensemble, empty for a count program (whose memo is
    /// [`BoundRegs::count`]).
    pub per_program: Vec<Vec<vm::TermRegs>>,
    /// Memoized grouped mass tables of an expected-count program, step
    /// order, each with its fold state at its term's block cut.
    pub count: Option<Vec<StepMass>>,
}

/// One term's record: its relation's version and mass stamp when the plan
/// last answered, and the register cut — the first certain and the first
/// block segment whose register entries may still change by appends.
/// Every segment before the cut is full. The term's value stamps are its
/// scan's, the only copy the plan keeps.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermRecord {
    version: u64,
    mass: u64,
    cut: (usize, usize),
}

impl TermRecord {
    /// `db` now, cut at its last segments, or at `at_least` where that lies
    /// further on.
    fn of(db: &ProbDb, at_least: (usize, usize)) -> Self {
        let last = |stamps: &[u64]| stamps.len().saturating_sub(1);
        TermRecord {
            version: db.version(),
            mass: db.mass_stamp(),
            cut: (
                last(db.certain_stamps()).max(at_least.0),
                last(db.block_stamps()).max(at_least.1),
            ),
        }
    }

    /// Can the registers merge in `db`'s rows from the cut on? Only when
    /// no mass moved and no value stamp before the cut did (`moved`, from
    /// the scan refresh). Stamps are process-unique, so equal stamps name
    /// the same writes, across clones and generations too; then only rows
    /// from the cut on can differ.
    fn appends(&self, db: &ProbDb, moved: Moved) -> bool {
        db.mass_stamp() == self.mass
            && moved.certain.is_none_or(|c| c >= self.cut.0)
            && moved.blocks.is_none_or(|b| b >= self.cut.1)
    }

    /// The cut as rows of `db`, whose segments before the cut are full.
    fn rows(&self, db: &ProbDb) -> vm::Cut {
        let cols = db.columns();
        let blocks = (self.cut.1 * SEGMENT_LEN).min(cols.block_count());
        vm::Cut {
            certain: (self.cut.0 * SEGMENT_LEN).min(cols.certain().rows()),
            alts: cols.block_offset(blocks),
        }
    }
}

impl BoundRegs {
    /// Binds every register set and mass table from scratch at the
    /// records' cuts: the cold miss that captures the plan. This first
    /// bind is not a rebuild and is not counted in
    /// [`PlanCacheStats::reg_rebinds`].
    fn bind(
        program: &CompiledProgram,
        resolved: &Resolved,
        compiled: &[CompiledTerm],
        records: &[TermRecord],
    ) -> Self {
        let (programs, steps) = program.parts();
        let cuts: Vec<vm::Cut> = (records.iter().zip(&resolved.dbs))
            .map(|(r, db)| r.rows(db))
            .collect();
        BoundRegs {
            per_program: programs
                .iter()
                .map(|prog| vm::bind_program(prog, compiled, &cuts))
                .collect(),
            count: steps.map(|st| {
                st.iter()
                    .map(|step| StepMass::build(&compiled[step.term], step, cuts[step.term].alts))
                    .collect()
            }),
        }
    }

    /// The registers and mass tables as raw bits ([`vm::TermRegs::push_bits`],
    /// then each table's keys and masses): equal bits mean an equal memo.
    pub(crate) fn bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for regs in self.per_program.iter().flatten() {
            regs.push_bits(&mut out);
        }
        for mass in self.count.iter().flatten() {
            out.push(mass.table.len() as u64);
            for (key, m) in &mass.table {
                out.extend(key.iter().map(|&k| u64::from(k)));
                out.push(m.to_bits());
            }
        }
        out
    }
}

/// A fully planned, compiled, shape-verified cache entry: everything a
/// warm hit needs to execute against current column data without
/// resolving or classifying anything.
#[derive(Debug)]
pub(crate) struct CachedPlan {
    /// The query shape the plan answers, compared on every hit.
    flat: Flattened,
    /// The resolved shape, kept once; a warm bind only looks up its
    /// relations and checks their schemas.
    shape: Arc<Shape>,
    /// Recorded verdict of the key-straddle guard at plan time.
    straddle: bool,
    /// Recorded verdict of the alias-live-mismatch guard at plan time.
    alias_mismatch: bool,
    /// The planned evaluation path (pre any hybrid upgrade, which is an
    /// evaluation-time decision re-made per answer).
    pub path: EvalPath,
    pub plan_class: PlanClass,
    /// The classifier's decomposition (bounds answers report their
    /// winning candidate's plan instead).
    pub decomposition: Option<SafePlan>,
    pub program: CompiledProgram,
    /// The scans, records and registers (see [`PlanMemo`]).
    pub memo: Mutex<PlanMemo>,
}

impl CachedPlan {
    /// Builds the owned entry from a cold plan: records the guard
    /// verdicts and each term's relation, keeps the shape and the terms'
    /// scans, and binds the registers of a deterministic program.
    pub(crate) fn capture(
        flat: Flattened,
        resolved: &Resolved,
        scans: Vec<TermScan>,
        (path, plan_class, decomposition): (EvalPath, PlanClass, Option<SafePlan>),
        program: CompiledProgram,
    ) -> Self {
        let records: Vec<TermRecord> = (resolved.dbs.iter())
            .map(|db| TermRecord::of(db, (0, 0)))
            .collect();
        let compiled = compile_terms(resolved, &scans);
        let regs = BoundRegs::bind(&program, resolved, &compiled, &records);
        CachedPlan {
            flat,
            shape: Arc::clone(&resolved.shape),
            straddle: key_straddle(resolved, &scans).is_some(),
            alias_mismatch: alias_live_mismatch(resolved, &scans).is_some(),
            path,
            plan_class,
            decomposition,
            program,
            memo: Mutex::new(PlanMemo {
                scans: Arc::new(scans),
                records,
                regs,
                dead: false,
            }),
        }
    }

    /// Full structural shape verification on a fingerprint match.
    pub(crate) fn matches(&self, flat: &Flattened) -> bool {
        self.flat.same_shape(flat)
    }

    /// Binds the kept shape to current catalog data: one lookup and one
    /// schema check per term, no resolution or classification. Returns
    /// `None` (stale — cold replan) when a relation disappeared or its
    /// schema changed.
    pub(crate) fn bind<'a, F>(&self, lookup: &F) -> Option<Resolved<'a>>
    where
        F: Fn(&str) -> Option<&'a ProbDb>,
    {
        let dbs = (self.shape.terms.iter())
            .map(|t| {
                let db = lookup(&t.relation)?;
                let schema = db.schema();
                (Arc::ptr_eq(schema, &t.schema) || **schema == *t.schema).then_some(db)
            })
            .collect::<Option<_>>()?;
        Some(Resolved {
            shape: Arc::clone(&self.shape),
            dbs,
        })
    }

    /// Brings `memo` up to `resolved`'s data in place, under the caller's
    /// memo lock, for the terms whose relation's version moved since the
    /// memo's records: re-scans the segments whose value stamps moved,
    /// re-reads the two data-dependent guards from the scans' per-segment
    /// verdicts (no classification), and brings each moved term's register
    /// sets and mass tables up to date. They merge in the rows from the
    /// old cut on ([`vm::append_term`], [`StepMass::append`]) when
    /// [`TermRecord::appends`] allows, except that a mass table refolds
    /// when a certain segment moved, since certain rows come first in its
    /// fold; otherwise they are rebound. Returns the rows the scans
    /// evaluated and the sets appended to and rebound; `None` when a guard
    /// flipped: the memo is then dead, and the plan stale.
    pub(crate) fn refresh(
        &self,
        memo: &mut PlanMemo,
        resolved: &Resolved,
    ) -> Option<(usize, u64, u64)> {
        let stale: Vec<usize> = (0..resolved.dbs.len())
            .filter(|&t| memo.records[t].version != resolved.dbs[t].version())
            .collect();
        if stale.is_empty() {
            return Some((0, 0, 0));
        }
        let PlanMemo {
            scans,
            records,
            regs,
            dead,
        } = memo;
        let (rows, moved) = refresh_scans(resolved, Arc::make_mut(scans));
        if key_straddle(resolved, scans).is_some() != self.straddle
            || alias_live_mismatch(resolved, scans).is_some() != self.alias_mismatch
        {
            *dead = true;
            return None;
        }
        let compiled = compile_terms(resolved, scans);
        let (programs, steps) = self.program.parts();
        let (mut appended, mut rebound) = (0u64, 0u64);
        for t in stale {
            let (db, was) = (resolved.dbs[t], records[t]);
            let appends = was.appends(db, moved[t]);
            let now = TermRecord::of(db, if appends { was.cut } else { (0, 0) });
            let (from, cut) = (was.rows(db), now.rows(db));
            for (prog, regs) in programs.iter().zip(&mut regs.per_program) {
                if appends {
                    vm::append_term(&mut regs[t], &prog.paths[t], &compiled[t], from, cut);
                    appended += 1;
                } else {
                    regs[t] = vm::bind_term(&prog.paths[t], &compiled[t], cut);
                    rebound += 1;
                }
            }
            for (step, mass) in steps
                .into_iter()
                .flatten()
                .zip(regs.count.iter_mut().flatten())
                .filter(|(step, _)| step.term == t)
            {
                if appends && moved[t].certain.is_none() {
                    mass.append(&compiled[t], step, from.alts, cut.alts);
                    appended += 1;
                } else {
                    *mass = StepMass::build(&compiled[t], step, cut.alts);
                    rebound += 1;
                }
            }
            records[t] = now;
        }
        Some((rows, appended, rebound))
    }
}

/// Cumulative cache counters plus the current size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Warm hits: answers produced from a cached program.
    pub hits: u64,
    /// Cold misses (including fingerprint collisions that failed shape
    /// verification).
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Entries dropped because their guarded data properties or schemas
    /// changed out from under them.
    pub invalidations: u64,
    /// Memoized term register sets (or count mass tables) brought up to
    /// date by *appending*: after a write that only appended rows, the
    /// entries from the term's last storage segments on were gathered
    /// again and merged into the memo, and the rest kept.
    pub reg_patches: u64,
    /// Memoized term register sets (or count mass tables) rebuilt from
    /// scratch because the write was no append (a mass update, a change
    /// before the last segment, a mass table's certain rows moving). The
    /// first bind of a cold miss is not a rebuild and is not counted.
    pub reg_rebinds: u64,
    /// Always 0: the lock-free hot tier these hits counted was removed,
    /// and every lookup now goes through the one LRU table. Kept only
    /// because the end-to-end benchmark still reads it; drop it when the
    /// benchmark does.
    pub hot_hits: u64,
    /// Current number of cached plans.
    pub len: usize,
    /// Maximum number of cached plans.
    pub capacity: usize,
}

#[derive(Debug)]
struct Entry {
    tag: u8,
    hash: u64,
    plan: Arc<CachedPlan>,
    last_used: u64,
}

/// The cache's one table: its entries and the LRU clock.
#[derive(Debug, Default)]
struct Table {
    entries: Vec<Entry>,
    tick: u64,
}

impl Table {
    /// The entry under `(tag, hash)`, stamped most recently used.
    fn touch(&mut self, tag: u8, hash: u64) -> Option<&mut Entry> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self
            .entries
            .iter_mut()
            .find(|e| e.tag == tag && e.hash == hash)?;
        entry.last_used = tick;
        Some(entry)
    }
}

/// A shape-keyed cache of compiled plans, shared across engines — and,
/// under the serving layer, across worker threads.
///
/// Keys are `(statistic tag, 64-bit shape fingerprint)`; hits re-verify
/// full structural equality before reuse, so collisions degrade to
/// misses, never to wrong answers.
///
/// **Eviction policy: exact least-recently-used.** Every lookup and
/// insert stamps the entry with a monotonically increasing tick; when an
/// insert would exceed the capacity (default 128 plans; see
/// [`PlanCache::with_capacity`]) the entry with the smallest tick is
/// dropped and counted in [`PlanCacheStats::evictions`], so the cache
/// holds `capacity` distinct shapes before it evicts any. Entries whose
/// guarded data properties change are removed eagerly and counted in
/// [`PlanCacheStats::invalidations`]. An evicted, invalidated or cleared
/// plan is released as soon as the last in-flight evaluation using it
/// finishes: the cache keeps no other reference.
///
/// **Concurrency.** One mutex guards the table; every operation holds it
/// only for a scan of the entries, never while planning or evaluating,
/// and the counters are atomics. Each plan then guards its own term
/// scans, term records and registers with one lock of its own, so
/// concurrent hits on different shapes run in parallel and concurrent
/// hits on one shape share one register memo.
/// Shareable behind an [`Arc`] across engine instances — and across
/// catalog mutations, which is the point: rebuild the borrowing engine,
/// keep the warmth.
#[derive(Debug)]
pub struct PlanCache {
    table: Mutex<Table>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    reg_patches: AtomicU64,
    reg_rebinds: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// A cache with the default capacity of 128 plans.
    pub fn new() -> Self {
        Self::with_capacity(128)
    }

    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            table: Mutex::default(),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            reg_patches: AtomicU64::new(0),
            reg_rebinds: AtomicU64::new(0),
        }
    }

    /// Snapshot of the cumulative counters and current size.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            reg_patches: self.reg_patches.load(Ordering::Relaxed),
            reg_rebinds: self.reg_rebinds.load(Ordering::Relaxed),
            hot_hits: 0,
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        self.lock().entries.clear();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Table> {
        self.table.lock().expect("plan cache lock")
    }

    /// The entry under `(tag, hash)`, LRU-bumped. Callers verify the
    /// shape and count the hit or miss.
    pub(crate) fn probe(&self, tag: u8, hash: u64) -> Option<Arc<CachedPlan>> {
        self.lock().touch(tag, hash).map(|e| e.plan.clone())
    }

    pub(crate) fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one warm execution's register maintenance (see
    /// [`PlanCacheStats::reg_patches`] / [`PlanCacheStats::reg_rebinds`]).
    pub(crate) fn record_reg_maintenance(&self, appended: u64, rebound: u64) {
        if appended > 0 {
            self.reg_patches.fetch_add(appended, Ordering::Relaxed);
        }
        if rebound > 0 {
            self.reg_rebinds.fetch_add(rebound, Ordering::Relaxed);
        }
    }

    /// Removes the entry holding `stale`, a plan found stale (guards or
    /// schema changed). An entry another thread has meanwhile replaced
    /// under the same key stays, and counts no invalidation.
    pub(crate) fn invalidate(&self, stale: &Arc<CachedPlan>) {
        let mut table = self.lock();
        let before = table.entries.len();
        table.entries.retain(|e| !Arc::ptr_eq(&e.plan, stale));
        if table.entries.len() < before {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Inserts (or replaces) an entry, evicting the least recently used
    /// one when the table is full.
    pub(crate) fn insert(&self, tag: u8, hash: u64, plan: Arc<CachedPlan>) {
        let mut table = self.lock();
        if let Some(e) = table.touch(tag, hash) {
            e.plan = plan;
            return;
        }
        if table.entries.len() >= self.capacity {
            if let Some(oldest) = table
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
            {
                table.entries.swap_remove(oldest);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let last_used = table.tick;
        table.entries.push(Entry {
            tag,
            hash,
            plan,
            last_used,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::Query;
    use crate::catalog::Catalog;
    use crate::plan::classify::resolve;
    use crate::plan::{CatalogEngine, QueryEngineConfig};
    use mrsl_relation::{AttrId, Schema};

    /// A stale hit invalidates only the plan it found stale: a replacement
    /// that another thread inserted under the same key meanwhile stays,
    /// and counts no invalidation.
    #[test]
    fn invalidating_a_replaced_plan_keeps_the_replacement() {
        let schema = Schema::builder()
            .attribute("x", ["v0", "v1"])
            .build()
            .unwrap();
        let mut catalog = Catalog::new();
        catalog.add("r", ProbDb::new(schema)).unwrap();
        let q = Query::scan("r");
        let tag = cache_tag(Statistic::Probability).unwrap();
        let hash = q.flatten().unwrap().shape_hash();
        let captured = |cache: &Arc<PlanCache>| {
            CatalogEngine::with_plan_cache(&catalog, QueryEngineConfig::default(), cache.clone())
                .probability(&q)
                .unwrap();
            cache.probe(tag, hash).expect("cached")
        };
        let cache = Arc::new(PlanCache::new());
        let stale = captured(&cache);
        let replacement = captured(&Arc::new(PlanCache::new()));
        cache.insert(tag, hash, replacement.clone());
        cache.invalidate(&stale);
        let kept = cache.probe(tag, hash).expect("the replacement stays");
        assert!(Arc::ptr_eq(&kept, &replacement));
        assert_eq!(cache.stats().invalidations, 0);
        cache.invalidate(&replacement);
        assert!(cache.probe(tag, hash).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    /// Pins [`render`] to strings recorded from the recursive
    /// decomposition reports used before they rendered programs, on the
    /// path `r(x) ⋈ s(x,y) ⋈ t(y,z) ⋈ u(z)`: nested partitions and copies
    /// on one and on two classes. Shapes without a covering root — the
    /// bare path, or the path cut in two by dropping its `z` class —
    /// neither lower nor render.
    #[test]
    fn rendered_programs_match_the_recorded_decompositions() {
        let schema = |attrs: &[&str]| {
            let mut b = Schema::builder();
            for a in attrs {
                b = b.attribute(*a, ["v0", "v1"]);
            }
            b.build().unwrap()
        };
        let mut catalog = Catalog::new();
        for (name, attrs) in [("r", &["x"][..]), ("s", &["x", "y"]), ("t", &["y", "z"])] {
            catalog.add(name, ProbDb::new(schema(attrs))).unwrap();
        }
        catalog.add("u", ProbDb::new(schema(&["z"]))).unwrap();
        let path = Query::scan("r")
            .join_on("s", [(AttrId(0), AttrId(0))])
            .join_on_rel("s", "t", [(AttrId(1), AttrId(0))])
            .join_on_rel("t", "u", [(AttrId(1), AttrId(0))])
            .flatten()
            .unwrap();
        let mut resolved = resolve(&path, |n| catalog.get(n)).unwrap();
        let rendered = |resolved: &Resolved, ext: &[(usize, usize)]| {
            lower(resolved, ext).map(|program| render(&program, resolved, ext).render())
        };
        let labels: Vec<&str> = resolved
            .shape
            .classes
            .iter()
            .map(|c| c.label.as_str())
            .collect();
        assert_eq!(labels, ["r.x = s.x", "s.y = t.y", "t.z = u.z"]);
        assert_eq!(rendered(&resolved, &[]), None);
        assert_eq!(
            rendered(&resolved, &[(0, 2), (0, 3), (1, 3)]).as_deref(),
            Some(
                "⨅[r.x = s.x](scan r, ⨅[s.y = t.y](scan s, ⨅[t.z = u.z](copy t∥[r.x = s.x], \
                 copy u∥[r.x = s.x ∥ s.y = t.y])))"
            )
        );
        assert_eq!(
            rendered(&resolved, &[(1, 0), (2, 0), (2, 1)]).as_deref(),
            Some(
                "⨅[t.z = u.z](⨅[s.y = t.y](⨅[r.x = s.x](copy r∥[s.y = t.y ∥ t.z = u.z], \
                 copy s∥[t.z = u.z]), scan t), scan u)"
            )
        );
        Arc::get_mut(&mut resolved.shape)
            .expect("one holder")
            .classes
            .truncate(2);
        assert_eq!(rendered(&resolved, &[]), None);
        assert_eq!(rendered(&resolved, &[(0, 2)]), None);
    }
}
