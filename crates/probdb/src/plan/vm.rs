//! The safe-plan bytecode VM: flat programs over columnar registers.
//!
//! [`super::compile::lower`] lowers one dissociation of a query —
//! including dissociation `Copy` nodes, and the empty dissociation that
//! is the exact safe plan — into a [`Program`], a flat `Vec` of ops that
//! this module executes directly against the current column data. A
//! program is bracket-side agnostic: [`run_prebound`] takes the [`Mode`],
//! so a bounds candidate is one program over one register set, run once
//! per side, and an exact plan is run in [`Mode::Upper`], where every
//! leaf's mass is unchanged. The op set:
//!
//! * [`Op::Leaf`] — the per-block complement product
//!   `1 - ∏_blocks (1 - t(mass))` over one term's current register
//!   window, where `t` is [`Mode::mass`] for the leaf's alias
//!   multiplicity `k` (a compile-time constant of the shape) and the
//!   term's runtime replication register `d`: `m^(1/k)` for the
//!   conjunctive alias upper bound, `1 - (1-m)^(1/d)` for the disjunctive
//!   lower bound, the mass itself when `k` (upper) or `d` (lower) is 1.
//! * [`Op::Partition`] — the key-partition fold
//!   `1 - ∏_values (1 - ∏_subcomponents p)`: a k-way sorted-run merge
//!   over the binding terms' pre-sorted key registers that narrows each
//!   binding term's window to its value run and runs the embedded
//!   subcomponent product (the body) per common key value. Dissociated
//!   `Copy` terms keep their full windows and accumulate the branch
//!   count into their replication registers. The body embeds two
//!   peephole results: loop-invariant steps ([`BodyStep::Hoisted`],
//!   subcomponents containing only copied terms) are evaluated once per
//!   fold instead of per branch, and an all-leaf body is fused into an
//!   inline `(term, k)` list with no op dispatch per branch.
//! * The expected-count mass join ([`CountProgram`]) — set-at-a-time
//!   already; it executes through the same deterministic
//!   [`super::exact::run_mass_join`] kernel as the reference's
//!   [`super::exact::expected_join_count`], which is what makes the two
//!   paths bit-identical by construction.
//!
//! **Registers.** [`bind_program`] is the per-data half of compilation:
//! it gathers each term's live rows into columnar registers — key
//! columns for every partition level on the term's path, plus per-block
//! probability masses — sorted once, lexicographically by the term's
//! root-to-leaf key path with original row order breaking ties, then
//! collapsed to block granularity (every live row of a block shares its
//! path keys, so blocks are contiguous after the sort). That single
//! pre-sort replaces the reference tape's per-recursion-level hash
//! partitioning ([`super::grad::record`]): every partition branch becomes
//! a contiguous window `[c0, c1) × [a0, a1)` and the recursion only moves
//! window bounds. Because ties keep original row order, block masses
//! accumulate in the tape's exact addition sequence, and the tape
//! iterates key values in ascending order, the VM performs *exactly* the
//! tape's value arithmetic (skipping only multiplications that a zero
//! has already decided) and reproduces its results bit for bit. The sort
//! paths depend on the dissociation alone, never on the mode, so both
//! sides of a bracket read the same registers. Registers are owned and
//! data-addressed, so the plan cache memoizes them next to version
//! stamps — an unchanged-data warm hit skips the gather entirely.
//!
//! **Incremental maintenance.** [`patch_term`] rebuilds only the dirty
//! key ranges of a memoized register set after an upsert: the store's
//! per-shard version stamps ([`crate::ProbDb::shard_versions`]) prove
//! which leading-key ranges changed, the stale runs are re-gathered and
//! re-sorted by the same [`gather`] that [`bind_term`] runs over every
//! live row, and the clean runs are spliced over from the old registers
//! unchanged. Because the level-0 key is the pre-sort's primary key and
//! equal stamps imply identical shard contents, the splice reproduces a
//! fresh [`bind_program`] bit for bit.

use super::classify::CompiledTerm;
use super::dissociate::Mode;
use super::exact::MassStep;
use crate::column::Bitmap;
use mrsl_util::FxHashMap;
use std::ops::Range;

/// One factor of a partition body, in subcomponent order. The order is
/// load-bearing: the reference tape multiplies subcomponents left to
/// right, and the VM must reproduce that exact sequence of floating-point
/// multiplications (its zero early-exit only skips factors that cannot
/// change a zero product).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BodyStep {
    /// Evaluate the op per branch.
    Eval(u32),
    /// Loop-invariant op (only copied terms below it): evaluated once per
    /// fold, multiplied in place per branch.
    Hoisted(u32),
}

/// One bytecode op. See the module docs for semantics.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `1 - ∏_blocks (1 - t(mass))` over the term's window, `t` being
    /// the run's [`Mode::mass`].
    Leaf {
        /// Term register set the leaf reads.
        term: u32,
        /// Alias multiplicity of the term's relation (1 without aliases).
        k: f64,
    },
    /// Key-partition fold over the binding terms' sorted key registers.
    Partition {
        /// `(term, level)` pairs: which terms bind the key, and at which
        /// position of their sort path this class sits.
        binding: Vec<(u32, u32)>,
        /// Terms replicated unchanged into every branch; their
        /// replication registers accumulate the branch count.
        copied: Vec<u32>,
        /// Per-branch factors in subcomponent order.
        body: Vec<BodyStep>,
        /// Peephole: when every body step is an un-hoisted leaf, the
        /// inlined `(term, k, memoizable)` list evaluated without
        /// dispatch. A leaf is memoizable when this partition is the
        /// term's *first* binding level: its outer window is then the
        /// full register for the whole fold, so the leaf value depends
        /// only on the key value (and the term's current replication
        /// register) and can be reused across enclosing branches.
        fused: Option<Vec<(u32, f64, bool)>>,
    },
}

/// One lowered dissociation (the empty one for an exact plan), runnable
/// on either side of the bracket.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Program {
    /// Flat op pool; ops reference each other by index.
    pub ops: Vec<Op>,
    /// Top-level connected components, multiplied without early exit
    /// (matching the tape's root product).
    pub roots: Vec<u32>,
    /// Per-term sort path: the partition classes that narrow this term,
    /// root to leaf. Drives the bind-time pre-sort.
    pub paths: Vec<Vec<usize>>,
}

/// The expected-count program: either the single-relation closed form or
/// the deterministic mass-join schedule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CountProgram {
    /// `None`: one relation, no join classes — the closed form
    /// [`super::exact::single_expected_count`] applies.
    pub steps: Option<Vec<MassStep>>,
    /// Number of join classes (the mass-join assignment width).
    pub classes: usize,
}

/// One term's columnar registers, gathered and pre-sorted by
/// [`bind_program`]. Registers are owned columns, so callers may keep
/// them across executions (the plan cache stores them next to the data
/// version stamps they were gathered under).
#[derive(Debug)]
pub(crate) struct TermRegs {
    /// Key column per sort-path level, certain rows, sorted order.
    ckeys: Vec<Vec<u16>>,
    /// Key column per sort-path level, one entry per *block*, sorted
    /// order. Alternatives are collapsed to block granularity at bind
    /// time: every live row of a block shares its path keys, so blocks
    /// are contiguous after the sort and windows never split them.
    akeys: Vec<Vec<u16>>,
    /// Per-block probability mass, accumulated over the block's live
    /// alternatives in sorted-row order — the exact addition sequence the
    /// tape's leaf performs, so downstream arithmetic stays
    /// bit-identical.
    amass: Vec<f64>,
    /// Number of live certain rows.
    clen: u32,
    /// Number of blocks with live alternatives.
    alen: u32,
}

/// Live rows of one term gathered for its sort path: the path's key
/// columns, the live certain rows in sorted order, and one head row plus
/// one accumulated mass per block run.
struct Gathered<'a> {
    ccols: Vec<&'a [u16]>,
    acols: Vec<&'a [u16]>,
    cert: Vec<u32>,
    heads: Vec<u32>,
    amass: Vec<f64>,
}

/// Gathers a term's live rows — only those whose level-0 key falls in
/// `dirty`, when given — sorts them by the sort path and collapses the
/// alternatives to block runs. [`bind_term`] and [`patch_term`] share it,
/// so a patched range is gathered exactly as a fresh bind gathers it.
fn gather<'a>(path: &[usize], ct: &CompiledTerm<'a>, dirty: Option<&[Range<u32>]>) -> Gathered<'a> {
    let ccols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").0)
        .collect();
    let acols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").1)
        .collect();
    let live = |bits: &Bitmap, cols: &[&[u16]]| -> Vec<u32> {
        let rows = bits.iter_ones().map(|i| i as u32);
        match dirty {
            None => rows.collect(),
            Some(dirty) => rows
                .filter(|&r| {
                    let v = cols[0][r as usize] as u32;
                    dirty.iter().any(|range| range.contains(&v))
                })
                .collect(),
        }
    };
    let mut cert = live(ct.live_certain, &ccols);
    // LSD radix over the path levels: each pass is a stable counting sort,
    // so the final order is lexicographic by root-to-leaf key with the
    // initial ascending row order breaking ties. That tie-break is what
    // keeps the row visit order identical to the tape's partition
    // iteration.
    sort_by_path(&mut cert, &ccols);
    // Collapse the live alternatives (ascending rows) to block runs: one
    // head row and one mass per block, summed in ascending row order. The
    // key guard lets no block's live rows straddle a path key, so every
    // row of a run shares its head's keys, and sorting the heads orders
    // the blocks exactly as sorting their rows would (a block's rows are
    // contiguous, so ties in key fall back to block order either way).
    let cols = ct.db.columns();
    let probs = cols.alt_probs();
    let alts = live(ct.live_alts, &acols);
    let mut heads: Vec<u32> = Vec::new();
    let mut masses: Vec<f64> = Vec::new();
    for run in cols.block_runs(&alts) {
        let rows = &alts[run];
        debug_assert!(rows.iter().all(|&r| acols
            .iter()
            .all(|col| col[r as usize] == col[rows[0] as usize])));
        heads.push(rows[0]);
        let mut mass = 0.0;
        for &r in rows {
            mass += probs[r as usize];
        }
        masses.push(mass);
    }
    let head_keys: Vec<Vec<u16>> = acols
        .iter()
        .map(|col| heads.iter().map(|&h| col[h as usize]).collect())
        .collect();
    let mut order: Vec<u32> = (0..heads.len() as u32).collect();
    sort_by_path(
        &mut order,
        &head_keys.iter().map(Vec::as_slice).collect::<Vec<_>>(),
    );
    Gathered {
        ccols,
        acols,
        cert,
        heads: order.iter().map(|&i| heads[i as usize]).collect(),
        amass: order.iter().map(|&i| masses[i as usize]).collect(),
    }
}

/// Gathers and pre-sorts every term's live rows into columnar registers
/// (the per-execution half of compilation — the program itself is
/// data-free and cacheable).
pub(crate) fn bind_term(path: &[usize], ct: &CompiledTerm) -> TermRegs {
    let g = gather(path, ct, None);
    TermRegs {
        ckeys: g
            .ccols
            .iter()
            .map(|col| g.cert.iter().map(|&r| col[r as usize]).collect())
            .collect(),
        akeys: g
            .acols
            .iter()
            .map(|col| g.heads.iter().map(|&r| col[r as usize]).collect())
            .collect(),
        alen: g.amass.len() as u32,
        amass: g.amass,
        clen: g.cert.len() as u32,
    }
}

/// Incrementally re-binds a term's registers after an upsert that only
/// touched the level-0 key ranges in `dirty` (sorted, disjoint,
/// ascending): the dirty rows are re-gathered and re-sorted exactly as
/// [`bind_term`] would, and the clean runs are spliced over from `old`
/// unchanged.
///
/// Bit-identity to a fresh [`bind_term`]: the level-0 key is the LSD
/// pre-sort's *primary* key, so a fresh bind's output is partitioned
/// into contiguous segments by level-0 key range, each segment being the
/// stable sort of exactly the rows in that range. Segments over clean
/// ranges are unchanged from `old` (equal shard stamps imply the
/// identical push sequence there), and segments over dirty ranges equal
/// the stable sort of the re-gathered rows — which is what this splice
/// assembles, range by ascending range.
pub(crate) fn patch_term(
    old: &TermRegs,
    path: &[usize],
    ct: &CompiledTerm,
    dirty: &[Range<u32>],
) -> TermRegs {
    let Gathered {
        ccols,
        acols,
        cert,
        heads,
        amass: hmass,
    } = gather(path, ct, Some(dirty));
    // Splice: for each dirty range, copy the preceding clean segment
    // from the old registers, then append the re-gathered runs of the
    // range; finish with the clean tail.
    let levels = path.len();
    let mut ckeys: Vec<Vec<u16>> = vec![Vec::new(); levels];
    let mut akeys: Vec<Vec<u16>> = vec![Vec::new(); levels];
    let mut amass: Vec<f64> = Vec::new();
    let (mut oc, mut oa) = (0u32, 0u32); // old-register cursors
    let (mut nc, mut na) = (0usize, 0usize); // re-gathered cursors
    let old_ck0 = &old.ckeys[0];
    let old_ak0 = &old.akeys[0];
    for range in dirty {
        let cs = seek(old_ck0, range.start).max(oc);
        let as_ = seek(old_ak0, range.start).max(oa);
        for lvl in 0..levels {
            ckeys[lvl].extend_from_slice(&old.ckeys[lvl][oc as usize..cs as usize]);
            akeys[lvl].extend_from_slice(&old.akeys[lvl][oa as usize..as_ as usize]);
        }
        amass.extend_from_slice(&old.amass[oa as usize..as_ as usize]);
        oc = seek(old_ck0, range.end).max(cs);
        oa = seek(old_ak0, range.end).max(as_);
        while nc < cert.len() && (ccols[0][cert[nc] as usize] as u32) < range.end {
            for lvl in 0..levels {
                ckeys[lvl].push(ccols[lvl][cert[nc] as usize]);
            }
            nc += 1;
        }
        while na < heads.len() && (acols[0][heads[na] as usize] as u32) < range.end {
            for lvl in 0..levels {
                akeys[lvl].push(acols[lvl][heads[na] as usize]);
            }
            amass.push(hmass[na]);
            na += 1;
        }
    }
    for lvl in 0..levels {
        ckeys[lvl].extend_from_slice(&old.ckeys[lvl][oc as usize..]);
        akeys[lvl].extend_from_slice(&old.akeys[lvl][oa as usize..]);
    }
    amass.extend_from_slice(&old.amass[oa as usize..]);
    debug_assert_eq!(
        ckeys[0].len(),
        ct.live_certain.count_ones(),
        "patched certain registers cover every live row"
    );
    debug_assert_eq!((nc, na), (cert.len(), heads.len()));
    TermRegs {
        clen: ckeys[0].len() as u32,
        alen: amass.len() as u32,
        ckeys,
        akeys,
        amass,
    }
}

/// Stable LSD counting sort of `rows` by the key columns, last level
/// first. Dictionary-encoded keys are dense small `u16`s, so counting
/// beats a comparator sort's per-comparison column indirection; per-pass
/// stability makes earlier levels dominate and keeps ties in the
/// incoming order. The expected-count mass tables
/// ([`super::exact::grouped_term_mass`]) are ordered by it too.
pub(crate) fn sort_by_path(rows: &mut Vec<u32>, cols: &[&[u16]]) {
    let mut scratch = vec![0u32; rows.len()];
    for col in cols.iter().rev() {
        let max = rows.iter().map(|&r| col[r as usize]).max().unwrap_or(0) as usize;
        let mut starts = vec![0u32; max + 2];
        for &r in rows.iter() {
            starts[col[r as usize] as usize + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        for &r in rows.iter() {
            let k = col[r as usize] as usize;
            scratch[starts[k] as usize] = r;
            starts[k] += 1;
        }
        std::mem::swap(rows, &mut scratch);
    }
}

/// Gathers and pre-sorts every term's registers for one program — the
/// per-data half of compilation, reusable across executions while the
/// underlying data versions are unchanged.
pub(crate) fn bind_program(program: &Program, compiled: &[CompiledTerm]) -> Vec<TermRegs> {
    program
        .paths
        .iter()
        .zip(compiled)
        .map(|(path, ct)| bind_term(path, ct))
        .collect()
}

/// Runs a program on one side of the bracket against registers bound
/// earlier (and still valid for the current data). Both sides of a
/// candidate read the same registers.
pub(crate) fn run_prebound(program: &Program, regs: &[TermRegs], mode: Mode) -> f64 {
    let mut ex = Exec::new(program, regs, mode);
    let mut p = 1.0;
    for &root in &program.roots {
        p *= ex.eval(root);
    }
    p
}

/// First position in the sorted key register whose key is `>= bound`
/// (`bound` ranges over `0..=65536`, one past the `u16` domain).
fn seek(keys: &[u16], bound: u32) -> u32 {
    keys.partition_point(|&k| (k as u32) < bound) as u32
}

/// First position in `[cur, end)` whose key is `>= v` (keys are sorted).
/// Binary search instead of stepping: partition merges over a copied
/// term re-walk its full window once per branch, and galloping turns
/// that from `O(rows)` into `O(log rows)` per branch.
fn skip_to(keys: &[u16], cur: u32, end: u32, v: u16) -> u32 {
    cur + keys[cur as usize..end as usize].partition_point(|&k| k < v) as u32
}

/// First position in `[cur, end)` past the run of keys `== v`.
fn past_run(keys: &[u16], cur: u32, end: u32, v: u16) -> u32 {
    cur + keys[cur as usize..end as usize].partition_point(|&k| k <= v) as u32
}

/// Execution state: windows and replication registers per term.
struct Exec<'p> {
    prog: &'p Program,
    regs: &'p [TermRegs],
    /// The bracket side every leaf transforms its masses for.
    mode: Mode,
    /// `[c0, c1, a0, a1)` — current certain/alternative window per term.
    win: Vec<[u32; 4]>,
    /// Replication multiplicity per term (the lower bound's runtime `d`;
    /// it stays 1 in [`Mode::Upper`], whose leaves never read it).
    repl: Vec<f64>,
    /// Per-partition-op memo of fused invariant-window leaf values,
    /// keyed by `(term, key value, replication register bits)`. Reuses
    /// the exact `f64` computed on the first visit, so the downstream
    /// multiplication sequence is unchanged bit for bit.
    memo: Vec<FxHashMap<(u32, u16, u64), f64>>,
}

impl<'p> Exec<'p> {
    /// Fresh execution state: full windows, unit replication, empty memos.
    fn new(prog: &'p Program, regs: &'p [TermRegs], mode: Mode) -> Self {
        Exec {
            prog,
            mode,
            win: regs.iter().map(|r| [0, r.clen, 0, r.alen]).collect(),
            repl: vec![1.0; regs.len()],
            memo: vec![FxHashMap::default(); prog.ops.len()],
            regs,
        }
    }

    fn eval(&mut self, op: u32) -> f64 {
        let prog = self.prog;
        match &prog.ops[op as usize] {
            Op::Leaf { term, k } => self.leaf(*term, *k),
            Op::Partition {
                binding,
                copied,
                body,
                fused,
            } => self.partition(op, binding, copied, body, fused.as_deref()),
        }
    }

    /// `1 - ∏_blocks (1 - t(mass))` over the term's current window; a
    /// certain row in the window decides it.
    fn leaf(&self, t: u32, k: f64) -> f64 {
        let r = &self.regs[t as usize];
        let [c0, c1, a0, a1] = self.win[t as usize];
        if c1 > c0 {
            return 1.0;
        }
        let repl = self.repl[t as usize];
        let mut none = 1.0;
        for &mass in &r.amass[a0 as usize..a1 as usize] {
            none *= (1.0 - self.mode.mass(mass.min(1.0), k, repl)).max(0.0);
        }
        1.0 - none
    }

    fn partition(
        &mut self,
        op: u32,
        binding: &[(u32, u32)],
        copied: &[u32],
        body: &[BodyStep],
        fused: Option<&[(u32, f64, bool)]>,
    ) -> f64 {
        // Outer windows of the binding terms (restored on exit; the value
        // loop overwrites them with per-value runs).
        let outer: Vec<[u32; 4]> = binding.iter().map(|&(t, _)| self.win[t as usize]).collect();
        let mut cur: Vec<[u32; 2]> = outer.iter().map(|w| [w[0], w[2]]).collect();

        let saved_repl: Vec<f64> = copied.iter().map(|&t| self.repl[t as usize]).collect();
        if self.mode == Mode::Lower && !copied.is_empty() {
            // The branch count d multiplies every copied term's
            // replication register, identically in all branches — so it
            // is applied once, before the value loop. Only lower-bound
            // leaves read it.
            let d = self.count_values(binding);
            for &t in copied {
                self.repl[t as usize] *= d;
            }
        }

        let mut hoist_vals: Vec<f64> = Vec::new();
        let mut first = true;
        let mut none = 1.0;
        while let Some(v) = self.next_value(binding, &outer, &mut cur) {
            // Narrow every binding term's window to its `v` run and
            // advance the merge cursors past it.
            for (i, &(t, lvl)) in binding.iter().enumerate() {
                let (ce, ae) = self.run_end(t, lvl, &outer[i], &cur[i], v);
                self.win[t as usize] = [cur[i][0], ce, cur[i][1], ae];
                cur[i] = [ce, ae];
            }
            if first {
                // Loop-invariant (hoisted) steps, once, in body order:
                // copied-only subtrees see the same un-narrowed windows in
                // every branch.
                for step in body {
                    if let BodyStep::Hoisted(op) = step {
                        hoist_vals.push(self.eval(*op));
                    }
                }
                first = false;
            }
            let p_v = self.branch_product(op, body, fused, &hoist_vals, v);
            none *= 1.0 - p_v;
            if none == 0.0 {
                break;
            }
        }

        for (i, &(t, _)) in binding.iter().enumerate() {
            self.win[t as usize] = outer[i];
        }
        for (i, &t) in copied.iter().enumerate() {
            self.repl[t as usize] = saved_repl[i];
        }
        1.0 - none
    }

    /// Counts the distinct key values of the fold over the *current*
    /// windows (the branch count `d` of a dissociated fold). Read-only:
    /// iterates private cursors, windows stay untouched.
    fn count_values(&self, binding: &[(u32, u32)]) -> f64 {
        let outer: Vec<[u32; 4]> = binding.iter().map(|&(t, _)| self.win[t as usize]).collect();
        let mut cur: Vec<[u32; 2]> = outer.iter().map(|w| [w[0], w[2]]).collect();
        let mut d = 0.0;
        while let Some(v) = self.next_value(binding, &outer, &mut cur) {
            d += 1.0;
            for (i, &(t, lvl)) in binding.iter().enumerate() {
                let (ce, ae) = self.run_end(t, lvl, &outer[i], &cur[i], v);
                cur[i] = [ce, ae];
            }
        }
        d
    }

    /// One branch's subcomponent product `∏ p`, left to right, stopping
    /// at a zero (exact: a zero product stays zero), through either the
    /// fused leaf list or the general body.
    fn branch_product(
        &mut self,
        op: u32,
        body: &[BodyStep],
        fused: Option<&[(u32, f64, bool)]>,
        hoist_vals: &[f64],
        v: u16,
    ) -> f64 {
        let mut p_v = 1.0;
        if let Some(leaves) = fused {
            for &(t, k, memoizable) in leaves {
                let p = if memoizable {
                    let key = (t, v, self.repl[t as usize].to_bits());
                    match self.memo[op as usize].get(&key) {
                        Some(&p) => p,
                        None => {
                            let p = self.leaf(t, k);
                            self.memo[op as usize].insert(key, p);
                            p
                        }
                    }
                } else {
                    self.leaf(t, k)
                };
                p_v *= p;
                if p_v == 0.0 {
                    break;
                }
            }
        } else {
            let mut hi = 0;
            for step in body {
                p_v *= match step {
                    BodyStep::Eval(op) => self.eval(*op),
                    BodyStep::Hoisted(_) => {
                        let x = hoist_vals[hi];
                        hi += 1;
                        x
                    }
                };
                if p_v == 0.0 {
                    break;
                }
            }
        }
        p_v
    }

    /// Advances the merge to the next key value present in *every*
    /// binding term (certain or alternative side), or `None` when any
    /// term is exhausted. Cursors are left at the start of each term's
    /// value run. Equivalent to the tape's sorted intersection of
    /// the per-term partition key sets.
    fn next_value(
        &self,
        binding: &[(u32, u32)],
        outer: &[[u32; 4]],
        cur: &mut [[u32; 2]],
    ) -> Option<u16> {
        let head = |cur: &[[u32; 2]], i: usize| -> Option<u16> {
            let (t, lvl) = binding[i];
            let r = &self.regs[t as usize];
            let c = (cur[i][0] < outer[i][1]).then(|| r.ckeys[lvl as usize][cur[i][0] as usize]);
            let a = (cur[i][1] < outer[i][3]).then(|| r.akeys[lvl as usize][cur[i][1] as usize]);
            match (c, a) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        };
        let mut v = head(cur, 0)?;
        for i in 1..binding.len() {
            v = v.max(head(cur, i)?);
        }
        loop {
            let mut stable = true;
            for i in 0..binding.len() {
                let (t, lvl) = binding[i];
                let r = &self.regs[t as usize];
                let ck = &r.ckeys[lvl as usize];
                let ak = &r.akeys[lvl as usize];
                cur[i][0] = skip_to(ck, cur[i][0], outer[i][1], v);
                cur[i][1] = skip_to(ak, cur[i][1], outer[i][3], v);
                let h = head(cur, i)?;
                if h > v {
                    v = h;
                    stable = false;
                }
            }
            if stable {
                return Some(v);
            }
        }
    }

    /// End of the `v` run starting at `cur` in term `t`'s level-`lvl` key
    /// registers, bounded by the outer window.
    fn run_end(&self, t: u32, lvl: u32, outer: &[u32; 4], cur: &[u32; 2], v: u16) -> (u32, u32) {
        let r = &self.regs[t as usize];
        let ck = &r.ckeys[lvl as usize];
        let ak = &r.akeys[lvl as usize];
        (
            past_run(ck, cur[0], outer[1], v),
            past_run(ak, cur[1], outer[3], v),
        )
    }
}
