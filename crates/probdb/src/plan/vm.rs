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
//! **Incremental maintenance.** Rows are append-only and a push lands
//! in the last storage segment, so each register set remembers which of
//! its entries came from rows at or after a [`Cut`]: the start of its
//! term's last certain segment and of its last block segment when it was
//! gathered. [`append_term`] drops those entries, gathers the live rows
//! from the cut on through the same [`gather`] that [`bind_term`] runs
//! over every live row, and merges them into the register vectors in
//! place, in sort-path order with the kept entries first among equal
//! keys. The kept entries are the stably sorted live rows before the
//! cut, and every gathered row comes after all of them, so the merge is
//! the stable sort of all live rows — a fresh [`bind_program`] — bit for
//! bit, provided the rows and masses before the cut are unchanged, which
//! the caller proves with the relation's value and mass stamps.

use super::classify::CompiledTerm;
use super::dissociate::Mode;
use super::exact::MassStep;
use crate::database::SEGMENT_LEN;
use mrsl_util::FxHashMap;

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
    /// The op the program's value is: a flattened query is one connected
    /// component, so one covering root (or one leaf) spans every term.
    pub root: u32,
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
    /// Ascending positions of the certain entries gathered from rows at
    /// or after the register set's [`Cut`]: what [`append_term`] drops
    /// and gathers again. At most one segment's worth.
    ctail: Vec<u32>,
    /// The same for the block entries (a block counts by its first row).
    atail: Vec<u32>,
}

impl TermRegs {
    /// Appends the registers' contents to `out` as raw bits, each column
    /// after its length: equal bits mean equal registers.
    pub(crate) fn push_bits(&self, out: &mut Vec<u64>) {
        for col in self.ckeys.iter().chain(&self.akeys) {
            out.push(col.len() as u64);
            out.extend(col.iter().map(|&k| u64::from(k)));
        }
        out.extend([self.clen, self.alen].map(u64::from));
        out.extend(self.amass.iter().map(|m| m.to_bits()));
    }
}

/// Where a register set's tail starts: the first certain row and the
/// first alternative row of the term's last storage segments when the
/// registers were gathered. Rows from here on may still change by
/// appends; rows before it are only kept or dropped whole.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Cut {
    /// First certain row of the tail.
    pub certain: usize,
    /// First alternative row of the tail (a block boundary).
    pub alts: usize,
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

/// Gathers a term's live rows from `from` on, sorts them by the sort
/// path and collapses the alternatives to block runs. [`bind_term`] and
/// [`append_term`] share it, so an appended tail is gathered exactly as a
/// fresh bind gathers it; its cost is proportional to the rows from
/// `from` on.
fn gather<'a>(path: &[usize], ct: &CompiledTerm<'a>, from: Cut) -> Gathered<'a> {
    let ccols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").0)
        .collect();
    let acols: Vec<&[u16]> = path
        .iter()
        .map(|&c| ct.class_key(c).expect("sort path classes key the term").1)
        .collect();
    let mut cert: Vec<u32> = ct
        .live_certain
        .iter_ones_from(from.certain)
        .map(|i| i as u32)
        .collect();
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
    let alts: Vec<u32> = ct
        .live_alts
        .iter_ones_from(from.alts)
        .map(|i| i as u32)
        .collect();
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

/// Positions in `rows` (gathered, sorted) of the rows at or after `cut`.
fn tail_of(rows: &[u32], cut: usize) -> Vec<u32> {
    (0..rows.len() as u32)
        .filter(|&i| rows[i as usize] as usize >= cut)
        .collect()
}

/// Gathers and pre-sorts one term's live rows into columnar registers
/// (the per-data half of compilation — the program itself is data-free
/// and cacheable), remembering which entries lie at or after `cut`.
pub(crate) fn bind_term(path: &[usize], ct: &CompiledTerm, cut: Cut) -> TermRegs {
    let g = gather(path, ct, Cut::default());
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
        ctail: tail_of(&g.cert, cut.certain),
        atail: tail_of(&g.heads, cut.alts),
    }
}

/// Brings a term's registers up to date after appends: drops the entries
/// gathered from rows at or after `from` (the registers' old cut),
/// gathers the live rows from `from` on, and merges them in, in place;
/// the entries at or after `cut` (the new cut, never before `from`)
/// become the new tail.
///
/// Bit-identity to a fresh [`bind_term`] holds when every row before
/// `from`, its live bit and its block's masses are what they were at the
/// last gather (the caller checks the value and mass stamps): the kept
/// entries are then the stable sort of the live rows before `from`, and
/// every gathered row follows all of them in row order, so merging with
/// kept entries first among equal keys is the stable sort of all live
/// rows.
pub(crate) fn append_term(
    regs: &mut TermRegs,
    path: &[usize],
    ct: &CompiledTerm,
    from: Cut,
    cut: Cut,
) {
    debug_assert!(cut.certain >= from.certain && cut.alts >= from.alts);
    let g = gather(path, ct, from);
    regs.clen = merge_side(
        (&mut regs.ckeys, None, &mut regs.ctail),
        regs.clen,
        &g.ccols,
        &g.cert,
        cut.certain,
    );
    regs.alen = merge_side(
        (
            &mut regs.akeys,
            Some((&mut regs.amass, &g.amass)),
            &mut regs.atail,
        ),
        regs.alen,
        &g.acols,
        &g.heads,
        cut.alts,
    );
    debug_assert_eq!(
        regs.clen as usize,
        ct.live_certain.count_ones(),
        "appended certain registers cover every live row"
    );
}

/// One side of a register set, certain rows or blocks: its key column
/// per level, its masses (blocks only) paired with the gathered rows'
/// masses, and its tail positions.
type Side<'r> = (
    &'r mut [Vec<u16>],
    Option<(&'r mut Vec<f64>, &'r [f64])>,
    &'r mut Vec<u32>,
);

/// Merges one side of a register set of `len` entries: drops its tail
/// entries, inserts the gathered `rows` (sorted by the path keys `cols`)
/// after every kept entry whose key is not greater, and records the
/// positions of the rows at or after `cut` as the new tail. Returns the
/// new length. In place: the columns grow at most once, and only the
/// entries after the first change move.
fn merge_side(
    (keys, mass, tail): Side,
    len: u32,
    cols: &[&[u16]],
    rows: &[u32],
    cut: usize,
) -> u32 {
    for col in keys.iter_mut() {
        remove_positions(col, tail);
    }
    let kept = len as usize - tail.len();
    let mut at: Vec<u32> = Vec::with_capacity(rows.len());
    let mut key = vec![0u16; cols.len()];
    let mut lo = 0;
    for &r in rows {
        for (k, col) in key.iter_mut().zip(cols) {
            *k = col[r as usize];
        }
        lo = upper_bound(keys, lo, kept, &key);
        at.push(lo as u32);
    }
    for (col, src) in keys.iter_mut().zip(cols) {
        insert_at(col, &at, |j| src[rows[j] as usize]);
    }
    if let Some((mass, new)) = mass {
        remove_positions(mass, tail);
        insert_at(mass, &at, |j| new[j]);
    }
    tail.clear();
    tail.extend(
        (0..rows.len())
            .filter(|&j| rows[j] as usize >= cut)
            .map(|j| at[j] + j as u32),
    );
    (kept + rows.len()) as u32
}

/// Removes the entries at `drop` (ascending positions) from `col`,
/// shifting the survivors down in place.
fn remove_positions<T: Copy>(col: &mut Vec<T>, drop: &[u32]) {
    let Some(&first) = drop.first() else {
        return;
    };
    let mut w = first as usize;
    for (i, &d) in drop.iter().enumerate() {
        let next = drop.get(i + 1).map_or(col.len(), |&n| n as usize);
        col.copy_within(d as usize + 1..next, w);
        w += next - d as usize - 1;
    }
    col.truncate(w);
}

/// Inserts `value(j)` before the entry at `at[j]` (nondecreasing
/// positions into `col` as it is) for every `j`, equal positions in `j`
/// order, moving each surviving run once, back to front. A full column
/// grows by one segment's worth, not by doubling: registers grow by
/// appends, a few rows at a time.
fn insert_at<T: Copy + Default>(col: &mut Vec<T>, at: &[u32], value: impl Fn(usize) -> T) {
    let mut end = col.len();
    if col.capacity() < end + at.len() {
        col.reserve_exact(at.len().max(SEGMENT_LEN));
    }
    col.resize(end + at.len(), T::default());
    for j in (0..at.len()).rev() {
        let a = at[j] as usize;
        col.copy_within(a..end, a + j + 1);
        col[a + j] = value(j);
        end = a;
    }
}

/// First position in `[lo, len)` of the sorted key columns whose key
/// (lexicographic over the levels) is greater than `key`; `len` when
/// there is none. With no levels every key is equal: `len`.
fn upper_bound(keys: &[Vec<u16>], mut lo: usize, len: usize, key: &[u16]) -> usize {
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let greater = keys
            .iter()
            .zip(key)
            .map(|(col, k)| col[mid].cmp(k))
            .find(|o| o.is_ne())
            .is_some_and(|o| o.is_gt());
        if greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Stable LSD counting sort of `rows` by the key columns, last level
/// first. Dictionary-encoded keys are dense small `u16`s, so counting
/// beats a comparator sort's per-comparison column indirection; per-pass
/// stability makes earlier levels dominate and keeps ties in the
/// incoming order.
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
/// underlying data versions are unchanged. `cuts[t]` is term `t`'s
/// [`Cut`].
pub(crate) fn bind_program(
    program: &Program,
    compiled: &[CompiledTerm],
    cuts: &[Cut],
) -> Vec<TermRegs> {
    program
        .paths
        .iter()
        .zip(compiled)
        .zip(cuts)
        .map(|((path, ct), &cut)| bind_term(path, ct, cut))
        .collect()
}

/// Runs a program on one side of the bracket against registers bound
/// earlier (and still valid for the current data). Both sides of a
/// candidate read the same registers.
pub(crate) fn run_prebound(program: &Program, regs: &[TermRegs], mode: Mode) -> f64 {
    Exec::new(program, regs, mode).eval(program.root)
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
