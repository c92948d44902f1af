//! On-the-fly product exploration with arena/struct-of-arrays storage.
//!
//! The classic materializing product
//! ([`compose_reference`](crate::compose_reference)) builds the full
//! reachable product — per-state `Vec<Transition>` rows, a
//! `HashMap<Vec<StateId>, StateId>` interner, one heap allocation per
//! product state — before any consumer sees a single state.
//! [`LazyProduct`] is the same exploration under the identical constraint
//! system, split into *per-row* steps over flat storage:
//!
//! * one `u32` arena holds every component-state tuple (stride = number of
//!   components), so a product state is a slice, not a `Vec`. The arena and
//!   its interner (`TupleArena`) are the id space of every product in the
//!   crate: a materialized [`Composition`] keeps them, and the incremental
//!   [`CompositionCache`](crate::CompositionCache) extends them in place;
//! * expanded rows live in CSR-style blocks (`row_off`/`row_len` into one
//!   flat target array), with `u32::MAX` marking rows not yet expanded;
//! * a tuple's id is found through a dense table over the box of
//!   coordinates seen so far (a few multiply-adds and one load), or, once
//!   that box would be too sparse or too large, through an open-addressed
//!   table keyed by a multiply-xor hash of the tuple that probes the arena
//!   directly — no per-key allocation, no `Vec<StateId>` clones;
//! * rows are solved by the bitset [`RowKernel`], which memoizes each
//!   combination of part guard ids and emits ids into the product's guard
//!   table (each distinct guard stored once); its scratch buffers, like
//!   the product's own row buffers, are reused from row to row, and
//!   repeated row entries are dropped in time linear in the row
//!   (`RowDedup`).
//!
//! Every row keeps its `(guard id, target)` pairs in emit order. Consumers
//! that need one row (the driver's frontier probe) call
//! [`LazyProduct::locate`], which expands in discovery order only until
//! the wanted tuple is interned, read the row with
//! [`LazyProduct::row_guards`], and keep the product across calls.
//! Consumers that need the full automaton call
//! [`LazyProduct::into_composition`], which expands every remaining row,
//! renumbers states into the canonical discovery order (rows expanded out
//! of order with [`LazyProduct::expand_row`] included) and yields a
//! [`Composition`] bit-identical to the classic materializing path (this
//! is how [`compose`](crate::compose) itself is implemented now).
//! Materializing writes names, rows and tuples into the automaton's shared
//! buffers: nothing is allocated per state.

use std::borrow::Cow;
use std::ops::Deref;

use crate::automaton::{Automaton, StateId, Transition};
use crate::compose::{ComposeOptions, ComposeStats, Composition, RowKernel};
use crate::csr::Csr;
use crate::error::{AutomataError, Result};
use crate::label::{Guard, GuardId, GuardTable};
use crate::prop::PropSet;

/// Sentinel in `row_off` marking a state whose outgoing row has not been
/// expanded yet.
const UNEXPANDED: u32 = u32::MAX;

/// Open-addressed tuple→id interner over the tuple arena: the index of a
/// [`TupleArena`] whose tuples are too spread out for a dense table.
///
/// Slots store product-state ids; the keys themselves live in the arena
/// (`arena[id*k .. id*k+k]`), so probing compares `u32` coordinates one by
/// one and inserting allocates nothing. Capacity is a power of two, grown
/// to keep the table at most half full by rehashing the ids (the arena is
/// the source of truth).
#[derive(Debug, Clone)]
struct TupleInterner {
    slots: Vec<u32>,
    mask: usize,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Multiply-xor hash of a packed tuple. The per-element fold mixes with a
/// 64-bit odd constant (splitmix64's increment) so that tuples differing in
/// one low coordinate land far apart.
fn tuple_hash(tuple: &[u32]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &x in tuple {
        h ^= u64::from(x).wrapping_add(0x2545_F491_4F6C_DD1D);
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
    }
    h
}

/// Whether the arena tuple at `base` is `tuple`, compared coordinate by
/// coordinate (tuples are a few words long, too short for a `memcmp` call
/// to pay off).
fn tuple_at(arena: &[u32], base: usize, tuple: &[u32]) -> bool {
    arena[base..base + tuple.len()]
        .iter()
        .zip(tuple)
        .all(|(a, b)| a == b)
}

impl TupleInterner {
    /// An empty interner with room for `len` ids at most half full.
    fn with_capacity(len: usize) -> TupleInterner {
        let cap = (len * 2).next_power_of_two().max(16);
        TupleInterner {
            slots: vec![EMPTY_SLOT; cap],
            mask: cap - 1,
            len: 0,
        }
    }

    /// The resident id of `tuple`, if interned.
    fn get(&self, tuple: &[u32], arena: &[u32], k: usize) -> Option<u32> {
        let mut i = tuple_hash(tuple) as usize & self.mask;
        loop {
            let slot = self.slots[i];
            if slot == EMPTY_SLOT {
                return None;
            }
            if tuple_at(arena, slot as usize * k, tuple) {
                return Some(slot);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Indexes `id`, whose tuple is in `arena` (stride `k`) and not
    /// indexed yet.
    fn insert(&mut self, id: u32, arena: &[u32], k: usize) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(arena, k);
        }
        let base = id as usize * k;
        let mut i = tuple_hash(&arena[base..base + k]) as usize & self.mask;
        while self.slots[i] != EMPTY_SLOT {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = id;
        self.len += 1;
    }

    fn grow(&mut self, arena: &[u32], k: usize) {
        let new_cap = self.slots.len() * 2;
        let mut next = vec![EMPTY_SLOT; new_cap];
        let mask = new_cap - 1;
        for &slot in &self.slots {
            if slot == EMPTY_SLOT {
                continue;
            }
            let base = slot as usize * k;
            let mut i = tuple_hash(&arena[base..base + k]) as usize & mask;
            while next[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            next[i] = slot;
        }
        self.slots = next;
        self.mask = mask;
    }
}

/// Largest dense table, in slots (16 MiB of ids).
const DENSE_MAX_SLOTS: usize = 1 << 22;
/// A dense table may spend this many slots per interned tuple…
const DENSE_SLOTS_PER_TUPLE: usize = 8;
/// …or this many in all, however few tuples it holds.
const DENSE_MIN_SLOTS: usize = 2048;

/// A row-major table over the box of coordinates seen so far, extent
/// `d[i]` per coordinate: the tuple `t` of width `k` sits at slot
/// `(…(t[k-1]·d[k-2] + t[k-2])·d[k-3] + …)·d[0] + t[0]`, so finding it is a
/// few multiply-adds and one load, with nothing to hash or compare.
///
/// The last coordinate is the outermost. Its extent covers exactly the
/// values seen, and growing it only extends the table: in the loop's
/// products the last parts are the learned closures, whose states are
/// appended across recomposes, and in a memo key they are the closures'
/// guard ids, which grow the same way. Every other extent is padded by a
/// quarter when it grows, which re-lays the table out. Part 0 is the
/// innermost coordinate, the one the row kernel's inner loop varies.
#[derive(Debug, Clone)]
struct DenseIndex {
    dims: Vec<u32>,
    slots: Vec<u32>,
}

impl DenseIndex {
    /// The slot of `tuple`, or `None` if it lies outside the box.
    #[inline]
    fn slot(&self, tuple: &[u32]) -> Option<usize> {
        let mut at = 0usize;
        for (&x, &d) in tuple.iter().zip(&self.dims).rev() {
            if x >= d {
                return None;
            }
            at = at * d as usize + x as usize;
        }
        Some(at)
    }

    /// The box that also covers `tuple` (see the type docs).
    fn covering(&self, tuple: &[u32]) -> Vec<u32> {
        let outer = self.dims.len() - 1;
        let mut dims = self.dims.clone();
        for (i, (d, &x)) in dims.iter_mut().zip(tuple).enumerate() {
            if x >= *d {
                let need = x.saturating_add(1);
                *d = if i == outer {
                    need
                } else {
                    need.max(*d + *d / 4)
                };
            }
        }
        dims
    }
}

/// How a [`TupleArena`] finds a tuple's id. The dense table is used while
/// the box of coordinates seen so far stays small and well filled, which
/// is the common case: a product's coordinates are part-state ids, and a
/// memo key's are part guard ids, each numbered from zero. Once a new
/// tuple would make the box too sparse or too large the arena falls back
/// to the hash interner for good, so the choice follows from the tuples
/// interned, in order.
#[derive(Debug, Clone)]
enum TupleIndex {
    Dense(DenseIndex),
    Hash(TupleInterner),
}

/// The id space of a product: every component-state tuple, packed with
/// stride `k` in one `u32` arena (id `i` is `arena[i*k..i*k+k]`), and the
/// index mapping tuples back to ids. Lazy, cold and incremental products
/// all number their states through one of these, and the row kernel keys
/// its memo with one.
#[derive(Debug, Clone)]
pub(crate) struct TupleArena {
    k: usize,
    arena: Vec<u32>,
    index: TupleIndex,
}

impl TupleArena {
    /// An empty arena for tuples of width `k`.
    pub(crate) fn new(k: usize) -> TupleArena {
        assert!(k > 0, "tuples have at least one component");
        TupleArena {
            k,
            arena: Vec::new(),
            index: TupleIndex::Dense(DenseIndex {
                dims: vec![0; k],
                slots: Vec::new(),
            }),
        }
    }

    /// Number of interned tuples.
    pub(crate) fn len(&self) -> usize {
        self.arena.len() / self.k
    }

    /// Heap bytes held by the arena and its index, by capacity.
    pub(crate) fn heap_bytes(&self) -> usize {
        let index = match &self.index {
            TupleIndex::Dense(d) => d.dims.capacity() + d.slots.capacity(),
            TupleIndex::Hash(h) => h.slots.capacity(),
        };
        (self.arena.capacity() + index) * std::mem::size_of::<u32>()
    }

    /// The tuple with id `id`.
    pub(crate) fn tuple(&self, id: u32) -> &[u32] {
        let base = id as usize * self.k;
        &self.arena[base..base + self.k]
    }

    /// The id of `tuple`, if interned.
    #[inline]
    pub(crate) fn get(&self, tuple: &[u32]) -> Option<u32> {
        match &self.index {
            TupleIndex::Dense(d) => d
                .slot(tuple)
                .map(|at| d.slots[at])
                .filter(|&id| id != EMPTY_SLOT),
            TupleIndex::Hash(h) => h.get(tuple, &self.arena, self.k),
        }
    }

    /// Interns `tuple`, appending it as id [`TupleArena::len`] on first
    /// sight. Returns the resident id and whether it was fresh.
    #[inline]
    pub(crate) fn intern(&mut self, tuple: &[u32]) -> (u32, bool) {
        match self.get(tuple) {
            Some(id) => (id, false),
            None => (self.insert(tuple), true),
        }
    }

    /// Appends `tuple`, which is not interned yet, and indexes it: in its
    /// dense slot, growing the box to cover it, or in the hash interner
    /// once the grown box would be too sparse or too large.
    fn insert(&mut self, tuple: &[u32]) -> u32 {
        debug_assert_eq!(tuple.len(), self.k, "tuple width");
        let id = self.len() as u32;
        let count = id as usize + 1;
        self.arena.extend_from_slice(tuple);
        let d = match &mut self.index {
            TupleIndex::Dense(d) => d,
            TupleIndex::Hash(h) => {
                h.insert(id, &self.arena, self.k);
                return id;
            }
        };
        if let Some(at) = d.slot(tuple) {
            d.slots[at] = id;
            return id;
        }
        let dims = d.covering(tuple);
        let size = dims
            .iter()
            .try_fold(1usize, |acc, &x| acc.checked_mul(x as usize))
            .filter(|&size| size <= DENSE_MAX_SLOTS)
            .filter(|&size| size <= DENSE_MIN_SLOTS.max(DENSE_SLOTS_PER_TUPLE * count));
        let outer = self.k - 1;
        match size {
            Some(size) if dims[..outer] == d.dims[..outer] => {
                // Only the outermost extent grew: the table extends in place,
                // by an eighth at least so that growing it stays amortized.
                if size > d.slots.capacity() {
                    let want = size.max(d.slots.capacity() + d.slots.capacity() / 8);
                    d.slots.reserve_exact(want - d.slots.len());
                }
                d.slots.resize(size, EMPTY_SLOT);
                d.dims = dims;
                let at = d.slot(tuple).expect("the box covers the tuple");
                d.slots[at] = id;
            }
            Some(size) => {
                let mut grown = DenseIndex {
                    dims,
                    slots: vec![EMPTY_SLOT; size],
                };
                for (i, t) in self.arena.chunks_exact(self.k).enumerate() {
                    let at = grown.slot(t).expect("the box covers every tuple");
                    grown.slots[at] = i as u32;
                }
                *d = grown;
            }
            None => {
                let mut h = TupleInterner::with_capacity(count);
                for i in 0..count as u32 {
                    h.insert(i, &self.arena, self.k);
                }
                self.index = TupleIndex::Hash(h);
            }
        }
        id
    }

    /// Renumbers the tuples: `remap[old]` is the new id, or `u32::MAX` to
    /// drop the tuple; the kept ids must be exactly `0..kept`.
    pub(crate) fn remap(&mut self, remap: &[u32], kept: usize) {
        let k = self.k;
        let mut arena = vec![0u32; kept * k];
        for (old, &new) in remap.iter().enumerate() {
            if new != u32::MAX {
                let (o, n) = (old * k, new as usize * k);
                arena[n..n + k].copy_from_slice(&self.arena[o..o + k]);
            }
        }
        // Index the kept tuples afresh, in their new order.
        let mut fresh = TupleArena::new(k);
        fresh.arena.reserve_exact(arena.len());
        for t in arena.chunks_exact(k) {
            fresh.insert(t);
        }
        *self = fresh;
    }
}

/// Drops repeated entries from a row while it is collected, in time
/// linear in the row: `stamp[t]` is the number of the last row that
/// targeted `t`, so only an entry whose target already occurs in the row
/// needs a scan of it. Cold, lazy and incremental products all dedupe
/// their rows through one of these.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowDedup {
    stamp: Vec<u32>,
    row: u32,
}

impl RowDedup {
    /// Starts collecting a new row.
    pub(crate) fn next_row(&mut self) {
        if self.row == u32::MAX {
            self.stamp.fill(0);
            self.row = 0;
        }
        self.row += 1;
    }

    /// Whether the row being collected already targets `target`; from now
    /// on it does.
    #[inline]
    pub(crate) fn repeats(&mut self, target: u32) -> bool {
        let t = target as usize;
        if t >= self.stamp.len() {
            self.stamp.resize(t + 1, 0);
        }
        std::mem::replace(&mut self.stamp[t], self.row) == self.row
    }
}

/// Writes the classic `c0||d1` name of the product state `tuple` over
/// `parts` into `out`.
pub(crate) fn write_product_name<P: Deref<Target = Automaton>>(
    parts: &[P],
    tuple: &[u32],
    out: &mut String,
) {
    for (i, (&cs, p)) in tuple.iter().zip(parts).enumerate() {
        if i > 0 {
            out.push_str("||");
        }
        out.push_str(p.state_name(StateId(cs)));
    }
}

/// The union of the component labellings at `tuple`.
pub(crate) fn product_props<P: Deref<Target = Automaton>>(parts: &[P], tuple: &[u32]) -> PropSet {
    tuple
        .iter()
        .zip(parts)
        .fold(PropSet::EMPTY, |acc, (&cs, p)| {
            acc.union(p.props_of(StateId(cs)))
        })
}

/// An on-the-fly synchronous product over flat arena storage. See the
/// module docs for the storage layout and the bit-identity contract with
/// [`compose`](crate::compose::compose).
///
/// Parts are borrowed or owned ([`LazyProduct::from_parts`]): a product
/// kept across a run can own snapshots of parts its owner keeps mutating.
pub struct LazyProduct<'a> {
    parts: Vec<Cow<'a, Automaton>>,
    opts: ComposeOptions,
    kernel: RowKernel,
    /// Every discovered state's component-state tuple, interned.
    tuples: TupleArena,
    /// Union of component labellings per product state.
    props: Vec<PropSet>,
    /// Offset of each expanded row in `succ` ([`UNEXPANDED`] otherwise).
    row_off: Vec<u32>,
    /// Length of each expanded row.
    row_len: Vec<u32>,
    /// Flat transition targets of the `(guard, target)` pairs, in emit
    /// order.
    succ: Vec<u32>,
    /// Parallel guard ids for `succ`.
    succ_guards: Vec<GuardId>,
    /// The product's guard table, which the kernel interns into.
    guards: GuardTable,
    /// Discovery-order worklist: every interned state is pushed once;
    /// `expand_all` drains it LIFO, which is exactly the classic compose
    /// exploration order.
    pending: Vec<u32>,
    initial: Vec<u32>,
    stats: ComposeStats,
    expanded_rows: usize,
    /// Row scratch, reused across [`LazyProduct::expand_row`] calls: the
    /// row's tuple, and its collected `(guard, target)` pairs with their
    /// dedupe stamps.
    tuple_buf: Vec<u32>,
    row_buf: Vec<(GuardId, u32)>,
    dedup: RowDedup,
}

impl<'a> LazyProduct<'a> {
    /// Starts a lazy product over `parts`, validating universes and pairwise
    /// composability and interning the cartesian initial tuples (ids
    /// `0..initial_count`, same as the classic path).
    ///
    /// # Errors
    ///
    /// [`AutomataError::UniverseMismatch`] / [`AutomataError::NotComposable`]
    /// as for [`compose`](crate::compose::compose).
    pub fn new(parts: &[&'a Automaton], opts: &ComposeOptions) -> Result<LazyProduct<'a>> {
        Self::from_parts(parts.iter().map(|&p| Cow::Borrowed(p)).collect(), opts)
    }

    /// [`LazyProduct::new`] over borrowed or owned parts.
    ///
    /// # Errors
    ///
    /// As for [`LazyProduct::new`].
    pub fn from_parts(
        parts: Vec<Cow<'a, Automaton>>,
        opts: &ComposeOptions,
    ) -> Result<LazyProduct<'a>> {
        assert!(!parts.is_empty(), "compose requires at least one automaton");
        let universe = parts[0].universe();
        for p in &parts {
            if !p.universe().same_as(universe) {
                return Err(AutomataError::UniverseMismatch);
            }
        }
        for (i, a) in parts.iter().enumerate() {
            for b in &parts[i + 1..] {
                if !a.composable_with(b) {
                    return Err(AutomataError::NotComposable {
                        detail: format!(
                            "`{}` and `{}` share inputs {} / outputs {}",
                            a.name(),
                            b.name(),
                            universe.show_signals(a.inputs().intersection(b.inputs())),
                            universe.show_signals(a.outputs().intersection(b.outputs())),
                        ),
                    });
                }
            }
        }
        let kernel = RowKernel::new(&parts);
        let k = parts.len();
        // Initial product states: Q'' = Q₁ × … × Qₙ, in cartesian order.
        let mut initial_tuples: Vec<Vec<u32>> = vec![Vec::new()];
        for p in &parts {
            let mut next = Vec::new();
            for tuple in &initial_tuples {
                for &q in p.initial_states() {
                    let mut t = tuple.clone();
                    t.push(q.0);
                    next.push(t);
                }
            }
            initial_tuples = next;
        }
        let mut lp = LazyProduct {
            parts,
            opts: opts.clone(),
            kernel,
            tuples: TupleArena::new(k),
            props: Vec::new(),
            row_off: Vec::new(),
            row_len: Vec::new(),
            succ: Vec::new(),
            succ_guards: Vec::new(),
            guards: GuardTable::default(),
            pending: Vec::new(),
            initial: Vec::new(),
            stats: ComposeStats::default(),
            expanded_rows: 0,
            tuple_buf: Vec::with_capacity(k),
            row_buf: Vec::new(),
            dedup: RowDedup::default(),
        };
        for t in initial_tuples {
            let id = lp.intern(&t);
            lp.initial.push(id);
        }
        Ok(lp)
    }

    /// Interns a tuple, assigning the next id on first sight.
    fn intern(&mut self, tuple: &[u32]) -> u32 {
        let (id, fresh) = self.tuples.intern(tuple);
        if fresh {
            self.props.push(product_props(&self.parts, tuple));
            self.row_off.push(UNEXPANDED);
            self.row_len.push(0);
            self.pending.push(id);
        }
        id
    }

    /// The composed parts, in order.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = &Automaton> {
        self.parts.iter().map(|p| &**p)
    }

    /// Number of product states discovered so far: ids `0..state_count()`
    /// are the states [`LazyProduct::expand_row`] accepts.
    pub fn state_count(&self) -> usize {
        self.props.len()
    }

    /// Number of rows expanded so far (the frontier probe reports them as
    /// `probe_rows_expanded`).
    pub fn expanded_rows(&self) -> usize {
        self.expanded_rows
    }

    /// The product name, `a||b||…` as for the classic path.
    fn name(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name().to_owned())
            .collect::<Vec<_>>()
            .join("||")
    }

    /// Finds the reachable product state with component-state tuple
    /// `tuple`: expands pending rows in discovery order only until the
    /// tuple is interned. `Ok(None)` means every reachable row is expanded
    /// and the tuple is unreachable. Rows expanded here stay expanded, so
    /// later calls resume where this one stopped.
    ///
    /// # Errors
    ///
    /// See [`LazyProduct::expand_row`].
    pub fn locate(&mut self, tuple: &[u32]) -> Result<Option<u32>> {
        loop {
            if let Some(id) = self.tuples.get(tuple) {
                return Ok(Some(id));
            }
            match self.pending.pop() {
                Some(s) => self.expand_row(s)?,
                None => return Ok(None),
            }
        }
    }

    /// Whether row `s` has been expanded.
    fn is_expanded(&self, s: u32) -> bool {
        self.row_off[s as usize] != UNEXPANDED
    }

    /// The targets of the expanded row of `s`, in emit order (a target
    /// repeats when several guards lead to it).
    fn successors(&self, s: u32) -> &[u32] {
        debug_assert!(self.is_expanded(s), "successor query on unexpanded row");
        let off = self.row_off[s as usize] as usize;
        &self.succ[off..off + self.row_len[s as usize] as usize]
    }

    /// The composed guards of the expanded row of `s`, in emit order.
    /// Requires the row to be expanded.
    pub fn row_guards(&self, s: u32) -> impl ExactSizeIterator<Item = &Guard> + '_ {
        debug_assert!(self.is_expanded(s), "guard query on unexpanded row");
        let off = self.row_off[s as usize] as usize;
        self.succ_guards[off..off + self.row_len[s as usize] as usize]
            .iter()
            .map(|&g| self.guards.get(g))
    }

    /// Expands the outgoing row of `s` (no-op when already expanded),
    /// interning newly discovered target states.
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] from the row kernel;
    /// [`AutomataError::Limit`] when the discovered state count passes
    /// `max_states`.
    pub fn expand_row(&mut self, s: u32) -> Result<()> {
        if self.is_expanded(s) {
            return Ok(());
        }
        if self.state_count() > self.opts.max_states {
            return Err(AutomataError::Limit {
                what: "composed state space".into(),
                max: self.opts.max_states,
            });
        }
        // Collect the row in the reused row buffer first: the emit closure
        // below interns new target states, which appends to the same arrays
        // a direct row write would borrow.
        let LazyProduct {
            parts,
            opts,
            kernel,
            tuples,
            props,
            row_off,
            row_len,
            succ,
            succ_guards,
            guards,
            pending,
            stats,
            tuple_buf,
            row_buf,
            dedup,
            ..
        } = self;
        tuple_buf.clear();
        tuple_buf.extend_from_slice(tuples.tuple(s));
        row_buf.clear();
        dedup.next_row();
        kernel.expand(parts, tuple_buf, opts, stats, guards, |guard, target| {
            // Inline intern over the split-borrowed columns (the method form
            // would re-borrow `self`).
            let (id, fresh) = tuples.intern(target);
            if fresh {
                props.push(product_props(parts, target));
                row_off.push(UNEXPANDED);
                row_len.push(0);
                pending.push(id);
            }
            // Classic dedup: drop exact (guard, target) repeats.
            if !dedup.repeats(id) || !row_buf.contains(&(guard, id)) {
                row_buf.push((guard, id));
            }
        })?;
        let off = u32::try_from(succ.len()).expect("transition arena exceeds u32 range");
        assert!(off != UNEXPANDED, "transition arena exceeds u32 range");
        row_off[s as usize] = off;
        row_len[s as usize] = row_buf.len() as u32;
        succ.extend(row_buf.iter().map(|&(_, t)| t));
        succ_guards.extend(row_buf.iter().map(|&(g, _)| g));
        self.expanded_rows += 1;
        Ok(())
    }

    /// Drains the discovery worklist, expanding every reachable row. When no
    /// row has been expanded out of band, this visits states in exactly the
    /// classic compose order, so ids equal the classic numbering.
    fn expand_all(&mut self) -> Result<()> {
        while let Some(s) = self.pending.pop() {
            self.expand_row(s)?;
        }
        Ok(())
    }

    /// The canonical discovery-order numbering: initial states first (in
    /// cartesian order), then depth-first off a LIFO stack following each
    /// row in emit order — the numbering the classic compose assigns. The
    /// result maps current ids to canonical ids (`None` for states that are
    /// unreachable under the canonical traversal, which cannot happen once
    /// `expand_all` ran).
    fn canonical_order(&self) -> Vec<Option<u32>> {
        let n = self.state_count();
        let mut order: Vec<Option<u32>> = vec![None; n];
        let mut next = 0u32;
        let mut stack: Vec<u32> = Vec::with_capacity(n);
        for &q in &self.initial {
            if order[q as usize].is_none() {
                order[q as usize] = Some(next);
                next += 1;
                stack.push(q);
            }
        }
        while let Some(s) = stack.pop() {
            if !self.is_expanded(s) {
                continue;
            }
            for &t in self.successors(s) {
                if order[t as usize].is_none() {
                    order[t as usize] = Some(next);
                    next += 1;
                    stack.push(t);
                }
            }
        }
        order
    }

    /// Expands every remaining row and materializes the product as a
    /// [`Composition`] bit-identical to the classic path: canonical
    /// renumbering, rows, tuples, and the CSR relation. Names, rows and
    /// tuples are written into shared buffers, so nothing is allocated per
    /// state, and the product's guard table becomes the automaton's.
    ///
    /// # Errors
    ///
    /// Any expansion error (see [`LazyProduct::expand_row`]); validation
    /// errors as for [`compose`](crate::compose::compose).
    pub fn into_composition(self) -> Result<Composition> {
        self.materialize().map(|(comp, _)| comp)
    }

    /// [`LazyProduct::into_composition`], also returning the row kernel,
    /// whose memo refers to the composition's guard table and stays valid
    /// for it.
    pub(crate) fn materialize(mut self) -> Result<(Composition, RowKernel)> {
        self.expand_all()?;
        let n = self.state_count();
        // old id -> canonical id, and back
        let order: Vec<u32> = self
            .canonical_order()
            .into_iter()
            .map(|o| o.expect("expand_all left no unreachable state"))
            .collect();
        let identity = order.iter().enumerate().all(|(i, &o)| o == i as u32);
        let mut back: Vec<u32> = vec![0; n];
        for (old, &new) in order.iter().enumerate() {
            back[new as usize] = old as u32;
        }
        let initial: Vec<StateId> = self
            .initial
            .iter()
            .map(|&q| StateId(order[q as usize]))
            .collect();
        let mut automaton = Automaton::empty(
            self.parts[0].universe().clone(),
            self.name(),
            (self.kernel.all_inputs(), self.kernel.all_outputs()),
            std::mem::take(&mut self.guards),
            initial,
        );
        automaton.reserve(n, self.succ.len());
        for &old in &back {
            let s = automaton.push_state(self.props[old as usize], |buf| {
                write_product_name(&self.parts, self.tuples.tuple(old), buf)
            });
            let off = self.row_off[old as usize] as usize;
            let len = self.row_len[old as usize] as usize;
            for (&t, &guard) in self.succ[off..off + len]
                .iter()
                .zip(&self.succ_guards[off..off + len])
            {
                automaton.push_transition(
                    s,
                    Transition {
                        guard,
                        to: StateId(order[t as usize]),
                    },
                );
            }
        }
        automaton.validate()?;
        let csr = Csr::of(&automaton);
        if !identity {
            self.tuples.remap(&order, n);
        }
        let comp = Composition {
            automaton,
            component_names: self.parts.iter().map(|p| p.name().to_owned()).collect(),
            interfaces: self
                .parts
                .iter()
                .map(|p| (p.inputs(), p.outputs()))
                .collect(),
            stats: self.stats,
            csr,
            tuples: self.tuples,
            reachable: n,
        };
        Ok((comp, self.kernel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::universe::Universe;

    fn pair(u: &Universe) -> (Automaton, Automaton) {
        let c = AutomatonBuilder::new(u, "client")
            .output("req")
            .input("rsp")
            .state("idle")
            .initial("idle")
            .state("waiting")
            .transition("idle", [], ["req"], "waiting")
            .transition("waiting", ["rsp"], [], "idle")
            .build()
            .unwrap();
        let s = AutomatonBuilder::new(u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("busy")
            .transition("ready", ["req"], [], "busy")
            .transition("busy", [], ["rsp"], "ready")
            .build()
            .unwrap();
        (c, s)
    }

    #[test]
    fn interner_inserts_and_grows() {
        let mut arena: Vec<u32> = Vec::new();
        let mut it = TupleInterner::with_capacity(4);
        for i in 0..200u32 {
            let tuple = [i, i.wrapping_mul(7)];
            assert_eq!(it.get(&tuple, &arena, 2), None);
            arena.extend_from_slice(&tuple);
            it.insert(i, &arena, 2);
            assert!(it.len * 2 <= it.slots.len(), "at most half full");
        }
        for i in 0..200u32 {
            assert_eq!(it.get(&[i, i.wrapping_mul(7)], &arena, 2), Some(i));
        }
        assert_eq!(it.get(&[7, 0], &arena, 2), None);
    }

    #[test]
    fn lazy_rows_match_compose_rows() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let classic = crate::compose::compose2(&c, &s).unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default()).unwrap();
        lp.expand_all().unwrap();
        assert_eq!(lp.state_count(), classic.automaton.state_count());
        for st in 0..lp.state_count() as u32 {
            let mut name = String::new();
            write_product_name(&lp.parts, lp.tuples.tuple(st), &mut name);
            assert_eq!(name, classic.automaton.state_name(StateId(st)));
            assert_eq!(
                lp.props[st as usize],
                classic.automaton.props_of(StateId(st))
            );
        }
    }

    #[test]
    fn out_of_order_expansion_renumbers_to_classic() {
        // A client that branches at once and then runs on along each
        // branch: the classic LIFO worklist expands the second branch
        // before the first, so expanding rows breadth-first (lowest id
        // first) numbers the states differently and `materialize` must
        // renumber rows, names and tuples into the classic order.
        let u = Universe::new();
        let c = AutomatonBuilder::new(&u, "client")
            .output("a")
            .output("b")
            .state("idle")
            .initial("idle")
            .state("w1")
            .state("w2")
            .state("d1")
            .state("d2")
            .transition("idle", [], ["a"], "w1")
            .transition("idle", [], ["b"], "w2")
            .transition("w1", [], [], "d1")
            .transition("w2", [], [], "d2")
            .transition("d1", [], [], "d1")
            .transition("d2", [], [], "d2")
            .build()
            .unwrap();
        let s = AutomatonBuilder::new(&u, "server")
            .input("a")
            .input("b")
            .state("s")
            .initial("s")
            .transition("s", ["a"], [], "s")
            .transition("s", ["b"], [], "s")
            .transition("s", [], [], "s")
            .build()
            .unwrap();
        let classic = crate::compose::compose2(&c, &s).unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default()).unwrap();
        let mut row = 0;
        while (row as usize) < lp.state_count() {
            lp.expand_row(row).unwrap();
            row += 1;
        }
        let bfs_names: Vec<String> = (0..lp.state_count() as u32)
            .map(|q| {
                let mut name = String::new();
                write_product_name(&lp.parts, lp.tuples.tuple(q), &mut name);
                name
            })
            .collect();
        assert!(
            bfs_names
                .iter()
                .zip(classic.automaton.state_ids())
                .any(|(name, st)| name != classic.automaton.state_name(st)),
            "breadth-first expansion must differ from the classic order"
        );
        let comp = lp.into_composition().unwrap();
        assert_eq!(
            comp.automaton.state_count(),
            classic.automaton.state_count()
        );
        for st in classic.automaton.state_ids() {
            assert_eq!(
                comp.automaton.state_name(st),
                classic.automaton.state_name(st)
            );
            assert_eq!(
                comp.automaton.transitions_from(st),
                classic.automaton.transitions_from(st)
            );
        }
        assert_eq!(comp.csr, classic.csr);
        for st in classic.automaton.state_ids() {
            assert_eq!(comp.tuple(st), classic.tuple(st));
            // The renumbered arena still finds every tuple's new id.
            assert_eq!(comp.tuples.get(comp.tuple(st)), Some(st.0));
        }
    }

    #[test]
    fn deadlock_rows_are_empty() {
        let u = Universe::new();
        let c = pair(&u).0;
        // server that never answers
        let s = AutomatonBuilder::new(&u, "server")
            .input("req")
            .output("rsp")
            .state("ready")
            .initial("ready")
            .state("stuck")
            .transition("ready", ["req"], [], "stuck")
            .build()
            .unwrap();
        let mut lp = LazyProduct::new(&[&c, &s], &ComposeOptions::default()).unwrap();
        lp.expand_all().unwrap();
        let dead: Vec<u32> = (0..lp.state_count() as u32)
            .filter(|&st| lp.successors(st).is_empty())
            .collect();
        assert_eq!(dead.len(), 1, "one deadlock state: {dead:?}");
        assert_eq!(lp.row_guards(dead[0]).len(), 0);
        let comp = lp.into_composition().unwrap();
        let stuck = comp.automaton.find_state("waiting||stuck").unwrap();
        assert!(comp.automaton.transitions_from(stuck).is_empty());
        assert!(comp.csr.is_deadlocked(stuck.index()));
    }

    #[test]
    fn state_limit_is_enforced() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let opts = ComposeOptions {
            max_states: 1,
            ..ComposeOptions::default()
        };
        let mut lp = LazyProduct::new(&[&c, &s], &opts).unwrap();
        assert!(matches!(lp.expand_all(), Err(AutomataError::Limit { .. })));
    }

    /// The arena against a `HashMap` reference: every lookup before an
    /// intern (hits and misses), every intern's id and fresh flag, and
    /// after each renumbering every tuple's id and `tuple(id)`. Cases draw
    /// widths 1 to 4 and coordinate ranges from a few values to thousands,
    /// so boxes re-lay out, grow only their outer extent, stay dense, or
    /// fall back to the hash interner part-way through.
    #[test]
    fn arena_matches_a_hash_map_through_relayouts_switches_and_remaps() {
        use std::cell::Cell;
        use std::collections::HashMap;
        let (dense, hashed, relayouts) = (Cell::new(0), Cell::new(0), Cell::new(0));
        muml_testkit::cases(300, |rng| {
            let k = rng.range(1..=4);
            let spread = [3, 12, 40, 3000][rng.below(4)];
            let steps = rng.range(50..=600);
            let mut arena = TupleArena::new(k);
            let mut reference: HashMap<Vec<u32>, u32> = HashMap::new();
            let draw = |rng: &mut muml_testkit::Rng| -> Vec<u32> {
                (0..k).map(|_| rng.below(spread) as u32).collect()
            };
            let check_all = |arena: &TupleArena, reference: &HashMap<Vec<u32>, u32>| {
                assert_eq!(arena.len(), reference.len());
                for (t, &id) in reference {
                    assert_eq!(arena.get(t), Some(id), "{t:?}");
                    assert_eq!(arena.tuple(id), t.as_slice());
                }
            };
            for step in 0..steps {
                let t = draw(rng);
                assert_eq!(arena.get(&t), reference.get(&t).copied(), "{t:?}");
                let before = match &arena.index {
                    TupleIndex::Dense(d) => Some(d.dims[..k - 1].to_vec()),
                    TupleIndex::Hash(_) => None,
                };
                let expected = match reference.get(&t) {
                    Some(&id) => (id, false),
                    None => (reference.len() as u32, true),
                };
                assert_eq!(arena.intern(&t), expected, "{t:?}");
                reference.entry(t).or_insert(expected.0);
                if let (Some(before), TupleIndex::Dense(d)) = (before, &arena.index) {
                    relayouts.set(relayouts.get() + usize::from(before != d.dims[..k - 1]));
                }
                if step % 97 == 96 {
                    // Renumber: a random permutation, or keep a random
                    // subset (the kept ids must become exactly 0..kept).
                    let mut order: Vec<u32> = (0..arena.len() as u32).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.below(i + 1));
                    }
                    let kept = if rng.bool() {
                        order.len()
                    } else {
                        rng.below(order.len() + 1)
                    };
                    let mut remap = vec![u32::MAX; order.len()];
                    for (new, &old) in order[..kept].iter().enumerate() {
                        remap[old as usize] = new as u32;
                    }
                    arena.remap(&remap, kept);
                    reference.retain(|_, id| remap[*id as usize] != u32::MAX);
                    for id in reference.values_mut() {
                        *id = remap[*id as usize];
                    }
                    check_all(&arena, &reference);
                }
            }
            check_all(&arena, &reference);
            for _ in 0..50 {
                let t = draw(rng);
                assert_eq!(arena.get(&t), reference.get(&t).copied(), "{t:?}");
            }
            let mode = match arena.index {
                TupleIndex::Dense(_) => &dense,
                TupleIndex::Hash(_) => &hashed,
            };
            mode.set(mode.get() + 1);
        });
        // The corpus must reach both representations and re-lay out.
        let (dense, hashed, relayouts) = (dense.get(), hashed.get(), relayouts.get());
        assert!(dense > 50 && hashed > 50, "{dense} dense, {hashed} hashed");
        assert!(relayouts > 100, "{relayouts} re-layouts");
    }

    /// A dense box never spends more than its budget: it stays within
    /// `DENSE_SLOTS_PER_TUPLE` slots per tuple once past `DENSE_MIN_SLOTS`,
    /// and its slots are counted by `heap_bytes`.
    #[test]
    fn dense_tables_respect_their_budget() {
        muml_testkit::cases(100, |rng| {
            let k = rng.range(1..=4);
            let mut arena = TupleArena::new(k);
            for _ in 0..rng.range(1..=500) {
                let t: Vec<u32> = (0..k).map(|_| rng.below(60) as u32).collect();
                arena.intern(&t);
                if let TupleIndex::Dense(d) = &arena.index {
                    let size: usize = d.dims.iter().map(|&x| x as usize).product();
                    assert_eq!(d.slots.len(), size);
                    assert!(size <= DENSE_MIN_SLOTS.max(DENSE_SLOTS_PER_TUPLE * arena.len()));
                    assert!(arena.heap_bytes() >= (arena.arena.len() + size) * 4);
                }
            }
        });
    }
}
