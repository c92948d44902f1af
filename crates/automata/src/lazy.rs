//! The one product engine, over flat arena storage.
//!
//! Every product the crate builds is written by one routine into one
//! storage: a [`compose`](crate::compose) result, the cold build and every
//! splice of a [`CompositionCache`](crate::CompositionCache), and the
//! frontier probe's [`LazyProduct`] all expand their rows through
//! `Product::expand` into a [`Composition`]'s automaton rows and its tuple
//! arena.
//!
//! * One `u32` arena holds every component-state tuple (stride = number of
//!   components), so a product state is a slice, not a `Vec`. Its index
//!   (`TupleArena`) finds a tuple's id through a dense table over the box
//!   of coordinates seen so far (a few multiply-adds and one load), or,
//!   once that box would be too sparse or too large, through an
//!   open-addressed table keyed by a multiply-xor hash of the tuple that
//!   probes the arena directly — no per-key allocation, no `Vec<StateId>`
//!   clones.
//! * Rows are solved by the bitset [`RowKernel`], which memoizes each
//!   combination of part guard ids and emits ids into the product's guard
//!   table (each distinct guard stored once). A row is collected in a
//!   reused scratch row, repeated entries dropped in time linear in the row
//!   (`RowDedup`), and written into the automaton's shared row buffer:
//!   packed at its end while the product is first built, and in place or
//!   in a size-class slot once it has settled. New states' names and
//!   labels go into the automaton's shared buffers as well, so nothing is
//!   allocated per state.
//!
//! A LIFO worklist drives expansion. A state is queued when it is first
//! reached, and ids are handed out in that order, so a product built by
//! draining the worklist from its initial tuples numbers its states in
//! depth-first discovery order — the classic numbering, which depends on
//! the parts alone. A probe expands only as far as it reads:
//! [`LazyProduct::locate`] drains the worklist only until the wanted tuple
//! is interned, and [`LazyProduct::expand_row`] then expands the located
//! row out of turn. Nothing is ever renumbered: a product keeps the ids it
//! handed out, and a splice only appends to them (or compacts them, see
//! `Product::settle`).

use std::borrow::Cow;
use std::ops::Deref;

use crate::automaton::{Automaton, StateId, Transition};
use crate::compose::{check_composable, ComposeOptions, ComposeStats, Composition, RowKernel};
use crate::csr::{live_targets, Csr};
use crate::error::{AutomataError, Result};
use crate::label::Guard;
use crate::prop::PropSet;

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
/// index mapping tuples back to ids. Every product numbers its states
/// through one of these, and the row kernel keys its memo with one.
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
    fn remap(&mut self, remap: &[u32], kept: usize) {
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
/// needs a scan of it.
#[derive(Debug, Clone, Default)]
struct RowDedup {
    stamp: Vec<u32>,
    row: u32,
}

impl RowDedup {
    /// Starts collecting a new row.
    fn next_row(&mut self) {
        if self.row == u32::MAX {
            self.stamp.fill(0);
            self.row = 0;
        }
        self.row += 1;
    }

    /// Whether the row being collected already targets `target`; from now
    /// on it does.
    #[inline]
    fn repeats(&mut self, target: u32) -> bool {
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

/// Where a product state's row stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row {
    /// No row: the state was unreachable when the product last settled, so
    /// its row was cleared. Reaching it again queues it.
    Idle,
    /// In the worklist, waiting for its row.
    Queued,
    /// Row written since the product last settled.
    Expanded,
    /// Row written and settled: the state is reachable and its row is in
    /// the CSR relation.
    Settled,
}

/// The one product engine: a product, the row kernel that writes its rows
/// and the worklist that drives it (see the module docs). Parts are handed
/// to every call rather than kept, so that a
/// [`CompositionCache`](crate::CompositionCache) can patch its closures
/// between splices; every call must get the parts the product was started
/// over, or patched copies of them.
pub(crate) struct Product {
    /// The product written so far: the automaton's rows, the tuple arena
    /// and the work counters. `comp.reachable` stays zero until the product
    /// first settles.
    pub(crate) comp: Composition,
    /// The row kernel: its memo names guards of `comp.automaton`'s table
    /// and the parts' guard ids, both append-only, so it stays valid for
    /// the product's lifetime.
    kernel: RowKernel,
    /// Where each state's row stands.
    rows: Vec<Row>,
    /// The worklist, popped last in, first out.
    pending: Vec<u32>,
    /// States reachable when the product last settled plus those queued
    /// since: the count `max_states` bounds.
    reached: usize,
    /// Rows expanded so far.
    expanded: usize,
    /// Row scratch, reused from row to row: the row's tuple, and its
    /// collected transitions with their dedupe stamps.
    tuple: Vec<u32>,
    row: Vec<Transition>,
    dedup: RowDedup,
}

impl Product {
    /// An unexpanded product of `parts`: checks universes and pairwise
    /// composability, and queues the cartesian initial tuples as states
    /// `0..initial_count`.
    ///
    /// # Errors
    ///
    /// [`AutomataError::UniverseMismatch`] / [`AutomataError::NotComposable`]
    /// as for [`compose`](crate::compose).
    pub(crate) fn new<P: Deref<Target = Automaton>>(parts: &[P]) -> Result<Product> {
        check_composable(parts)?;
        let mut product = Product {
            comp: Composition::empty(parts),
            kernel: RowKernel::new(parts),
            rows: Vec::new(),
            pending: Vec::new(),
            reached: 0,
            expanded: 0,
            tuple: Vec::with_capacity(parts.len()),
            row: Vec::new(),
            dedup: RowDedup::default(),
        };
        // Initial product states: Q'' = Q₁ × … × Qₙ, in cartesian order.
        let mut initial_tuples: Vec<Vec<u32>> = vec![Vec::new()];
        for p in parts {
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
        let initial = initial_tuples
            .iter()
            .map(|t| StateId(product.queue_initial(parts, t)))
            .collect();
        product.comp.automaton.initial = initial;
        Ok(product)
    }

    /// Interns an initial tuple, as a new queued state on first sight.
    fn queue_initial<P: Deref<Target = Automaton>>(&mut self, parts: &[P], tuple: &[u32]) -> u32 {
        let (id, fresh) = self.comp.tuples.intern(tuple);
        if fresh {
            self.comp
                .automaton
                .push_state(product_props(parts, tuple), |buf| {
                    write_product_name(parts, tuple, buf)
                });
            self.rows.push(Row::Queued);
            self.pending.push(id);
            self.reached += 1;
        }
        id
    }

    /// Whether state `s` has a current row.
    fn has_row(&self, s: u32) -> bool {
        matches!(self.rows[s as usize], Row::Expanded | Row::Settled)
    }

    /// Whether state `s` was reachable when the product last settled.
    pub(crate) fn is_settled(&self, s: u32) -> bool {
        self.rows[s as usize] == Row::Settled
    }

    /// Expands the row of `s` with the row kernel: the one routine every
    /// product is built and spliced by. Fresh targets become new states at
    /// the end of the product and are queued, as is any state without a
    /// row hit again; the row, with exact repeats dropped, replaces the
    /// state's old one. A state that already has a row is left alone.
    /// Returns the number of transitions written.
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] from the row kernel;
    /// [`AutomataError::Limit`] when more than `max_states` states have been
    /// reached.
    fn expand<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        s: u32,
        opts: &ComposeOptions,
    ) -> Result<usize> {
        if self.has_row(s) {
            return Ok(0);
        }
        if self.reached > opts.max_states {
            return Err(AutomataError::Limit {
                what: "composed state space".into(),
                max: opts.max_states,
            });
        }
        let Product {
            comp,
            kernel,
            rows,
            pending,
            reached,
            tuple,
            row,
            dedup,
            ..
        } = self;
        let Composition {
            automaton,
            tuples,
            stats,
            reachable,
            ..
        } = comp;
        tuple.clear();
        tuple.extend_from_slice(tuples.tuple(s));
        row.clear();
        dedup.next_row();
        let guards = automaton.guards_mut();
        kernel.expand(parts, tuple, opts, stats, guards, |guard, target| {
            let (id, fresh) = tuples.intern(target);
            if fresh {
                rows.push(Row::Idle);
            }
            if rows[id as usize] == Row::Idle {
                rows[id as usize] = Row::Queued;
                pending.push(id);
                *reached += 1;
            }
            let t = Transition {
                guard,
                to: StateId(id),
            };
            if !dedup.repeats(id) || !row.contains(&t) {
                row.push(t);
            }
        })?;
        // States for the tuples this row discovered, in id order.
        for id in automaton.state_count()..tuples.len() {
            let fresh = tuples.tuple(id as u32);
            automaton.push_state(product_props(parts, fresh), |buf| {
                write_product_name(parts, fresh, buf)
            });
        }
        let state = StateId(s);
        let written = row.len();
        if *reachable == 0 {
            // Not settled yet: the product is being built row after row,
            // each packed at the end of the buffer.
            automaton.push_row(state, row);
        } else {
            // A splice rewrites the row in place, or in a size-class slot a
            // later splice can reuse, and may have relabelled the closure
            // copies in its tuple.
            automaton.set_props(state, product_props(parts, tuple));
            automaton.set_row(state, row);
        }
        rows[s as usize] = Row::Expanded;
        self.expanded += 1;
        Ok(written)
    }

    /// Expands queued rows, the last queued first, until none is left.
    /// Returns the transitions written.
    fn drain<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        opts: &ComposeOptions,
    ) -> Result<usize> {
        let mut written = 0;
        while let Some(s) = self.pending.pop() {
            written += self.expand(parts, s, opts)?;
        }
        Ok(written)
    }

    /// Expands every queued row and settles the product for the first
    /// time: trims its storage, validates it and builds its CSR relation.
    /// Every state is reachable, since each was reached from an initial
    /// state.
    ///
    /// # Errors
    ///
    /// As for [`Product::expand`], and validation errors.
    pub(crate) fn finish<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        opts: &ComposeOptions,
    ) -> Result<()> {
        self.drain(parts, opts)?;
        let m = &mut self.comp.automaton;
        m.shrink_to_fit();
        m.validate()?;
        self.comp.csr = Csr::of(m);
        self.comp.reachable = m.state_count();
        self.rows.fill(Row::Settled);
        Ok(())
    }

    /// Re-expands the `dirty` rows of a settled product where they stand,
    /// and whatever they newly reach, with [`Product::expand`]. Afterwards
    /// `comp.stats` counts this splice's work only; [`Product::settle`]
    /// must follow. Returns the rows expanded and the transitions written.
    ///
    /// # Errors
    ///
    /// As for [`Product::expand`]; the product is then left half spliced.
    pub(crate) fn splice<P: Deref<Target = Automaton>>(
        &mut self,
        parts: &[P],
        dirty: &[u32],
        opts: &ComposeOptions,
    ) -> Result<(usize, usize)> {
        self.comp.stats = ComposeStats::default();
        for &r in dirty {
            self.rows[r as usize] = Row::Queued;
        }
        self.pending.extend_from_slice(dirty);
        let before = self.expanded;
        let written = self.drain(parts, opts)?;
        Ok((self.expanded - before, written))
    }

    /// Settles a spliced product: finds the reachable part with one pass
    /// over the successors from the initial states, clears the rows that
    /// fell out of it, and rebuilds the CSR relation, re-sorting only the
    /// rows that changed and copying the rest from the previous relation.
    /// Once unreachable states outnumber reachable ones the product is
    /// compacted in id order instead.
    pub(crate) fn settle(&mut self) {
        let Product {
            comp,
            rows,
            reached,
            ..
        } = self;
        let m = &mut comp.automaton;
        let n = m.state_count();
        // Rows the splice did not touch still have the targets the previous
        // relation lists as compact `u32` runs; only re-expanded rows are
        // read from the automaton. (Product guards are never empty, so
        // every target of a row is a live one.)
        let prev = &comp.csr;
        let mut live = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let reach = |t: u32, live: &mut [bool], stack: &mut Vec<u32>| {
            if !live[t as usize] {
                live[t as usize] = true;
                stack.push(t);
            }
        };
        for q in m.initial_states() {
            reach(q.0, &mut live, &mut stack);
        }
        while let Some(s) = stack.pop() {
            if rows[s as usize] == Row::Expanded {
                for t in m.transitions_from(StateId(s)) {
                    reach(t.to.0, &mut live, &mut stack);
                }
            } else {
                for &t in prev.row(s as usize) {
                    reach(t, &mut live, &mut stack);
                }
            }
        }
        let reachable = live.iter().filter(|&&l| l).count();
        comp.reachable = reachable;
        *reached = reachable;
        if n - reachable > reachable {
            let mut remap = vec![u32::MAX; n];
            let mut next = 0u32;
            for (s, &l) in live.iter().enumerate() {
                if l {
                    remap[s] = next;
                    next += 1;
                }
            }
            m.retain_states(&live);
            comp.tuples.remap(&remap, reachable);
            comp.csr = Csr::of(m);
            *rows = vec![Row::Settled; reachable];
            return;
        }
        let mut changed: Vec<bool> = rows.iter().map(|&r| r == Row::Expanded).collect();
        for s in 0..n {
            if !live[s] && !m.transitions_from(StateId(s as u32)).is_empty() {
                m.clear_row(StateId(s as u32));
                changed[s] = true;
            }
        }
        m.compact_rows();
        comp.csr = Csr::from_rows(n, |s, out| {
            if changed[s] {
                live_targets(m, s, out);
            } else {
                out.extend_from_slice(prev.row(s));
            }
        });
        for (row, &l) in rows.iter_mut().zip(&live) {
            *row = if l { Row::Settled } else { Row::Idle };
        }
    }
}

/// A product expanded on demand over borrowed or owned parts
/// ([`LazyProduct::from_parts`]): the frontier probe keeps one per legacy
/// unit across a run, owning snapshots of parts its owner keeps mutating,
/// and reads single rows. [`LazyProduct::locate`] expands rows in discovery
/// order only until a tuple is interned, and [`LazyProduct::expand_row`]
/// expands one more, out of turn if need be. It runs the engine
/// [`compose`](crate::compose) runs, so [`LazyProduct::finish`] yields
/// [`compose`](crate::compose)'s product up to a renaming of states.
pub struct LazyProduct<'a> {
    parts: Vec<Cow<'a, Automaton>>,
    opts: ComposeOptions,
    product: Product,
}

impl<'a> LazyProduct<'a> {
    /// Starts a product over `parts`, checking universes and pairwise
    /// composability and interning the cartesian initial tuples (ids
    /// `0..initial_count`, as for [`compose`](crate::compose)).
    ///
    /// # Errors
    ///
    /// [`AutomataError::UniverseMismatch`] / [`AutomataError::NotComposable`]
    /// as for [`compose`](crate::compose).
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
        Ok(LazyProduct {
            product: Product::new(&parts)?,
            parts,
            opts: opts.clone(),
        })
    }

    /// The composed parts, in order.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = &Automaton> {
        self.parts.iter().map(|p| &**p)
    }

    /// Number of rows expanded so far (the frontier probe reports them as
    /// `probe_rows_expanded`).
    pub fn expanded_rows(&self) -> usize {
        self.product.expanded
    }

    /// Finds the reachable product state with component-state tuple
    /// `tuple`: expands queued rows in discovery order only until the tuple
    /// is interned. `Ok(None)` means every reachable row is expanded and
    /// the tuple is unreachable. Rows expanded here stay expanded, so later
    /// calls resume where this one stopped.
    ///
    /// # Errors
    ///
    /// See [`LazyProduct::expand_row`].
    pub fn locate(&mut self, tuple: &[u32]) -> Result<Option<u32>> {
        loop {
            if let Some(id) = self.product.comp.tuples.get(tuple) {
                return Ok(Some(id));
            }
            match self.product.pending.pop() {
                Some(s) => self.product.expand(&self.parts, s, &self.opts)?,
                None => return Ok(None),
            };
        }
    }

    /// Expands the row of state `s` (an id [`LazyProduct::locate`]
    /// returned), interning the target states it discovers; a no-op when
    /// the row is already expanded.
    ///
    /// # Errors
    ///
    /// [`AutomataError::FreeSignalOverflow`] from the row kernel;
    /// [`AutomataError::Limit`] when the discovered state count passes
    /// `max_states`.
    pub fn expand_row(&mut self, s: u32) -> Result<()> {
        self.product.expand(&self.parts, s, &self.opts).map(drop)
    }

    /// The composed guards of the expanded row of `s`, in emit order.
    /// Requires the row to be expanded.
    pub fn row_guards(&self, s: u32) -> impl ExactSizeIterator<Item = &Guard> + '_ {
        debug_assert!(self.product.has_row(s), "guard query on unexpanded row");
        let m = &self.product.comp.automaton;
        m.transitions_from(StateId(s))
            .iter()
            .map(move |t| m.guard(t.guard))
    }

    /// Expands every remaining row in discovery order and returns the
    /// product. Nothing is renumbered: rows expanded out of turn keep the
    /// ids they were given, so the result is [`compose`](crate::compose)'s
    /// product up to a renaming of states (work counters included), and
    /// bit for bit when no row was expanded out of turn.
    ///
    /// # Errors
    ///
    /// As for [`LazyProduct::expand_row`], and validation errors as for
    /// [`compose`](crate::compose).
    pub fn finish(mut self) -> Result<Composition> {
        self.product.finish(&self.parts, &self.opts)?;
        Ok(self.product.comp)
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
        let waiting = c.find_state("waiting").unwrap().0;
        let stuck = s.find_state("stuck").unwrap().0;
        let dead = lp.locate(&[waiting, stuck]).unwrap().expect("reachable");
        lp.expand_row(dead).unwrap();
        assert_eq!(lp.row_guards(dead).len(), 0);
        let comp = lp.finish().unwrap();
        assert_eq!(comp.automaton.state_name(StateId(dead)), "waiting||stuck");
        assert!(comp.automaton.transitions_from(StateId(dead)).is_empty());
        assert!(comp.csr.is_deadlocked(dead as usize));
    }

    #[test]
    fn state_limit_is_enforced() {
        let u = Universe::new();
        let (c, s) = pair(&u);
        let opts = ComposeOptions {
            max_states: 1,
            ..ComposeOptions::default()
        };
        let lp = LazyProduct::new(&[&c, &s], &opts).unwrap();
        assert!(matches!(lp.finish(), Err(AutomataError::Limit { .. })));
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
