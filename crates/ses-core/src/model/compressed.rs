//! Dictionary-encoded, block-compressed columnar interest storage — the
//! third [`super::InterestMatrix`] backend, built for the 10⁵–10⁶-user axis.
//!
//! The dataset generators draw interest values from small alphabets (the
//! quantized scale generators cap them explicitly), so a column is mostly
//! repetitions of a few hundred distinct doubles. [`CompressedInterest`]
//! stores, per item:
//!
//! * one global **dictionary** of distinct non-zero values (`Vec<f64>`,
//!   first-use order) and a `u16`/`u32` **code** per stored entry
//!   ([`CodeVec`] starts narrow and promotes to wide only if the dictionary
//!   outgrows `u16`);
//! * entries grouped into **512-user-aligned blocks** (the same constant as
//!   the engine's reduction geometry, [`crate::parallel::PAR_BLOCK`]). A
//!   *full* block (512 stored entries) stores **no user indices at all** —
//!   the user is `base + position` — while a partial block keeps one `u16`
//!   local offset per entry. On a dense quantized column this is ~2 bytes
//!   per entry against the sparse layout's 12 (`u32` user + `f64` value);
//! * a per-item block directory with per-block non-zero counts, and the
//!   same cached column sums as the other layouts.
//!
//! **Bit-identity.** A column decodes to exactly the `(user, µ)` sequence
//! the sparse layout stores — same values (codes are exact `f64` bit
//! patterns, never re-derived), same ascending-user order, same positional
//! indexing for `column_part`. The cached column sum is the identical
//! flat left-to-right [`stored_sum`] over the decoded sequence. So every
//! consumer of the `InterestMatrix` API — the fused scoring kernel, the
//! delta layer, the stream repairer, the constraint gate — produces the
//! same output bits on `Compressed` as on `Sparse`, at any thread count.
//!
//! **Mutations edit in place.** `push_item` appends at the tail; a point
//! edit (`set_value`) splices one entry into or out of one block and
//! shifts the later block directory; `remove_item` drains one item's
//! slices; user churn (`append_users`, `remove_users`) re-blocks every
//! column from its carried codes. Only the touched blocks convert between
//! full and partial, only the touched columns recompute their sums, and no
//! stored entry is decoded or re-interned. Every mutation ends with the
//! dictionary in the canonical form an encode from scratch produces
//! (first-use order, no dead codes, narrow codes while they fit), so a
//! mutated matrix is `==` — and serializes byte-identically — to a fresh
//! `to_compressed` of the same values.

use super::interest::{stored_sum, user_keep_mask};
use crate::parallel::PAR_BLOCK;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Users per compressed block — deliberately the engine's reduction-block
/// constant so the shard unit of a future multi-process split matches the
/// sweep geometry.
pub const COMPRESSED_BLOCK: usize = PAR_BLOCK;

/// The physical layout of an interest matrix, selectable per instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageKind {
    /// Item-major dense matrix — the faithful-reproduction layout.
    Dense,
    /// CSC non-zero lists — the EBSN-sparsity layout.
    Sparse,
    /// Dictionary-encoded 512-aligned compressed blocks — the scale layout.
    Compressed,
}

impl StorageKind {
    /// All kinds, in declaration order.
    pub const ALL: [StorageKind; 3] = [Self::Dense, Self::Sparse, Self::Compressed];

    /// Canonical lowercase name (the `--storage` flag vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            Self::Dense => "dense",
            Self::Sparse => "sparse",
            Self::Compressed => "compressed",
        }
    }

    /// Parses a canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(Self::Dense),
            "sparse" => Some(Self::Sparse),
            "compressed" => Some(Self::Compressed),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-entry value codes: narrow while the dictionary fits `u16`, promoted
/// to wide exactly once if it doesn't (quantized generators never do).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) enum CodeVec {
    /// `u16` codes — 2 bytes per stored entry.
    Narrow(Vec<u16>),
    /// `u32` codes — for dictionaries beyond 65 536 distinct values.
    Wide(Vec<u32>),
}

impl CodeVec {
    fn new() -> Self {
        Self::Narrow(Vec::new())
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len(),
            Self::Wide(v) => v.len(),
        }
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> u32 {
        match self {
            Self::Narrow(v) => v[i] as u32,
            Self::Wide(v) => v[i],
        }
    }

    /// Promotes narrow → wide if `code` doesn't fit `u16`.
    fn widen_for(&mut self, code: u32) {
        if let Self::Narrow(v) = self {
            if code > u16::MAX as u32 {
                *self = Self::Wide(v.iter().map(|&c| c as u32).collect());
            }
        }
    }

    /// Appends one code, promoting narrow → wide on the first code that
    /// doesn't fit.
    fn push(&mut self, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v.push(code as u16),
            Self::Wide(v) => v.push(code),
        }
    }

    /// Inserts one code at `i`, promoting like [`push`](Self::push).
    fn insert(&mut self, i: usize, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v.insert(i, code as u16),
            Self::Wide(v) => v.insert(i, code),
        }
    }

    /// Overwrites the code at `i`, promoting like [`push`](Self::push).
    fn set(&mut self, i: usize, code: u32) {
        self.widen_for(code);
        match self {
            Self::Narrow(v) => v[i] = code as u16,
            Self::Wide(v) => v[i] = code,
        }
    }

    fn remove(&mut self, i: usize) {
        match self {
            Self::Narrow(v) => drop(v.remove(i)),
            Self::Wide(v) => drop(v.remove(i)),
        }
    }

    fn drain(&mut self, range: std::ops::Range<usize>) {
        match self {
            Self::Narrow(v) => drop(v.drain(range)),
            Self::Wide(v) => drop(v.drain(range)),
        }
    }

    /// One more than the largest code before `pos` (0 for `pos == 0`). In
    /// a canonical prefix that is the number of distinct codes it uses.
    fn prefix_next(&self, pos: usize) -> u32 {
        if pos == 0 {
            return 0;
        }
        // A `fold` over `max` vectorizes where `Iterator::max` does not.
        let max = match self {
            Self::Narrow(v) => v[..pos].iter().fold(0, |m, &c| m.max(c)) as u32,
            Self::Wide(v) => v[..pos].iter().fold(0, |m, &c| m.max(c)),
        };
        max + 1
    }

    /// Where the codes stop being in canonical first-use order over a
    /// dictionary of `dict_len` values (first occurrences reading
    /// `0, 1, 2, …`, every code occurring), given that the codes before
    /// `from` are in that order and use exactly `0..next`: `None` when the
    /// whole vector is canonical, else `Some((pos, next))` — the codes
    /// before `pos` are in order and use exactly `0..next`. Stops as soon
    /// as the last code has appeared, on quantized data usually within the
    /// first column.
    fn first_use_break(&self, from: usize, next: u32, dict_len: usize) -> Option<(usize, u32)> {
        fn scan(
            codes: impl Iterator<Item = u32>,
            from: usize,
            mut next: u32,
            n: u32,
        ) -> Option<(usize, u32)> {
            let mut end = from;
            for (pos, c) in (from..).zip(codes) {
                if next == n {
                    return None;
                }
                if c >= next {
                    if c != next {
                        return Some((pos, next));
                    }
                    next += 1;
                }
                end = pos + 1;
            }
            (next != n).then_some((end, next))
        }
        let n = dict_len as u32;
        match self {
            Self::Narrow(v) => scan(v[from..].iter().map(|&c| c as u32), from, next, n),
            Self::Wide(v) => scan(v[from..].iter().copied(), from, next, n),
        }
    }

    /// Renumbers codes from `pos` on into first-use order, given that the
    /// codes before `pos` are exactly `0..next` in first-use order (see
    /// [`first_use_break`](Self::first_use_break)). Returns the new code
    /// of each old code `next + i` at index `i` (`u32::MAX` for codes that
    /// no longer occur), and the number that survive.
    fn renumber_from(&mut self, pos: usize, next: u32, dict_len: usize) -> (Vec<u32>, usize) {
        fn run<T: Copy + Into<u32>>(
            codes: &mut [T],
            next: u32,
            dict_len: usize,
            put: impl Fn(u32) -> T,
        ) -> (Vec<u32>, usize) {
            let mut table = vec![u32::MAX; dict_len - next as usize];
            let mut survivors = 0;
            for c in codes {
                let old: u32 = (*c).into();
                if old < next {
                    continue;
                }
                let slot = &mut table[(old - next) as usize];
                if *slot == u32::MAX {
                    *slot = next + survivors as u32;
                    survivors += 1;
                }
                *c = put(*slot);
            }
            (table, survivors)
        }
        match self {
            Self::Narrow(v) => run(&mut v[pos..], next, dict_len, |c| c as u16),
            Self::Wide(v) => run(&mut v[pos..], next, dict_len, |c| c),
        }
    }

    /// Narrows wide codes to `u16` once a dictionary of `dict_len` values
    /// fits — the width an encode from scratch would pick.
    fn fit(&mut self, dict_len: usize) {
        if let Self::Wide(v) = self {
            if dict_len <= u16::MAX as usize + 1 {
                *self = Self::Narrow(v.iter().map(|&c| c as u16).collect());
            }
        }
    }

    /// An empty vector of `like`'s width with room for `capacity` codes.
    fn with_capacity_like(like: &Self, capacity: usize) -> Self {
        match like {
            Self::Narrow(_) => Self::Narrow(Vec::with_capacity(capacity)),
            Self::Wide(_) => Self::Wide(Vec::with_capacity(capacity)),
        }
    }

    /// Appends `other[range]`, widening like [`push`](Self::push).
    fn extend_from(&mut self, other: &Self, range: std::ops::Range<usize>) {
        if matches!((&*self, other), (Self::Narrow(_), Self::Wide(_))) {
            self.widen_for(u32::MAX);
        }
        match (self, other) {
            (Self::Narrow(v), Self::Narrow(o)) => v.extend_from_slice(&o[range]),
            (Self::Wide(v), Self::Wide(o)) => v.extend_from_slice(&o[range]),
            (Self::Wide(v), Self::Narrow(o)) => v.extend(o[range].iter().map(|&c| c as u32)),
            (Self::Narrow(_), Self::Wide(_)) => unreachable!("widened above"),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Self::Narrow(v) => v.len() * 2,
            Self::Wide(v) => v.len() * 4,
        }
    }
}

/// One non-empty 512-user block of one item's column.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct ColumnBlock {
    /// User-range index: the block covers users
    /// `[block · 512, block · 512 + 512)`.
    block: u32,
    /// Stored entries in this block (`1..=512`). `len == 512` means the
    /// block is full and user indices are implicit (`base + position`).
    len: u16,
    /// Absolute index of the block's first entry in `codes`.
    entry_start: usize,
    /// Absolute index of the block's first local offset in `offsets`
    /// (unused — equal to the next block's — when the block is full).
    offset_start: usize,
}

impl ColumnBlock {
    #[inline]
    fn base(&self) -> usize {
        self.block as usize * COMPRESSED_BLOCK
    }

    #[inline]
    fn entry_end(&self) -> usize {
        self.entry_start + self.len as usize
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.len as usize == COMPRESSED_BLOCK
    }
}

/// Transient dictionary index used while encoding — the matrix itself never
/// holds the hash map, only the plain `Vec<f64>` dictionary.
#[derive(Default)]
struct Interner {
    by_bits: HashMap<u64, u32>,
}

impl Interner {
    #[inline]
    fn intern(&mut self, dict: &mut Vec<f64>, value: f64) -> u32 {
        *self.by_bits.entry(value.to_bits()).or_insert_with(|| {
            dict.push(value);
            (dict.len() - 1) as u32
        })
    }
}

/// Codes for a batch of non-zero `values` against `dict`: a value already
/// in the dictionary keeps its code, and new values are appended in
/// first-use order. The hash index covers the batch's distinct values
/// only, so interning one column costs O(batch) memory however large the
/// dictionary has grown. It is a std `HashMap`, whose per-process random
/// key keeps a client choosing interest values from steering them into
/// one bucket.
fn intern_new(dict: &mut Vec<f64>, values: &[f64]) -> Vec<u32> {
    // Both shortcuts below index by a fixed multiplicative mix of the bits.
    // A crafted collision only sends a value down the hash-map path it
    // would take without them.
    let mix = |v: f64| v.to_bits().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut slots: HashMap<u64, u32> = HashMap::new();
    let mut distinct = Vec::new();
    // Quantized data repeats a few hundred values, so a direct-mapped memo
    // of recent values skips the hash for almost every repeat. Its empty
    // entries hold the bits of +0.0, which a non-zero value never has.
    let mut memo = [(0u64, 0u32); 1024];
    let mut out: Vec<u32> = values
        .iter()
        .map(|&v| {
            let m = &mut memo[(mix(v) >> 54) as usize];
            if m.0 != v.to_bits() {
                let slot = *slots.entry(v.to_bits()).or_insert_with(|| {
                    distinct.push(v);
                    (distinct.len() - 1) as u32
                });
                *m = (v.to_bits(), slot);
            }
            m.1
        })
        .collect();
    // A 2¹⁶-bit filter of the batch's values lets the dictionary scan skip
    // the hash probe for almost every entry.
    let bit = |v: f64| (mix(v) >> 48) as usize;
    let mut filter = vec![0u64; (1 << 16) / 64];
    for &v in &distinct {
        let b = bit(v);
        filter[b / 64] |= 1 << (b % 64);
    }
    let mut code = vec![u32::MAX; distinct.len()];
    for (c, &d) in dict.iter().enumerate() {
        let b = bit(d);
        if filter[b / 64] >> (b % 64) & 1 == 0 {
            continue;
        }
        if let Some(&slot) = slots.get(&d.to_bits()) {
            code[slot as usize] = c as u32;
        }
    }
    for (slot, &v) in distinct.iter().enumerate() {
        if code[slot] == u32::MAX {
            code[slot] = dict.len() as u32;
            dict.push(v);
        }
    }
    out.iter_mut().for_each(|s| *s = code[*s as usize]);
    out
}

/// Dictionary-encoded, 512-aligned block-compressed interest storage. See
/// the module docs for the layout and the bit-identity argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressedInterest {
    num_users: usize,
    /// Distinct non-zero values, in first-use (encode-order) position; codes
    /// index into it. Exact `f64` bit patterns — never re-derived.
    dict: Vec<f64>,
    /// One code per stored entry, all items concatenated in column order.
    codes: CodeVec,
    /// Local user offsets (`user - block base`) of entries in **partial**
    /// blocks only, in the same global order; full blocks store none.
    offsets: Vec<u16>,
    /// Non-empty blocks, grouped by item, ascending block index within.
    blocks: Vec<ColumnBlock>,
    /// `block_ptr[item]..block_ptr[item+1]` delimits item's blocks.
    block_ptr: Vec<usize>,
    /// `entry_ptr[item]..entry_ptr[item+1]` delimits item's entries.
    entry_ptr: Vec<usize>,
    /// Cached per-item column sums — the same bitwise left-to-right
    /// [`stored_sum`] invariant as the dense and sparse layouts.
    col_sums: Vec<f64>,
}

impl CompressedInterest {
    /// An empty matrix (zero items) over the given user count.
    pub fn empty(num_users: usize) -> Self {
        Self {
            num_users,
            dict: Vec::new(),
            codes: CodeVec::new(),
            offsets: Vec::new(),
            blocks: Vec::new(),
            block_ptr: vec![0],
            entry_ptr: vec![0],
            col_sums: Vec::new(),
        }
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.codes.len()
    }

    /// Number of distinct dictionary values currently interned.
    #[inline]
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Number of users (rows).
    #[inline]
    pub fn num_users(&self) -> usize {
        self.num_users
    }

    /// Number of items (columns).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.entry_ptr.len() - 1
    }

    /// Stored entries of one item's column.
    #[inline]
    pub fn column_len(&self, item: usize) -> usize {
        self.entry_ptr[item + 1] - self.entry_ptr[item]
    }

    /// Cached column sum (O(1)).
    #[inline]
    pub fn column_sum(&self, item: usize) -> f64 {
        self.col_sums[item]
    }

    /// Approximate resident bytes of the backing arrays (element counts ×
    /// element sizes; allocator slack excluded so the figure is
    /// deterministic).
    pub fn heap_bytes(&self) -> usize {
        self.dict.len() * 8
            + self.codes.heap_bytes()
            + self.offsets.len() * 2
            + self.blocks.len() * std::mem::size_of::<ColumnBlock>()
            + (self.block_ptr.len() + self.entry_ptr.len()) * 8
            + self.col_sums.len() * 8
    }

    /// Value lookup; absent entries are `0.0`.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn value(&self, item: usize, user: usize) -> f64 {
        assert!(user < self.num_users, "user {user} out of range");
        let blocks = &self.blocks[self.block_ptr[item]..self.block_ptr[item + 1]];
        let want = (user / COMPRESSED_BLOCK) as u32;
        let Ok(b) = blocks.binary_search_by_key(&want, |b| b.block) else {
            return 0.0;
        };
        let b = &blocks[b];
        let local = user - b.base();
        if b.is_full() {
            return self.dict[self.codes.get(b.entry_start + local) as usize];
        }
        let offs = &self.offsets[b.offset_start..b.offset_start + b.len as usize];
        match offs.binary_search(&(local as u16)) {
            Ok(i) => self.dict[self.codes.get(b.entry_start + i) as usize],
            Err(_) => 0.0,
        }
    }

    /// Decodes the `(user, value)` entry at absolute position `pos`, given
    /// the block that contains it.
    #[inline]
    fn decode_at(&self, b: &ColumnBlock, pos: usize) -> (usize, f64) {
        let rel = pos - b.entry_start;
        let user = if b.is_full() {
            b.base() + rel
        } else {
            b.base() + self.offsets[b.offset_start + rel] as usize
        };
        (user, self.dict[self.codes.get(pos) as usize])
    }

    /// The block directory index (into `self.blocks`) of the block holding
    /// absolute entry `pos` of `item`. `pos` must lie inside the item.
    fn block_of(&self, item: usize, pos: usize) -> usize {
        let (lo, hi) = (self.block_ptr[item], self.block_ptr[item + 1]);
        // First block whose entry range ends beyond pos.
        lo + self.blocks[lo..hi].partition_point(|b| b.entry_end() <= pos)
    }

    /// Streams `(user, µ)` over positions `range` of `item`'s column — the
    /// compressed analogue of slicing the sparse parallel arrays, with one
    /// layout dispatch **per block** rather than per entry. This is the
    /// scoring kernel's entry point; the iteration order is identical to
    /// the sparse layout's, so the fixed-block reduction sees the same
    /// sequence of addends.
    ///
    /// # Panics
    /// Panics if `range` exceeds `column_len(item)`.
    pub fn for_each_in_part(
        &self,
        item: usize,
        range: std::ops::Range<usize>,
        f: impl FnMut(usize, f64),
    ) {
        let (pos, end, block_idx) = self.part_cursor(item, range);
        self.for_each_entry(pos, end, block_idx, f);
    }

    /// Streams `(user, µ)` over absolute entry positions `pos..end`, block
    /// by block; `block_idx` is a directory index at or before the block
    /// holding `pos` (a [`super::ColumnIter::Compressed`] cursor).
    pub(crate) fn for_each_entry(
        &self,
        mut pos: usize,
        end: usize,
        mut block_idx: usize,
        mut f: impl FnMut(usize, f64),
    ) {
        while pos < end {
            while self.blocks[block_idx].entry_end() <= pos {
                block_idx += 1;
            }
            let b = &self.blocks[block_idx];
            let stop = end.min(b.entry_end());
            let base = b.base();
            if b.is_full() {
                let rel0 = pos - b.entry_start;
                match &self.codes {
                    CodeVec::Narrow(codes) => {
                        for (i, &c) in codes[pos..stop].iter().enumerate() {
                            f(base + rel0 + i, self.dict[c as usize]);
                        }
                    }
                    CodeVec::Wide(codes) => {
                        for (i, &c) in codes[pos..stop].iter().enumerate() {
                            f(base + rel0 + i, self.dict[c as usize]);
                        }
                    }
                }
            } else {
                let off0 = b.offset_start + (pos - b.entry_start);
                let offs = &self.offsets[off0..off0 + (stop - pos)];
                match &self.codes {
                    CodeVec::Narrow(codes) => {
                        for (&o, &c) in offs.iter().zip(&codes[pos..stop]) {
                            f(base + o as usize, self.dict[c as usize]);
                        }
                    }
                    CodeVec::Wide(codes) => {
                        for (&o, &c) in offs.iter().zip(&codes[pos..stop]) {
                            f(base + o as usize, self.dict[c as usize]);
                        }
                    }
                }
            }
            pos = stop;
            block_idx += 1;
        }
    }

    /// Iterator state for [`super::ColumnIter::Compressed`]: the absolute
    /// entry range of positions `range` of `item`'s column, plus the index
    /// of the block containing the first position.
    pub(crate) fn part_cursor(
        &self,
        item: usize,
        range: std::ops::Range<usize>,
    ) -> (usize, usize, usize) {
        assert!(range.end <= self.column_len(item), "range exceeds column length");
        let pos = self.entry_ptr[item] + range.start;
        let end = self.entry_ptr[item] + range.end;
        let block_idx = if pos < end { self.block_of(item, pos) } else { self.block_ptr[item] };
        (pos, end, block_idx)
    }

    /// Advances the [`super::ColumnIter::Compressed`] cursor by one entry.
    #[inline]
    pub(crate) fn cursor_next(
        &self,
        pos: &mut usize,
        end: usize,
        block_idx: &mut usize,
    ) -> Option<(usize, f64)> {
        if *pos >= end {
            return None;
        }
        while self.blocks[*block_idx].entry_end() <= *pos {
            *block_idx += 1;
        }
        let out = self.decode_at(&self.blocks[*block_idx], *pos);
        *pos += 1;
        Some(out)
    }

    /// Encodes one item's sorted non-zero column at the arrays' tails,
    /// interning each value, and closes the item. The core of the builder
    /// and the rebuild path.
    fn encode_column(
        &mut self,
        entries: impl Iterator<Item = (u32, f64)>,
        interner: &mut Interner,
    ) {
        let mut dict = std::mem::take(&mut self.dict);
        let mut sum = 0.0;
        self.encode_codes(entries.map(|(user, value)| {
            debug_assert!(value != 0.0, "zeros are dropped before encoding");
            sum += value;
            (user, interner.intern(&mut dict, value))
        }));
        self.dict = dict;
        self.finish_item(sum);
    }

    /// Appends one item's `(user, code)` entries, users strictly
    /// ascending, at the arrays' tails as a new item's blocks.
    fn encode_codes(&mut self, entries: impl Iterator<Item = (u32, u32)>) {
        let item_start = self.blocks.len();
        let mut prev: Option<u32> = None;
        for (user, code) in entries {
            assert!((user as usize) < self.num_users, "user {user} out of range");
            assert!(prev.is_none_or(|p| p < user), "column entries must be strictly increasing");
            prev = Some(user);
            self.push_entry(item_start, user, code);
        }
    }

    /// Appends one entry to the item whose blocks start at directory index
    /// `item_start`; `user` exceeds every user already stored there. A new
    /// block starts on the item's first entry or when the user crosses a
    /// 512 boundary; a block that fills up drops its offsets (they are the
    /// last ones stored), making its users implicit.
    #[inline]
    fn push_entry(&mut self, item_start: usize, user: u32, code: u32) {
        let block = user / COMPRESSED_BLOCK as u32;
        if self.blocks.len() == item_start || self.blocks[self.blocks.len() - 1].block != block {
            self.blocks.push(ColumnBlock {
                block,
                len: 0,
                entry_start: self.codes.len(),
                offset_start: self.offsets.len(),
            });
        }
        self.codes.push(code);
        self.offsets.push((user as usize % COMPRESSED_BLOCK) as u16);
        let b = self.blocks.last_mut().expect("pushed above");
        b.len += 1;
        if b.is_full() {
            self.offsets.truncate(b.offset_start);
        }
    }

    /// Closes the item being encoded: its pointers and cached sum.
    fn finish_item(&mut self, sum: f64) {
        self.block_ptr.push(self.blocks.len());
        self.entry_ptr.push(self.codes.len());
        self.col_sums.push(sum);
    }

    /// Appends one item column (dense input; zeros dropped) — incremental,
    /// the streaming-generation hot path. See
    /// [`super::InterestMatrix::push_item`].
    pub fn push_item(&mut self, column: &[f64]) {
        assert_eq!(column.len(), self.num_users, "column length must equal user count");
        let values: Vec<f64> = column.iter().copied().filter(|&v| v != 0.0).collect();
        let codes = intern_new(&mut self.dict, &values);
        let users = column.iter().enumerate().filter(|(_, &v)| v != 0.0).map(|(u, _)| u as u32);
        self.encode_codes(users.zip(codes));
        self.finish_item(stored_sum(&values));
    }

    /// Decodes every column into sorted `(user, value)` entry lists.
    fn decode_columns(&self) -> Vec<Vec<(u32, f64)>> {
        (0..self.num_items())
            .map(|item| {
                let mut col = Vec::with_capacity(self.column_len(item));
                self.for_each_in_part(item, 0..self.column_len(item), |u, v| {
                    col.push((u as u32, v));
                });
                col
            })
            .collect()
    }

    /// Rebuilds in place from decoded columns, re-interning the dictionary
    /// in canonical first-use order and dropping stored zeros. Only
    /// [`canonicalize`](Self::canonicalize) takes this path; every mutation
    /// edits in place.
    fn rebuild_from(&mut self, num_users: usize, columns: Vec<Vec<(u32, f64)>>) {
        let mut fresh = Self::empty(num_users);
        let mut interner = Interner::default();
        for col in columns {
            fresh.encode_column(col.into_iter().filter(|&(_, v)| v != 0.0), &mut interner);
        }
        *self = fresh;
    }

    /// Streams `(user, code)` over `item`'s stored entries in ascending
    /// user order, without touching the dictionary.
    fn for_each_code(&self, item: usize, mut f: impl FnMut(u32, u32)) {
        fn run<T: Copy + Into<u32>>(
            codes: &[T],
            base: u32,
            offsets: Option<&[u16]>,
            f: &mut impl FnMut(u32, u32),
        ) {
            match offsets {
                None => (0..).zip(codes).for_each(|(rel, &c)| f(base + rel, c.into())),
                Some(offs) => {
                    offs.iter().zip(codes).for_each(|(&o, &c)| f(base + o as u32, c.into()))
                }
            }
        }
        for b in &self.blocks[self.block_ptr[item]..self.block_ptr[item + 1]] {
            let base = b.base() as u32;
            let offsets = (!b.is_full())
                .then(|| &self.offsets[b.offset_start..b.offset_start + b.len as usize]);
            match &self.codes {
                CodeVec::Narrow(v) => run(&v[b.entry_start..b.entry_end()], base, offsets, &mut f),
                CodeVec::Wide(v) => run(&v[b.entry_start..b.entry_end()], base, offsets, &mut f),
            }
        }
    }

    /// The global offset cursor at directory index `bi`: where block `bi`'s
    /// local offsets start (or would start), `offsets.len()` past the end.
    fn offset_at(&self, bi: usize) -> usize {
        self.blocks.get(bi).map_or(self.offsets.len(), |b| b.offset_start)
    }

    /// Shifts everything after an edit of `item`: the entry and offset
    /// starts of directory blocks `from_block..`, and the entry and block
    /// pointers of the items after `item`.
    fn shift_tail(
        &mut self,
        item: usize,
        from_block: usize,
        entries: isize,
        offsets: isize,
        blocks: isize,
    ) {
        for b in &mut self.blocks[from_block..] {
            b.entry_start = b.entry_start.wrapping_add_signed(entries);
            b.offset_start = b.offset_start.wrapping_add_signed(offsets);
        }
        for p in &mut self.entry_ptr[item + 1..] {
            *p = p.wrapping_add_signed(entries);
        }
        if blocks != 0 {
            for p in &mut self.block_ptr[item + 1..] {
                *p = p.wrapping_add_signed(blocks);
            }
        }
    }

    /// Recomputes one cached column sum in [`stored_sum`]'s order.
    fn refresh_sum(&mut self, item: usize) {
        let mut sum = 0.0;
        self.for_each_in_part(item, 0..self.column_len(item), |_, v| sum += v);
        self.col_sums[item] = sum;
    }

    /// Restores the canonical dictionary after an edit — the form an encode
    /// from scratch gives: first-use order over the column-major entry
    /// stream, no dead codes, `u16` codes while the dictionary fits.
    fn canonicalize_dict(&mut self) {
        self.canonicalize_dict_from(0, 0);
    }

    /// [`canonicalize_dict`](Self::canonicalize_dict) for an edit that left
    /// positions before `pos` canonical, using codes `0..next` there. One
    /// early-exiting scan from `pos` confirms the order; an out-of-order or
    /// dead code costs one renumbering pass over the codes after the first
    /// one out of place.
    fn canonicalize_dict_from(&mut self, pos: usize, next: u32) {
        let Some((pos, next)) = self.codes.first_use_break(pos, next, self.dict.len()) else {
            return;
        };
        let (table, survivors) = self.codes.renumber_from(pos, next, self.dict.len());
        let next = next as usize;
        let mut moved = vec![0.0; survivors];
        for (i, &t) in table.iter().enumerate().filter(|(_, &t)| t != u32::MAX) {
            moved[t as usize - next] = self.dict[next + i];
        }
        self.dict.truncate(next);
        self.dict.extend_from_slice(&moved);
        self.codes.fit(self.dict.len());
    }

    /// Removes entry `r` of directory block `bi` (one of `item`'s). A full
    /// block turns partial and stores its surviving offsets; a block left
    /// empty leaves the directory.
    fn remove_entry(&mut self, item: usize, bi: usize, r: usize) {
        let b = self.blocks[bi];
        self.codes.remove(b.entry_start + r);
        let offsets = if b.is_full() {
            let survivors = (0..COMPRESSED_BLOCK as u16).filter(|&l| l as usize != r);
            self.offsets.splice(b.offset_start..b.offset_start, survivors);
            COMPRESSED_BLOCK as isize - 1
        } else {
            self.offsets.remove(b.offset_start + r);
            -1
        };
        if b.len == 1 {
            self.blocks.remove(bi);
            self.shift_tail(item, bi, -1, offsets, -1);
        } else {
            self.blocks[bi].len -= 1;
            self.shift_tail(item, bi + 1, -1, offsets, 0);
        }
    }

    /// Inserts `(local, code)` at position `r` of partial block `bi` (one
    /// of `item`'s). A block that fills up drops its offsets.
    fn insert_entry(&mut self, item: usize, bi: usize, r: usize, local: u16, code: u32) {
        let b = self.blocks[bi];
        self.codes.insert(b.entry_start + r, code);
        let offsets = if b.len as usize + 1 == COMPRESSED_BLOCK {
            self.offsets.drain(b.offset_start..b.offset_start + b.len as usize);
            -(b.len as isize)
        } else {
            self.offsets.insert(b.offset_start + r, local);
            1
        };
        self.blocks[bi].len += 1;
        self.shift_tail(item, bi + 1, 1, offsets, 0);
    }

    /// Inserts a one-entry block for user-range `block` at directory index
    /// `bi` (inside `item`'s directory range, or at its end). Returns the
    /// entry's position.
    fn insert_block(&mut self, item: usize, bi: usize, block: u32, local: u16, code: u32) -> usize {
        let entry_start = if bi < self.block_ptr[item + 1] {
            self.blocks[bi].entry_start
        } else {
            self.entry_ptr[item + 1]
        };
        let offset_start = self.offset_at(bi);
        self.codes.insert(entry_start, code);
        self.offsets.insert(offset_start, local);
        self.blocks.insert(bi, ColumnBlock { block, len: 1, entry_start, offset_start });
        self.shift_tail(item, bi + 1, 1, 1, 1);
        entry_start
    }

    /// Removes one item column in place: drains its codes, offsets and
    /// blocks. See [`super::InterestMatrix::remove_item`].
    pub fn remove_item(&mut self, item: usize) {
        assert!(item < self.num_items(), "item {item} out of range");
        let (b0, b1) = (self.block_ptr[item], self.block_ptr[item + 1]);
        let (e0, e1) = (self.entry_ptr[item], self.entry_ptr[item + 1]);
        let (o0, o1) = (self.offset_at(b0), self.offset_at(b1));
        self.codes.drain(e0..e1);
        self.offsets.drain(o0..o1);
        self.blocks.drain(b0..b1);
        let shrink = |n: usize| -(n as isize);
        self.shift_tail(item, b0, shrink(e1 - e0), shrink(o1 - o0), shrink(b1 - b0));
        self.block_ptr.remove(item + 1);
        self.entry_ptr.remove(item + 1);
        self.col_sums.remove(item);
        let next = self.codes.prefix_next(e0);
        self.canonicalize_dict_from(e0, next);
    }

    /// Sets one value in place, preserving the drop-exact-zeros convention:
    /// overwrites, inserts or removes one entry of one block. See
    /// [`super::InterestMatrix::set_value`].
    pub fn set_value(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items(), "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        let (lo, hi) = (self.block_ptr[item], self.block_ptr[item + 1]);
        let block = (user / COMPRESSED_BLOCK) as u32;
        let local = (user % COMPRESSED_BLOCK) as u16;
        // The edited entry position, and the codes it loses and gains.
        let (pos, removed, added) =
            match self.blocks[lo..hi].binary_search_by_key(&block, |b| b.block) {
                Ok(k) => {
                    let b = self.blocks[lo + k];
                    let rel = if b.is_full() {
                        Ok(local as usize)
                    } else {
                        self.offsets[b.offset_start..b.offset_start + b.len as usize]
                            .binary_search(&local)
                    };
                    match rel {
                        Ok(r) if value != 0.0 => {
                            let (pos, old) = (b.entry_start + r, self.codes.get(b.entry_start + r));
                            let code = intern_new(&mut self.dict, &[value])[0];
                            if code == old {
                                return;
                            }
                            self.codes.set(pos, code);
                            (pos, Some(old), Some(code))
                        }
                        Ok(r) => {
                            let (pos, old) = (b.entry_start + r, self.codes.get(b.entry_start + r));
                            self.remove_entry(item, lo + k, r);
                            (pos, Some(old), None)
                        }
                        Err(_) if value == 0.0 => return,
                        Err(r) => {
                            let code = intern_new(&mut self.dict, &[value])[0];
                            self.insert_entry(item, lo + k, r, local, code);
                            (b.entry_start + r, None, Some(code))
                        }
                    }
                }
                Err(_) if value == 0.0 => return,
                Err(k) => {
                    let code = intern_new(&mut self.dict, &[value])[0];
                    let pos = self.insert_block(item, lo + k, block, local, code);
                    (pos, None, Some(code))
                }
            };
        self.refresh_sum(item);
        // The prefix before `pos` is untouched and canonical, so the codes
        // it uses are exactly `0..next`. The order survives when the lost
        // code still occurs in that prefix and the gained one is at most the
        // next new code; otherwise renumber from `pos`.
        let next = self.codes.prefix_next(pos);
        if removed.is_some_and(|a| a >= next) || added.is_some_and(|b| b > next) {
            self.canonicalize_dict_from(pos, next);
        }
    }

    /// Starts an empty matrix over `num_users` that takes over `self`'s
    /// dictionary and code width, returning the old matrix to copy from —
    /// the user-churn paths, whose edits move entries in every column.
    fn take_for_rewrite(&mut self, num_users: usize, extra: usize) -> Self {
        let mut old = std::mem::replace(self, Self::empty(num_users));
        self.dict = std::mem::take(&mut old.dict);
        self.codes = CodeVec::with_capacity_like(&old.codes, old.nnz() + extra);
        self.offsets.reserve(old.offsets.len());
        self.blocks.reserve(old.blocks.len());
        old
    }

    /// Appends `old`'s column `item` verbatim — codes, offsets and blocks,
    /// rebased — as the tail item being built. Returns its directory start.
    fn copy_column(&mut self, old: &Self, item: usize) -> usize {
        let (b0, b1) = (old.block_ptr[item], old.block_ptr[item + 1]);
        let (e0, e1) = (old.entry_ptr[item], old.entry_ptr[item + 1]);
        let (o0, o1) = (old.offset_at(b0), old.offset_at(b1));
        let (entry_base, offset_base) = (self.codes.len(), self.offsets.len());
        self.codes.extend_from(&old.codes, e0..e1);
        self.offsets.extend_from_slice(&old.offsets[o0..o1]);
        let item_start = self.blocks.len();
        self.blocks.extend(old.blocks[b0..b1].iter().map(|b| ColumnBlock {
            entry_start: b.entry_start - e0 + entry_base,
            offset_start: b.offset_start - o0 + offset_base,
            ..*b
        }));
        item_start
    }

    /// Appends new users (zeros dropped). Their entries land at every
    /// column's tail: each column is copied verbatim and extended, and its
    /// cached sum continues from the old one, in [`stored_sum`]'s order.
    /// See [`super::InterestMatrix::append_users`].
    pub fn append_users(&mut self, rows: &[Vec<f64>]) {
        let num_items = self.num_items();
        for row in rows {
            assert_eq!(row.len(), num_items, "user row length must equal item count");
        }
        if rows.is_empty() {
            return;
        }
        // The joiners' non-zeros, item by item: interned in one batch, then
        // consumed in the same order as each column's tail is encoded.
        let values: Vec<f64> =
            (0..num_items).flat_map(|item| rows.iter().map(move |row| row[item])).collect();
        let nonzero: Vec<f64> = values.iter().copied().filter(|&v| v != 0.0).collect();
        let mut codes = intern_new(&mut self.dict, &nonzero).into_iter();
        let first = self.num_users;
        let old = self.take_for_rewrite(first + rows.len(), nonzero.len());
        for (item, joiners) in values.chunks(rows.len()).enumerate() {
            let item_start = self.copy_column(&old, item);
            let mut sum = old.col_sums[item];
            for (j, &v) in joiners.iter().enumerate().filter(|(_, &v)| v != 0.0) {
                sum += v;
                self.push_entry(item_start, (first + j) as u32, codes.next().expect("interned"));
            }
            self.finish_item(sum);
        }
        drop(old);
        self.canonicalize_dict();
    }

    /// Removes users, remapping surviving indices down: each column is
    /// re-blocked from its surviving codes, and its sum recomputed. See
    /// [`super::InterestMatrix::remove_users`].
    pub fn remove_users(&mut self, users: &[usize]) {
        let keep = user_keep_mask(self.num_users, users);
        let mut remap = vec![0u32; self.num_users];
        let mut next = 0u32;
        for (u, &k) in keep.iter().enumerate() {
            remap[u] = next;
            if k {
                next += 1;
            }
        }
        let old = self.take_for_rewrite(self.num_users - users.len(), 0);
        for item in 0..old.num_items() {
            let item_start = self.blocks.len();
            let mut sum = 0.0;
            old.for_each_code(item, |u, c| {
                if keep[u as usize] {
                    sum += self.dict[c as usize];
                    self.push_entry(item_start, remap[u as usize], c);
                }
            });
            self.finish_item(sum);
        }
        drop(old);
        self.canonicalize_dict();
    }

    /// Drops any stored exact zeros (possible only in hand-built or
    /// deserialized data — every mutation path drops them) and re-interns
    /// the dictionary canonically. Returns the number of entries dropped.
    pub fn canonicalize(&mut self) -> usize {
        let before = self.nnz();
        let cols = self.decode_columns();
        self.rebuild_from(self.num_users, cols);
        before - self.nnz()
    }

    /// Validates internal consistency: the block directory tiles `codes`
    /// and `offsets` exactly (full blocks store no offsets), blocks and
    /// offsets ascend, codes index a canonical dictionary at the canonical
    /// width, and cached sums equal a bitwise recompute of the decoded
    /// columns.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.block_ptr.len() != self.entry_ptr.len() || self.col_sums.len() != self.num_items() {
            return Err("block_ptr / entry_ptr / col_sums length mismatch".into());
        }
        let (mut entry, mut offset) = (0, 0);
        for item in 0..self.num_items() {
            let (lo, hi) = (self.block_ptr[item], self.block_ptr[item + 1]);
            if lo > hi || hi > self.blocks.len() || self.entry_ptr[item] != entry {
                return Err(format!("item {item}: pointers out of step"));
            }
            let mut prev_block = None;
            for b in &self.blocks[lo..hi] {
                let len = b.len as usize;
                if b.entry_start != entry || b.offset_start != offset {
                    return Err(format!("item {item}, block {}: starts out of step", b.block));
                }
                if len == 0 || len > COMPRESSED_BLOCK || prev_block.is_some_and(|p| p >= b.block) {
                    return Err(format!("item {item}, block {}: bad length or order", b.block));
                }
                prev_block = Some(b.block);
                entry += len;
                let last_local = if b.is_full() {
                    COMPRESSED_BLOCK - 1
                } else {
                    let offs = self.offsets.get(offset..offset + len).ok_or("offsets too short")?;
                    if offs.windows(2).any(|w| w[0] >= w[1]) {
                        return Err(format!(
                            "item {item}, block {}: offsets not ascending",
                            b.block
                        ));
                    }
                    offset += len;
                    offs[len - 1] as usize
                };
                if b.base() + last_local >= self.num_users {
                    return Err(format!("item {item}, block {}: past the last user", b.block));
                }
            }
            if self.entry_ptr[item + 1] != entry {
                return Err(format!("item {item}: entry pointer out of step"));
            }
            let mut values = Vec::new();
            self.for_each_in_part(item, 0..self.column_len(item), |_, v| values.push(v));
            if stored_sum(&values).to_bits() != self.col_sums[item].to_bits() {
                return Err(format!("item {item}: cached sum drifted"));
            }
        }
        if entry != self.codes.len() || offset != self.offsets.len() {
            return Err("directory does not tile codes / offsets".into());
        }
        if *self.block_ptr.last().expect("never empty") != self.blocks.len() {
            return Err("block_ptr does not cover the directory".into());
        }
        if (0..self.codes.len()).any(|i| self.codes.get(i) as usize >= self.dict.len()) {
            return Err("code outside the dictionary".into());
        }
        if self.codes.first_use_break(0, 0, self.dict.len()).is_some() {
            return Err("dictionary not in canonical first-use order".into());
        }
        let wide = matches!(self.codes, CodeVec::Wide(_));
        if wide != (self.dict.len() > u16::MAX as usize + 1) {
            return Err("code width is not the canonical one".into());
        }
        Ok(())
    }
}

/// Incremental builder for [`CompressedInterest`]. Entries may be pushed in
/// any per-item order; `build` sorts each column and deduplicates (last
/// write wins), matching [`super::SparseInterestBuilder`]'s semantics while
/// holding only 8 transient bytes per entry (a `u32` user plus a `u32`
/// code) — the property that lets the streaming generators assemble a
/// million-user matrix without a dense intermediate.
#[derive(Debug)]
pub struct CompressedInterestBuilder {
    num_items: usize,
    num_users: usize,
    dict: Vec<f64>,
    index: HashMap<u64, u32>,
    cols: Vec<ColBuf>,
}

#[derive(Debug, Default)]
struct ColBuf {
    users: Vec<u32>,
    codes: Vec<u32>,
}

impl CompressedInterestBuilder {
    /// A builder for a matrix of the given shape.
    pub fn new(num_items: usize, num_users: usize) -> Self {
        let mut cols = Vec::with_capacity(num_items);
        cols.resize_with(num_items, ColBuf::default);
        Self { num_items, num_users, dict: Vec::new(), index: HashMap::new(), cols }
    }

    /// Adds one `(item, user) -> value` entry. Zero values are dropped.
    ///
    /// # Panics
    /// Panics if `item` or `user` is out of range.
    pub fn push(&mut self, item: usize, user: usize, value: f64) {
        assert!(item < self.num_items, "item {item} out of range");
        assert!(user < self.num_users, "user {user} out of range");
        if value == 0.0 {
            return;
        }
        let code = *self.index.entry(value.to_bits()).or_insert_with(|| {
            self.dict.push(value);
            (self.dict.len() - 1) as u32
        });
        let col = &mut self.cols[item];
        col.users.push(user as u32);
        col.codes.push(code);
    }

    /// Finalizes into block-compressed form.
    pub fn build(self) -> CompressedInterest {
        let Self { num_users, dict, cols, .. } = self;
        let mut out = CompressedInterest::empty(num_users);
        // Encode with a fresh interner so the final dictionary is in
        // first-use order of the *sorted* entry stream — the same canonical
        // order `to_compressed` and the rebuild paths produce.
        let mut interner = Interner::default();
        for col in cols {
            let mut entries: Vec<(u32, f64)> =
                col.users.iter().zip(&col.codes).map(|(&u, &c)| (u, dict[c as usize])).collect();
            entries.sort_by_key(|&(u, _)| u);
            // Last write wins on duplicates: keep the final occurrence.
            let mut dedup: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
            for (u, v) in entries {
                match dedup.last_mut() {
                    Some(last) if last.0 == u => last.1 = v,
                    _ => dedup.push((u, v)),
                }
            }
            out.encode_column(dedup.into_iter(), &mut interner);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::interest::{DenseInterest, InterestMatrix};
    use super::*;

    fn sample_dense() -> DenseInterest {
        DenseInterest::from_raw(2, 3, vec![0.9, 0.0, 0.2, 0.3, 0.6, 0.0]).unwrap()
    }

    fn sample_compressed() -> CompressedInterest {
        InterestMatrix::from(sample_dense()).to_compressed()
    }

    #[test]
    fn skips_zeros_and_looks_up_values() {
        let c = sample_compressed();
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.value(0, 0), 0.9);
        assert_eq!(c.value(0, 1), 0.0);
        assert_eq!(c.value(0, 2), 0.2);
        assert_eq!(c.value(1, 1), 0.6);
        assert_eq!(c.column_len(0), 2);
        assert_eq!(c.dict_len(), 4);
    }

    #[test]
    fn dictionary_dedups_repeated_values() {
        let d = DenseInterest::from_fn(3, 10, |_, u| if u % 2 == 0 { 0.25 } else { 0.75 });
        let c = InterestMatrix::from(d).to_compressed();
        assert_eq!(c.nnz(), 30);
        assert_eq!(c.dict_len(), 2);
    }

    #[test]
    fn full_blocks_store_no_offsets() {
        // 512 users, fully dense column => exactly one full block, zero
        // offsets; 513 users => one full + one partial block, one offset.
        let full = InterestMatrix::from(DenseInterest::from_fn(1, COMPRESSED_BLOCK, |_, _| 0.5))
            .to_compressed();
        assert_eq!(full.blocks.len(), 1);
        assert!(full.offsets.is_empty());
        let spill =
            InterestMatrix::from(DenseInterest::from_fn(1, COMPRESSED_BLOCK + 1, |_, _| 0.5))
                .to_compressed();
        assert_eq!(spill.blocks.len(), 2);
        assert_eq!(spill.offsets.len(), 1);
        assert_eq!(spill.value(0, COMPRESSED_BLOCK), 0.5);
        spill.check_consistency().unwrap();
    }

    #[test]
    fn multi_block_columns_decode_in_order() {
        let nu = 3 * COMPRESSED_BLOCK + 17;
        let d = DenseInterest::from_fn(2, nu, |item, u| {
            if (u + item) % 3 == 0 {
                0.0
            } else {
                ((u % 7) + 1) as f64 / 8.0
            }
        });
        let dense = InterestMatrix::from(d);
        let sparse = dense.to_sparse();
        let c = dense.to_compressed();
        c.check_consistency().unwrap();
        for item in 0..2 {
            let (us, vs) = sparse.column_slices(item);
            let mut got = Vec::new();
            c.for_each_in_part(item, 0..c.column_len(item), |u, v| got.push((u as u32, v)));
            let want: Vec<(u32, f64)> = us.iter().copied().zip(vs.iter().copied()).collect();
            assert_eq!(got, want, "item {item}");
            assert_eq!(c.column_sum(item).to_bits(), stored_sum(vs).to_bits(), "item {item} sum");
        }
    }

    #[test]
    fn code_vec_promotes_to_wide_past_u16_dictionary() {
        let n = u16::MAX as usize + 10;
        let d = DenseInterest::from_fn(1, n, |_, u| (u + 1) as f64 / (n + 1) as f64);
        let c = InterestMatrix::from(d.clone()).to_compressed();
        assert_eq!(c.dict_len(), n);
        assert!(matches!(c.codes, CodeVec::Wide(_)), "dictionary overflow must promote codes");
        c.check_consistency().unwrap();
        // Values survive the promotion exactly.
        for u in [0, 1, u16::MAX as usize, n - 1] {
            assert_eq!(c.value(0, u).to_bits(), d.value(0, u).to_bits());
        }
    }

    #[test]
    fn builder_handles_unordered_and_duplicate_pushes() {
        let mut b = CompressedInterestBuilder::new(2, 4);
        b.push(1, 3, 0.5);
        b.push(0, 2, 0.1);
        b.push(0, 0, 0.7);
        b.push(0, 2, 0.4); // overwrite
        b.push(1, 1, 0.0); // dropped
        let c = b.build();
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.value(0, 2), 0.4);
        assert_eq!(c.value(0, 0), 0.7);
        assert_eq!(c.value(1, 3), 0.5);
        assert_eq!(c.value(1, 1), 0.0);
        c.check_consistency().unwrap();
    }

    #[test]
    fn rebuild_mutations_drop_dead_dictionary_codes() {
        let mut c = sample_compressed();
        c.set_value(0, 0, 0.2); // 0.9 becomes dead
        assert_eq!(c.value(0, 0), 0.2);
        assert_eq!(c.dict_len(), 3, "rebuild must drop dead codes");
        c.check_consistency().unwrap();
    }

    #[test]
    fn intern_new_finds_every_known_value_and_appends_new_ones() {
        // The quantized grid (low 44 bits zero) and values differing only
        // in their top bits: keys a weak mix would collapse together.
        let grid = (1..256).map(|i| i as f64 / 256.0);
        let high = (1..64u64).map(|i| f64::from_bits(0x3FF0_0000_0000_0000 ^ (i << 46)));
        let known: Vec<f64> = grid.chain(high).collect();
        let mut dict = known.clone();
        let mut batch: Vec<f64> = known.iter().rev().copied().collect();
        batch.extend([0.123, known[7], 0.456, 0.123]);
        let codes = intern_new(&mut dict, &batch);
        let n = known.len() as u32;
        let want: Vec<u32> = (0..n).rev().chain([n, 7, n + 1, n]).collect();
        assert_eq!(codes, want);
        assert_eq!(dict.len(), known.len() + 2);
        assert_eq!(&dict[known.len()..], &[0.123, 0.456]);
        // A one-value batch — a point edit — resolves the same way.
        assert_eq!(intern_new(&mut dict, &[known[200]]), vec![200]);
    }

    #[test]
    fn heap_bytes_reflects_full_block_compression() {
        // A fully dense quantized column: ~2 bytes/entry, far below the
        // sparse layout's 12.
        let nu = 8 * COMPRESSED_BLOCK;
        let d = DenseInterest::from_fn(4, nu, |_, u| ((u % 16) + 1) as f64 / 16.0);
        let m = InterestMatrix::from(d);
        let sparse_bytes = {
            let s = m.to_sparse();
            s.heap_bytes()
        };
        let compressed_bytes = m.to_compressed().heap_bytes();
        assert!(
            compressed_bytes * 3 <= sparse_bytes,
            "compressed {compressed_bytes} > sparse {sparse_bytes} / 3"
        );
    }
}
