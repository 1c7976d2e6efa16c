//! Stripped and sorted partitions over tuple ids.
//!
//! The workhorse data structure of set-based OD discovery (following TANE and
//! FASTOD): for an attribute set `X`, the partition `Π_X` groups tuple ids into
//! equivalence classes of tuples agreeing on every attribute of `X`.  A
//! **stripped** partition drops singleton classes — they can never contribute a
//! split or a swap, and on real data most classes become singletons quickly, so
//! stripping is what makes level-wise traversal near-linear per candidate.
//!
//! Partitions are stored in a flat **CSR layout**: one `Vec<u32>` of row ids
//! plus one `Vec<u32>` of class offsets, classes in first-row order and
//! members ascending — two cache-friendly arrays instead of a `Vec` of `Vec`s,
//! with class `i` a plain slice `rows[offsets[i]..offsets[i + 1]]`.
//!
//! Every partition is built by one sort-free **counting kernel**: each class
//! of a base partition is split by a dense `u32` id per row.  The kernel
//! counts the class's rows per id in a reused per-id array (remembering the
//! ids it touched, in first-row order), turns counts ≥ 2 into write cursors,
//! scatters the rows — which keeps members ascending — and resets only the
//! touched ids, so a class costs two passes over its own rows whatever the
//! id domain.  Size-2 classes skip the counters and compare their two ids.
//! The ids come from one of two columns:
//!
//! * **Refinement** (level 1): the attribute's order-preserving code column
//!   (see [`od_core::ColumnarEncoding`]), dense in `0..|dom A|`.
//! * **Products** (level ≥ 2): the dense [`ClassCodes`] of a single-attribute
//!   partition (`row → class id`); its singletons carry [`CLASS_SENTINEL`],
//!   which lies outside the id domain, so the kernel drops those rows.
//!
//! No hashing, no key sorting and no [`od_core::Value`] comparisons.  The
//! hash and comparison-sort products survive only as oracles
//! ([`StrippedPartition::product_hash`],
//! [`StrippedPartition::product_comparison`]).  [`PartitionCache`] memoizes
//! partitions per attribute set so the lattice visits each set once, hands
//! out code columns as cheap [`ColCodes`] views into the relation's shared
//! columnar encoding, and keeps per-attribute [`ClassCodes`] alive across
//! level evictions so deep-lattice products never rebuild them.
//!
//! [`SortedPartition`] orders the classes (plus the stripped-out singletons) of
//! `Π_set(X)` by the list `X`'s value order, which turns whole-OD validation
//! into two linear scans over groups (`Y` constant inside each group; `Y`
//! non-decreasing across consecutive groups) — the partition-powered
//! replacement for the sort-based `od-core` checker.

use crate::parallel::RefineJob;
use od_core::{radix, AttrId, AttrList, AttrSet, ColumnarEncoding, Relation};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Class id marking a row not covered by any (non-singleton) class in a
/// [`ClassCodes`] column.  Products drop sentinel rows: a row that is a
/// singleton in either operand is a singleton in the product.
pub const CLASS_SENTINEL: u32 = u32::MAX;

/// Counter-array slot of an id seen once in the current class: no run.
const NO_RUN: u32 = u32::MAX;

/// One attribute's code column, borrowed from the relation's shared
/// [`ColumnarEncoding`] — a cheap `Arc` + column-index handle that derefs to
/// the `&[u32]` slice every validator and refinement works on.
#[derive(Clone)]
pub struct ColCodes {
    enc: Arc<ColumnarEncoding>,
    col: usize,
}

impl ColCodes {
    /// A view of column `col` of `enc`.
    pub fn new(enc: Arc<ColumnarEncoding>, col: usize) -> Self {
        ColCodes { enc, col }
    }

    /// `|dom A|`: the number of distinct codes, which lie in `0..domain()`.
    pub fn domain(&self) -> usize {
        self.enc.column(self.col).distinct_count()
    }
}

impl std::ops::Deref for ColCodes {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        self.enc.codes(self.col)
    }
}

impl std::fmt::Debug for ColCodes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColCodes")
            .field("col", &self.col)
            .field("len", &self.enc.n_rows())
            .finish()
    }
}

/// A dense class-id code column of one partition: `codes[row]` is the index
/// (in first-row class order) of the class containing `row`, or
/// [`CLASS_SENTINEL`] for stripped-out singletons.
///
/// This is the right-hand operand of a partition product: the counting
/// kernel splits each class of the base partition by these ids, with
/// [`Self::num_classes`] as the id domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassCodes {
    codes: Vec<u32>,
    classes: u32,
}

impl ClassCodes {
    /// The `row → class id` column (length = relation rows).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of (non-singleton) classes the column indexes.
    pub fn num_classes(&self) -> u32 {
        self.classes
    }

    /// Bits needed to hold any valid class id of this column (`0` when at
    /// most one class exists) — the shift the oracle products pack the other
    /// operand's class index above.
    pub fn id_bits(&self) -> u32 {
        if self.classes <= 1 {
            0
        } else {
            radix::bits_for(self.classes - 1)
        }
    }

    /// Heap bytes held by the code column.
    pub fn approx_heap_bytes(&self) -> usize {
        self.codes.capacity() * std::mem::size_of::<u32>()
    }
}

/// Reusable buffers of the counting kernel, held per [`PartitionCache`] (and
/// per batch worker) so the thousands of refinements and products of a
/// lattice traversal stop re-allocating their working set — the only
/// allocations left are the surviving CSR arrays themselves.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// One slot per id: the current class's row count, then its write
    /// cursor ([`NO_RUN`] for ids seen once).  All zero between classes.
    slots: Vec<u32>,
    /// Ids with a non-zero slot, in first-row order within the class.
    touched: Vec<u32>,
    /// The current class's id per row, in row order.
    ids: Vec<u32>,
    /// Emitted run descriptors: (first row, start in `rows_acc`, length).
    runs: Vec<(u32, u32, u32)>,
    /// Row ids of emitted runs, in run order.
    rows_acc: Vec<u32>,
    /// Rows bucketed through the counting branch (classes of ≥ 3 rows).
    counted_rows: u64,
}

impl RefineScratch {
    /// Rows this scratch has bucketed through the kernel's counting branch
    /// (every class of three or more rows; size-2 classes compare directly).
    pub fn counted_rows(&self) -> u64 {
        self.counted_rows
    }

    /// Grow the per-id slots to cover ids `0..domain`.
    fn fit(&mut self, domain: usize) {
        if self.slots.len() < domain {
            self.slots.resize(domain, 0);
        }
    }

    /// The kernel on one class, whose rows arrive ascending: split it by
    /// `ids`, appending each group of ≥ 2 rows that share an id below
    /// `domain` as a run; rows whose id is `domain` or more (such as
    /// [`CLASS_SENTINEL`]) are dropped.  The slots must cover `0..domain`.
    fn bucket_class<I>(&mut self, class: I, ids: &[u32], domain: usize)
    where
        I: ExactSizeIterator<Item = u32> + Clone,
    {
        if class.len() == 2 {
            let mut pair = class;
            let r0 = pair.next().expect("a size-2 class has a first row");
            let r1 = pair.next().expect("a size-2 class has a second row");
            let id = ids[r0 as usize];
            if (id as usize) < domain && id == ids[r1 as usize] {
                let at = self.rows_acc.len() as u32;
                self.rows_acc.extend([r0, r1]);
                self.runs.push((r0, at, 2));
            }
            return;
        }
        self.counted_rows += class.len() as u64;
        // Count rows per id, remembering each id the first time it is seen.
        self.ids.clear();
        for row in class.clone() {
            let id = ids[row as usize];
            self.ids.push(id);
            if (id as usize) < domain {
                let slot = &mut self.slots[id as usize];
                if *slot == 0 {
                    self.touched.push(id);
                }
                *slot += 1;
            }
        }
        // Counts ≥ 2 become write cursors, laid out in first-row order.
        let first_run = self.runs.len();
        let mut at = self.rows_acc.len() as u32;
        for &id in &self.touched {
            let slot = &mut self.slots[id as usize];
            let count = *slot;
            if count >= 2 {
                self.runs.push((0, at, count));
                *slot = at;
                at += count;
            } else {
                *slot = NO_RUN;
            }
        }
        if self.runs.len() > first_run {
            self.rows_acc.resize(at as usize, 0);
            for (row, &id) in class.zip(&self.ids) {
                if (id as usize) < domain {
                    let slot = &mut self.slots[id as usize];
                    if *slot != NO_RUN {
                        self.rows_acc[*slot as usize] = row;
                        *slot += 1;
                    }
                }
            }
            for run in &mut self.runs[first_run..] {
                run.0 = self.rows_acc[run.1 as usize];
            }
        }
        for &id in &self.touched {
            self.slots[id as usize] = 0;
        }
        self.touched.clear();
    }

    /// Append every run of ≥ 2 equal keys of the sorted `pairs` (the
    /// comparison-sort oracle's emission step).
    fn emit_sorted_runs<K: Eq>(&mut self, pairs: &[(K, u32)]) {
        let mut start = 0usize;
        for i in 1..=pairs.len() {
            if i == pairs.len() || pairs[i].0 != pairs[start].0 {
                if i - start >= 2 {
                    let at = self.rows_acc.len() as u32;
                    self.rows_acc
                        .extend(pairs[start..i].iter().map(|&(_, row)| row));
                    self.runs.push((pairs[start].1, at, (i - start) as u32));
                }
                start = i;
            }
        }
    }

    /// Materialize the accumulated run descriptors into a CSR partition:
    /// runs sorted by first row (first rows are distinct across runs, so the
    /// order is total and deterministic), rows copied out in that order.
    fn finish(&mut self, n_rows: usize) -> StrippedPartition {
        self.runs.sort_unstable_by_key(|&(first, _, _)| first);
        let mut rows = Vec::with_capacity(self.rows_acc.len());
        let mut offsets = Vec::with_capacity(self.runs.len() + 1);
        offsets.push(0u32);
        for &(_, at, len) in &self.runs {
            rows.extend_from_slice(&self.rows_acc[at as usize..(at + len) as usize]);
            offsets.push(rows.len() as u32);
        }
        self.runs.clear();
        self.rows_acc.clear();
        StrippedPartition {
            rows,
            offsets,
            n_rows,
        }
    }
}

/// A stripped partition: equivalence classes (of size ≥ 2) of tuple ids, in a
/// flat CSR layout — class `i` is `rows[offsets[i]..offsets[i + 1]]`, classes
/// ordered by first member, members ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrippedPartition {
    rows: Vec<u32>,
    offsets: Vec<u32>,
    n_rows: usize,
}

impl StrippedPartition {
    /// The partition of the empty attribute set: one class holding every tuple
    /// (stripped away entirely when the relation has fewer than two rows).
    pub fn full(n_rows: usize) -> Self {
        if n_rows >= 2 {
            StrippedPartition {
                rows: (0..n_rows as u32).collect(),
                offsets: vec![0, n_rows as u32],
                n_rows,
            }
        } else {
            StrippedPartition {
                rows: Vec::new(),
                offsets: vec![0],
                n_rows,
            }
        }
    }

    /// Build a partition from explicit class lists (classes need not arrive
    /// sorted; they are put into canonical first-row order).  Test and oracle
    /// constructor — the discovery paths build CSR directly.
    pub fn from_classes(mut classes: Vec<Vec<u32>>, n_rows: usize) -> Self {
        classes.sort_by_key(|c| c[0]);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        let mut rows = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(classes.len() + 1);
        offsets.push(0u32);
        for class in &classes {
            rows.extend_from_slice(class);
            offsets.push(rows.len() as u32);
        }
        StrippedPartition {
            rows,
            offsets,
            n_rows,
        }
    }

    /// Build `Π_{{A}}` from an attribute's code column (dense rank codes, all
    /// below `codes.len()`).
    pub fn by_codes(codes: &[u32]) -> Self {
        Self::by_codes_with(codes, &mut RefineScratch::default())
    }

    /// [`Self::by_codes`] with caller-provided scratch buffers: one kernel
    /// pass over the whole relation as a single class.
    pub fn by_codes_with(codes: &[u32], scratch: &mut RefineScratch) -> Self {
        let n = codes.len();
        scratch.fit(n);
        if n >= 2 {
            scratch.bucket_class(0..n as u32, codes, n);
        }
        scratch.finish(n)
    }

    /// Refine by one more attribute's code column: `Π_X · Π_{{A}}` restricted
    /// to the tuples `Π_X` still tracks.  Linear in [`Self::covered_rows`].
    /// Codes must be dense ranks below the relation's row count; a larger
    /// value (such as [`CLASS_SENTINEL`]) marks a row that stays a singleton.
    pub fn refine_by(&self, codes: &[u32]) -> Self {
        self.refine_by_with(codes, &mut RefineScratch::default())
    }

    /// [`Self::refine_by`] with caller-provided scratch buffers: each class
    /// goes through the counting kernel (see the module docs), so classes
    /// come out in first-member order with members ascending.
    pub fn refine_by_with(&self, codes: &[u32], scratch: &mut RefineScratch) -> Self {
        self.refine_dense(codes, self.n_rows, scratch)
    }

    /// Refine by a code column dense in `0..domain`; rows whose code is
    /// `domain` or more are dropped.
    pub(crate) fn refine_dense(
        &self,
        codes: &[u32],
        domain: usize,
        scratch: &mut RefineScratch,
    ) -> Self {
        scratch.fit(domain);
        for class in self.classes() {
            scratch.bucket_class(class.iter().copied(), codes, domain);
        }
        scratch.finish(self.n_rows)
    }

    /// The dense class-id column of this partition: `row → class index` in
    /// first-row class order, [`CLASS_SENTINEL`] for stripped singletons.
    pub fn class_codes(&self) -> ClassCodes {
        let mut codes = vec![CLASS_SENTINEL; self.n_rows];
        for (ci, class) in self.classes().enumerate() {
            for &row in class {
                codes[row as usize] = ci as u32;
            }
        }
        ClassCodes {
            codes,
            classes: self.num_classes() as u32,
        }
    }

    /// The partition product `self · other`: the counting kernel splits
    /// each class of `self` by `other`'s class ids (domain
    /// [`ClassCodes::num_classes`]), dropping rows that are singletons in
    /// `other` — they are singletons in the product too.  No hashing and no
    /// key sort; cost is linear in [`Self::covered_rows`].
    pub fn product_with(&self, other: &ClassCodes, scratch: &mut RefineScratch) -> Self {
        self.refine_dense(other.codes(), other.num_classes() as usize, scratch)
    }

    /// Comparison-sort product oracle: one `sort_unstable` of packed
    /// `(class_a, class_b)` u64 keys with their rows, runs of equal keys
    /// become classes.  Output is bit-identical to [`Self::product_with`];
    /// kept as the baseline E16 times the kernel against.
    pub fn product_comparison(&self, other: &ClassCodes, scratch: &mut RefineScratch) -> Self {
        let shift = other.id_bits();
        let ocodes = other.codes();
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(self.covered_rows());
        for (ci, class) in self.classes().enumerate() {
            let hi = (ci as u64) << shift;
            for &row in class {
                let oc = ocodes[row as usize];
                if oc != CLASS_SENTINEL {
                    pairs.push((hi | u64::from(oc), row));
                }
            }
        }
        pairs.sort_unstable();
        scratch.emit_sorted_runs(&pairs);
        scratch.finish(self.n_rows)
    }

    /// Hash-based product oracle: buckets `(class_a, class_b)` keys into a
    /// `HashMap`, the pre-CSR strategy.  Kept as the differential baseline
    /// for proptests and the E16 in-run comparison.
    pub fn product_hash(&self, other: &ClassCodes) -> Self {
        let shift = other.id_bits();
        let ocodes = other.codes();
        let mut buckets: HashMap<u64, Vec<u32>> = HashMap::new();
        for (ci, class) in self.classes().enumerate() {
            let hi = (ci as u64) << shift;
            for &row in class {
                let oc = ocodes[row as usize];
                if oc == CLASS_SENTINEL {
                    continue;
                }
                buckets.entry(hi | u64::from(oc)).or_default().push(row);
            }
        }
        let classes: Vec<Vec<u32>> = buckets.into_values().filter(|c| c.len() >= 2).collect();
        Self::from_classes(classes, self.n_rows)
    }

    /// The equivalence classes (each of size ≥ 2), as CSR slices in first-row
    /// order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + Clone {
        self.offsets
            .windows(2)
            .map(|w| &self.rows[w[0] as usize..w[1] as usize])
    }

    /// Class `i` as a CSR slice.
    pub fn class(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The classes copied out as owned row lists (test/oracle convenience —
    /// hot paths stay on the CSR slices).
    pub fn class_vecs(&self) -> Vec<Vec<u32>> {
        self.classes().map(|c| c.to_vec()).collect()
    }

    /// Number of (non-singleton) classes.
    pub fn num_classes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of tuple ids still tracked (`‖Π‖` in TANE's notation).
    pub fn covered_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of rows of the underlying relation.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True if every class is a singleton — the attribute set is a (super)key,
    /// so no two tuples agree on it and neither splits nor in-class swaps exist.
    pub fn is_key(&self) -> bool {
        self.offsets.len() == 1
    }

    /// True if a single class covers the whole relation (the attribute set is
    /// constant on the instance, or empty).
    pub fn is_single_class(&self) -> bool {
        self.offsets.len() == 2 && self.rows.len() == self.n_rows
    }

    /// Heap bytes held by the CSR arrays.
    pub fn approx_heap_bytes(&self) -> usize {
        (self.rows.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }
}

/// Memoizing builder of stripped partitions per attribute set, plus the
/// per-attribute code columns all validators work on (served as [`ColCodes`]
/// views into the relation's eagerly built [`ColumnarEncoding`]).
///
/// `Π_X` is computed once per distinct `X` — the *incremental partition
/// product* of FASTOD.  Level-1 partitions run the counting kernel over the
/// whole relation on the attribute's raw code column (a column with
/// `|dom A| = n` is a key and costs no pass).  A level ≥ 2 partition picks
/// the attribute `a ∈ X` whose cached `Π_{X−a}` covers the fewest rows (ties
/// keep the highest `a`) and multiplies that base by `a`'s [`ClassCodes`],
/// so the kernel's cost — linear in the base's covered rows — is the least
/// the cache can offer.  Under level-wise traversal every `Π_{X−a}` is
/// cached; outside it, `X` minus its last attribute is built first,
/// recursively.  Class codes are memoized per attribute and survive
/// [`Self::evict_sets_of_size`] — eviction drops whole-partition CSR arrays,
/// not the dense columns products keep re-reading.
pub struct PartitionCache<'r> {
    rel: &'r Relation,
    enc: Arc<ColumnarEncoding>,
    /// Memoized partitions, keyed directly by the attribute-set bit mask —
    /// hashing a context costs one `u64` hash, not a `Vec<AttrId>` walk.
    partitions: HashMap<AttrSet, Rc<StrippedPartition>>,
    /// Per-attribute class-id columns for the product path.  Never evicted:
    /// one dense `u32` column per attribute is cheap and every level ≥ 2
    /// product reuses them.
    attr_codes: HashMap<AttrId, Rc<ClassCodes>>,
    scratch: RefineScratch,
    /// Number of partition products (refinements) performed.
    pub products: usize,
    /// Memo hits: partition requests answered from the cache.
    pub hits: usize,
    /// Memo misses: partition requests that had to materialize (each recursive
    /// subset build counts as its own miss).
    pub misses: usize,
    /// Rows of every base partition the counting kernel bucketed — the
    /// kernel's work, linear in its running time and independent of how the
    /// work was sharded (the `discovery.partition_rows` counter).
    pub partition_rows: u64,
}

/// How one partition is composed: a cached base `Π_{X−attr}` and `attr`'s
/// operand column.  Holds the `Rc`s so batch workers can borrow plain `&`s.
struct Plan {
    base: Rc<StrippedPartition>,
    attr: AttrId,
    operand: Operand,
}

enum Operand {
    /// Level 1: the attribute's raw code column.
    Codes(ColCodes),
    /// Level ≥ 2: the attribute's class-code column.
    Product(Rc<ClassCodes>),
}

impl Plan {
    /// The kernel job; `class_codes` asks a level-1 job for the result's
    /// class codes too.
    fn job(&self, class_codes: bool) -> RefineJob<'_> {
        match &self.operand {
            Operand::Codes(codes) => RefineJob::Codes {
                base: &self.base,
                codes,
                domain: codes.domain(),
                class_codes,
            },
            Operand::Product(other) => RefineJob::Product {
                base: &self.base,
                other,
            },
        }
    }
}

impl<'r> PartitionCache<'r> {
    /// A cache over one relation instance (grabs the shared columnar
    /// encoding, building it if the relation was mutated since construction).
    pub fn new(rel: &'r Relation) -> Self {
        PartitionCache {
            rel,
            enc: rel.encoding(),
            partitions: HashMap::new(),
            attr_codes: HashMap::new(),
            scratch: RefineScratch::default(),
            products: 0,
            hits: 0,
            misses: 0,
            partition_rows: 0,
        }
    }

    /// The relation the cache serves.
    pub fn relation(&self) -> &'r Relation {
        self.rel
    }

    /// Order-preserving dense codes of one column — an O(1) view into the
    /// shared encoding (historically this memoized per-attribute sorts).
    pub fn codes(&self, attr: AttrId) -> ColCodes {
        ColCodes::new(self.enc.clone(), attr.index())
    }

    /// Heap bytes held by the cached CSR partitions plus the per-attribute
    /// class-code columns — the `partition.csr_bytes` gauge.
    pub fn approx_csr_bytes(&self) -> usize {
        let parts: usize = self
            .partitions
            .values()
            .map(|p| p.approx_heap_bytes())
            .sum();
        let codes: usize = self
            .attr_codes
            .values()
            .map(|c| c.approx_heap_bytes())
            .sum();
        parts + codes
    }

    /// The class-id column of `Π_{{attr}}`, memoized per attribute and immune
    /// to [`Self::evict_sets_of_size`].  Served from the cached singleton
    /// partition when present; otherwise built from the attribute's raw code
    /// column without polluting the partition memo (temporary partitions are
    /// not inserted, keeping the lattice's cached-set accounting exact).
    pub fn attr_class_codes(&mut self, attr: AttrId) -> Rc<ClassCodes> {
        if let Some(cc) = self.attr_codes.get(&attr) {
            return cc.clone();
        }
        let single = AttrSet::singleton(attr);
        let cc = match self.partitions.get(&single) {
            Some(p) => p.class_codes(),
            None => {
                let codes = self.codes(attr);
                self.partition_rows += codes.len() as u64;
                StrippedPartition::by_codes_with(&codes, &mut self.scratch).class_codes()
            }
        };
        let rc = Rc::new(cc);
        self.attr_codes.insert(attr, rc.clone());
        rc
    }

    /// The cheapest way to compose `Π_set` from the cache: the attribute `a`
    /// whose cached `Π_{set−a}` covers the fewest rows, ties keeping the
    /// highest `a`.  `None` when no such subset is cached (or `set` is empty).
    fn plan(&mut self, set: &AttrSet) -> Option<Plan> {
        let mut best: Option<(AttrId, &Rc<StrippedPartition>)> = None;
        for a in set.iter() {
            if let Some(p) = self.partitions.get(&set.without(a)) {
                if best.is_none_or(|(_, b)| p.covered_rows() <= b.covered_rows()) {
                    best = Some((a, p));
                }
            }
        }
        let (attr, base) = best.map(|(a, p)| (a, p.clone()))?;
        let operand = if set.len() == 1 {
            Operand::Codes(self.codes(attr))
        } else {
            Operand::Product(self.attr_class_codes(attr))
        };
        Some(Plan {
            base,
            attr,
            operand,
        })
    }

    /// The stripped partition `Π_X` (memoized).
    pub fn partition(&mut self, set: &AttrSet) -> Rc<StrippedPartition> {
        if let Some(p) = self.partitions.get(set) {
            self.hits += 1;
            return p.clone();
        }
        self.misses += 1;
        let part = match set.last() {
            None => StrippedPartition::full(self.rel.len()),
            Some(last) => {
                let plan = match self.plan(set) {
                    Some(plan) => {
                        // The base is answered from the memo.
                        self.hits += 1;
                        plan
                    }
                    None => {
                        // Outside level-wise traversal: build X minus its
                        // last attribute first (recursively, counting its
                        // own misses).
                        self.partition(&set.without(last));
                        self.plan(set).expect("the base was just cached")
                    }
                };
                let job = plan.job(false);
                self.products += 1;
                self.partition_rows += job.bucketed_rows();
                job.run(&mut self.scratch).0
            }
        };
        let rc = Rc::new(part);
        self.partitions.insert(*set, rc.clone());
        rc
    }

    /// Materialize a whole level's partitions in one pass, sharding the
    /// kernel work **by context** across up to `threads` threads.
    ///
    /// Each set is planned serially — the cheapest cached base, as in
    /// [`Self::partition`]; the `Rc`-handing cache cannot be touched from
    /// workers — then the kernel jobs run sharded
    /// ([`crate::parallel::refine_batch`]).  A job is a pure function of its
    /// base and operand column, so the results are bit-identical on every
    /// thread count.  Level-1 jobs also build their attribute's
    /// [`ClassCodes`] (unless memoized, or the partition is a key), so the
    /// next level's products start without a serial class-code pass.  Sets
    /// with no cached subset (possible only outside the lattice's level
    /// discipline) fall back to the serial recursive path.
    pub fn partitions_batch(
        &mut self,
        sets: &[AttrSet],
        threads: usize,
    ) -> Vec<Rc<StrippedPartition>> {
        let mut plans: Vec<Option<Plan>> = Vec::with_capacity(sets.len());
        for set in sets {
            if self.partitions.contains_key(set) {
                self.hits += 1;
                plans.push(None);
                continue;
            }
            let plan = self.plan(set);
            if plan.is_some() {
                self.misses += 1;
            } else {
                // Serial fallback (also materializes the base for siblings;
                // counts its own misses).
                self.partition(set);
            }
            plans.push(plan);
        }
        let jobs: Vec<Option<RefineJob<'_>>> = plans
            .iter()
            .map(|plan| {
                plan.as_ref()
                    .map(|p| p.job(!self.attr_codes.contains_key(&p.attr)))
            })
            .collect();
        self.partition_rows += jobs
            .iter()
            .flatten()
            .map(RefineJob::bucketed_rows)
            .sum::<u64>();
        let fresh = crate::parallel::refine_batch(&jobs, threads);
        for ((set, plan), out) in sets.iter().zip(&plans).zip(fresh) {
            let (Some(plan), Some((part, class_codes))) = (plan, out) else {
                continue;
            };
            self.products += 1;
            if let Some(cc) = class_codes {
                self.attr_codes.insert(plan.attr, Rc::new(cc));
            }
            self.partitions.insert(*set, Rc::new(part));
        }
        sets.iter()
            .map(|set| self.partitions[set].clone())
            .collect()
    }

    /// Number of distinct attribute sets whose partition has been materialized.
    pub fn cached_sets(&self) -> usize {
        self.partitions.len()
    }

    /// Evict every cached partition whose attribute set has exactly `len`
    /// attributes, returning how many were dropped.
    ///
    /// The level-wise lattice calls this to cap resident memory: partitions of
    /// level `k` are only ever refined into level `k + 1` partitions, so once
    /// level `k + 1` is fully materialized the level-`k` products are dead
    /// weight.  Eviction is safe, not merely sound: a later request for an
    /// evicted set transparently rebuilds it (recursively, from whatever
    /// subsets remain cached).  The per-attribute [`ClassCodes`] memo is
    /// deliberately untouched — products at every later level keep reading it.
    pub fn evict_sets_of_size(&mut self, len: usize) -> usize {
        let before = self.partitions.len();
        self.partitions.retain(|key, _| key.len() != len);
        before - self.partitions.len()
    }
}

/// The classes of `Π_set(X)` — including the stripped-out singletons — ordered
/// by the list `X`'s lexicographic value order, with one representative row per
/// class.
///
/// Because every member of a class agrees on all of `set(X)`, ordering class
/// representatives by `X` orders the whole relation by `X`; an OD `X ↦ Y` then
/// reduces to (a) `Y` constant within each class and (b) `Y` non-decreasing
/// across consecutive classes.
#[derive(Debug)]
pub struct SortedPartition {
    /// Classes in `X` order: (representative row, all rows of the class).
    groups: Vec<(u32, Vec<u32>)>,
}

impl SortedPartition {
    /// Build the sorted partition for a list from the cache.
    pub fn for_list(cache: &mut PartitionCache<'_>, list: &AttrList) -> Self {
        let set = list.to_set();
        let part = cache.partition(&set);
        let n = part.n_rows();
        let mut in_class = vec![false; n];
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for class in part.classes() {
            for &row in class {
                in_class[row as usize] = true;
            }
            groups.push((class[0], class.to_vec()));
        }
        for row in 0..n as u32 {
            if !in_class[row as usize] {
                groups.push((row, vec![row]));
            }
        }
        // Sort representatives by the list's per-attribute codes: integer
        // comparisons, and only one row per class.
        let key_codes: Vec<ColCodes> = list.iter().map(|a| cache.codes(a)).collect();
        groups.sort_by(|a, b| {
            for codes in &key_codes {
                let ord = codes[a.0 as usize].cmp(&codes[b.0 as usize]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        SortedPartition { groups }
    }

    /// The groups in list order: (representative, class members).
    pub fn groups(&self) -> &[(u32, Vec<u32>)] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_core::{Schema, Value};

    fn rel_from(rows: &[&[i64]]) -> Relation {
        let mut schema = Schema::new("t");
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        for i in 0..arity {
            schema.add_attr(format!("c{i}"));
        }
        Relation::from_rows(
            schema,
            rows.iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect()),
        )
        .unwrap()
    }

    fn set(ids: &[u32]) -> AttrSet {
        ids.iter().map(|&i| AttrId(i)).collect()
    }

    #[test]
    fn full_partition_is_one_class_unless_tiny() {
        assert_eq!(StrippedPartition::full(5).num_classes(), 1);
        assert!(StrippedPartition::full(5).is_single_class());
        assert!(StrippedPartition::full(1).is_key());
        assert!(StrippedPartition::full(0).is_key());
    }

    #[test]
    fn by_codes_groups_equal_values_and_strips_singletons() {
        // Column: [5, 3, 5, 9, 3] → classes {0,2} and {1,4}; row 3 is stripped.
        let rel = rel_from(&[&[5], &[3], &[5], &[9], &[3]]);
        let codes = rel.rank_column(AttrId(0));
        let p = StrippedPartition::by_codes(&codes);
        assert_eq!(p.class_vecs(), vec![vec![0, 2], vec![1, 4]]);
        assert_eq!(p.class(0), &[0, 2]);
        assert_eq!(p.class(1), &[1, 4]);
        assert_eq!(p.covered_rows(), 4);
        assert!(!p.is_key());
    }

    #[test]
    fn refinement_matches_direct_construction() {
        let rel = rel_from(&[&[1, 1], &[1, 2], &[1, 1], &[2, 1], &[2, 1], &[1, 2]]);
        let mut cache = PartitionCache::new(&rel);
        let pa = cache.partition(&set(&[0]));
        let pab = cache.partition(&set(&[0, 1]));
        // Direct: group rows by both columns.
        assert_eq!(pa.num_classes(), 2);
        assert_eq!(pab.class_vecs(), vec![vec![0, 2], vec![1, 5], vec![3, 4]]);
        // Refinement never increases covered rows.
        assert!(pab.covered_rows() <= pa.covered_rows());
    }

    #[test]
    fn radix_and_comparison_bucketing_agree() {
        // Few distinct values over many rows, so classes stay large: the
        // full-relation bucketing takes the kernel's counting branch, and it
        // must agree with a comparison sort of the same (code, row) pairs.
        let rows: Vec<Vec<i64>> = (0..600i64).map(|i| vec![i % 7, i % 3]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let codes = rel.rank_column(AttrId(0));
        let mut scratch = RefineScratch::default();
        let via_kernel = StrippedPartition::by_codes_with(&codes, &mut scratch);
        assert_eq!(
            scratch.counted_rows(),
            600,
            "the whole relation is one counted class"
        );
        // Reference: comparison-sorted bucketing of the same pairs.
        let mut pairs: Vec<(u32, u32)> = codes
            .iter()
            .enumerate()
            .map(|(row, &c)| (c, row as u32))
            .collect();
        pairs.sort_unstable();
        let mut expected: Vec<Vec<u32>> = Vec::new();
        let mut start = 0;
        for i in 1..=pairs.len() {
            if i == pairs.len() || pairs[i].0 != pairs[start].0 {
                if i - start >= 2 {
                    expected.push(pairs[start..i].iter().map(|&(_, r)| r).collect());
                }
                start = i;
            }
        }
        expected.sort_by_key(|c| c[0]);
        assert_eq!(via_kernel.class_vecs(), expected);
        // And refining by the second column matches the cache-built product.
        let mut cache = PartitionCache::new(&rel);
        let pab = cache.partition(&set(&[0, 1]));
        let manual = via_kernel.refine_by(&rel.rank_column(AttrId(1)));
        assert_eq!(*pab, manual);
    }

    #[test]
    fn key_sets_strip_to_nothing() {
        let rel = rel_from(&[&[1, 7], &[2, 7], &[3, 7]]);
        let mut cache = PartitionCache::new(&rel);
        assert!(cache.partition(&set(&[0])).is_key());
        // And refining a key by anything stays a key.
        assert!(cache.partition(&set(&[0, 1])).is_key());
        // A constant column is a single class.
        assert!(cache.partition(&set(&[1])).is_single_class());
    }

    #[test]
    fn class_codes_mark_members_and_sentinel_singletons() {
        // Column: [5, 3, 5, 9, 3] → class 0 = {0,2}, class 1 = {1,4}, row 3
        // is a singleton.
        let rel = rel_from(&[&[5], &[3], &[5], &[9], &[3]]);
        let p = StrippedPartition::by_codes(&rel.rank_column(AttrId(0)));
        let cc = p.class_codes();
        assert_eq!(cc.num_classes(), 2);
        assert_eq!(cc.codes(), &[0, 1, 0, CLASS_SENTINEL, 1]);
        assert_eq!(cc.id_bits(), 1);
        // Degenerate columns: one class → zero bits, key → zero classes.
        let full = StrippedPartition::full(4).class_codes();
        assert_eq!((full.num_classes(), full.id_bits()), (1, 0));
        let key = StrippedPartition::full(1).class_codes();
        assert_eq!((key.num_classes(), key.id_bits()), (0, 0));
    }

    #[test]
    fn product_paths_agree_with_refinement_and_each_other() {
        let rows: Vec<Vec<i64>> = (0..700i64).map(|i| vec![i % 6, i % 4, i % 35]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let pa = StrippedPartition::by_codes(&rel.rank_column(AttrId(0)));
        let pb = StrippedPartition::by_codes(&rel.rank_column(AttrId(1)));
        let pc = StrippedPartition::by_codes(&rel.rank_column(AttrId(2)));
        let mut scratch = RefineScratch::default();
        for (base, other) in [(&pa, &pb), (&pb, &pa), (&pa, &pc), (&pc, &pb)] {
            let cc = other.class_codes();
            let kernel = base.product_with(&cc, &mut scratch);
            let comparison = base.product_comparison(&cc, &mut scratch);
            let hash = base.product_hash(&cc);
            // Refinement by the other partition's class ids equals the product
            // when `other` has no sentinel rows (true here: every column is
            // duplicate-heavy).
            let refined = base.refine_by(cc.codes());
            assert_eq!(kernel, comparison);
            assert_eq!(kernel, hash);
            // All columns here are duplicate-heavy (no singletons), so the
            // class-code column is total and plain refinement agrees too.
            assert!(cc.codes().iter().all(|&c| c != CLASS_SENTINEL));
            assert_eq!(kernel, refined);
        }
        assert!(
            scratch.counted_rows() > 0,
            "700-row products must take the counting branch"
        );
    }

    #[test]
    fn product_drops_rows_singleton_in_either_operand() {
        // a: [1,1,2,2,3] → classes {0,1},{2,3}; b: [7,8,8,9,9] → {1,2},{3,4}.
        // Product: rows 0 (singleton in b via class id) and 4 (singleton in a)
        // drop; {1},{2},{3} all become singletons → empty (key) product.
        let rel = rel_from(&[&[1, 7], &[1, 8], &[2, 8], &[2, 9], &[3, 9]]);
        let pa = StrippedPartition::by_codes(&rel.rank_column(AttrId(0)));
        let pb = StrippedPartition::by_codes(&rel.rank_column(AttrId(1)));
        let mut scratch = RefineScratch::default();
        let prod = pa.product_with(&pb.class_codes(), &mut scratch);
        assert!(prod.is_key());
        assert_eq!(prod, pa.product_hash(&pb.class_codes()));
        // A product with itself is idempotent.
        let same = pa.product_with(&pa.class_codes(), &mut scratch);
        assert_eq!(same, pa);
    }

    #[test]
    fn cache_deep_products_match_serial_refinement_chain() {
        let rows: Vec<Vec<i64>> = (0..300i64)
            .map(|i| vec![i % 4, i % 3, i % 5, i % 2])
            .collect();
        let rows: Vec<&[i64]> = rows.iter().map(|r| r.as_slice()).collect();
        let rel = rel_from(&rows);
        let mut cache = PartitionCache::new(&rel);
        let deep = cache.partition(&set(&[0, 1, 2, 3]));
        // Oracle: chain of raw-code refinements, no products involved.
        let mut oracle = StrippedPartition::full(rel.len());
        for a in 0..4 {
            oracle = oracle.refine_by(&rel.rank_column(AttrId(a)));
        }
        assert_eq!(*deep, oracle);
        assert!(
            cache.scratch.counted_rows() > 0 && cache.partition_rows > 0,
            "large partitions must take the counting branch"
        );
    }

    #[test]
    fn cache_composes_from_the_smallest_cached_base() {
        // c0 is near-unique (Π_{0} covers rows 0 and 1), c1 and c2 are coarse
        // (both cover all six rows), c3 is a key (|dom| = n).
        let rel = rel_from(&[
            &[0, 0, 0, 0],
            &[0, 0, 1, 1],
            &[1, 1, 0, 2],
            &[2, 1, 1, 3],
            &[3, 0, 0, 4],
            &[4, 1, 1, 5],
        ]);
        let chain = |attrs: &[u32]| {
            let mut p = StrippedPartition::full(rel.len());
            for &a in attrs {
                p = p.refine_by(&rel.rank_column(AttrId(a)));
            }
            p
        };
        let mut cache = PartitionCache::new(&rel);
        cache.partition(&AttrSet::new());
        // A level-1 batch buckets every non-key column over all six rows and
        // builds those columns' class codes; the key column costs no pass.
        let level1: Vec<AttrSet> = (0..4).map(|a| set(&[a])).collect();
        let parts = cache.partitions_batch(&level1, 2);
        assert!(parts[3].is_key());
        assert_eq!(cache.partition_rows, 3 * 6);
        for a in 0..4 {
            assert_eq!(cache.attr_codes.contains_key(&AttrId(a)), a != 3);
        }
        // {0, 1}: Π_{0} (2 rows) beats Π_{1} (6 rows), so c1's codes split it.
        let mut serial = PartitionCache::new(&rel);
        for a in 0..3 {
            serial.partition(&set(&[a]));
        }
        let before = serial.partition_rows;
        assert_eq!(*serial.partition(&set(&[0, 1])), chain(&[0, 1]));
        assert_eq!(serial.partition_rows - before, 2);
        assert!(serial.attr_codes.contains_key(&AttrId(1)));
        assert!(!serial.attr_codes.contains_key(&AttrId(0)));
        // {1, 2}: a tie keeps the highest attribute, so c2's codes split Π_{1}.
        assert_eq!(*serial.partition(&set(&[1, 2])), chain(&[1, 2]));
        assert_eq!(serial.partition_rows - before, 2 + 6);
        assert!(serial.attr_codes.contains_key(&AttrId(2)));
        assert!(!serial.attr_codes.contains_key(&AttrId(0)));
    }

    #[test]
    fn attr_class_codes_survive_eviction_and_skip_the_partition_memo() {
        let rel = rel_from(&[&[1, 1], &[1, 2], &[2, 1], &[2, 2], &[1, 1]]);
        let mut cache = PartitionCache::new(&rel);
        // No partitions cached yet: codes build from the raw column without
        // inserting a partition.
        let cc = cache.attr_class_codes(AttrId(1));
        assert_eq!(cache.cached_sets(), 0);
        cache.partition(&set(&[0, 1]));
        // Cached: Π_∅, Π_{0}, Π_{0,1} — evicting level 1 drops exactly Π_{0}.
        assert_eq!(cache.cached_sets(), 3);
        assert_eq!(cache.evict_sets_of_size(1), 1);
        // The memoized codes are still served (same allocation).
        let cc2 = cache.attr_class_codes(AttrId(1));
        assert!(Rc::ptr_eq(&cc, &cc2));
        assert!(cache.approx_csr_bytes() > 0);
    }

    #[test]
    fn cache_memoizes_and_counts_products() {
        let rel = rel_from(&[&[1, 1, 1], &[1, 2, 1], &[2, 1, 1], &[2, 2, 2]]);
        let mut cache = PartitionCache::new(&rel);
        cache.partition(&set(&[0, 1]));
        let products_after_first = cache.products;
        let hits_after_first = cache.hits;
        cache.partition(&set(&[0, 1]));
        assert_eq!(
            cache.products, products_after_first,
            "second lookup must hit the cache"
        );
        assert_eq!(cache.hits, hits_after_first + 1);
        assert!(
            cache.misses >= 2,
            "the set and its subset base are distinct materializations"
        );
        assert!(
            cache.cached_sets() >= 2,
            "subset partitions are cached on the way"
        );
    }

    #[test]
    fn cache_codes_view_matches_rank_column() {
        let rel = rel_from(&[&[5, 1], &[3, 1], &[5, 2]]);
        let cache = PartitionCache::new(&rel);
        for attr in [AttrId(0), AttrId(1)] {
            let view = cache.codes(attr);
            assert_eq!(&view[..], rel.rank_column(attr).as_slice());
        }
    }

    #[test]
    fn nulls_and_ties_partition_together() {
        let mut schema = Schema::new("t");
        schema.add_attr("a");
        let rel = Relation::from_rows(
            schema,
            vec![
                vec![Value::Null],
                vec![Value::Int(1)],
                vec![Value::Null],
                vec![Value::Int(1)],
            ],
        )
        .unwrap();
        let mut cache = PartitionCache::new(&rel);
        let p = cache.partition(&set(&[0]));
        assert_eq!(
            p.class_vecs(),
            vec![vec![0, 2], vec![1, 3]],
            "NULLs form their own class"
        );
    }

    #[test]
    fn from_classes_builds_canonical_csr() {
        let p = StrippedPartition::from_classes(vec![vec![4, 7], vec![0, 2, 9]], 10);
        assert_eq!(p.class_vecs(), vec![vec![0, 2, 9], vec![4, 7]]);
        assert_eq!(p.num_classes(), 2);
        assert_eq!(p.covered_rows(), 5);
        assert!(p.approx_heap_bytes() >= (5 + 3) * 4);
        let empty = StrippedPartition::from_classes(Vec::new(), 3);
        assert!(empty.is_key());
        assert_eq!(empty.n_rows(), 3);
        assert_eq!(empty.num_classes(), 0);
    }

    #[test]
    fn sorted_partition_orders_groups_by_list_value() {
        // Rows: (2,9) (1,8) (2,7) (1,8) — Π_{a} classes {0,2} {1,3}.
        let rel = rel_from(&[&[2, 9], &[1, 8], &[2, 7], &[1, 8]]);
        let mut cache = PartitionCache::new(&rel);
        let sp = SortedPartition::for_list(&mut cache, &AttrList::new([AttrId(0)]));
        let reps: Vec<u32> = sp.groups().iter().map(|(rep, _)| *rep).collect();
        // a=1 group first (rep 1), then a=2 group (rep 0).
        assert_eq!(reps, vec![1, 0]);
        // Descending list puts a=2 first; singleton groups appear for the pair list.
        let sp2 = SortedPartition::for_list(&mut cache, &AttrList::new([AttrId(1), AttrId(0)]));
        assert_eq!(sp2.groups().len(), 3, "b distinguishes rows 0 and 2");
    }

    #[test]
    fn sorted_partition_of_empty_list_is_one_group() {
        let rel = rel_from(&[&[1], &[2]]);
        let mut cache = PartitionCache::new(&rel);
        let sp = SortedPartition::for_list(&mut cache, &AttrList::empty());
        assert_eq!(sp.groups().len(), 1);
        assert_eq!(sp.groups()[0].1.len(), 2);
    }
}
