//! Dictionary-coded struct-of-arrays storage behind [`crate::Relation`].
//!
//! A [`ColumnarEncoding`] holds, per attribute, a sorted dictionary of the
//! column's distinct [`Value`]s plus a `Vec<u32>` of **order-preserving dense
//! codes**: `codes[i]` is the rank of row `i`'s value among the column's
//! distinct values, so
//!
//! * `codes[i] < codes[j] ⟺ value[i] < value[j]` (and equality likewise),
//! * `dict[codes[i]] == value[i]` — the dictionary decodes a cell without
//!   touching the row store.
//!
//! NULL sorts before every non-null value ([`Value`]'s `NULLS FIRST` order),
//! so when a column contains NULLs they receive the dedicated code `0` and
//! `dict[0] == Value::Null`.
//!
//! [`ColumnarEncoding::build`] reads the row store once, row by row, and
//! classifies every column in that one pass.  A column whose non-null values
//! are all integers, all dates, or all booleans is a *key column*: the pass
//! keeps each of its cells as an `i64` key and tracks the column's minimum
//! and maximum, and the codes and dictionary are then made from the keys
//! alone — the row store is not read again.  A key column is coded by its
//! offsets `key − min`:
//!
//! * when its range `max − min` is below 64 values per row, by a bitmap
//!   over the offsets: a key's code is the number of distinct offsets below
//!   it, read off per-word counts, so no sort runs;
//! * otherwise by sorting `(offset, row)` pairs with the LSB
//!   [radix sort](crate::radix) — `u32` offsets when the range fits 32 bits,
//!   `u64` offsets beyond — and numbering the runs of equal offsets.
//!
//! Columns holding strings, floats, or more than one type fall back to one
//! comparison sort on the [`Value`] order; all-NULL columns need no sort.
//! Every path yields exactly the codes
//! [`Relation::rank_column_by_sort`](crate::Relation::rank_column_by_sort)
//! computes (the radix sort is stable and rows enter it in ascending order).

use crate::attr::Schema;
use crate::obs;
use crate::radix::{self, RadixKey};
use crate::relation::Tuple;
use crate::value::Value;

/// One attribute's dictionary and code column.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedColumn {
    /// Distinct values in ascending [`Value`] order; `dict[code]` decodes.
    dict: Vec<Value>,
    /// Per-row dense rank codes, aligned with the relation's tuple order.
    codes: Vec<u32>,
}

impl EncodedColumn {
    /// The sorted dictionary of distinct values.
    pub fn dict(&self) -> &[Value] {
        &self.dict
    }

    /// The per-row code column.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Number of distinct values (the dictionary size).
    pub fn distinct_count(&self) -> usize {
        self.dict.len()
    }

    /// Approximate heap footprint: dictionary values plus the code column.
    pub fn approx_heap_bytes(&self) -> usize {
        self.dict.iter().map(Value::approx_bytes).sum::<usize>()
            + self.codes.len() * std::mem::size_of::<u32>()
    }
}

/// The struct-of-arrays encoding of a whole relation instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarEncoding {
    columns: Vec<EncodedColumn>,
    n_rows: usize,
}

impl ColumnarEncoding {
    /// Encode every column of `tuples` (positionally aligned with `schema`).
    ///
    /// One row-major pass classifies every column and collects the keys of
    /// the key columns; each key column is then coded from its keys by the
    /// bitmap or the radix path, and only string, float, and mixed columns
    /// read the row store again (see the module doc).
    ///
    /// Emits `relation.encode` span metrics: per-column dictionary sizes into
    /// the `relation.encode.dict_entries` histogram, row/column totals, and
    /// the number of radix counting passes run on key columns — all
    /// deterministic functions of the data.
    pub fn build(schema: &Schema, tuples: &[Tuple]) -> Self {
        let _span = obs::span("relation.encode");
        let arity = schema.arity();
        let n_rows = tuples.len();
        let mut radix_passes = 0u64;
        let mut columns = Vec::with_capacity(arity);
        for (col, scan) in scan_rows(arity, tuples).into_iter().enumerate() {
            let encoded = match scan.path() {
                ColumnPath::AllNull => EncodedColumn {
                    dict: vec![Value::Null; n_rows.min(1)],
                    codes: vec![0u32; n_rows],
                },
                ColumnPath::Comparison => {
                    drop(scan); // its key buffer, before the sort allocates
                    encode_by_comparison(tuples, col)
                }
                ColumnPath::Dense(class) => encode_dense(scan, class),
                ColumnPath::Radix32(class) => {
                    encode_radix(scan, class, |d| d as u32, &mut radix_passes)
                }
                ColumnPath::Radix64(class) => encode_radix(scan, class, |d| d, &mut radix_passes),
            };
            obs::record("relation.encode.dict_entries", encoded.dict.len() as u64);
            columns.push(encoded);
        }
        obs::add("relation.encode.columns", arity as u64);
        obs::add("relation.encode.rows", n_rows as u64);
        obs::add("relation.encode.radix_passes", radix_passes);
        ColumnarEncoding { columns, n_rows }
    }

    /// Number of encoded rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of encoded columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// One attribute's encoding, by column index.
    pub fn column(&self, col: usize) -> &EncodedColumn {
        &self.columns[col]
    }

    /// One attribute's code column, by column index.
    pub fn codes(&self, col: usize) -> &[u32] {
        &self.columns[col].codes
    }

    /// One attribute's sorted dictionary, by column index.
    pub fn dict(&self, col: usize) -> &[Value] {
        &self.columns[col].dict
    }

    /// Approximate heap footprint of dictionaries plus code columns.
    pub fn approx_heap_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(EncodedColumn::approx_heap_bytes)
            .sum()
    }
}

/// The value types whose order an `i64` key reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyClass {
    Int,
    Date,
    Bool,
}

impl KeyClass {
    /// The value a key of this class stands for (the inverse of the key
    /// taken in [`ColumnScan::push`]).
    fn value(self, key: i64) -> Value {
        match self {
            KeyClass::Int => Value::Int(key),
            KeyClass::Date => Value::Date(key as i32),
            KeyClass::Bool => Value::Bool(key != 0),
        }
    }
}

/// The row-major pass: every tuple is visited once, and each of its cells
/// goes to its column's [`ColumnScan`].
fn scan_rows(arity: usize, tuples: &[Tuple]) -> Vec<ColumnScan> {
    let mut scans: Vec<ColumnScan> = (0..arity).map(|_| ColumnScan::new(tuples.len())).collect();
    for (row, tuple) in (0u32..).zip(tuples) {
        for (scan, value) in scans.iter_mut().zip(tuple) {
            scan.push(row, value);
        }
    }
    scans
}

/// One column's share of the row-major pass.
struct ColumnScan {
    /// `keys[row]` is the key of the cell at `row` when it has a key class
    /// (left `0` otherwise).
    keys: Vec<i64>,
    /// The rows holding NULL, ascending.
    nulls: Vec<u32>,
    /// One bit per kind of non-null value seen (see [`ColumnScan::push`]).
    seen: u8,
    /// Smallest and largest key seen.
    min: i64,
    max: i64,
}

/// [`ColumnScan::seen`] bits for the three key classes and for everything
/// else (floats and strings).
const SEEN_INT: u8 = 1;
const SEEN_DATE: u8 = 2;
const SEEN_BOOL: u8 = 4;
const SEEN_OTHER: u8 = 8;

impl ColumnScan {
    fn new(n_rows: usize) -> Self {
        ColumnScan {
            keys: vec![0; n_rows],
            nulls: Vec::new(),
            seen: 0,
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// Take in the column's cell at `row`; rows arrive in ascending order.
    /// The body is kept branch-light: which path the column takes is decided
    /// once, from `seen`, after the pass.
    #[inline]
    fn push(&mut self, row: u32, value: &Value) {
        let key = match *value {
            Value::Int(v) => {
                self.seen |= SEEN_INT;
                v
            }
            Value::Date(d) => {
                self.seen |= SEEN_DATE;
                i64::from(d)
            }
            Value::Bool(b) => {
                self.seen |= SEEN_BOOL;
                i64::from(b)
            }
            Value::Null => return self.nulls.push(row),
            Value::Float(_) | Value::Str(_) => {
                self.seen |= SEEN_OTHER;
                return;
            }
        };
        self.keys[row as usize] = key;
        self.min = self.min.min(key);
        self.max = self.max.max(key);
    }

    /// The path the column takes, decided from the kinds of value seen and,
    /// for a key column, from its range `max − min` against its row count.
    fn path(&self) -> ColumnPath {
        let class = match self.seen {
            0 => return ColumnPath::AllNull,
            SEEN_INT => KeyClass::Int,
            SEEN_DATE => KeyClass::Date,
            SEEN_BOOL => KeyClass::Bool,
            _ => return ColumnPath::Comparison,
        };
        let range = self.max.wrapping_sub(self.min) as u64;
        if range < DENSE_RANGE_PER_ROW * self.keys.len() as u64 {
            ColumnPath::Dense(class)
        } else if range <= u64::from(u32::MAX) {
            ColumnPath::Radix32(class)
        } else {
            ColumnPath::Radix64(class)
        }
    }
}

/// How a column is encoded once the row-major pass has seen all of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColumnPath {
    /// No non-null value (or no row at all): one dictionary entry at most.
    AllNull,
    /// Every non-null value has this key class and the range is dense
    /// enough for a bitmap ([`DENSE_RANGE_PER_ROW`]).
    Dense(KeyClass),
    /// A sparser key column whose offsets from `min` fit 32 bits: radix-sort
    /// `(u32, row)` pairs.
    Radix32(KeyClass),
    /// A key column with a range of 2^32 or more: radix-sort `(u64, row)`
    /// pairs.
    Radix64(KeyClass),
    /// A float or string, or two key classes, whose `i64` keys cannot
    /// reproduce the mixed-type `Value` order: sort the `Value`s.
    Comparison,
}

/// A key column whose range is below this many values per row takes the
/// dense path.  Its bitmap (`range / 8` bytes) and per-word counts
/// (`range / 16` bytes) then stay under 12 bytes per row, less than the
/// 16 bytes per row of the radix path's pair and scratch buffers.
const DENSE_RANGE_PER_ROW: u64 = 64;

/// Dense path: mark each key's offset from `min` in a bitmap over
/// `0..=range`, count the marks before every 64-bit word, and read each
/// row's code off the bitmap in row order — no sort, and the code column is
/// written front to back.  The dictionary is the set bits in ascending order.
fn encode_dense(scan: ColumnScan, class: KeyClass) -> EncodedColumn {
    let ColumnScan {
        mut keys,
        nulls,
        min,
        max,
        ..
    } = scan;
    let range = max.wrapping_sub(min) as u64;
    // A NULL row's placeholder key becomes `min` so that every offset below
    // is in range; the row's code is reset to 0 afterwards.
    for &row in &nulls {
        keys[row as usize] = min;
    }
    let mut bits = vec![0u64; (range / 64) as usize + 1];
    for &key in &keys {
        let off = key.wrapping_sub(min) as u64;
        bits[(off / 64) as usize] |= 1 << (off % 64);
    }
    // `first_code[w]`: the code of the smallest key marked in word `w`.
    let mut first_code = Vec::with_capacity(bits.len());
    let mut next = u32::from(!nulls.is_empty());
    for word in &bits {
        first_code.push(next);
        next += word.count_ones();
    }
    let mut codes: Vec<u32> = keys
        .iter()
        .map(|&key| {
            let off = key.wrapping_sub(min) as u64;
            let w = (off / 64) as usize;
            first_code[w] + (bits[w] & ((1 << (off % 64)) - 1)).count_ones()
        })
        .collect();
    drop(keys);
    for &row in &nulls {
        codes[row as usize] = 0;
    }
    let mut dict = Vec::with_capacity(next as usize);
    if !nulls.is_empty() {
        dict.push(Value::Null);
    }
    for (w, &word) in (0i64..).zip(&bits) {
        let mut rest = word;
        while rest != 0 {
            let off = w * 64 + i64::from(rest.trailing_zeros());
            dict.push(class.value(min.wrapping_add(off)));
            rest &= rest - 1;
        }
    }
    EncodedColumn { dict, codes }
}

/// Radix path, for a key column too sparse for the dense path: NULL rows
/// keep code 0, non-null rows are radix-sorted as `(key − min, row)` pairs
/// (`offset` narrows the difference to the pair's key type), and each run of
/// equal offsets takes the next code and one dictionary entry rebuilt from
/// its key.
fn encode_radix<K: RadixKey + Into<u64>>(
    scan: ColumnScan,
    class: KeyClass,
    offset: impl Fn(u64) -> K,
    radix_passes: &mut u64,
) -> EncodedColumn {
    let ColumnScan {
        keys, nulls, min, ..
    } = scan;
    let n_rows = keys.len();
    let mut pairs = Vec::with_capacity(n_rows - nulls.len());
    let mut null_rows = nulls.iter().peekable();
    for (row, &key) in (0u32..).zip(&keys) {
        if null_rows.next_if_eq(&&row).is_none() {
            pairs.push((offset(key.wrapping_sub(min) as u64), row));
        }
    }
    drop(keys);
    *radix_passes += u64::from(radix::sort_pairs(&mut pairs, &mut Vec::new()));
    let mut codes = vec![0u32; n_rows];
    let mut dict = Vec::new();
    if !nulls.is_empty() {
        dict.push(Value::Null);
    }
    let mut prev: Option<K> = None;
    for &(off, row) in &pairs {
        if prev != Some(off) {
            dict.push(class.value(min.wrapping_add(off.into() as i64)));
            prev = Some(off);
        }
        codes[row as usize] = (dict.len() - 1) as u32;
    }
    EncodedColumn { dict, codes }
}

/// Comparison path for heterogeneous, string, and float columns: sort row
/// indices by the `Value` order (NULLs sort first on their own), then assign
/// dense ranks run by run.
fn encode_by_comparison(tuples: &[Tuple], col: usize) -> EncodedColumn {
    let mut order: Vec<u32> = (0..tuples.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| tuples[a as usize][col].cmp(&tuples[b as usize][col]));
    let mut codes = vec![0u32; tuples.len()];
    let mut dict = Vec::new();
    for (w, &row) in order.iter().enumerate() {
        let value = &tuples[row as usize][col];
        if w == 0 || *value != tuples[order[w - 1] as usize][col] {
            dict.push(value.clone());
        }
        codes[row as usize] = (dict.len() - 1) as u32;
    }
    EncodedColumn { dict, codes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Schema;

    fn schema(arity: usize) -> Schema {
        let mut s = Schema::new("t");
        for i in 0..arity {
            s.add_attr(format!("c{i}"));
        }
        s
    }

    /// The invariants every encoding must satisfy, checked cell by cell.
    fn assert_valid_encoding(tuples: &[Tuple], enc: &ColumnarEncoding) {
        for col in 0..enc.arity() {
            let dict = enc.dict(col);
            let codes = enc.codes(col);
            assert_eq!(codes.len(), tuples.len());
            assert!(dict.windows(2).all(|w| w[0] < w[1]), "dict strictly sorted");
            for (row, t) in tuples.iter().enumerate() {
                assert_eq!(&dict[codes[row] as usize], &t[col], "dict decodes");
            }
            for i in 0..tuples.len() {
                for j in 0..tuples.len() {
                    assert_eq!(
                        codes[i].cmp(&codes[j]),
                        tuples[i][col].cmp(&tuples[j][col]),
                        "codes preserve value order"
                    );
                }
            }
        }
    }

    #[test]
    fn int_column_with_nulls_uses_code_zero_for_null() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Int(30)],
            vec![Value::Int(10)],
            vec![Value::Null],
            vec![Value::Int(-5)],
            vec![Value::Int(10)],
        ];
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        assert_eq!(enc.codes(0), &[3, 2, 0, 1, 2]);
        assert_eq!(enc.dict(0)[0], Value::Null);
        assert_eq!(enc.column(0).distinct_count(), 4);
        assert_valid_encoding(&tuples, &enc);
    }

    fn paths(tuples: &[Tuple]) -> Vec<ColumnPath> {
        let arity = tuples.first().map_or(0, Vec::len);
        scan_rows(arity, tuples)
            .iter()
            .map(ColumnScan::path)
            .collect()
    }

    #[test]
    fn negative_ints_dates_and_bools_take_the_key_paths() {
        let tuples: Vec<Tuple> = vec![
            vec![
                Value::Int(i64::MIN),
                Value::Date(-3),
                Value::Bool(true),
                Value::Date(i32::MIN),
            ],
            vec![
                Value::Int(i64::MAX),
                Value::Date(7),
                Value::Bool(false),
                Value::Date(i32::MAX),
            ],
            vec![Value::Int(0), Value::Null, Value::Bool(true), Value::Null],
        ];
        assert_eq!(
            paths(&tuples),
            [
                ColumnPath::Radix64(KeyClass::Int),
                ColumnPath::Dense(KeyClass::Date),
                ColumnPath::Dense(KeyClass::Bool),
                ColumnPath::Radix32(KeyClass::Date),
            ]
        );
        let enc = ColumnarEncoding::build(&schema(4), &tuples);
        assert_eq!(enc.codes(0), &[0, 2, 1]);
        assert_eq!(enc.codes(1), &[1, 2, 0]);
        assert_eq!(enc.codes(2), &[1, 0, 1]);
        assert_eq!(enc.codes(3), &[1, 2, 0]);
        assert_valid_encoding(&tuples, &enc);
    }

    #[test]
    fn the_range_per_row_picks_dense_or_radix() {
        // Two rows may span up to 127 values on the dense path.
        let column = |hi: i64| vec![vec![Value::Int(-100)], vec![Value::Int(-100 + hi)]];
        assert_eq!(paths(&column(127)), [ColumnPath::Dense(KeyClass::Int)]);
        assert_eq!(paths(&column(128)), [ColumnPath::Radix32(KeyClass::Int)]);
        assert_eq!(
            paths(&column(u32::MAX as i64)),
            [ColumnPath::Radix32(KeyClass::Int)]
        );
        assert_eq!(
            paths(&column(1 << 32)),
            [ColumnPath::Radix64(KeyClass::Int)]
        );
        for hi in [127, 128, u32::MAX as i64, 1 << 32] {
            let mut tuples = column(hi);
            tuples.push(vec![Value::Null]);
            tuples.push(vec![Value::Int(-100 + hi / 2)]);
            let enc = ColumnarEncoding::build(&schema(1), &tuples);
            assert_eq!(enc.codes(0), &[1, 3, 0, 2]);
            assert_valid_encoding(&tuples, &enc);
        }
    }

    #[test]
    fn strings_floats_and_mixed_columns_fall_back_to_comparison() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Str("mar".into()), Value::Float(2.5), Value::Int(1)],
            vec![Value::Str("feb".into()), Value::Float(-0.5), Value::Date(0)],
            vec![Value::Null, Value::Float(f64::NAN), Value::Str("x".into())],
            vec![Value::Str("feb".into()), Value::Null, Value::Null],
        ];
        assert_eq!(paths(&tuples), [ColumnPath::Comparison; 3]);
        let enc = ColumnarEncoding::build(&schema(3), &tuples);
        assert_valid_encoding(&tuples, &enc);
        // NULL still smallest on the comparison path; NaN sorts last.
        assert_eq!(enc.codes(0), &[2, 1, 0, 1]);
        assert_eq!(enc.codes(1), &[2, 1, 3, 0]);
    }

    #[test]
    fn all_null_and_empty_columns() {
        let tuples: Vec<Tuple> = vec![vec![Value::Null], vec![Value::Null]];
        assert_eq!(paths(&tuples), [ColumnPath::AllNull]);
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        assert_eq!(enc.codes(0), &[0, 0]);
        assert_eq!(enc.dict(0), &[Value::Null]);
        let empty = ColumnarEncoding::build(&schema(1), &[]);
        assert_eq!(empty.n_rows(), 0);
        assert!(empty.dict(0).is_empty());
    }

    #[test]
    fn heap_bytes_cover_dict_and_codes() {
        let tuples: Vec<Tuple> = vec![
            vec![Value::Str("abcd".into())],
            vec![Value::Str("abcd".into())],
        ];
        let enc = ColumnarEncoding::build(&schema(1), &tuples);
        // One dict entry (enum + 4 string bytes) + two u32 codes.
        assert_eq!(
            enc.approx_heap_bytes(),
            std::mem::size_of::<Value>() + 4 + 2 * std::mem::size_of::<u32>()
        );
    }
}
