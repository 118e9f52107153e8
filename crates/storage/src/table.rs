//! Base tables: chunked columnar storage plus the per-table delta log.
//!
//! Every read of a table — SELECT scans, sketch capture, DELETE and UPDATE
//! victim search — goes through one selection path
//! ([`Table::scan_batches`]):
//!
//! 1. **prune** — a chunk whose zone map overlaps no prune range is
//!    skipped whole;
//! 2. **select** — the typed range kernel ([`ColumnData::select_ranges`],
//!    bounds translated once per scan by [`PruneRanges`]) turns the prune
//!    column of a surviving chunk into a selection vector (live, non-NULL,
//!    inside a range — exactly, excluded bounds included);
//! 3. the caller gets one [`Batch`] per surviving chunk, then one for the
//!    open tail (the same kernel over the builder's columns): the columns
//!    and the selection vector. Nothing is materialized, and the columns
//!    borrow from the table, so a consumer may keep them — and the
//!    selection it takes — past the callback.
//!
//! A batch consumer (the query engine) **refines** the selection by
//! further range constraints ([`ColumnData::refine_ranges`]), evaluates
//! what is left of its predicate on the cells it needs
//! ([`ColumnData::cell`]) and sinks the survivors. The row API
//! ([`Table::scan`], [`Table::scan_where`], [`Table::delete_where`],
//! [`Table::update_where`]; capture and DML) is a gather-adapter over the
//! same batches: it materializes each selected row and hands it to the
//! caller's predicate.
//!
//! [`ColumnData::select_ranges`]: crate::ColumnData::select_ranges
//! [`ColumnData::refine_ranges`]: crate::ColumnData::refine_ranges
//! [`ColumnData::cell`]: crate::ColumnData::cell
//! [`PruneRanges`]: crate::PruneRanges

use crate::bitvec::BitVec;
use crate::chunk::{select_live, ChunkBuilder, DataChunk};
use crate::column::{ColumnData, PruneRanges};
use crate::delta::{DeltaLog, DeltaOp};
use crate::row::Row;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;
use std::convert::Infallible;
use std::ops::Bound;

/// An inclusive value range with optional (unbounded) endpoints, as used
/// for zone-map pruning.
pub type ValueRange = (Option<Value>, Option<Value>);

/// A value range whose endpoints may each be included, excluded or absent:
/// what a predicate constrains a column to, exactly.
pub type KeyRange = (Bound<Value>, Bound<Value>);

/// Default number of rows per chunk. Small enough that zone-map pruning is
/// meaningful on laptop-scale tables, large enough to amortize per-chunk
/// overhead.
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

/// Where a stored row lives: its chunk (`chunks.len()` names the open
/// tail) and its index inside.
#[derive(Debug, Clone, Copy)]
struct Slot {
    chunk: usize,
    idx: usize,
}

/// One unit of a batch scan: the columns of a chunk that survived pruning
/// (or of the open tail), borrowed for the table's lifetime `'t`, and the
/// selection vector over them.
#[derive(Debug)]
pub struct Batch<'t, 's> {
    /// The chunk's number; `chunks.len()` names the open tail.
    chunk: usize,
    /// The columns, in schema order.
    pub columns: &'t [ColumnData],
    /// Ascending indices of the rows selected so far: live and, when the
    /// scan has prune ranges, inside one of them. The consumer may narrow
    /// it in place, or take it.
    pub selection: &'s mut Vec<usize>,
}

/// A stored relation.
///
/// Rows live in sealed [`DataChunk`]s plus one open tail builder. Deletes
/// are tombstones inside chunks. Every mutation is mirrored into the
/// [`DeltaLog`] tagged with the snapshot version supplied by the engine.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    chunks: Vec<DataChunk>,
    tail: ChunkBuilder,
    tail_rows: Vec<Row>,
    /// Tombstones of the open tail, one bit per buffered row.
    tail_deleted: BitVec,
    chunk_capacity: usize,
    delta_log: DeltaLog,
    live_rows: usize,
}

impl Table {
    /// Empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table::with_chunk_capacity(name, schema, DEFAULT_CHUNK_CAPACITY)
    }

    /// Empty table with an explicit chunk size (used by tests and by the
    /// partition-granularity experiments).
    pub fn with_chunk_capacity(
        name: impl Into<String>,
        schema: Schema,
        chunk_capacity: usize,
    ) -> Table {
        assert!(chunk_capacity > 0, "chunk capacity must be positive");
        Table {
            name: name.into(),
            tail: ChunkBuilder::new(&schema),
            tail_rows: Vec::new(),
            tail_deleted: BitVec::new(0),
            schema,
            chunks: Vec::new(),
            chunk_capacity,
            delta_log: DeltaLog::new(),
            live_rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of visible (non-deleted) rows.
    pub fn row_count(&self) -> usize {
        self.live_rows
    }

    /// Sealed chunks (excludes the open tail).
    pub fn chunks(&self) -> &[DataChunk] {
        &self.chunks
    }

    /// The change log.
    pub fn delta_log(&self) -> &DeltaLog {
        &self.delta_log
    }

    /// Mutable access to the change log (engine-internal truncation).
    pub fn delta_log_mut(&mut self) -> &mut DeltaLog {
        &mut self.delta_log
    }

    /// Insert one row at snapshot `version`. A refused row (arity or type
    /// mismatch) leaves the table untouched.
    pub fn insert(&mut self, row: Row, version: u64) -> Result<()> {
        self.append(row.clone())?;
        self.delta_log.append(version, DeltaOp::Insert, row, 1);
        Ok(())
    }

    /// Bulk load rows without logging deltas (initial load; the sketch
    /// lifecycle starts *after* the load, so the log stays empty).
    pub fn bulk_load(&mut self, rows: impl IntoIterator<Item = Row>) -> Result<()> {
        rows.into_iter().try_for_each(|row| self.append(row))
    }

    /// Store one row in the open tail, sealing it when full.
    fn append(&mut self, row: Row) -> Result<()> {
        self.tail.push(&row)?;
        self.tail_rows.push(row);
        self.tail_deleted.push(false);
        self.live_rows += 1;
        if self.tail.len() >= self.chunk_capacity {
            self.seal_tail();
        }
        Ok(())
    }

    fn seal_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut chunk = self.tail.finish();
        for i in self.tail_deleted.iter_ones() {
            chunk.delete(i);
        }
        self.chunks.push(chunk);
        self.tail_rows.clear();
        self.tail_deleted = BitVec::new(0);
    }

    /// Force-seal the open tail (done before scans that want pure
    /// chunk-at-a-time processing, e.g. after a bulk load).
    pub fn seal(&mut self) {
        self.seal_tail();
    }

    /// The one selection path (module docs): zone-map prune → column
    /// kernel → one [`Batch`] per surviving chunk and one for the open
    /// tail, in storage order. `prune` was built for this table's schema;
    /// without it every live row is selected. Returns the number of live
    /// rows examined — those of every chunk the zone maps did not rule
    /// out, plus the tail; `on_chunk_skipped` receives the live rows of
    /// each chunk that was. The first `on_batch` error aborts the scan.
    pub fn scan_batches<'t, E>(
        &'t self,
        mut prune: Option<&mut PruneRanges<'_>>,
        mut on_batch: impl FnMut(Batch<'t, '_>) -> std::result::Result<(), E>,
        mut on_chunk_skipped: impl FnMut(usize),
    ) -> std::result::Result<usize, E> {
        let mut examined = 0;
        let mut selection = Vec::new();
        for (chunk_no, chunk) in self.chunks.iter().enumerate() {
            selection.clear();
            if !chunk.select(prune.as_deref_mut(), &mut selection) {
                on_chunk_skipped(chunk.live_rows());
                continue;
            }
            examined += chunk.live_rows();
            on_batch(Batch {
                chunk: chunk_no,
                columns: chunk.columns(),
                selection: &mut selection,
            })?;
        }
        // The open tail has no zone map: the kernel runs over the
        // builder's columns with every range active.
        selection.clear();
        let tombstones = Some(&self.tail_deleted);
        match prune {
            None => select_live(self.tail.len(), tombstones, &mut selection),
            Some(ranges) => {
                ranges.narrow(|_, _| true);
                self.tail.columns()[ranges.column()].select_ranges(
                    ranges,
                    tombstones,
                    &mut selection,
                );
            }
        }
        examined += self.tail.len() - self.tail_deleted.count_ones();
        on_batch(Batch {
            chunk: self.chunks.len(),
            columns: self.tail.columns(),
            selection: &mut selection,
        })?;
        Ok(examined)
    }

    /// The row adapter over [`Table::scan_batches`]: gather each selected
    /// row, decide it with the residual `pred`, and call `on_hit` with
    /// every row that passes, in storage order. `prune` ranges are
    /// inclusive and over-approximate `pred`. The first `pred` error
    /// aborts the scan.
    fn select<E>(
        &self,
        prune: Option<(usize, &[ValueRange])>,
        mut pred: impl FnMut(&Row) -> std::result::Result<bool, E>,
        mut on_hit: impl FnMut(Slot, Row),
        on_chunk_skipped: impl FnMut(usize),
    ) -> std::result::Result<usize, E> {
        let mut prune = prune.map(|(column, ranges)| {
            PruneRanges::inclusive(column, self.schema.fields()[column].dtype, ranges)
        });
        self.scan_batches(
            prune.as_mut(),
            |batch| {
                let chunk = batch.chunk;
                for &idx in batch.selection.iter() {
                    // The open tail keeps its rows materialized.
                    let row = match self.chunks.get(chunk) {
                        Some(sealed) => sealed.row(idx),
                        None => self.tail_rows[idx].clone(),
                    };
                    if pred(&row)? {
                        on_hit(Slot { chunk, idx }, row);
                    }
                }
                Ok(())
            },
            on_chunk_skipped,
        )
    }

    /// Scan live rows, restricted to `column ∈ ranges` when `prune` is
    /// given. Each element of `ranges` is an inclusive
    /// `(Option<lo>, Option<hi>)` pair (matches the disjunctive
    /// `BETWEEN ... OR BETWEEN ...` rewrite of paper §1).
    ///
    /// Contract: a row whose `column` value lies outside every range (or is
    /// NULL) is **never delivered** — chunks are skipped by zone map, rows
    /// inside surviving chunks by the column kernel — and every other live
    /// row is. The ranges over-approximate the caller's predicate, so
    /// callers still apply the full predicate to what they receive.
    ///
    /// `on_chunk_skipped` is invoked with the live-row count of each chunk
    /// pruned whole, so callers can report skipping effectiveness. Returns
    /// the number of live rows examined (rows of surviving chunks and the
    /// open tail): examined + skipped = [`Table::row_count`].
    pub fn scan(
        &self,
        prune: Option<(usize, &[ValueRange])>,
        mut on_row: impl FnMut(Row),
        on_chunk_skipped: impl FnMut(usize),
    ) -> usize {
        let all = |_: &Row| Ok::<bool, Infallible>(true);
        match self.select(prune, all, |_, row| on_row(row), on_chunk_skipped) {
            Ok(examined) => examined,
            Err(never) => match never {},
        }
    }

    /// [`Table::scan`] fused with the caller's filter: `pred` runs inside
    /// the scan on each row the prune ranges let through, and only rows it
    /// accepts are delivered, so no bag of non-qualifying rows is ever
    /// built. `pred` must be the *full* predicate. Its first error aborts
    /// the scan.
    pub fn scan_where<E>(
        &self,
        prune: Option<(usize, &[ValueRange])>,
        pred: impl FnMut(&Row) -> std::result::Result<bool, E>,
        mut on_row: impl FnMut(Row),
        on_chunk_skipped: impl FnMut(usize),
    ) -> std::result::Result<usize, E> {
        self.select(prune, pred, |_, row| on_row(row), on_chunk_skipped)
    }

    /// The live values of one column in storage order, without
    /// materializing whole rows (statistics and sampling read one cell
    /// per row).
    pub fn column_values(&self, column: usize) -> impl Iterator<Item = Value> + '_ {
        let tail = self
            .tail_rows
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.tail_deleted.get(*i))
            .map(move |(_, row)| row[column].clone());
        self.chunks
            .iter()
            .flat_map(move |chunk| chunk.live_values(column))
            .chain(tail)
    }

    /// Delete the live rows that lie in a `prune` range and satisfy
    /// `pred`, logging them at `version` in storage order. Returns the
    /// deleted rows.
    ///
    /// Same contract as [`Table::scan`]: rows outside every prune range
    /// are never examined, so `prune` must over-approximate `pred`, and
    /// `pred` is still the full predicate. Selection is read-only and
    /// completes before the first tombstone is set: when `pred` fails, the
    /// table, its row count and its delta log are untouched.
    pub fn delete_where<E>(
        &mut self,
        version: u64,
        prune: Option<(usize, &[ValueRange])>,
        pred: impl FnMut(&Row) -> std::result::Result<bool, E>,
    ) -> std::result::Result<Vec<Row>, E> {
        let mut victims = Vec::new();
        self.select(prune, pred, |slot, row| victims.push((slot, row)), |_| {})?;
        Ok(self.retire(version, victims))
    }

    /// Replace every live row that lies in a `prune` range and satisfies
    /// `pred` by `replace(row)`. In the delta model (paper §4.2) that is
    /// the deletes of all old rows followed by the inserts of all new
    /// ones, logged in that order at `version`. Returns the number of rows
    /// replaced.
    ///
    /// Prune contract as for [`Table::delete_where`]. Victims are selected
    /// and every replacement is computed and checked against the schema
    /// before anything changes: an error from `pred`, from `replace` or
    /// from the check leaves the table, its row count and its delta log
    /// untouched.
    pub fn update_where<E: From<crate::StorageError>>(
        &mut self,
        version: u64,
        prune: Option<(usize, &[ValueRange])>,
        pred: impl FnMut(&Row) -> std::result::Result<bool, E>,
        mut replace: impl FnMut(&Row) -> std::result::Result<Row, E>,
    ) -> std::result::Result<usize, E> {
        let mut victims = Vec::new();
        self.select(prune, pred, |slot, row| victims.push((slot, row)), |_| {})?;
        let mut replacements = Vec::with_capacity(victims.len());
        for (_, old) in &victims {
            let new = replace(old)?;
            self.tail.check(&new)?;
            replacements.push(new);
        }
        let replaced = self.retire(version, victims).len();
        for row in replacements {
            self.insert(row, version)
                .expect("replacement rows were checked against the schema");
        }
        Ok(replaced)
    }

    /// Tombstone the selected rows and log their deletion at `version`.
    fn retire(&mut self, version: u64, victims: Vec<(Slot, Row)>) -> Vec<Row> {
        self.live_rows -= victims.len();
        victims
            .into_iter()
            .map(|(slot, row)| {
                match self.chunks.get_mut(slot.chunk) {
                    Some(chunk) => {
                        chunk.delete(slot.idx);
                    }
                    None => self.tail_deleted.set(slot.idx, true),
                }
                self.delta_log
                    .append(version, DeltaOp::Delete, row.clone(), 1);
                row
            })
            .collect()
    }

    /// Collect all live rows (convenience; prefer [`Table::scan`] in hot
    /// paths).
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.live_rows);
        self.scan(None, |r| out.push(r), |_| {});
        out
    }

    /// Rows that are tombstoned but still occupy chunk space.
    pub fn dead_rows(&self) -> usize {
        let chunk_dead: usize = self.chunks.iter().map(|c| c.len() - c.live_rows()).sum();
        chunk_dead + self.tail_deleted.count_ones()
    }

    /// Rewrite the storage without tombstoned rows (VACUUM). Physical
    /// reorganization only: the delta log and snapshot versions are
    /// untouched. Returns the number of reclaimed row slots.
    pub fn compact(&mut self) -> usize {
        let dead = self.dead_rows();
        if dead == 0 {
            return 0;
        }
        let live = self.rows();
        self.chunks.clear();
        self.tail = ChunkBuilder::new(&self.schema);
        self.tail_rows.clear();
        self.tail_deleted = BitVec::new(0);
        self.live_rows = 0;
        self.bulk_load(live)
            .expect("re-loading rows of matching schema");
        self.seal();
        dead
    }

    /// Approximate heap footprint.
    pub fn heap_size(&self) -> usize {
        self.chunks.iter().map(DataChunk::heap_size).sum::<usize>()
            + self.tail_rows.iter().map(Row::heap_size).sum::<usize>()
            + self.delta_log.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Field;
    use crate::value::DataType;

    /// Unpruned, infallible delete: the naive form most tests want.
    fn delete_all_where(t: &mut Table, version: u64, pred: impl Fn(&Row) -> bool) -> Vec<Row> {
        match t.delete_where(version, None, |r| Ok::<_, Infallible>(pred(r))) {
            Ok(rows) => rows,
            Err(never) => match never {},
        }
    }

    fn sales_schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("price", DataType::Int),
        ])
    }

    #[test]
    fn batches_kept_past_the_scan_read_back_the_same_cells() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        // Two sealed chunks, one with a tombstone, and the open tail.
        delete_all_where(&mut t, 2, |r| r[0] == Value::Int(2));
        let mut kept = Vec::new();
        let scan = t.scan_batches(
            None,
            |batch| {
                kept.push((batch.columns, std::mem::take(batch.selection)));
                Ok::<_, Infallible>(())
            },
            |_| {},
        );
        assert!(matches!(scan, Ok(4)));
        let cells: Vec<Row> = (kept.iter())
            .flat_map(|(columns, selection)| {
                let row = move |&i: &usize| columns.iter().map(|c| c.get(i)).collect();
                selection.iter().map(row)
            })
            .collect();
        assert_eq!(cells, t.rows());
        assert_eq!(cells.len(), 4);
    }

    #[test]
    fn insert_and_scan() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.chunks().len(), 2); // 2 sealed chunks + tail of 1
        assert_eq!(t.rows().len(), 5);
        assert_eq!(t.delta_log().len(), 5);
    }

    #[test]
    fn delete_where_logs_and_tombstones() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..4 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let deleted = delete_all_where(&mut t, 2, |r| r[1] >= Value::Int(200));
        assert_eq!(deleted.len(), 2);
        assert_eq!(t.row_count(), 2);
        let deletes: Vec<_> = t
            .delta_log()
            .since(1)
            .iter()
            .filter(|r| r.op == DeltaOp::Delete)
            .collect();
        assert_eq!(deletes.len(), 2);
    }

    #[test]
    fn zone_map_scan_prunes_chunks() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        // Chunk 0: prices 0,100 — chunk 1: 200,300 — chunk 2: 400,500.
        for i in 0..6 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        t.seal();
        let ranges = vec![(Some(Value::Int(350)), Some(Value::Int(600)))];
        let mut seen = Vec::new();
        let mut skipped = 0usize;
        t.scan(Some((1, &ranges)), |r| seen.push(r), |n| skipped += n);
        // Chunks 0 and 1 pruned, chunk 2 scanned.
        assert_eq!(skipped, 4);
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn delete_in_unsealed_tail() {
        let mut t = Table::new("s", sales_schema());
        t.insert(row![1, 10], 1).unwrap();
        t.insert(row![2, 20], 1).unwrap();
        let d = delete_all_where(&mut t, 2, |r| r[0] == Value::Int(1));
        assert_eq!(d.len(), 1);
        assert_eq!(t.rows(), vec![row![2, 20]]);
    }

    #[test]
    fn tombstones_survive_sealing() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 4);
        t.insert(row![1, 10], 1).unwrap();
        t.insert(row![2, 20], 1).unwrap();
        delete_all_where(&mut t, 2, |r| r[0] == Value::Int(1));
        t.insert(row![3, 30], 3).unwrap();
        t.insert(row![4, 40], 3).unwrap(); // seals the chunk
        assert_eq!(t.rows(), vec![row![2, 20], row![3, 30], row![4, 40]]);
    }

    #[test]
    fn compact_reclaims_tombstones() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..6 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        delete_all_where(&mut t, 2, |r| r[0] < Value::Int(3));
        assert_eq!(t.dead_rows(), 3);
        let before = t.rows();
        let reclaimed = t.compact();
        assert_eq!(reclaimed, 3);
        assert_eq!(t.dead_rows(), 0);
        let mut after = t.rows();
        let mut b = before.clone();
        after.sort();
        b.sort();
        assert_eq!(after, b);
        // Delta log unaffected by physical compaction.
        assert_eq!(t.delta_log().len(), 9);
        // Idempotent.
        assert_eq!(t.compact(), 0);
    }

    #[test]
    fn bulk_load_skips_delta_log() {
        let mut t = Table::new("s", sales_schema());
        t.bulk_load((0..10).map(|i| row![i, i])).unwrap();
        assert_eq!(t.row_count(), 10);
        assert!(t.delta_log().is_empty());
    }

    #[test]
    fn pruned_scan_selects_rows_inside_surviving_chunks() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..7 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        // Chunks (0,100) (200,300) (400,500); (600) sits in the open tail.
        let ranges = vec![
            (Some(Value::Int(450)), Some(Value::Int(550))),
            (Some(Value::Int(600)), None),
        ];
        let mut seen = Vec::new();
        let mut skipped = 0usize;
        let examined = t.scan(Some((1, &ranges)), |r| seen.push(r), |n| skipped += n);
        // 400 shares a chunk with 500 but lies outside every range.
        assert_eq!(seen, vec![row![5, 500], row![6, 600]]);
        assert_eq!((examined, skipped), (3, 4));
        assert_eq!(examined + skipped, t.row_count());
    }

    #[test]
    fn fused_filter_delivers_hits_only_and_propagates_errors() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let mut hits = Vec::new();
        let examined = t
            .scan_where(
                None,
                |r| Ok::<_, String>(r[0] >= Value::Int(3)),
                |r| hits.push(r),
                |_| {},
            )
            .unwrap();
        assert_eq!(hits, vec![row![3, 300], row![4, 400]]);
        assert_eq!(examined, 5);
        let err = t.scan_where(None, |_| Err("boom"), |_| {}, |_| {});
        assert_eq!(err, Err("boom"));
    }

    #[test]
    fn column_values_skip_tombstones_in_chunks_and_tail() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        delete_all_where(&mut t, 2, |r| {
            r[0] == Value::Int(1) || r[0] == Value::Int(4)
        });
        t.insert(row![5, 500], 3).unwrap();
        let prices: Vec<Value> = t.column_values(1).collect();
        assert_eq!(prices, [0, 200, 300, 500].map(Value::Int));
    }

    #[test]
    fn pruned_delete_logs_victims_in_storage_order() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let ranges = vec![(Some(Value::Int(100)), None)];
        let deleted = t
            .delete_where(2, Some((1, &ranges)), |r| {
                Ok::<_, Infallible>(r[0] != Value::Int(2))
            })
            .unwrap();
        assert_eq!(deleted, vec![row![1, 100], row![3, 300], row![4, 400]]);
        assert_eq!(t.rows(), vec![row![0, 0], row![2, 200]]);
        let logged: Vec<_> = t.delta_log().since(1).iter().map(|r| &r.row).collect();
        assert_eq!(logged, deleted.iter().collect::<Vec<_>>());
    }

    #[test]
    fn failed_delete_or_update_changes_nothing() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..5 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let fails_late = |r: &Row| {
            if r[0] == Value::Int(4) {
                Err(crate::StorageError::UnknownColumn("late".into()))
            } else {
                Ok(true)
            }
        };
        assert!(t.delete_where(2, None, fails_late).is_err());
        assert!(t
            .update_where(2, None, fails_late, |r| Ok(r.clone()))
            .is_err());
        // A replacement that computes or type-checks badly on the last row.
        let all = |_: &Row| Ok::<_, crate::StorageError>(true);
        let bad_value = |r: &Row| {
            Ok(if r[0] == Value::Int(4) {
                row![4, "not a price"]
            } else {
                r.clone()
            })
        };
        assert!(matches!(
            t.update_where(2, None, all, bad_value),
            Err(crate::StorageError::TypeMismatch { .. })
        ));
        assert_eq!(t.row_count(), 5);
        assert_eq!(t.dead_rows(), 0);
        assert_eq!(t.delta_log().len(), 5);
        assert_eq!(t.rows().len(), 5);
    }

    #[test]
    fn update_logs_all_deletes_then_all_inserts() {
        let mut t = Table::with_chunk_capacity("s", sales_schema(), 2);
        for i in 0..3 {
            t.insert(row![i, i * 100], 1).unwrap();
        }
        let replaced = t
            .update_where(
                2,
                None,
                |r| Ok::<_, crate::StorageError>(r[0] >= Value::Int(1)),
                |r| Ok(row![r[0].clone(), 7]),
            )
            .unwrap();
        assert_eq!(replaced, 2);
        let log: Vec<_> = t
            .delta_log()
            .since(1)
            .iter()
            .map(|r| (r.op, r.row.clone()))
            .collect();
        assert_eq!(
            log,
            vec![
                (DeltaOp::Delete, row![1, 100]),
                (DeltaOp::Delete, row![2, 200]),
                (DeltaOp::Insert, row![1, 7]),
                (DeltaOp::Insert, row![2, 7]),
            ]
        );
        assert_eq!(t.rows(), vec![row![0, 0], row![1, 7], row![2, 7]]);
    }

    #[test]
    fn refused_insert_leaves_the_tail_consistent() {
        let mut t = Table::new("s", sales_schema());
        // The second value is refused after the first column was accepted.
        assert!(t.insert(row![1, "x"], 1).is_err());
        assert!(t.insert(row![1], 1).is_err());
        t.insert(row![2, 20], 1).unwrap();
        t.seal();
        assert_eq!(t.rows(), vec![row![2, 20]]);
        assert_eq!(t.delta_log().len(), 1);
    }
}
