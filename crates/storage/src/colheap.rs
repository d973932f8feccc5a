//! Columnar heap files: append-only files of PAX-style [`ColPage`]s, the
//! one table layout.
//!
//! Bulk loading keeps an open tail-page builder so appends are O(1)
//! amortized per tuple, and the file flushes full pages to the simulated
//! disk as immutable columnar blocks. Readers fetch pages by number through the buffer pool
//! and materialize them with [`ColPage::materialize`] — no row codec on the
//! read path.

use crate::colpage::{ColPage, ColPageBuilder};
use crate::disk::{FileId, SimDisk};
use parking_lot::Mutex;
use qpipe_common::{QResult, Schema, Tuple};
use std::sync::Arc;

/// Record identifier: page number + row index within the page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: u64,
    pub slot: u16,
}

/// An append-only file of columnar pages holding schema-conformant tuples.
pub struct ColHeapFile {
    disk: Arc<SimDisk>,
    file: FileId,
    schema: Schema,
    tail: Mutex<TailState>,
}

impl std::fmt::Debug for ColHeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColHeapFile")
            .field("file", &self.file)
            .field("tuples", &self.num_tuples())
            .finish_non_exhaustive()
    }
}

struct TailState {
    builder: ColPageBuilder,
    /// Block number the tail page will occupy once flushed.
    block_no: u64,
    tuple_count: u64,
}

impl ColHeapFile {
    /// Create a new columnar heap file named `name` on `disk`.
    pub fn create(disk: Arc<SimDisk>, name: &str, schema: Schema) -> QResult<Self> {
        let file = disk.create_file(name)?;
        Ok(Self {
            disk,
            file,
            tail: Mutex::new(TailState {
                builder: ColPageBuilder::new(&schema),
                block_no: 0,
                tuple_count: 0,
            }),
            schema,
        })
    }

    /// Open an existing file as a columnar heap (catalog restart path).
    pub fn open(disk: Arc<SimDisk>, file: FileId, schema: Schema) -> QResult<Self> {
        let blocks = disk.num_blocks(file)?;
        let mut tuples = 0;
        for b in 0..blocks {
            tuples += disk.read_block(file, b)?.num_records() as u64;
        }
        Ok(Self {
            disk,
            file,
            tail: Mutex::new(TailState {
                builder: ColPageBuilder::new(&schema),
                block_no: blocks,
                tuple_count: tuples,
            }),
            schema,
        })
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Append one tuple, returning its RID (`slot` is the row index within
    /// the columnar page). The tuple lands on disk once the page fills or
    /// [`flush`](Self::flush) is called.
    pub fn append(&self, tuple: &Tuple) -> QResult<Rid> {
        let mut tail = self.tail.lock();
        // Reject incurably-bad tuples (wrong shape, single-row overflow)
        // BEFORE rotating the tail page, so a failed append never leaves an
        // undersized page on disk as a side effect.
        tail.builder.validate(tuple)?;
        if !tail.builder.fits(tuple) {
            let full: ColPage = tail.builder.finish();
            self.disk.append_block(self.file, full)?;
            tail.block_no += 1;
        }
        let slot = tail.builder.append(tuple)?;
        tail.tuple_count += 1;
        Ok(Rid { page: tail.block_no, slot })
    }

    /// Flush the tail page to disk (no-op when empty).
    pub fn flush(&self) -> QResult<()> {
        let mut tail = self.tail.lock();
        if tail.builder.num_rows() > 0 {
            let page = tail.builder.finish();
            self.disk.append_block(self.file, page)?;
            tail.block_no += 1;
        }
        Ok(())
    }

    /// Number of flushed pages (call [`flush`](Self::flush) first when loading).
    pub fn num_pages(&self) -> QResult<u64> {
        self.disk.num_blocks(self.file)
    }

    /// Total tuples appended.
    pub fn num_tuples(&self) -> u64 {
        self.tail.lock().tuple_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use qpipe_common::{DataType, Metrics, Value};

    fn schema() -> Schema {
        Schema::of(&[("k", DataType::Int), ("v", DataType::Str)])
    }

    fn make() -> (Arc<SimDisk>, ColHeapFile) {
        let disk = SimDisk::new(DiskConfig::instant(), Metrics::new());
        let hf = ColHeapFile::create(disk.clone(), "t", schema()).unwrap();
        (disk, hf)
    }

    fn row(i: i64) -> Tuple {
        vec![Value::Int(i), Value::str(format!("payload-{:03}", i % 40))]
    }

    #[test]
    fn append_flush_read_back() {
        let (disk, hf) = make();
        let n = 3000;
        for i in 0..n {
            hf.append(&row(i)).unwrap();
        }
        hf.flush().unwrap();
        assert_eq!(hf.num_tuples(), n as u64);
        assert!(hf.num_pages().unwrap() > 1, "should span pages");
        let mut seen = 0;
        for b in 0..hf.num_pages().unwrap() {
            let page = disk.read_block(hf.file_id(), b).unwrap();
            for t in page.rows().unwrap() {
                assert_eq!(t, row(seen));
                seen += 1;
            }
        }
        assert_eq!(seen, n);
    }

    #[test]
    fn rids_are_monotone() {
        let (_disk, hf) = make();
        let mut last = Rid { page: 0, slot: 0 };
        for i in 0..5000 {
            let rid = hf.append(&row(i)).unwrap();
            if i > 0 {
                assert!(rid > last, "rid must increase: {rid:?} after {last:?}");
            }
            last = rid;
        }
        assert!(last.page > 0, "should have spilled to multiple pages");
    }

    #[test]
    fn flush_idempotent() {
        let (_disk, hf) = make();
        hf.append(&row(1)).unwrap();
        hf.flush().unwrap();
        let pages = hf.num_pages().unwrap();
        hf.flush().unwrap();
        assert_eq!(hf.num_pages().unwrap(), pages);
    }

    #[test]
    fn open_recounts_tuples() {
        let (disk, hf) = make();
        for i in 0..1000 {
            hf.append(&row(i)).unwrap();
        }
        hf.flush().unwrap();
        let reopened = ColHeapFile::open(disk, hf.file_id(), schema()).unwrap();
        assert_eq!(reopened.num_tuples(), 1000);
    }

    #[test]
    fn nonconformant_tuple_rejected() {
        let (_disk, hf) = make();
        assert!(hf.append(&vec![Value::str("x"), Value::str("y")]).is_err());
        assert!(hf.append(&vec![Value::Int(1)]).is_err());
        let huge = vec![Value::Int(1), Value::str("x".repeat(9000))];
        assert!(hf.append(&huge).is_err());
        // The file still works after rejected appends.
        hf.append(&row(1)).unwrap();
        assert_eq!(hf.num_tuples(), 1);
    }

    #[test]
    fn rejected_append_does_not_flush_partial_tail() {
        let (_disk, hf) = make();
        for i in 0..50 {
            hf.append(&row(i)).unwrap();
        }
        // Incurable tuples must fail WITHOUT rotating the buffered tail page
        // to disk (no fragmentation side effect from a failed append).
        assert!(hf.append(&vec![Value::str("bad"), Value::str("shape")]).is_err());
        assert!(hf.append(&vec![Value::Int(1), Value::str("x".repeat(9000))]).is_err());
        assert_eq!(hf.num_pages().unwrap(), 0, "tail stays buffered");
        hf.flush().unwrap();
        assert_eq!(hf.num_pages().unwrap(), 1, "all 50 rows on one page");
    }
}
