//! Table providers.

use parking_lot::RwLock;
use quokka_batch::codec::{encode_partition, Bytes};
use quokka_batch::{Batch, Schema};
use quokka_common::{QuokkaError, Result};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// A source of base tables.
///
/// Both the reference executor and the distributed engine resolve `Scan`
/// nodes through this trait; the distributed engine additionally splits each
/// table into input partitions served from the durable object store.
pub trait Catalog: Send + Sync {
    /// Schema of the named table.
    fn table_schema(&self, name: &str) -> Result<Schema>;
    /// All data of the named table, as batches.
    fn table_batches(&self, name: &str) -> Result<Vec<Batch>>;
    /// The named table as durable-store split objects: one
    /// [`encode_partition`] payload per batch, in batch order. The engine
    /// stages these bytes into every query's durable store, so an
    /// implementation should encode each table once and hand out the same
    /// `Arc` until the table changes.
    fn table_splits(&self, name: &str) -> Result<Arc<[Bytes]>>;
    /// Names of every registered table.
    fn table_names(&self) -> Vec<String>;
    /// Total number of rows in the named table.
    fn table_rows(&self, name: &str) -> Result<usize> {
        Ok(self.table_batches(name)?.iter().map(Batch::num_rows).sum())
    }
    /// Approximate in-memory footprint of the named table, in bytes. Used
    /// by admission control to estimate a query's memory demand from the
    /// tables it reads.
    fn table_bytes(&self, name: &str) -> Result<u64> {
        Ok(self.table_batches(name)?.iter().map(|b| b.byte_size() as u64).sum())
    }
    /// A counter that advances whenever the set of tables (or any table's
    /// contents) changes. Plan caches key on it: a bumped generation means
    /// every previously planned statement is stale. The default (always 0)
    /// suits immutable catalogs.
    fn generation(&self) -> u64 {
        0
    }
}

/// One registered table.
#[derive(Debug)]
struct TableEntry {
    schema: Schema,
    batches: Vec<Batch>,
    /// The batches' split objects, encoded on first use. Living in the
    /// entry means re-registering the table drops them with the old data.
    splits: OnceLock<Arc<[Bytes]>>,
}

/// A simple in-memory catalog.
#[derive(Debug, Default)]
pub struct MemoryCatalog {
    tables: RwLock<BTreeMap<String, TableEntry>>,
    /// Bumped on every registration so dependent caches can detect change.
    generation: std::sync::atomic::AtomicU64,
}

impl MemoryCatalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table, advancing the catalog generation.
    pub fn register(&self, name: impl Into<String>, schema: Schema, batches: Vec<Batch>) {
        let mut tables = self.tables.write();
        tables.insert(name.into(), TableEntry { schema, batches, splits: OnceLock::new() });
        // Bumped under the write lock so a reader never observes new data
        // with an old generation.
        self.generation.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }

    /// Apply `f` to the named table under the read lock.
    fn with_table<T>(&self, name: &str, f: impl FnOnce(&TableEntry) -> T) -> Result<T> {
        self.tables
            .read()
            .get(name)
            .map(f)
            .ok_or_else(|| QuokkaError::PlanError(format!("unknown table '{name}'")))
    }
}

impl Catalog for MemoryCatalog {
    fn table_schema(&self, name: &str) -> Result<Schema> {
        self.with_table(name, |t| t.schema.clone())
    }

    fn table_batches(&self, name: &str) -> Result<Vec<Batch>> {
        self.with_table(name, |t| t.batches.clone())
    }

    /// Encoded at most once per registration; concurrent first callers
    /// block on the one encode rather than repeating it.
    fn table_splits(&self, name: &str) -> Result<Arc<[Bytes]>> {
        self.with_table(name, |t| {
            Arc::clone(t.splits.get_or_init(|| {
                t.batches.iter().map(|b| encode_partition(std::slice::from_ref(b))).collect()
            }))
        })
    }

    fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Counted under the read lock without cloning the batches (the
    /// optimizer asks on every plan-cache miss).
    fn table_rows(&self, name: &str) -> Result<usize> {
        self.with_table(name, |t| t.batches.iter().map(Batch::num_rows).sum())
    }

    /// Computed under the read lock without cloning the batches (the
    /// default implementation would deep-copy the whole table; admission
    /// control calls this on every query). Measures the *encoded* footprint:
    /// a dictionary/bit-packed table admits more concurrent queries than its
    /// plain decoding would.
    fn table_bytes(&self, name: &str) -> Result<u64> {
        self.with_table(name, |t| t.batches.iter().map(|b| b.memory_bytes() as u64).sum())
    }

    fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quokka_batch::{Column, DataType};

    #[test]
    fn register_and_lookup() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema.clone(), vec![batch.clone(), batch]);
        assert_eq!(catalog.table_schema("t").unwrap(), schema);
        assert_eq!(catalog.table_batches("t").unwrap().len(), 2);
        assert_eq!(catalog.table_rows("t").unwrap(), 6);
        assert_eq!(catalog.table_names(), vec!["t".to_string()]);
        assert!(catalog.table_schema("missing").is_err());
        assert!(catalog.table_batches("missing").is_err());
        assert!(catalog.table_rows("missing").is_err());
        assert!(catalog.table_splits("missing").is_err());
    }

    #[test]
    fn table_splits_encode_once_per_registration() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema.clone(), vec![batch.clone(), batch.slice(0, 1)]);
        let first = catalog.table_splits("t").unwrap();
        assert_eq!(first.len(), 2);
        assert_eq!(first[1], encode_partition(&[batch.slice(0, 1)]));
        assert!(Arc::ptr_eq(&first, &catalog.table_splits("t").unwrap()));

        // Re-registering drops the cached splits; a holder of the old `Arc`
        // (an in-flight query) keeps its bytes.
        let other = Batch::try_new(schema.clone(), vec![Column::Int64(vec![7])]).unwrap();
        catalog.register("t", schema, vec![other.clone()]);
        let second = catalog.table_splits("t").unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(&second[..], &[encode_partition(&[other])]);
        assert_eq!(first.len(), 2);
    }

    #[test]
    fn generation_advances_on_registration_and_bytes_are_estimated() {
        let catalog = MemoryCatalog::new();
        assert_eq!(catalog.generation(), 0);
        let schema = Schema::from_pairs(&[("id", DataType::Int64)]);
        let batch = Batch::try_new(schema.clone(), vec![Column::Int64(vec![1, 2, 3])]).unwrap();
        catalog.register("t", schema.clone(), vec![batch.clone()]);
        assert_eq!(catalog.generation(), 1);
        assert_eq!(catalog.table_bytes("t").unwrap(), batch.byte_size() as u64);
        assert!(catalog.table_bytes("missing").is_err());
        // Re-registering the *same* name still bumps: contents may differ.
        catalog.register("t", schema, vec![batch]);
        assert_eq!(catalog.generation(), 2);
    }

    #[test]
    fn table_bytes_reflects_encoded_footprint() {
        let catalog = MemoryCatalog::new();
        let schema = Schema::from_pairs(&[("mode", DataType::Utf8)]);
        let plain = Column::Utf8(
            (0..256).map(|i| ["TRUCK", "AIRMAIL", "RAIL"][i % 3].to_string()).collect(),
        );
        let encoded = plain.encode_auto();
        assert!(encoded.is_encoded(), "repetitive strings must dictionary-encode");
        let batch = Batch::try_new(schema.clone(), vec![encoded]).unwrap();
        catalog.register("t", schema, vec![batch.clone()]);
        let bytes = catalog.table_bytes("t").unwrap();
        assert_eq!(bytes, batch.memory_bytes() as u64);
        assert!(
            bytes < batch.byte_size() as u64,
            "admission estimate should see the encoded footprint ({bytes} vs {})",
            batch.byte_size()
        );
    }
}
