//! A transactional, versioned key-value store.
//!
//! This is the substrate under the typed GCS tables. It intentionally mimics
//! the subset of Redis semantics the paper relies on:
//!
//! * values are opaque byte strings addressed by string keys;
//! * a *transaction* groups reads (with optional version preconditions) and
//!   writes; the write set is applied atomically, and the transaction aborts
//!   if any watched key changed since it was read (optimistic concurrency,
//!   like `WATCH`/`MULTI`/`EXEC`);
//! * prefix scans support listing, e.g. "all committed lineage of channel X";
//! * an optional per-operation latency models the network round trip to the
//!   head node, so GCS traffic shows up in the cost model;
//! * every write through the store (`put`, `delete`, a committed
//!   transaction) bumps the store's [`Wakeup`], so threads blocked on it
//!   re-scan the moment the state they wait on may have changed.
//!
//! The store has two backends behind one API. [`KvStore::new`] is the
//! authoritative in-memory store the driver owns. [`KvStore::remote`] is a
//! thin proxy used by worker processes in process mode: every operation
//! becomes one RPC to the driver's control server (see
//! [`remote`]), and transactions ship their read/write/delete
//! sets for server-side validation — exactly how a TaskManager talks to the
//! head-node Redis in the paper's deployment. The typed tables layer never
//! knows which backend it is running on.
//!
//! Remote semantics note: like a Ray worker that loses its GCS connection, a
//! proxy whose driver becomes unreachable is dead — infallible accessors
//! (`get`, `put`, ...) panic on connection loss, which tears down the worker
//! process and lets the driver-side failure detector reconcile it. Only the
//! transaction commit path reports errors, because aborts are part of its
//! contract.

use crate::remote::{self, ControlClient};
use bytes::Bytes;
use parking_lot::Mutex;
use quokka_common::{QuokkaError, Result, Wakeup};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Monotonically increasing version of one key. Version 0 means "never
/// written".
pub type Version = u64;

#[derive(Debug, Clone)]
struct Entry {
    value: Bytes,
    version: Version,
}

#[derive(Debug)]
enum Backend {
    /// The authoritative store: an in-memory versioned map.
    Local(Mutex<BTreeMap<String, Entry>>),
    /// A proxy: every operation is an RPC against the driver's store.
    Remote(Arc<ControlClient>),
}

/// The key-value store. Cheap to share: wrap it in an `Arc`.
#[derive(Debug)]
pub struct KvStore {
    backend: Backend,
    /// Total number of committed transactions (including single-op writes).
    committed: AtomicU64,
    /// Total number of aborted transactions.
    aborted: AtomicU64,
    /// Latency charged per GCS round trip (scaled sleep); zero disables it.
    /// Remote stores pay the real network round trip instead.
    op_latency: Duration,
    /// Notified after every write this store applies or forwards. On the
    /// driver that includes workers' commits arriving over the control
    /// connection; a remote proxy only sees its own process's writes.
    wakeup: Arc<Wakeup>,
}

impl Default for KvStore {
    fn default() -> Self {
        Self::new(Duration::ZERO)
    }
}

/// What a remote proxy does when the driver is unreachable: die loudly.
fn gcs_lost<T>(err: QuokkaError) -> T {
    panic!("GCS connection lost: {err}");
}

impl KvStore {
    /// Create an authoritative local store charging `op_latency` per
    /// operation (use `Duration::ZERO` to disable the simulated round trip).
    pub fn new(op_latency: Duration) -> Self {
        KvStore {
            backend: Backend::Local(Mutex::new(BTreeMap::new())),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            op_latency,
            wakeup: Arc::default(),
        }
    }

    /// Create a proxy store that forwards every operation to the driver's
    /// control server. No simulated latency: the wire is real here.
    pub fn remote(client: Arc<ControlClient>) -> Self {
        KvStore {
            backend: Backend::Remote(client),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            op_latency: Duration::ZERO,
            wakeup: Arc::default(),
        }
    }

    /// The wakeup every write through this store notifies.
    pub fn wakeup(&self) -> &Arc<Wakeup> {
        &self.wakeup
    }

    /// Whether this store is a remote proxy.
    pub fn is_remote(&self) -> bool {
        matches!(self.backend, Backend::Remote(_))
    }

    fn charge(&self) {
        if !self.op_latency.is_zero() {
            std::thread::sleep(self.op_latency);
        }
    }

    /// Read one key (value and version). Returns `None` if absent.
    pub fn get(&self, key: &str) -> Option<(Bytes, Version)> {
        self.charge();
        match &self.backend {
            Backend::Local(map) => map.lock().get(key).map(|e| (e.value.clone(), e.version)),
            Backend::Remote(c) => remote::remote_get(c, key).unwrap_or_else(gcs_lost),
        }
    }

    /// Read only the value of one key.
    pub fn get_value(&self, key: &str) -> Option<Bytes> {
        self.get(key).map(|(v, _)| v)
    }

    /// Whether a key exists.
    pub fn contains(&self, key: &str) -> bool {
        self.charge();
        match &self.backend {
            Backend::Local(map) => map.lock().contains_key(key),
            Backend::Remote(c) => remote::remote_contains(c, key).unwrap_or_else(gcs_lost),
        }
    }

    /// Unconditionally write one key (a single-operation transaction).
    pub fn put(&self, key: impl Into<String>, value: impl Into<Bytes>) {
        self.charge();
        let key = key.into();
        let value = value.into();
        match &self.backend {
            Backend::Local(map) => {
                let mut map = map.lock();
                let version = map.get(&key).map(|e| e.version).unwrap_or(0) + 1;
                map.insert(key, Entry { value, version });
            }
            Backend::Remote(c) => remote::remote_put(c, &key, &value).unwrap_or_else(gcs_lost),
        }
        self.committed.fetch_add(1, Ordering::Relaxed);
        self.wakeup.notify();
    }

    /// Unconditionally delete one key. Returns whether it existed.
    pub fn delete(&self, key: &str) -> bool {
        self.charge();
        let removed = match &self.backend {
            Backend::Local(map) => map.lock().remove(key).is_some(),
            Backend::Remote(c) => remote::remote_delete(c, key).unwrap_or_else(gcs_lost),
        };
        if removed {
            self.committed.fetch_add(1, Ordering::Relaxed);
            self.wakeup.notify();
        }
        removed
    }

    /// All `(key, value)` pairs whose key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &str) -> Vec<(String, Bytes)> {
        self.charge();
        match &self.backend {
            Backend::Local(map) => map
                .lock()
                .range(prefix.to_string()..)
                .take_while(|(k, _)| k.starts_with(prefix))
                .map(|(k, e)| (k.clone(), e.value.clone()))
                .collect(),
            Backend::Remote(c) => remote::remote_scan_prefix(c, prefix).unwrap_or_else(gcs_lost),
        }
    }

    /// Number of keys with the given prefix.
    pub fn count_prefix(&self, prefix: &str) -> usize {
        self.charge();
        match &self.backend {
            Backend::Local(map) => {
                let map = map.lock();
                map.range(prefix.to_string()..).take_while(|(k, _)| k.starts_with(prefix)).count()
            }
            Backend::Remote(c) => remote::remote_count_prefix(c, prefix).unwrap_or_else(gcs_lost),
        }
    }

    /// Begin a transaction. Reads performed through the transaction record
    /// the observed versions; the commit aborts if any of them changed.
    pub fn begin(&self) -> Transaction<'_> {
        Transaction {
            store: self,
            read_set: Vec::new(),
            write_set: Vec::new(),
            delete_set: Vec::new(),
        }
    }

    /// Run `body` inside a transaction, retrying on abort up to `retries`
    /// times. This is the convenience most engine code uses: Algorithm 1
    /// commits its lineage, removes the finished task and enqueues the next
    /// task "in a single transaction".
    pub fn with_transaction<T>(
        &self,
        retries: usize,
        mut body: impl FnMut(&mut Transaction<'_>) -> Result<T>,
    ) -> Result<T> {
        let mut attempt = 0;
        loop {
            let mut txn = self.begin();
            let out = body(&mut txn)?;
            match txn.commit() {
                Ok(()) => return Ok(out),
                Err(QuokkaError::TransactionAborted(_)) if attempt < retries => {
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Validate a read set's versions and, if none changed, apply the write
    /// and delete sets atomically. This is the commit both backends funnel
    /// into: locally it runs under the map lock; in process mode the proxy
    /// ships the sets here on the driver.
    pub fn commit_sets(
        &self,
        read_set: Vec<(String, Version)>,
        write_set: Vec<(String, Bytes)>,
        delete_set: Vec<String>,
    ) -> Result<()> {
        self.charge();
        let outcome = match &self.backend {
            Backend::Local(map) => {
                let mut map = map.lock();
                let conflict = read_set.iter().find_map(|(key, seen_version)| {
                    let current = map.get(key).map(|e| e.version).unwrap_or(0);
                    (current != *seen_version).then(|| (key.clone(), *seen_version, current))
                });
                match conflict {
                    Some((key, seen, current)) => Err(QuokkaError::TransactionAborted(format!(
                        "key '{key}' changed (saw v{seen}, now v{current})"
                    ))),
                    None => {
                        for (key, value) in write_set {
                            let version = map.get(&key).map(|e| e.version).unwrap_or(0) + 1;
                            map.insert(key, Entry { value, version });
                        }
                        for key in delete_set {
                            map.remove(&key);
                        }
                        Ok(())
                    }
                }
            }
            Backend::Remote(c) => remote::remote_commit(c, &read_set, &write_set, &delete_set),
        };
        match &outcome {
            Ok(()) => {
                self.committed.fetch_add(1, Ordering::Relaxed);
                self.wakeup.notify();
            }
            Err(QuokkaError::TransactionAborted(_)) => {
                self.aborted.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {}
        }
        outcome
    }

    /// Number of committed transactions so far.
    pub fn committed_transactions(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Number of aborted transactions so far.
    pub fn aborted_transactions(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Total number of keys currently stored.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Local(map) => map.lock().len(),
            Backend::Remote(c) => {
                remote::remote_u64(c, remote::OP_KV_LEN).unwrap_or_else(gcs_lost) as usize
            }
        }
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory footprint of the stored metadata in bytes (keys +
    /// values). The paper argues the GCS footprint stays negligible thanks
    /// to the compact lineage naming scheme; tests assert on this.
    pub fn byte_size(&self) -> usize {
        match &self.backend {
            Backend::Local(map) => map.lock().iter().map(|(k, e)| k.len() + e.value.len()).sum(),
            Backend::Remote(c) => {
                remote::remote_u64(c, remote::OP_KV_BYTE_SIZE).unwrap_or_else(gcs_lost) as usize
            }
        }
    }

    /// Drop every key. Used between queries when a cluster is reused.
    pub fn clear(&self) {
        match &self.backend {
            Backend::Local(map) => map.lock().clear(),
            Backend::Remote(c) => remote::remote_clear(c).unwrap_or_else(gcs_lost),
        }
    }
}

/// An optimistic transaction against a [`KvStore`].
pub struct Transaction<'a> {
    store: &'a KvStore,
    /// Keys read through the transaction and the version observed.
    read_set: Vec<(String, Version)>,
    write_set: Vec<(String, Bytes)>,
    delete_set: Vec<String>,
}

impl<'a> Transaction<'a> {
    /// Read a key and watch it: if its version changes before commit, the
    /// transaction aborts.
    pub fn get(&mut self, key: &str) -> Option<Bytes> {
        let current = self.store.get(key);
        let version = current.as_ref().map(|(_, v)| *v).unwrap_or(0);
        self.read_set.push((key.to_string(), version));
        current.map(|(v, _)| v)
    }

    /// Queue a write.
    pub fn put(&mut self, key: impl Into<String>, value: impl Into<Bytes>) {
        self.write_set.push((key.into(), value.into()));
    }

    /// Queue a delete.
    pub fn delete(&mut self, key: impl Into<String>) {
        self.delete_set.push(key.into());
    }

    /// Bytes queued for writing (used to account lineage bytes).
    pub fn pending_write_bytes(&self) -> usize {
        self.write_set.iter().map(|(k, v)| k.len() + v.len()).sum()
    }

    /// Atomically apply the write and delete sets, provided no watched key
    /// has changed since it was read.
    pub fn commit(self) -> Result<()> {
        self.store.commit_sets(self.read_set, self.write_set, self.delete_set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_delete_roundtrip() {
        let kv = KvStore::default();
        assert!(kv.is_empty());
        assert!(!kv.is_remote());
        kv.put("a", Bytes::from_static(b"1"));
        assert_eq!(kv.get_value("a").unwrap(), Bytes::from_static(b"1"));
        assert!(kv.contains("a"));
        assert!(kv.delete("a"));
        assert!(!kv.delete("a"));
        assert!(kv.get("a").is_none());
    }

    #[test]
    fn versions_increase_monotonically() {
        let kv = KvStore::default();
        kv.put("k", Bytes::from_static(b"1"));
        let (_, v1) = kv.get("k").unwrap();
        kv.put("k", Bytes::from_static(b"2"));
        let (_, v2) = kv.get("k").unwrap();
        assert!(v2 > v1);
    }

    #[test]
    fn prefix_scan_in_order() {
        let kv = KvStore::default();
        kv.put("lineage/1", Bytes::from_static(b"a"));
        kv.put("lineage/2", Bytes::from_static(b"b"));
        kv.put("task/1", Bytes::from_static(b"c"));
        let rows = kv.scan_prefix("lineage/");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "lineage/1");
        assert_eq!(kv.count_prefix("task/"), 1);
        assert_eq!(kv.count_prefix("nope/"), 0);
    }

    #[test]
    fn transaction_commits_atomically() {
        let kv = KvStore::default();
        let mut txn = kv.begin();
        txn.put("x", Bytes::from_static(b"1"));
        txn.put("y", Bytes::from_static(b"2"));
        txn.delete("z");
        assert!(txn.pending_write_bytes() > 0);
        txn.commit().unwrap();
        assert_eq!(kv.get_value("x").unwrap(), Bytes::from_static(b"1"));
        assert_eq!(kv.get_value("y").unwrap(), Bytes::from_static(b"2"));
    }

    #[test]
    fn transaction_aborts_on_conflict() {
        let kv = KvStore::default();
        kv.put("counter", Bytes::from_static(b"0"));
        let mut txn = kv.begin();
        let _ = txn.get("counter");
        // Concurrent writer sneaks in.
        kv.put("counter", Bytes::from_static(b"9"));
        txn.put("counter", Bytes::from_static(b"1"));
        let err = txn.commit().unwrap_err();
        assert!(matches!(err, QuokkaError::TransactionAborted(_)));
        assert_eq!(kv.get_value("counter").unwrap(), Bytes::from_static(b"9"));
        assert_eq!(kv.aborted_transactions(), 1);
    }

    #[test]
    fn with_transaction_retries_until_success() {
        let kv = Arc::new(KvStore::default());
        kv.put("n", Bytes::from_static(b"0"));
        // 8 threads increment a counter 50 times each with CAS semantics.
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let kv = Arc::clone(&kv);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        kv.with_transaction(1000, |txn| {
                            let current = txn.get("n").unwrap();
                            let value: u64 =
                                std::str::from_utf8(&current).unwrap().parse().unwrap();
                            txn.put("n", Bytes::from((value + 1).to_string()));
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let final_value: u64 =
            std::str::from_utf8(&kv.get_value("n").unwrap()).unwrap().parse().unwrap();
        assert_eq!(final_value, 400);
    }

    #[test]
    fn byte_size_tracks_contents() {
        let kv = KvStore::default();
        assert_eq!(kv.byte_size(), 0);
        kv.put("abc", Bytes::from_static(b"12345"));
        assert_eq!(kv.byte_size(), 8);
        kv.clear();
        assert_eq!(kv.byte_size(), 0);
        assert_eq!(kv.len(), 0);
    }

    #[test]
    fn every_applied_write_notifies_the_wakeup() {
        let kv = KvStore::default();
        let epoch = kv.wakeup().epoch();
        kv.put("a", Bytes::from_static(b"1"));
        assert_eq!(kv.wakeup().epoch(), epoch + 1);
        let _ = kv.get("a");
        assert!(!kv.delete("missing"));
        assert_eq!(kv.wakeup().epoch(), epoch + 1, "reads and no-op deletes stay quiet");
        assert!(kv.delete("a"));
        let mut txn = kv.begin();
        txn.put("b", Bytes::from_static(b"2"));
        txn.commit().unwrap();
        assert_eq!(kv.wakeup().epoch(), epoch + 3);
    }

    #[test]
    fn op_latency_is_applied() {
        let kv = KvStore::new(Duration::from_millis(2));
        let start = std::time::Instant::now();
        kv.put("a", Bytes::from_static(b"1"));
        let _ = kv.get("a");
        assert!(start.elapsed() >= Duration::from_millis(4));
    }
}
