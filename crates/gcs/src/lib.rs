//! The Global Control Store (GCS).
//!
//! The paper's Quokka implementation uses a Redis server on the head node as
//! a persistent, transactional data store (§IV-B): it holds the committed
//! lineage, the outstanding task table, the location of data partitions, and
//! control flags, and it is the *single source of truth* for the execution
//! state of the whole system. Individual TaskManagers are stateless and
//! read their work from the GCS; the coordinator performs fault recovery
//! purely by editing the GCS ("reconciliation", §IV-C). The paper's
//! TaskManagers poll Redis across the network; here every write notifies
//! the store's [`Wakeup`](quokka_common::Wakeup), so idle threads block
//! until the state may have changed instead of polling.
//!
//! This crate provides:
//!
//! * [`kv`] — a small in-memory transactional key-value store with versioned
//!   keys, optimistic compare-and-set preconditions, prefix scans and atomic
//!   multi-key commits (the Redis `MULTI`/`EXEC` analogue). A configurable
//!   per-operation latency models the head-node round trip.
//! * [`remote`] — the process-mode protocol: a pooled TCP client plus the
//!   opcode/framing vocabulary that lets worker processes run against the
//!   driver's authoritative store through [`KvStore::remote`], mirroring how
//!   TaskManagers reach the head-node Redis over the network.
//! * [`tables`] — typed views over the KV store matching the schema Quokka
//!   needs: the lineage table (`G.L` in Algorithm 1), the task table
//!   (`G.T`), the channel registry, the partition directory and the control
//!   flags used to pause TaskManagers during recovery.
//!
//! The GCS is assumed not to fail (it lives on the head node, like the
//! paper's Redis), which is why committing lineage to it counts as
//! "persistent" in the write-ahead-lineage protocol.

pub mod kv;
pub mod remote;
pub mod tables;

pub use kv::{KvStore, Transaction, Version};
pub use remote::ControlClient;
pub use tables::{
    ChannelState, Gcs, LineageRecord, LineageSource, PartitionEntry, ReplayRequest, TaskCommit,
    TaskEntry,
};
