//! Incremental result delivery: [`BatchStream`].
//!
//! The sink stage no longer buffers the full query result. Every committed
//! sink task sends its output batches over a channel the moment its lineage
//! commits, and [`BatchStream`] is the consuming end the caller pulls from:
//! the first result batch is visible while upstream stages are still
//! executing.
//!
//! Fault tolerance interacts with streaming in two ways:
//!
//! * **Intra-query recovery** (write-ahead lineage, spooling, checkpointing):
//!   a rewound sink channel re-executes its committed tasks by replaying the
//!   logged lineage, so a re-emitted partition carries the same task name
//!   and identical content as the original. The stream deduplicates by task
//!   name — a few bytes of metadata per emission — instead of holding the
//!   batches themselves.
//! * **The restart baseline** (no intra-query recovery): the whole query
//!   reruns from scratch, which voids everything emitted by the first
//!   attempt. [`BatchStream::collect`] discards its accumulated batches and
//!   keeps going; the incremental [`BatchStream::next_batch`] can only do
//!   that if nothing was handed to the caller yet — once a batch has been
//!   observed, a restart surfaces as an error (the engine cannot retract
//!   delivered rows).

use quokka_batch::{Batch, Schema};
use quokka_common::ids::TaskName;
use quokka_common::metrics::QueryMetrics;
use quokka_common::{QuokkaError, Result};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::mpsc::Receiver;

use crate::runtime::QueryOutcome;

/// One message from the engine to the consuming [`BatchStream`].
#[derive(Debug)]
pub enum StreamEvent {
    /// A sink task committed; `batches` is its output partition.
    Batch { name: TaskName, batches: Vec<Batch> },
    /// The restart baseline is rerunning the query from scratch; everything
    /// emitted so far is void.
    Restarted,
    /// The query completed; no further batches will arrive.
    Finished(Box<QueryMetrics>),
    /// The query failed with a typed error (deadline expiry, cancellation,
    /// exhausted retries, internal errors, ...).
    Failed(QuokkaError),
}

/// A pull-based stream of result batches from a running query.
///
/// Produced by [`QueryRunner::stream`](crate::QueryRunner::stream) (and the
/// facade crate's `QueryHandle::stream`). The query executes on background
/// threads; each [`next_batch`](Self::next_batch) call hands back the next
/// committed sink output, returning `Ok(None)` once the query has finished
/// (at which point [`metrics`](Self::metrics) is available).
///
/// Dropping the stream cancels the query: the coordinator sees the flag
/// within one supervision tick and marks the query done, which wakes the
/// workers to stop.
#[derive(Debug)]
pub struct BatchStream {
    schema: Schema,
    rx: Receiver<StreamEvent>,
    /// Task names already received (replayed sink emissions are duplicates).
    seen: HashSet<TaskName>,
    /// Batches received but not yet handed to the caller.
    pending: VecDeque<Batch>,
    /// Whether any batch has been handed to the caller (restart poison).
    delivered: bool,
    rows_delivered: u64,
    batches_delivered: u64,
    finished: Option<QueryMetrics>,
    failed: Option<QuokkaError>,
    /// A failure is surfaced once; after that the stream is fused (`None`).
    error_reported: bool,
    /// Raised when the consumer disappears; the engine's coordinator polls
    /// it and winds the query down.
    cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl BatchStream {
    pub(crate) fn new(
        schema: Schema,
        rx: Receiver<StreamEvent>,
        cancel: std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        BatchStream {
            schema,
            rx,
            seen: HashSet::new(),
            pending: VecDeque::new(),
            delivered: false,
            rows_delivered: 0,
            batches_delivered: 0,
            finished: None,
            failed: None,
            error_reported: false,
            cancel,
        }
    }

    /// A stream over an already-materialized result (used for `EXPLAIN`
    /// renderings and other pre-computed batches).
    pub fn ready(schema: Schema, batches: Vec<Batch>, metrics: QueryMetrics) -> Self {
        let (tx, rx) = std::sync::mpsc::channel();
        for (seq, batch) in batches.into_iter().enumerate() {
            let _ = tx.send(StreamEvent::Batch {
                name: TaskName::new(0, 0, seq as u32),
                batches: vec![batch],
            });
        }
        let _ = tx.send(StreamEvent::Finished(Box::new(metrics)));
        BatchStream::new(schema, rx, std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false)))
    }

    /// Schema of the result batches.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Whether the query has run to completion (metrics are available).
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Final execution metrics, available once the stream is exhausted.
    pub fn metrics(&self) -> Option<&QueryMetrics> {
        self.finished.as_ref()
    }

    /// Rows handed to the caller so far.
    pub fn rows_delivered(&self) -> u64 {
        self.rows_delivered
    }

    /// Batches handed to the caller so far.
    pub fn batches_delivered(&self) -> u64 {
        self.batches_delivered
    }

    /// Pull the next non-empty result batch, blocking until one is
    /// available. Returns `Ok(None)` when the query has completed and every
    /// batch has been delivered. A failure is reported **once**; subsequent
    /// calls return `Ok(None)`, so `for batch in stream` loops terminate.
    pub fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            if let Some(batch) = self.pending.pop_front() {
                self.delivered = true;
                self.rows_delivered += batch.num_rows() as u64;
                self.batches_delivered += 1;
                return Ok(Some(batch));
            }
            if self.error_reported {
                return Ok(None);
            }
            if let Some(error) = self.failed.clone() {
                self.error_reported = true;
                return Err(error);
            }
            if self.finished.is_some() {
                return Ok(None);
            }
            match self.recv() {
                Ok(StreamEvent::Batch { name, batches }) => {
                    if self.seen.insert(name) {
                        self.pending.extend(batches.into_iter().filter(|b| !b.is_empty()));
                    }
                }
                Ok(StreamEvent::Restarted) => {
                    // Everything emitted so far is void either way; batches
                    // still sitting in `pending` must not be handed out.
                    self.seen.clear();
                    self.pending.clear();
                    if self.delivered {
                        self.failed = Some(QuokkaError::Internal(
                            "query restarted after results were already streamed; \
                             the restart baseline cannot retract delivered rows \
                             (use collect(), or a fault strategy with intra-query \
                             recovery)"
                                .to_string(),
                        ));
                    }
                }
                Ok(StreamEvent::Finished(metrics)) => self.finished = Some(*metrics),
                Ok(StreamEvent::Failed(error)) => self.failed = Some(error),
                Err(hangup) => self.failed = Some(hangup),
            }
        }
    }

    fn recv(&mut self) -> Result<StreamEvent, QuokkaError> {
        self.rx.recv().map_err(|_| {
            QuokkaError::Internal("query engine hung up without finishing the stream".to_string())
        })
    }

    /// Drain the stream to completion and return the concatenated result —
    /// the blocking convenience the streaming API subsumes.
    ///
    /// Unlike [`next_batch`](Self::next_batch), `collect` owns every batch
    /// until the query completes, so a restart-baseline rerun simply
    /// discards the first attempt's output and keeps collecting. Batches are
    /// reassembled in task order (stage, channel, sequence), matching the
    /// order the buffering sink used to produce.
    ///
    /// `collect` requires an unconsumed stream: batches already handed out
    /// by `next_batch` cannot be reclaimed, so mixing the two would
    /// silently lose rows. Keep draining with `next_batch` instead.
    pub fn collect(mut self) -> Result<QueryOutcome> {
        if self.delivered || !self.seen.is_empty() {
            return Err(QuokkaError::internal(
                "collect() requires an unconsumed stream; rows were already pulled with \
                 next_batch(), keep draining with next_batch() instead",
            ));
        }
        // `next_batch` semantics (restart poisoning, pending queue) don't
        // apply here; consume the raw event stream instead.
        let mut parts: BTreeMap<TaskName, Vec<Batch>> = BTreeMap::new();
        loop {
            if let Some(error) = self.failed.take() {
                return Err(error);
            }
            if let Some(metrics) = self.finished.take() {
                let batches: Vec<Batch> = parts.into_values().flatten().collect();
                let batch = if batches.is_empty() {
                    Batch::empty(self.schema.clone())
                } else {
                    Batch::concat(&batches)?
                };
                return Ok(QueryOutcome { batch, metrics });
            }
            match self.recv()? {
                StreamEvent::Batch { name, batches } => {
                    // Replays overwrite (identical content, same name).
                    parts.insert(name, batches);
                }
                StreamEvent::Restarted => parts.clear(),
                StreamEvent::Finished(metrics) => self.finished = Some(*metrics),
                StreamEvent::Failed(error) => return Err(error),
            }
        }
    }
}

impl Iterator for BatchStream {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_batch().transpose()
    }
}

impl Drop for BatchStream {
    fn drop(&mut self) {
        // Tell the engine the consumer is gone; the query winds down instead
        // of computing a result nobody will read.
        self.cancel.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}
