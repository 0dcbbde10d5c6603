//! Integration tests for the facade API plus property-based tests on the
//! invariants the engine's correctness rests on (batch codec round-trips,
//! hash-partition completeness, canonical result comparison).

use proptest::prelude::*;
use quokka::batch::codec::{decode_partition, encode_partition};
use quokka::batch::compute::hash_partition;
use quokka::{
    canonical_rows, same_result, Batch, Column, DataType, EngineConfig, QuokkaSession, Schema,
};

#[test]
fn session_round_trip_on_custom_tables() {
    use quokka::plan::aggregate::count;
    use quokka::plan::expr::col;
    use quokka::PlanBuilder;

    let session = QuokkaSession::new(EngineConfig::quokka(2));
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("tag", DataType::Utf8)]);
    let batch = Batch::try_new(
        schema.clone(),
        vec![
            Column::Int64((0..1000).collect()),
            Column::Utf8((0..1000).map(|i| format!("t{}", i % 7)).collect()),
        ],
    )
    .unwrap();
    session.register_table("events", schema.clone(), batch.chunks(128));

    let plan = PlanBuilder::scan("events", schema)
        .aggregate(vec![(col("tag"), "tag")], vec![count(col("k"), "n")])
        .sort(vec![("tag", true)])
        .build()
        .unwrap();
    let outcome = session.run(&plan).unwrap();
    assert_eq!(outcome.batch.num_rows(), 7);
    let expected = session.run_reference(&plan).unwrap();
    assert!(same_result(&expected, &outcome.batch));
    assert!(outcome.metrics.output_rows >= 7);
}

/// Re-registering a table reaches the next query: neither the catalog's
/// cached table splits nor the session's plan cache may serve the replaced
/// data. A query already streaming keeps the data it started with.
#[test]
fn reregistered_table_reaches_the_next_query() {
    let session = QuokkaSession::new(EngineConfig::quokka(2));
    let schema = Schema::from_pairs(&[("k", DataType::Int64), ("v", DataType::Float64)]);
    let table = |rows: i64, scale: f64, chunk: usize| {
        Batch::try_new(
            schema.clone(),
            vec![
                Column::Int64((0..rows).map(|i| i % 5).collect()),
                Column::Float64((0..rows).map(|i| i as f64 * scale).collect()),
            ],
        )
        .unwrap()
        .chunks(chunk)
    };
    let sql = "SELECT k, sum(v) AS total, count(*) AS n FROM t WHERE v >= 3 GROUP BY k ORDER BY k";
    session.register_table("t", schema.clone(), table(200, 0.5, 32));
    let old = session.sql(sql).unwrap().collect_reference().unwrap();
    // Warm both caches: the second run is a plan-cache hit over cached splits.
    for _ in 0..2 {
        assert!(same_result(&old, &session.sql(sql).unwrap().collect().unwrap().batch));
    }
    let in_flight = session.sql(sql).unwrap().stream().unwrap();

    session.register_table("t", schema.clone(), table(300, 2.5, 48));
    let handle = session.sql(sql).unwrap();
    assert!(!handle.is_plan_cache_hit(), "a new catalog generation must re-plan");
    let expected = handle.collect_reference().unwrap();
    assert!(!same_result(&old, &expected), "the replacement data must change the answer");
    let outcome = handle.collect().unwrap();
    assert!(
        same_result(&expected, &outcome.batch),
        "query after re-registration served stale data\nexpected: {expected:?}\nactual: {:?}",
        outcome.batch
    );
    assert!(same_result(&old, &in_flight.collect().unwrap().batch));
}

#[test]
fn tpch_session_exposes_all_tables() {
    let session = QuokkaSession::tpch(0.002, 2).unwrap();
    let mut names = session.table_names();
    names.sort();
    assert_eq!(
        names,
        vec!["customer", "lineitem", "nation", "orders", "part", "partsupp", "region", "supplier"]
    );
}

fn arbitrary_batch() -> impl Strategy<Value = Batch> {
    (1usize..60).prop_flat_map(|rows| {
        (
            proptest::collection::vec(any::<i64>(), rows),
            proptest::collection::vec(any::<f64>(), rows),
            proptest::collection::vec("[a-z]{0,12}", rows),
            proptest::collection::vec(any::<bool>(), rows),
        )
            .prop_map(|(ints, floats, strings, bools)| {
                let schema = Schema::from_pairs(&[
                    ("id", DataType::Int64),
                    ("value", DataType::Float64),
                    ("name", DataType::Utf8),
                    ("flag", DataType::Bool),
                ]);
                Batch::try_new(
                    schema,
                    vec![
                        Column::Int64(ints),
                        Column::Float64(floats),
                        Column::Utf8(strings),
                        Column::Bool(bools),
                    ],
                )
                .unwrap()
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The codec used for upstream backup and spooling must round-trip every
    /// batch exactly: a replayed partition has to be bit-identical.
    #[test]
    fn partition_codec_round_trips(batch in arbitrary_batch()) {
        let payload = encode_partition(std::slice::from_ref(&batch));
        let decoded = decode_partition(&payload).unwrap();
        prop_assert_eq!(decoded.len(), 1);
        prop_assert_eq!(&decoded[0], &batch);
        // Deterministic encoding (same bytes every time).
        prop_assert_eq!(encode_partition(std::slice::from_ref(&batch)), payload);
    }

    /// Hash partitioning (the shuffle) must neither lose nor duplicate rows,
    /// and equal keys must land in the same partition.
    #[test]
    fn hash_partitioning_is_a_partition(batch in arbitrary_batch(), parts in 1usize..6) {
        let pieces = hash_partition(&batch, &[0], parts).unwrap();
        prop_assert_eq!(pieces.len(), parts);
        let total: usize = pieces.iter().map(Batch::num_rows).sum();
        prop_assert_eq!(total, batch.num_rows());
        // Multiset of rows is preserved.
        let mut original = canonical_rows(&batch);
        let mut scattered: Vec<String> = pieces.iter().flat_map(canonical_rows).collect();
        original.sort();
        scattered.sort();
        prop_assert_eq!(original, scattered);
        // Same key -> same partition.
        for (i, piece) in pieces.iter().enumerate() {
            for row in 0..piece.num_rows() {
                let key = piece.value(row, 0);
                for (j, other) in pieces.iter().enumerate() {
                    if i == j { continue; }
                    for other_row in 0..other.num_rows() {
                        prop_assert_ne!(&key, &other.value(other_row, 0));
                    }
                }
            }
        }
    }

    /// Result comparison must be insensitive to row order.
    #[test]
    fn canonical_rows_ignore_row_order(batch in arbitrary_batch()) {
        let reversed: Vec<usize> = (0..batch.num_rows()).rev().collect();
        let shuffled = batch.take(&reversed).unwrap();
        prop_assert!(same_result(&batch, &shuffled));
    }

    /// Chunking and re-concatenating a batch is the identity.
    #[test]
    fn chunk_concat_round_trips(batch in arbitrary_batch(), chunk in 1usize..40) {
        let chunks = batch.chunks(chunk);
        let rebuilt = Batch::concat(&chunks).unwrap();
        prop_assert_eq!(rebuilt, batch);
    }
}
