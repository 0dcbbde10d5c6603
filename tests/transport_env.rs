//! Integration test: the `QUOKKA_TRANSPORT` override path.
//!
//! Environment variables are process-global, so this test is its own test
//! binary: while it sets a malformed transport, no sibling test in the same
//! process can pick the variable up and fail.

use quokka::{same_result, EngineConfig, QuokkaSession, TransportConfig, TransportKind};

fn session() -> QuokkaSession {
    QuokkaSession::tpch(0.002, 3).expect("generate TPC-H data")
}

/// The `QUOKKA_TRANSPORT` env override steers the engine (how CI runs the
/// existing suites under both backends without code changes). Env vars are
/// process-global, so exercise every case in one test.
#[test]
fn transport_env_override_applies_to_runs() {
    let session = session();
    let plan = quokka::tpch::query(6).unwrap();
    let expected = session.run_reference(&plan).unwrap();

    std::env::set_var("QUOKKA_TRANSPORT", "tcp");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert!(same_result(&expected, &outcome.batch));
    assert!(
        !outcome.metrics.transport_peers.is_empty(),
        "QUOKKA_TRANSPORT=tcp must route shuffle over the wire"
    );

    std::env::set_var("QUOKKA_TRANSPORT", "inproc");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert!(same_result(&expected, &outcome.batch));
    assert!(outcome.metrics.transport_peers.is_empty());

    std::env::set_var("QUOKKA_TRANSPORT", "carrier-pigeon");
    let err = session.run_with(&plan, &EngineConfig::quokka(3));
    assert!(err.is_err(), "malformed transport override must be rejected");

    std::env::remove_var("QUOKKA_TRANSPORT");
    let outcome = session.run_with(&plan, &EngineConfig::quokka(3)).unwrap();
    assert_eq!(outcome.metrics.transport_peers.len(), 0, "default stays inproc");

    // The explicit config constructor agrees with the env spelling.
    assert_eq!(TransportConfig::tcp().kind, TransportKind::Tcp);
    assert_eq!(TransportConfig::default().kind, TransportKind::Inproc);
}
