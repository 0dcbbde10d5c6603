//! End-to-end TPC-H benchmark for the Quokka engine.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload tpch22|short_mix|kill_recovery --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds a seeded TPC-H catalog, runs one workload through the public
//! `QuokkaSession` API in a closed loop for `S` seconds, checks every result
//! against the reference executor, and prints every metric with its unit.
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Any failed
//! query makes the exit code non-zero. See `README.md` for what each
//! workload and metric is for.

mod check;
mod trace;
mod workload;

use quokka::batch::codec::{decode_batch, encode_batch, encode_partition};
use quokka::plan::catalog::Catalog;
use quokka::plan::{Optimizer, StageGraph};
use quokka::{Batch, EngineConfig, QueryMetrics, QuokkaSession, ReferenceExecutor, TpchGenerator};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::{Open, Tracer};
use workload::Workload;

/// Fresh processes an untraced run's measured time is split across; each
/// also builds the catalog once, so `setup_s` is a median over them and the
/// parent.
const PROCESSES: usize = 5;

/// Environment variables the engine reads while it runs. Each would
/// silently change the configuration being measured, so the benchmark
/// refuses to start when one is set.
const ENGINE_ENV: [&str; 3] = ["QUOKKA_TRANSPORT", "QUOKKA_WATCHDOG_SECS", "QUOKKA_TRACE"];

/// `/proc/self/stat` reports CPU time in USER_HZ ticks, 100 per second on Linux.
const TICKS_PER_SECOND: f64 = 100.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in the measuring processes an untraced run starts.
    process: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: e2e-bench --workload <tpch22|short_mix|kill_recovery> --seed <n> \
                 --seconds <s> --trace <0|1>";
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut process = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value\n{usage}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{usage}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--process" => process = Some(value.parse::<usize>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{usage}")),
        }
    }
    let missing = |name: &str| format!("missing {name}\n{usage}");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive\n{usage}"));
    }
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        process,
    })
}

/// One executed query: its statement, the wall clock from `session.sql()`
/// to the last drained batch, and what it returned.
struct Run {
    stmt: usize,
    query: u64,
    latency: Duration,
    outcome: Result<(Batch, QueryMetrics), String>,
}

/// Plan, submit and drain one statement under `config`, inside a span
/// called `root` with one child per layer call.
fn run_query(
    session: &QuokkaSession,
    sql: &str,
    config: &EngineConfig,
    tracer: &Tracer,
    query: u64,
    root: &'static str,
    parent: Option<&Open>,
) -> (Duration, Result<(Batch, QueryMetrics), String>) {
    let start = Instant::now();
    let open = tracer.open(root, query, parent);
    let at = open.as_ref();
    let drained = (|| -> quokka::Result<_> {
        let handle = tracer.span("quokka.sql", query, at, || session.sql(sql))?;
        let mut stream = tracer.span("engine.submit", query, at, || handle.stream_with(config))?;
        let mut batches = Vec::new();
        if let Some(first) = tracer.span("engine.first_batch", query, at, || stream.next_batch())? {
            batches.push(first);
            tracer.span("engine.drain", query, at, || -> quokka::Result<()> {
                while let Some(batch) = stream.next_batch()? {
                    batches.push(batch);
                }
                Ok(())
            })?;
        }
        let metrics = stream.metrics().cloned();
        Ok((batches, stream.schema().clone(), metrics))
    })();
    tracer.close(open);
    let latency = start.elapsed();
    let outcome = drained.map_err(|e| e.to_string()).and_then(|(batches, schema, metrics)| {
        let metrics = metrics.ok_or("stream ended without metrics")?;
        let batch = if batches.is_empty() {
            Batch::empty(schema)
        } else {
            Batch::concat(&batches).map_err(|e| e.to_string())?
        };
        Ok((batch, metrics))
    });
    (latency, outcome)
}

/// Run the workload's clients in a closed loop until `seconds` have passed;
/// client `c` follows statement stream `first_stream + c`. Returns every
/// query run and the wall time until the last one drained.
fn closed_loop(
    wl: &Workload,
    session: &QuokkaSession,
    seed: u64,
    first_stream: usize,
    seconds: f64,
    tracer: &Tracer,
    next_query: &AtomicU64,
) -> (Vec<Run>, Duration) {
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    let runs = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..wl.clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut order = wl.order(seed, first_stream + client);
                    let mut runs = Vec::new();
                    while start.elapsed() < deadline {
                        let stmt = order.next_index();
                        let query = next_query.fetch_add(1, Ordering::Relaxed);
                        let (latency, outcome) = run_query(
                            session,
                            &wl.statements[stmt].sql,
                            &wl.config,
                            tracer,
                            query,
                            "query",
                            None,
                        );
                        runs.push(Run { stmt, query, latency, outcome });
                    }
                    runs
                })
            })
            .collect();
        clients.into_iter().flat_map(|c| c.join().expect("client thread panicked")).collect()
    });
    (runs, start.elapsed())
}

/// Check a run's rows against the reference answer and its failure counters
/// against what the config injected.
fn check_run(run: &Run, expected: &[Batch], killed: bool) -> Result<(), String> {
    let (batch, metrics) = run.outcome.as_ref().map_err(|e| format!("query failed: {e}"))?;
    check::compare(&expected[run.stmt], batch)?;
    let recovered = metrics.failures == 1 && metrics.recovery_tasks > 0;
    if killed && !recovered {
        return Err(format!(
            "the kill did not take effect: failures={} recovery_tasks={}",
            metrics.failures, metrics.recovery_tasks
        ));
    }
    if !killed && metrics.failures != 0 {
        return Err(format!("unexpected failures={} in a clean run", metrics.failures));
    }
    Ok(())
}

/// Counts of checked operations; failures are reported on stderr.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, label: &str, result: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(why) = &result {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("FAILED {label}: {why}");
            }
        }
        result.is_ok()
    }
}

/// Generate and register the catalog; return the session and the seconds it took.
fn setup(wl: &Workload, seed: u64) -> Result<(QuokkaSession, f64), String> {
    let start = Instant::now();
    let session = QuokkaSession::new(wl.config.clone());
    TpchGenerator::new(wl.sf, seed)
        .register_all(session.catalog())
        .map_err(|e| format!("generating TPC-H at SF {}: {e}", wl.sf))?;
    Ok((session, start.elapsed().as_secs_f64()))
}

/// The reference executor's answer to each statement, planned without the
/// optimizer so the oracle shares no rewrite with the engine.
fn expected_answers(wl: &Workload, session: &QuokkaSession) -> Result<Vec<Batch>, String> {
    let start = Instant::now();
    let catalog = session.catalog();
    let answers = wl
        .statements
        .iter()
        .map(|s| {
            let plan = quokka::sql::plan_query(&s.sql, catalog)
                .map_err(|e| format!("{}: {e}", s.label))?;
            ReferenceExecutor::new(catalog).execute(&plan).map_err(|e| format!("{}: {e}", s.label))
        })
        .collect();
    println!("reference answers in {:.3} s", start.elapsed().as_secs_f64());
    answers
}

/// One line per statement: its answer's row count (a zero-row answer only
/// checks the schema), and how often it ran at what median latency, from
/// `(statement, latency ms)` samples.
fn report_statements(wl: &Workload, expected: &[Batch], samples: &[(usize, f64)]) {
    for (i, (s, batch)) in wl.statements.iter().zip(expected).enumerate() {
        let weak = if batch.num_rows() == 0 { " weak-check(empty answer)" } else { "" };
        let latencies: Vec<f64> =
            samples.iter().filter(|(stmt, _)| *stmt == i).map(|(_, l)| *l).collect();
        println!(
            "statement {} rows={} runs={} p50_ms={:.3}{weak}",
            s.label,
            batch.num_rows(),
            latencies.len(),
            median(&latencies)
        );
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `values` (`p` in 0..=1); 0 when empty.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values.iter().filter(|v| **v > 0.0).map(|v| v.ln()).collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(&logs).exp()
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// User plus system CPU time of the whole process so far.
fn process_cpu() -> Result<Duration, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line.
    let rest = stat.rsplit_once(')').ok_or("unreadable /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
    let (utime, stime) = ticks(11).zip(ticks(12)).ok_or("unreadable /proc/self/stat")?;
    Ok(Duration::from_secs_f64((utime + stime) / TICKS_PER_SECOND))
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Print every metric by name with its unit, then the result line.
fn report(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, value, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
}

/// Where the parent hands the reference answers to its measuring processes.
fn expected_path(wl: &Workload, seed: u64) -> PathBuf {
    out_dir().join(format!("expected-{}-{seed}.bin", wl.name))
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Each answer as a little-endian `u64` length followed by `encode_batch`.
fn write_expected(path: &Path, expected: &[Batch]) -> Result<(), String> {
    let mut buf = Vec::new();
    for batch in expected {
        let bytes = encode_batch(batch);
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&bytes);
    }
    std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(path, buf))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_expected(path: &Path) -> Result<Vec<Batch>, String> {
    let data = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let truncated = || format!("{} is truncated", path.display());
    let mut rest = &data[..];
    let mut answers = Vec::new();
    while !rest.is_empty() {
        let (len, tail) = rest.split_at_checked(8).ok_or_else(truncated)?;
        let len = u64::from_le_bytes(len.try_into().expect("8 bytes"));
        let len = usize::try_from(len).map_err(|_| truncated())?;
        let (body, tail) = tail.split_at_checked(len).ok_or_else(truncated)?;
        answers.push(decode_batch(body).map_err(|e| format!("{}: {e}", path.display()))?);
        rest = tail;
    }
    Ok(answers)
}

/// One measuring process: build the catalog, run the loop for `--seconds`
/// on its own statement streams, check every result, and print one line per
/// query (`run <statement> <latency ms> <ok>`), the catalog build time, the
/// loop's wall time and the process's peak RSS for the parent to pool.
fn measure(wl: &Workload, args: &Args, index: usize) -> Result<(), String> {
    let (session, setup_s) = setup(wl, args.seed)?;
    let expected = read_expected(&expected_path(wl, args.seed))?;
    if expected.len() != wl.statements.len() {
        return Err("reference answers do not match the workload".to_string());
    }
    let tracer = Tracer::new(false);
    let first_stream = index * wl.clients;
    let (runs, wall) = closed_loop(
        wl,
        &session,
        args.seed,
        first_stream,
        args.seconds,
        &tracer,
        &AtomicU64::new(0),
    );
    let rss = peak_rss_mb()?;
    let mut tally = Tally::default();
    for run in &runs {
        let ok = tally.record(&wl.statements[run.stmt].label, check_run(run, &expected, wl.kill));
        println!("run {} {} {}", run.stmt, ms(run.latency), ok as u8);
    }
    println!("setup {setup_s}");
    println!("wall {}", wall.as_secs_f64());
    println!("rss {rss}");
    Ok(())
}

/// The untraced run: the end-to-end metrics. The measured time is split
/// across `PROCESSES` fresh processes and their samples pooled, because
/// each process carries its own speed (memory layout, allocator arenas,
/// thread placement): back-to-back `kill_recovery` runs of one seed ranged
/// from 3.9 to 4.9 queries per second while the windows inside one run agreed.
fn end_to_end(wl: &Workload, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (session, parent_setup) = setup(wl, args.seed)?;
    let mut setup_times = vec![parent_setup];
    let expected = expected_answers(wl, &session)?;
    drop(session);
    let path = expected_path(wl, args.seed);
    write_expected(&path, &expected)?;
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let (mut samples, mut wall, mut rss_peaks) = (Vec::new(), 0.0, Vec::new());
    for index in 0..PROCESSES {
        let out = Command::new(&exe)
            .args(["--workload", wl.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / PROCESSES as f64).to_string()])
            .args(["--trace", "0", "--process", &index.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting measuring process {index}: {e}"))?;
        if !out.status.success() {
            return Err(format!("measuring process {index} failed: {}", out.status));
        }
        let bad = |line: &str| format!("measuring process {index} printed {line:?}");
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let num = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
            match fields.first().copied() {
                Some("run") => {
                    let stmt = fields.get(1).and_then(|v| v.parse::<usize>().ok());
                    let stmt = stmt.filter(|s| *s < wl.statements.len());
                    let (stmt, latency) = stmt.zip(num(2)).ok_or_else(|| bad(line))?;
                    samples.push((stmt, latency, fields.get(3) == Some(&"1")));
                }
                Some("setup") => setup_times.push(num(1).ok_or_else(|| bad(line))?),
                Some("wall") => wall += num(1).ok_or_else(|| bad(line))?,
                Some("rss") => rss_peaks.push(num(1).ok_or_else(|| bad(line))?),
                _ => return Err(bad(line)),
            }
        }
    }
    // Best effort: the file is rewritten by the next run anyway.
    let _ = std::fs::remove_file(&path);
    let latencies: Vec<f64> = samples.iter().map(|(_, latency, _)| *latency).collect();
    report_statements(wl, &expected, &samples.iter().map(|(s, l, _)| (*s, *l)).collect::<Vec<_>>());
    for (stmt, _, ok) in &samples {
        let label = &wl.statements[*stmt].label;
        tally.record(
            label,
            if *ok { Ok(()) } else { Err("see the measuring process's report above".to_string()) },
        );
    }
    println!("setup_times_s={setup_times:.3?}");
    println!("peak_rss_mb per measuring process={rss_peaks:.1?}");
    let p90 = percentile(&latencies, 0.9);
    let beyond = latencies.iter().filter(|l| **l > p90).count();
    println!(
        "samples={} beyond_p90={beyond} wall_s={wall:.3} processes={PROCESSES}",
        samples.len()
    );
    if beyond < 10 {
        eprintln!("warning: only {beyond} samples lie beyond p90; run longer");
    }
    let correct = samples.iter().filter(|(_, _, ok)| *ok).count();
    Ok(vec![
        metric("setup_s", median(&setup_times), "s"),
        metric("throughput_qps", ratio(correct as f64, wall), "1/s"),
        metric("latency_p50_ms", median(&latencies), "ms"),
        metric("latency_p90_ms", p90, "ms"),
        metric("peak_rss_mb", median(&rss_peaks), "MiB"),
    ])
}

/// Per-statement timings from the attribution pass of a traced run.
#[derive(Default)]
struct Attribution {
    stages: Vec<f64>,
    reference_ms: Vec<f64>,
    /// Latency of the workload's own configuration (with its kill, if any).
    workload_ms: Vec<f64>,
    wal_ms: Vec<f64>,
    none_ms: Vec<f64>,
    failure_cost_ms: Vec<f64>,
}

/// Call each layer's public entry point on every statement inside a span,
/// and pair runs of the same statement under different configs.
fn attribute(
    wl: &Workload,
    session: &QuokkaSession,
    expected: &[Batch],
    tracer: &Tracer,
    next_query: &AtomicU64,
    tally: &mut Tally,
) -> Result<Attribution, String> {
    let catalog = session.catalog();
    let mut clean = wl.config.clone();
    clean.failures.clear();
    let none = clean.clone().with_fault(quokka::FaultStrategy::None);
    let mut out = Attribution::default();
    for (i, s) in wl.statements.iter().enumerate() {
        let query = next_query.fetch_add(1, Ordering::Relaxed);
        let open = tracer.open("attribution", query, None);
        let at = open.as_ref();
        let fail = |e: String| format!("{}: {e}", s.label);
        let naive = tracer
            .span("sql.plan_query", query, at, || quokka::sql::plan_query(&s.sql, catalog))
            .map_err(|e| fail(e.to_string()))?;
        let lowered = tracer
            .span("plan.optimize", query, at, || Optimizer::with_catalog(catalog).optimize(&naive))
            .map_err(|e| fail(e.to_string()))?;
        let graph = tracer
            .span("plan.compile", query, at, || StageGraph::compile(&lowered))
            .map_err(|e| fail(e.to_string()))?;
        out.stages.push(graph.num_stages() as f64);
        // What the runtime repeats for every query: encode each referenced
        // table split into the durable store's format.
        tracer
            .span("batch.encode_tables", query, at, || -> quokka::Result<()> {
                for table in lowered.referenced_tables() {
                    for batch in catalog.table_batches(&table)? {
                        std::hint::black_box(encode_partition(std::slice::from_ref(&batch)));
                    }
                }
                Ok(())
            })
            .map_err(|e| fail(e.to_string()))?;
        let start = Instant::now();
        let reference = tracer
            .span("plan.reference", query, at, || ReferenceExecutor::new(catalog).execute(&lowered))
            .map_err(|e| fail(e.to_string()))?;
        out.reference_ms.push(ms(start.elapsed()));
        tally.record(
            &format!("{} optimized reference", s.label),
            check::compare(&expected[i], &reference),
        );

        let mut pair = |config: &EngineConfig, name: &'static str, killed: bool| {
            let (latency, outcome) = run_query(session, &s.sql, config, tracer, query, name, at);
            let run = Run { stmt: i, query, latency, outcome };
            tally.record(&format!("{} {name}", s.label), check_run(&run, expected, killed));
            ms(latency)
        };
        let wal = pair(&clean, "run.wal", false);
        let none_ms = pair(&none, "run.none", false);
        let workload_ms = if wl.kill { pair(&wl.config, "run.kill", true) } else { wal };
        tracer.close(open);
        out.wal_ms.push(wal);
        out.none_ms.push(none_ms);
        out.workload_ms.push(workload_ms);
        if wl.kill {
            out.failure_cost_ms.push(workload_ms - wal);
        }
    }
    Ok(out)
}

/// The traced run: the per-layer metrics.
fn per_layer(wl: &Workload, args: &Args, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let (session, setup_s) = setup(wl, args.seed)?;
    println!("setup_s={setup_s:.3} (end-to-end only; not a per-layer metric)");
    let expected = expected_answers(wl, &session)?;
    let next_query = AtomicU64::new(0);
    let half = args.seconds / 2.0;

    // Phase 1, untraced: the baseline for the tracing overhead, and CPU.
    let cpu_before = process_cpu()?;
    let (plain, _) =
        closed_loop(wl, &session, args.seed, 0, half, &Tracer::new(false), &next_query);
    let cpu = process_cpu()? - cpu_before;

    // Phase 2, traced: the same loop with a span around each layer call.
    let tracer = Tracer::new(true);
    let cache_before = session.plan_cache().stats();
    let (traced, _) = closed_loop(wl, &session, args.seed, 0, half, &tracer, &next_query);
    let cache = session.plan_cache().stats();
    let loop_spans = tracer.spans();

    // Phase 3: attribution and paired configurations, per statement.
    let attribution = attribute(wl, &session, &expected, &tracer, &next_query, tally)?;

    let plain_samples: Vec<(usize, f64)> = plain.iter().map(|r| (r.stmt, ms(r.latency))).collect();
    report_statements(wl, &expected, &plain_samples);
    for run in plain.iter().chain(&traced) {
        tally.record(&wl.statements[run.stmt].label, check_run(run, &expected, wl.kill));
    }
    let spans = tracer.spans();
    let path = out_dir().join(format!("trace-{}-{}.jsonl", wl.name, args.seed));
    trace::write_jsonl(&spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans={} written to {}", spans.len(), path.display());
    for (name, (count, total, own)) in trace::summary(&spans) {
        println!(
            "span {name:<20} count={count:<5} total_ms={:<10.3} self_ms={:.3}",
            ms(total),
            ms(own)
        );
    }

    let span_ms =
        |name| trace::durations(&loop_spans, name).into_iter().map(ms).collect::<Vec<_>>();
    let attr_us =
        |name| trace::durations(&spans, name).into_iter().map(|d| ms(d) * 1e3).collect::<Vec<_>>();
    let query_self: Vec<f64> = {
        let selfs = trace::self_times(&loop_spans);
        loop_spans.iter().filter(|s| s.name == "query").map(|s| ms(selfs[&s.id])).collect()
    };
    let done: Vec<(&Run, &QueryMetrics)> =
        traced.iter().filter_map(|r| r.outcome.as_ref().ok().map(|(_, m)| (r, m))).collect();
    let per_query =
        |f: fn(&QueryMetrics) -> f64| mean(&done.iter().map(|(_, m)| f(m)).collect::<Vec<_>>());
    let total = |f: fn(&QueryMetrics) -> u64| done.iter().map(|(_, m)| f(m) as f64).sum::<f64>();
    let sql_ms = span_ms("quokka.sql");
    let sql_by_query: std::collections::HashMap<u64, f64> = loop_spans
        .iter()
        .filter(|s| s.name == "quokka.sql")
        .map(|s| (s.query, ms(s.duration())))
        .collect();
    let outside: Vec<f64> = done
        .iter()
        .map(|(run, m)| ms(run.latency) - sql_by_query[&run.query] - ms(m.runtime))
        .collect();
    let lat = |runs: &[Run]| median(&runs.iter().map(|r| ms(r.latency)).collect::<Vec<_>>());
    let lookups = (cache.hits - cache_before.hits) + (cache.misses - cache_before.misses);
    let tasks = total(|m| m.tasks_executed);
    Ok(vec![
        metric("quokka.sql_us", median(&sql_ms) * 1e3, "us"),
        metric(
            "quokka.plan_cache_hit_ratio",
            ratio((cache.hits - cache_before.hits) as f64, lookups as f64),
            "ratio",
        ),
        metric("sql.plan_query_us", median(&attr_us("sql.plan_query")), "us"),
        metric("plan.optimize_us", median(&attr_us("plan.optimize")), "us"),
        metric("plan.compile_us", median(&attr_us("plan.compile")), "us"),
        metric("plan.stages", mean(&attribution.stages), "count"),
        metric("plan.reference_ms", median(&attribution.reference_ms), "ms"),
        metric("engine.submit_ms", median(&span_ms("engine.submit")), "ms"),
        metric("engine.first_batch_ms", median(&span_ms("engine.first_batch")), "ms"),
        metric("engine.drain_ms", median(&span_ms("engine.drain")), "ms"),
        metric(
            "engine.runtime_ms",
            median(&done.iter().map(|(_, m)| ms(m.runtime)).collect::<Vec<_>>()),
            "ms",
        ),
        metric("engine.outside_runtime_ms", median(&outside), "ms"),
        metric("engine.tasks_per_query", per_query(|m| m.tasks_executed as f64), "count"),
        metric("engine.admission_wait_ms", per_query(|m| ms(m.admission_wait)), "ms"),
        metric(
            "engine.admission_peak_running",
            session.admission().stats().peak_running as f64,
            "count",
        ),
        metric("engine.cpu_ms_per_query", ratio(ms(cpu), plain.len() as f64), "ms"),
        metric(
            "engine.dist_over_ref",
            geomean(&ratios(&attribution.workload_ms, &attribution.reference_ms)),
            "ratio",
        ),
        metric(
            "engine.wal_over_none",
            geomean(&ratios(&attribution.wal_ms, &attribution.none_ms)),
            "ratio",
        ),
        metric("engine.recovery_tasks_per_query", per_query(|m| m.recovery_tasks as f64), "count"),
        metric("engine.recovery_planning_ms", per_query(|m| ms(m.recovery_planning)), "ms"),
        metric(
            "engine.useful_task_ratio",
            ratio(tasks - total(|m| m.recovery_tasks), tasks),
            "ratio",
        ),
        metric("engine.push_retries", per_query(|m| m.push_retries as f64), "count"),
        metric("engine.replay_requeues", per_query(|m| m.replay_requeues as f64), "count"),
        metric("engine.failure_cost_ms", median(&attribution.failure_cost_ms), "ms"),
        metric("net.shuffle_bytes_per_query", per_query(|m| m.shuffle_bytes as f64), "B"),
        metric(
            "net.shuffle_compression",
            ratio(total(|m| m.shuffle_raw_bytes), total(|m| m.shuffle_bytes)),
            "ratio",
        ),
        metric("storage.backup_bytes_per_query", per_query(|m| m.backup_bytes as f64), "B"),
        metric("storage.durable_bytes_per_query", per_query(|m| m.durable_bytes as f64), "B"),
        metric("gcs.lineage_bytes_per_query", per_query(|m| m.lineage_bytes as f64), "B"),
        metric("gcs.transactions_per_query", per_query(|m| m.gcs_transactions as f64), "count"),
        metric(
            "gcs.lineage_per_backup",
            ratio(total(|m| m.lineage_bytes), total(|m| m.backup_bytes)),
            "ratio",
        ),
        metric("batch.encode_tables_ms", median(&attr_us("batch.encode_tables")) / 1e3, "ms"),
        metric("trace.overhead_p50_ms", lat(&traced) - lat(&plain), "ms"),
        metric("trace.query_self_ms", median(&query_self), "ms"),
    ])
}

fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| ratio(*n, *d)).collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> =
        ENGINE_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "refusing to run: {} would change the engine configuration being measured; unset it",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let Some(wl) = Workload::named(&args.workload) else {
        eprintln!("unknown workload {:?} (tpch22, short_mix, kill_recovery)", args.workload);
        return ExitCode::from(2);
    };
    if let Some(index) = args.process {
        return match measure(&wl, &args, index) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("measuring process {index}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut effective = wl.config.clone();
    if let Err(e) = effective.resolve_env() {
        eprintln!("{e}");
        return ExitCode::from(2);
    }
    println!(
        "workload {} sf={} clients={} statements={} seed={} seconds={} trace={} cores={}",
        wl.name,
        wl.sf,
        wl.clients,
        wl.statements.len(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("effective config: {effective:?}");
    let mut tally = Tally::default();
    let measured = if args.trace {
        per_layer(&wl, &args, &mut tally)
    } else {
        end_to_end(&wl, &args, &mut tally)
    };
    match measured {
        Ok(metrics) if tally.attempted > 0 => {
            report(&tally, &metrics);
            if tally.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Ok(_) => {
            eprintln!("no query ran");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark error: {e}");
            ExitCode::FAILURE
        }
    }
}
