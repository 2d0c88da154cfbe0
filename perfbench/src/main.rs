//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0`, runs the workload's algorithm drivers (one, or the
//! queue and then the table driver for `queue-table`) over the paper's
//! worker ladder, pass after pass, for `--seconds`, checks every output and
//! prints the end-to-end metrics. With `--trace 1`, runs each driver, its
//! untraced twin and its traced twin at every ladder point and prints the
//! per-layer metrics. The last stdout line is always one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the exit code is non-zero
//! when any output check failed.

use azsim_client::{BlobClient, QueueClient, TableClient, VirtualEnv};
use azsim_storage::OpClass;
use azurebench::exec::{build_cluster, run_cluster_workers};
use azurebench::BenchConfig;
use perfbench::host::{self, CountingAlloc, ProcStat};
use perfbench::trace::{Ledger, TracedRunner};
use perfbench::twin::{run_twin, Plain};
use perfbench::workload::{self, digest, Output, Workload, LADDER, REFERENCE_SEED};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Fresh processes started per run to measure `setup_s`.
const SETUP_PROBES: usize = 101;

/// Fewest ladder passes an untraced run makes, however short `--seconds`.
const MIN_PASSES: usize = 3;

/// The op classes whose `handle` time the traced run reports one by one.
const REPORTED_CLASSES: [OpClass; 13] = [
    OpClass::BlobPutPage,
    OpClass::BlobPutBlock,
    OpClass::BlobGetPage,
    OpClass::BlobGetBlock,
    OpClass::BlobDownload,
    OpClass::QueuePut,
    OpClass::QueuePeek,
    OpClass::QueueGet,
    OpClass::QueueDeleteMsg,
    OpClass::TableInsert,
    OpClass::TableQuery,
    OpClass::TableUpdate,
    OpClass::TableDeleteEntity,
];

const USAGE: &str = "usage: perfbench --workload <blob-alg1|queue-table|queue-alg3|table-alg5> \
     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    /// The workload's name and the drivers one pass runs.
    workload: &'static str,
    parts: &'static [Workload],
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run as a setup probe (see [`probe`]).
    probe: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut probe) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::parts(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--probe" => probe = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (workload, parts) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        parts,
        seed: seed.unwrap_or(REFERENCE_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        probe: probe.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.probe {
        return probe(&args, start);
    }
    let run = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match run {
        Ok(result) => {
            result.print(&args);
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra facts for the human-readable lines and the provenance row.
    notes: Vec<(String, String)>,
    /// Metrics printed for people but kept out of the JSON line.
    extra: Vec<Metric>,
}

impl RunResult {
    fn print(&self, args: &Args) {
        let name = args.workload;
        for (metric, value, unit) in self.metrics.iter().chain(&self.extra) {
            println!("{name}: {metric} = {value} {unit}");
        }
        for (k, v) in &self.notes {
            println!("{name}: {k}: {v}");
        }
        let root = std::env::current_dir().unwrap_or_default();
        let ladder: Vec<String> = LADDER.iter().map(|w| w.to_string()).collect();
        let drivers: Vec<String> = args
            .parts
            .iter()
            .map(|wl| format!("{{\"driver\":\"{}\",\"scale\":{}}}", wl.name(), wl.scale()))
            .collect();
        println!(
            "{{\"row\":\"provenance\",\"workload\":\"{name}\",\"seed\":{},\"traced\":{},\"host\":{},\
             \"nproc\":{},\"commit\":{},\"drivers\":[{}],\"ladder\":[{}],\
             \"logical_ops_per_pass\":{},\"seconds\":{}}}",
            args.seed,
            args.trace,
            json_str(&host::host()),
            host::nproc(),
            json_str(&host::commit(&root)),
            drivers.join(","),
            ladder.join(","),
            pass_ops(args.parts, args.seed),
            args.seconds,
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// JSON has no NaN or infinity; a metric that is not finite is a bug the
/// reader must see, so it prints as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Logical ops of one pass over every driver of a workload.
fn pass_ops(parts: &[Workload], seed: u64) -> u64 {
    parts.iter().map(|wl| wl.pass_ops(&wl.config(seed))).sum()
}

/// A setup probe: build the configuration and cluster of the workload's
/// first driver and run its first simulated op, then print the ns since `start`, the entry to
/// `main`. Process creation itself is left out: it is the kernel's work,
/// several times the probe's own, and would hide what the program does.
fn probe(args: &Args, start: Instant) -> ExitCode {
    let wl = args.parts[0];
    let cfg = wl.config(args.seed);
    let report = run_cluster_workers(&cfg, build_cluster(&cfg), 1, |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        match wl {
            Workload::BlobAlg1 => BlobClient::new(&env, "azurebench").create_container().await,
            Workload::QueueAlg3 => QueueClient::new(&env, "AzureBenchQueue0").create().await,
            Workload::TableAlg5 => {
                TableClient::new(&env, "AzureBenchTable")
                    .create_table()
                    .await
            }
        }
    });
    let elapsed = start.elapsed().as_nanos();
    if report.results.iter().any(Result::is_err) {
        eprintln!("perfbench: the setup probe's first op failed");
        return ExitCode::FAILURE;
    }
    println!("{elapsed}");
    ExitCode::SUCCESS
}

/// Start fresh setup-probe processes until `secs` holds `upto` of their
/// times from entering `main` to the first simulated op's completion.
fn setup_probes(args: &Args, secs: &mut Vec<f64>, upto: usize) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this executable: {e}"))?;
    while secs.len() < upto {
        let out = Command::new(&exe)
            .args(["--workload", args.workload, "--seed"])
            .arg(args.seed.to_string())
            .args(["--probe", "1"])
            .output()
            .map_err(|e| format!("starting a setup probe: {e}"))?;
        if !out.status.success() {
            return Err(format!(
                "setup probe failed: {}",
                String::from_utf8_lossy(&out.stderr)
            ));
        }
        let elapsed: f64 = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse()
            .map_err(|_| "setup probe printed no time".to_string())?;
        secs.push(elapsed / 1e9);
    }
    Ok(())
}

/// Whether one more of `done` equal rounds begun at `start` still ends
/// within `budget`.
fn fits(start: Instant, done: usize, budget: Duration) -> bool {
    let spent = start.elapsed();
    spent + spent / done as u32 <= budget
}

/// Run the driver at one ladder point, catching a panic as a failure.
fn drive(wl: Workload, cfg: &BenchConfig, workers: usize) -> Result<Output, String> {
    catch_unwind(AssertUnwindSafe(|| wl.run_driver(cfg, workers)))
        .map_err(|_| format!("driver panicked at {workers} workers"))
}

/// Checks one pass's outputs: invariants at every point, then the digest
/// against the committed reference (reference seed) or against the first
/// pass of this run (any seed: the driver is deterministic).
struct PassCheck {
    reference: Option<u64>,
    first: Option<u64>,
}

impl PassCheck {
    fn new(wl: Workload, seed: u64) -> Result<PassCheck, String> {
        let reference = if seed == REFERENCE_SEED {
            Some(
                wl.reference_digest()
                    .ok_or_else(|| format!("reference.txt has no digest for {}", wl.name()))?,
            )
        } else {
            None
        };
        Ok(PassCheck {
            reference,
            first: None,
        })
    }

    fn digest(&mut self, pass_digest: u64) -> Result<(), String> {
        let expected = self.reference.or(self.first).unwrap_or(pass_digest);
        self.first.get_or_insert(pass_digest);
        if pass_digest == expected {
            Ok(())
        } else {
            Err(format!(
                "output digest {pass_digest:016x}, expected {expected:016x}"
            ))
        }
    }
}

/// One driver of a workload with its configuration and output check.
struct Part {
    wl: Workload,
    cfg: BenchConfig,
    check: PassCheck,
}

fn parts(args: &Args) -> Result<Vec<Part>, String> {
    args.parts
        .iter()
        .map(|&wl| {
            Ok(Part {
                wl,
                cfg: wl.config(args.seed),
                check: PassCheck::new(wl, args.seed)?,
            })
        })
        .collect()
}

/// Run passes for `--seconds` and report the mean wall time per logical
/// op over all of them. The host's speed drifts between levels that last
/// from seconds to a minute; the mean weighs each level by the time spent
/// in it, where the median of a few passes jumps to whichever level holds
/// most. For the same reason the [`SETUP_PROBES`] setup probes, whose
/// median is `setup_s`, are spread over the run between passes.
fn untraced(args: &Args) -> Result<RunResult, String> {
    let mut parts = parts(args)?;
    let mut setup = Vec::with_capacity(SETUP_PROBES);
    let pass_ops = pass_ops(args.parts, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut pass_ns, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut errors = Vec::new();
    let mut last_digests = Vec::new();
    // Wall time of each driver's ladder in each pass.
    let mut part_ns = vec![Vec::new(); parts.len()];
    while pass_ns.len() < MIN_PASSES || fits(start, pass_ns.len(), budget) {
        let mut body = Duration::ZERO;
        let mut pass_failed = 0;
        last_digests.clear();
        for (Part { wl, cfg, check }, times) in parts.iter_mut().zip(&mut part_ns) {
            let (wl, cfg) = (*wl, &*cfg);
            let mut words = Vec::new();
            let mut part_failed = 0;
            let mut part_body = Duration::ZERO;
            for &w in &LADDER {
                let t0 = Instant::now();
                let out = drive(wl, cfg, w);
                part_body += t0.elapsed();
                match out.and_then(|o| o.check(cfg).map(|()| o.words(cfg))) {
                    Ok(v) => words.push((w, v)),
                    Err(e) => {
                        errors.push(format!("{} at {w} workers: {e}", wl.name()));
                        part_failed += wl.logical_ops(cfg, w);
                        words.push((w, Vec::new()));
                    }
                }
            }
            body += part_body;
            times.push(ns(part_body) / wl.pass_ops(cfg) as f64);
            let d = digest(words.iter().map(|(w, v)| (*w, v.as_slice())));
            last_digests.push(format!("{} {d:016x}", wl.name()));
            if let Err(e) = check.digest(d) {
                errors.push(format!("{}: {e}", wl.name()));
                part_failed = wl.pass_ops(cfg);
            }
            pass_failed += part_failed;
        }
        pass_ns.push(ns(body));
        attempted += pass_ops;
        failed += pass_failed;
        let share = start.elapsed().as_secs_f64() / budget.as_secs_f64();
        let due = (SETUP_PROBES as f64 * share) as usize;
        setup_probes(args, &mut setup, due.min(SETUP_PROBES))?;
    }
    setup_probes(args, &mut setup, SETUP_PROBES)?;
    let per_op: Vec<f64> = pass_ns.iter().map(|t| t / pass_ops as f64).collect();
    let mean = pass_ns.iter().sum::<f64>() / attempted as f64;
    let mut notes = vec![
        ("passes".into(), per_op.len().to_string()),
        ("pass ns_per_op".into(), format!("{per_op:?}")),
        ("median pass ns_per_op".into(), median(&per_op).to_string()),
        ("output digests".into(), last_digests.join(", ")),
    ];
    if parts.len() > 1 {
        for (part, times) in parts.iter().zip(&part_ns) {
            notes.push((
                format!("{} pass ns_per_op", part.wl.name()),
                format!("{times:?}"),
            ));
        }
    }
    notes.extend(errors.iter().map(|e| ("FAILED".to_string(), e.clone())));
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            ("ns_per_op".into(), mean, "ns"),
            ("setup_s".into(), median(&setup), "s"),
            ("peak_rss_mb".into(), host::peak_rss_mb()?, "MB"),
        ],
        notes,
        extra: vec![(
            "failed_frac".into(),
            failed as f64 / attempted as f64,
            "ratio",
        )],
    })
}

/// Totals of the traced run, summed over every ladder point of every round.
#[derive(Default)]
struct Totals {
    ops: u64,
    driver_ns: f64,
    twin_ns: f64,
    traced_ns: f64,
    run_ns: f64,
    body_ns: f64,
    client_ns: f64,
    exec_ns: f64,
    payload_ns: f64,
    handle_ns: f64,
    book_ns: f64,
    heavy_ns: f64,
    class_ns: [f64; OpClass::COUNT],
    blob_ns: f64,
    queue_ns: f64,
    table_ns: f64,
    events: u64,
    attempts: u64,
    requests: u64,
    throttled: u64,
    replay_mismatches: u64,
    stat: ProcStat,
    allocs: u64,
    alloc_bytes: u64,
}

fn traced(args: &Args) -> Result<RunResult, String> {
    let mut parts = parts(args)?;
    CountingAlloc::enable();
    let pass_ops = pass_ops(args.parts, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut t = Totals::default();
    let (mut attempted, mut failed, mut rounds) = (0u64, 0u64, 0);
    let mut errors = Vec::new();
    while rounds == 0 || fits(start, rounds, budget) {
        rounds += 1;
        let mut round_failed = 0;
        for Part { wl, cfg, check } in &mut parts {
            let (wl, cfg) = (*wl, &*cfg);
            let mut words = Vec::new();
            let mut part_failed = 0;
            for &w in &LADDER {
                let point = trace_point(wl, cfg, w, &mut t);
                if let Err(e) = &point {
                    errors.push(format!("{} at {w} workers: {e}", wl.name()));
                    part_failed += wl.logical_ops(cfg, w);
                }
                words.push((w, point.unwrap_or_default()));
            }
            if let Err(e) = check.digest(digest(words.iter().map(|(w, v)| (*w, v.as_slice())))) {
                errors.push(format!("{}: {e}", wl.name()));
                part_failed = wl.pass_ops(cfg);
            }
            round_failed += part_failed;
        }
        attempted += pass_ops;
        failed += round_failed;
        t.ops += pass_ops;
    }

    let n = t.ops as f64;
    let per_op = |v: f64| v / n;
    let store_ns = t.blob_ns + t.queue_ns + t.table_ns;
    let simcore_self = t.run_ns - t.body_ns - t.handle_ns - t.book_ns + t.exec_ns;
    let client_self = t.client_ns - t.exec_ns;
    let body_self = t.body_ns - t.client_ns - t.payload_ns;
    let attributed = simcore_self + client_self + body_self + t.payload_ns + t.handle_ns;
    let unattributed = t.traced_ns - attributed;
    let cpu = (t.stat.utime + t.stat.stime) as f64;
    let mut metrics: Vec<Metric> = vec![
        ("simcore.self_ns_per_op".into(), per_op(simcore_self), "ns"),
        (
            "simcore.events_per_op".into(),
            per_op(t.events as f64),
            "events/op",
        ),
        ("fabric.submit_ns_per_op".into(), per_op(t.handle_ns), "ns"),
        (
            "fabric.self_ns_per_op".into(),
            per_op(t.handle_ns - store_ns),
            "ns",
        ),
    ];
    for class in REPORTED_CLASSES {
        metrics.push((
            format!("fabric.submit_ns.{class:?}"),
            per_op(t.class_ns[class.index()]),
            "ns",
        ));
    }
    metrics.extend([
        (
            "fabric.throttled_frac".into(),
            t.throttled as f64 / t.requests as f64,
            "ratio",
        ),
        (
            "fabric.payload_heavy_frac".into(),
            t.heavy_ns / t.handle_ns,
            "ratio",
        ),
        (
            "client.attempts_per_op".into(),
            per_op(t.attempts as f64),
            "attempts/op",
        ),
        ("client.self_ns_per_op".into(), per_op(client_self), "ns"),
        ("blob.ns_per_op".into(), per_op(t.blob_ns), "ns"),
        ("queue.ns_per_op".into(), per_op(t.queue_ns), "ns"),
        ("table.ns_per_op".into(), per_op(t.table_ns), "ns"),
        ("core.payload_ns_per_op".into(), per_op(t.payload_ns), "ns"),
        ("core.body_ns_per_op".into(), per_op(body_self), "ns"),
        (
            "core.driver_ns_per_op".into(),
            per_op(t.driver_ns - t.twin_ns),
            "ns",
        ),
        (
            "proc.alloc_bytes_per_op".into(),
            per_op(t.alloc_bytes as f64),
            "B/op",
        ),
        (
            "proc.allocs_per_op".into(),
            per_op(t.allocs as f64),
            "allocs/op",
        ),
        (
            "proc.minflt_per_op".into(),
            per_op(t.stat.minflt as f64),
            "faults/op",
        ),
        ("proc.sys_frac".into(), t.stat.stime as f64 / cpu, "ratio"),
        (
            "trace.overhead_frac".into(),
            t.traced_ns / t.driver_ns - 1.0,
            "ratio",
        ),
        (
            "trace.unattributed_frac".into(),
            unattributed / t.traced_ns,
            "ratio",
        ),
    ]);
    if t.replay_mismatches > 0 {
        errors.push(format!(
            "{} replayed store calls disagreed with the live run",
            t.replay_mismatches
        ));
    }
    let mut notes = vec![
        ("rounds".into(), rounds.to_string()),
        ("driver ns_per_op".into(), per_op(t.driver_ns).to_string()),
        (
            "untraced twin ns_per_op".into(),
            per_op(t.twin_ns).to_string(),
        ),
        (
            "traced twin ns_per_op".into(),
            per_op(t.traced_ns).to_string(),
        ),
        (
            "trace bookkeeping ns_per_op (in unattributed)".into(),
            per_op(t.book_ns).to_string(),
        ),
        (
            "attribution (ns/op)".into(),
            format!(
                "core.body {} + core.payload {} + client {} + simcore {} + fabric {} + stores {} \
                 + unattributed {} = traced wall {}",
                per_op(body_self),
                per_op(t.payload_ns),
                per_op(client_self),
                per_op(simcore_self),
                per_op(t.handle_ns - store_ns),
                per_op(store_ns),
                per_op(unattributed),
                per_op(t.traced_ns)
            ),
        ),
    ];
    notes.extend(errors.iter().map(|e| ("FAILED".to_string(), e.clone())));
    Ok(RunResult {
        correct: failed == 0 && errors.is_empty(),
        attempted,
        failed: if errors.is_empty() {
            failed
        } else {
            failed.max(1)
        },
        metrics,
        notes,
        extra: Vec::new(),
    })
}

/// One ladder point of the traced run: the driver, its untraced twin and
/// its traced twin, whose outputs must agree bit for bit. Returns the
/// driver's output words.
fn trace_point(
    wl: Workload,
    cfg: &BenchConfig,
    w: usize,
    t: &mut Totals,
) -> Result<Vec<u64>, String> {
    let stat0 = ProcStat::now()?;
    let (allocs0, bytes0) = CountingAlloc::totals();
    let t0 = Instant::now();
    let driver = drive(wl, cfg, w);
    t.driver_ns += ns(t0.elapsed());
    let (allocs1, bytes1) = CountingAlloc::totals();
    let stat = ProcStat::now()?.since(stat0);
    t.stat.minflt += stat.minflt;
    t.stat.utime += stat.utime;
    t.stat.stime += stat.stime;
    t.allocs += allocs1 - allocs0;
    t.alloc_bytes += bytes1 - bytes0;
    let driver = driver?;
    driver.check(cfg)?;
    let words = driver.words(cfg);

    let t0 = Instant::now();
    let twin = catch_unwind(AssertUnwindSafe(|| run_twin(wl, cfg, w, &Plain)))
        .map_err(|_| "untraced twin panicked")?;
    t.twin_ns += ns(t0.elapsed());
    if twin.words(cfg) != words {
        return Err("untraced twin's output differs from the driver's".into());
    }

    let ledger = Ledger::default();
    let runner = TracedRunner::new(&ledger);
    let t0 = Instant::now();
    let traced = catch_unwind(AssertUnwindSafe(|| run_twin(wl, cfg, w, &runner)))
        .map_err(|_| "traced twin panicked")?;
    let sim = runner.sim.take().expect("the traced twin ran a simulation");
    let m = &sim.model;
    let metrics = m.cluster().metrics();
    t.requests += metrics
        .iter()
        .map(|(_, c)| c.completed + c.throttled + c.failed)
        .sum::<u64>();
    t.throttled += metrics.total_throttled();
    t.handle_ns += m.handle_ns as f64;
    t.book_ns += m.book_ns as f64;
    t.heavy_ns += m.heavy_ns as f64;
    for (acc, v) in t.class_ns.iter_mut().zip(m.class_ns) {
        *acc += v as f64;
    }
    t.blob_ns += m.stores.blob_ns as f64;
    t.queue_ns += m.stores.queue_ns as f64;
    t.table_ns += m.stores.table_ns as f64;
    t.replay_mismatches += m.stores.mismatches;
    let replay_ns = m.replay_ns() as f64;
    t.run_ns += sim.run_ns as f64 - replay_ns;
    t.events += sim.events;
    // The driver drops its cluster inside its own wall time; so does the
    // traced twin. The store replay is measurement, not workload: it is
    // taken out of both the run and the traced wall.
    drop(sim);
    t.traced_ns += ns(t0.elapsed()) - replay_ns;
    t.body_ns += ledger.body_ns.get() as f64;
    t.client_ns += ledger.client_ns.get() as f64;
    t.exec_ns += ledger.exec_ns.get() as f64;
    t.payload_ns += ledger.payload_ns.get() as f64;
    t.attempts += ledger.attempts.get();
    if traced.words(cfg) != words {
        return Err("traced twin's output differs from the driver's".into());
    }
    if ledger.ops.get() != wl.logical_ops(cfg, w) {
        return Err(format!(
            "traced twin issued {} logical ops, expected {}",
            ledger.ops.get(),
            wl.logical_ops(cfg, w)
        ));
    }
    Ok(words)
}
