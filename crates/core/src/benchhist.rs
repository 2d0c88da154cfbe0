//! Continuous benchmark history: the versioned `BENCH_history.jsonl`
//! store, the trend-aware regression detector and the report renderers
//! behind `bench_check record|trend|report`.
//!
//! The paper reports point-in-time numbers; its own conclusion — cloud
//! storage performance drifts and must be re-measured — is the argument
//! for *continuous* benchmarking. This module turns the single-snapshot
//! `bench_check` gate into a history pipeline:
//!
//! * **Rows** ([`HistoryRow`], schema [`HISTORY_SCHEMA`]): one JSON line
//!   per engine-ladder rung per run, carrying full provenance (timestamp,
//!   host, commit, backend, shard count, core count) so series from
//!   different machines or configurations never silently mix.
//! * **Trend** ([`analyze`]): for every `(backend, actors, shards)` key,
//!   a robust baseline — median plus MAD over the last
//!   [`TrendConfig::window`] runs — classifies the newest point as
//!   stable, improved, regressed, recovered or too noisy to call. The
//!   gate fires only when a drop clears **both** the relative tolerance
//!   and the series' own noise band, so a noisy-but-flat series never
//!   gates while a clean 30 % step does.
//! * **Report** ([`render_markdown`], [`render_html`]): self-contained
//!   artifacts with sparkline trend tables per backend/shard section.
//! * **Agreement** ([`check_snapshot_agreement`]): `BENCH_engine.json`
//!   (the snapshot, overwritten every run) and `BENCH_history.jsonl`
//!   (append-only) must tell the same story about the latest run; a
//!   disagreement is an error, never a silent snapshot win.
//!
//! Everything is plain-text JSONL with hand-rolled serialization (the
//! offline serde shim's `Value` for parsing), so the history file stays
//! diffable and mergeable in git.

use serde::ser::write_escaped;
use serde::value::{find, parse, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Schema identifier carried by every v1 history row.
pub const HISTORY_SCHEMA: &str = "azurebench-bench-history/v1";

/// The backend assumed for rows that predate the multi-backend export.
pub const DEFAULT_BACKEND: &str = "was";

/// One engine-ladder rung of one bench run: a single JSONL line.
#[derive(Clone, Debug, PartialEq)]
pub struct HistoryRow {
    /// Wall-clock time of the run (seconds since the Unix epoch). All
    /// rungs of one run share one timestamp — it is the run key.
    pub unix_ts: u64,
    /// Hostname the run executed on (`unknown` when unavailable).
    pub host: String,
    /// Commit the run measured (`unknown` when unavailable).
    pub commit: String,
    /// Storage backend profile the run used.
    pub backend: String,
    /// Workload scale factor of the surrounding bench invocation.
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Actor count of the rung.
    pub actors: u64,
    /// Executor shard count of the rung.
    pub shards: u64,
    /// Cores available to the run.
    pub cores: u64,
    /// Simulated operations the rung completed.
    pub simulated_ops: u64,
    /// Wall-clock seconds the rung took.
    pub wall_seconds: f64,
    /// Throughput of the rung.
    pub ops_per_second: f64,
    /// Events processed per executor shard.
    pub per_shard_events: Vec<u64>,
}

impl HistoryRow {
    /// Serialize as one JSONL line (no trailing newline). Deterministic:
    /// fixed key order, shortest-roundtrip floats.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema\":");
        write_escaped(HISTORY_SCHEMA, &mut out);
        out.push_str(&format!(",\"unix_ts\":{}", self.unix_ts));
        out.push_str(",\"host\":");
        write_escaped(&self.host, &mut out);
        out.push_str(",\"commit\":");
        write_escaped(&self.commit, &mut out);
        out.push_str(",\"backend\":");
        write_escaped(&self.backend, &mut out);
        out.push_str(&format!(
            ",\"scale\":{:?},\"seed\":{},\"actors\":{},\"shards\":{},\"cores\":{},\
             \"simulated_ops\":{},\"wall_seconds\":{:?},\"ops_per_second\":{:?},\
             \"per_shard_events\":[{}]}}",
            self.scale,
            self.seed,
            self.actors,
            self.shards,
            self.cores,
            self.simulated_ops,
            self.wall_seconds,
            self.ops_per_second,
            self.per_shard_events
                .iter()
                .map(|e| e.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ));
        out
    }
}

fn num_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => n.parse().ok(),
        _ => None,
    }
}

fn get_f64(m: &[(String, Value)], key: &str) -> Option<f64> {
    find(m, key).and_then(num_f64)
}

fn get_u64(m: &[(String, Value)], key: &str) -> Option<u64> {
    get_f64(m, key).map(|v| v as u64)
}

fn get_str(m: &[(String, Value)], key: &str, default: &str) -> String {
    match find(m, key) {
        Some(Value::Str(s)) => s.to_ascii_lowercase(),
        _ => default.to_owned(),
    }
}

/// Parse one v1 row object.
fn parse_v1_row(m: &[(String, Value)]) -> Result<HistoryRow, String> {
    let req_u64 = |key: &str| get_u64(m, key).ok_or_else(|| format!("missing numeric {key:?}"));
    let req_f64 = |key: &str| get_f64(m, key).ok_or_else(|| format!("missing numeric {key:?}"));
    Ok(HistoryRow {
        unix_ts: req_u64("unix_ts")?,
        host: get_str(m, "host", "unknown"),
        commit: get_str(m, "commit", "unknown"),
        backend: get_str(m, "backend", DEFAULT_BACKEND),
        scale: req_f64("scale")?,
        seed: req_u64("seed")?,
        actors: req_u64("actors")?,
        shards: get_u64(m, "shards").unwrap_or(1),
        cores: get_u64(m, "cores").unwrap_or(1),
        simulated_ops: req_u64("simulated_ops")?,
        wall_seconds: req_f64("wall_seconds")?,
        ops_per_second: req_f64("ops_per_second")?,
        per_shard_events: find(m, "per_shard_events")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(num_f64).map(|v| v as u64).collect())
            .unwrap_or_default(),
    })
}

/// Expand one legacy (pre-v1) run line — a nested `engine` array with
/// run-level provenance — into one row per rung.
fn parse_legacy_line(m: &[(String, Value)]) -> Result<Vec<HistoryRow>, String> {
    let unix_ts = get_u64(m, "unix_ts").ok_or("legacy line missing \"unix_ts\"")?;
    let scale = get_f64(m, "scale").unwrap_or(1.0);
    let seed = get_u64(m, "seed").unwrap_or(0);
    let cores = get_u64(m, "cores").unwrap_or(1);
    let run_backend = get_str(m, "backend", DEFAULT_BACKEND);
    let engine = find(m, "engine")
        .and_then(|v| v.as_array())
        .ok_or("legacy line missing \"engine\" array")?;
    engine
        .iter()
        .map(|row| {
            let rm = row
                .as_object()
                .ok_or("legacy engine row is not an object")?;
            Ok(HistoryRow {
                unix_ts,
                host: "unknown".to_owned(),
                commit: "unknown".to_owned(),
                backend: get_str(rm, "backend", &run_backend),
                scale,
                seed,
                actors: get_u64(rm, "actors").ok_or("legacy engine row missing \"actors\"")?,
                shards: get_u64(rm, "shards").unwrap_or(1),
                cores: get_u64(rm, "cores").unwrap_or(cores),
                simulated_ops: get_u64(rm, "simulated_ops").unwrap_or(0),
                wall_seconds: get_f64(rm, "wall_seconds").unwrap_or(0.0),
                ops_per_second: get_f64(rm, "ops_per_second")
                    .ok_or("legacy engine row missing \"ops_per_second\"")?,
                per_shard_events: find(rm, "per_shard_events")
                    .and_then(|v| v.as_array())
                    .map(|a| a.iter().filter_map(num_f64).map(|v| v as u64).collect())
                    .unwrap_or_default(),
            })
        })
        .collect()
}

fn parse_line(line: &str) -> Result<Vec<HistoryRow>, String> {
    let doc = parse(line.as_bytes()).map_err(|e| format!("invalid JSON: {e}"))?;
    let m = doc.as_object().ok_or("line is not a JSON object")?;
    match find(m, "schema").and_then(|v| v.as_str()) {
        Some(HISTORY_SCHEMA) => Ok(vec![parse_v1_row(m)?]),
        Some(other) => Err(format!(
            "unknown history schema {other:?} (expected {HISTORY_SCHEMA:?})"
        )),
        // No schema tag: a legacy pre-v1 run line.
        None => parse_legacy_line(m),
    }
}

/// Parse a whole history file (v1 rows and legacy run lines mix freely);
/// errors name the offending line.
pub fn parse_history(text: &str) -> Result<Vec<HistoryRow>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        rows.extend(parse_line(line).map_err(|e| format!("BENCH_history line {}: {e}", i + 1))?);
    }
    Ok(rows)
}

/// Parse a history file and report how many of its lines were legacy
/// (pre-v1) run lines — the migration count.
pub fn migrate(text: &str) -> Result<(Vec<HistoryRow>, usize), String> {
    let rows = parse_history(text)?;
    let legacy = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.contains(HISTORY_SCHEMA))
        .count();
    Ok((rows, legacy))
}

/// The run timestamp of the newest row in a history file's text, if any.
pub fn tail_unix_ts(text: &str) -> Result<Option<u64>, String> {
    let Some(last) = text.lines().rev().find(|l| !l.trim().is_empty()) else {
        return Ok(None);
    };
    let rows = parse_line(last).map_err(|e| format!("BENCH_history tail line: {e}"))?;
    Ok(rows.iter().map(|r| r.unix_ts).max())
}

/// Append rows to a history file, refusing rows older than the file's
/// tail — a replayed run or a host with a skewed clock must not corrupt
/// the append-only ordering the trend detector relies on.
pub fn append_rows(path: &str, rows: &[HistoryRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Ok(());
    }
    let new_ts = rows.iter().map(|r| r.unix_ts).min().unwrap_or(0);
    if let Ok(existing) = std::fs::read_to_string(path) {
        if let Some(tail) = tail_unix_ts(&existing)? {
            if new_ts < tail {
                return Err(format!(
                    "refusing to append run at unix_ts {new_ts} behind the history tail \
                     ({tail}): clock skew or a replayed run would corrupt the trend order"
                ));
            }
        }
    }
    let mut text = String::new();
    for r in rows {
        text.push_str(&r.to_line());
        text.push('\n');
    }
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("cannot append {path}: {e}"))
}

/// The host identity recorded in history rows: `AZBENCH_HOST`, then
/// `HOSTNAME`, then `/etc/hostname`, then `unknown`.
pub fn detect_host() -> String {
    for var in ["AZBENCH_HOST", "HOSTNAME"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_owned();
            if !v.is_empty() {
                return v;
            }
        }
    }
    if let Ok(v) = std::fs::read_to_string("/etc/hostname") {
        let v = v.trim().to_owned();
        if !v.is_empty() {
            return v;
        }
    }
    "unknown".to_owned()
}

/// The commit identity recorded in history rows: `AZBENCH_COMMIT`, then
/// `GITHUB_SHA`, then `GIT_COMMIT`, then the commit checked out in the
/// working directory, then `unknown`. No `git` subprocess — benches must
/// not depend on a repository checkout or a git install.
pub fn detect_commit() -> String {
    for var in ["AZBENCH_COMMIT", "GITHUB_SHA", "GIT_COMMIT"] {
        if let Ok(v) = std::env::var(var) {
            let v = v.trim().to_owned();
            if !v.is_empty() {
                return v;
            }
        }
    }
    std::env::current_dir()
        .ok()
        .and_then(|dir| checked_out_commit(&dir))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out under `root`, read from `.git/HEAD` and the ref
/// it names (loose or packed) without running git; `None` when `root` is
/// not a git checkout or the ref cannot be resolved.
fn checked_out_commit(root: &std::path::Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return (!head.is_empty()).then(|| head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, r) = l.split_once(' ')?;
        (r == name).then(|| hash.to_owned())
    })
}

/// Convert a full `BENCH_engine.json` snapshot into v1 history rows with
/// the given provenance — the `bench_check record` path for snapshots
/// produced without a history append.
pub fn snapshot_history_rows(
    doc: &Value,
    host: &str,
    commit: &str,
    unix_ts: u64,
) -> Result<Vec<HistoryRow>, String> {
    let top = doc.as_object().ok_or("snapshot is not a JSON object")?;
    let config = find(top, "config").and_then(|v| v.as_object());
    let cfg_f64 = |key: &str| config.and_then(|m| get_f64(m, key));
    let scale = cfg_f64("scale").unwrap_or(1.0);
    let seed = cfg_f64("seed").unwrap_or(0.0) as u64;
    let cfg_cores = cfg_f64("cores").map(|v| v as u64);
    let engine = find(top, "engine")
        .and_then(|v| v.as_array())
        .ok_or("snapshot has no `engine` array")?;
    engine
        .iter()
        .map(|row| {
            let m = row.as_object().ok_or("engine row is not an object")?;
            Ok(HistoryRow {
                unix_ts,
                host: host.to_owned(),
                commit: commit.to_owned(),
                backend: get_str(m, "backend", DEFAULT_BACKEND),
                scale,
                seed,
                actors: get_u64(m, "actors").ok_or("engine row missing \"actors\"")?,
                shards: get_u64(m, "shards").unwrap_or(1),
                cores: get_u64(m, "cores").or(cfg_cores).unwrap_or(1),
                simulated_ops: get_u64(m, "simulated_ops").unwrap_or(0),
                wall_seconds: get_f64(m, "wall_seconds").unwrap_or(0.0),
                ops_per_second: get_f64(m, "ops_per_second")
                    .ok_or("engine row missing \"ops_per_second\"")?,
                per_shard_events: find(m, "per_shard_events")
                    .and_then(|v| v.as_array())
                    .map(|a| a.iter().filter_map(num_f64).map(|v| v as u64).collect())
                    .unwrap_or_default(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Snapshot comparison (the legacy two-snapshot gate) and agreement check.
// ---------------------------------------------------------------------------

/// One `engine` row from a `BENCH_engine.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRow {
    /// Storage backend the bench ran against (`was` when the row predates
    /// the multi-backend export and has no such key).
    pub backend: String,
    /// Actor count of the rung.
    pub actors: u64,
    /// Executor shard count (`1` when the row predates the sharded
    /// executor and has no such key).
    pub shards: u64,
    /// Measured throughput.
    pub ops_per_second: f64,
}

/// Extract the `engine` rows of a parsed `BENCH_engine.json`, defaulting
/// provenance keys absent from pre-sharding / pre-multi-backend exports.
pub fn engine_rows(doc: &Value) -> Option<Vec<EngineRow>> {
    let rows = doc
        .as_object()
        .and_then(|m| find(m, "engine"))
        .and_then(|v| v.as_array())?;
    Some(
        rows.iter()
            .filter_map(|row| {
                let m = row.as_object()?;
                Some(EngineRow {
                    backend: get_str(m, "backend", DEFAULT_BACKEND),
                    actors: get_u64(m, "actors")?,
                    shards: get_u64(m, "shards").unwrap_or(1),
                    ops_per_second: get_f64(m, "ops_per_second")?,
                })
            })
            .collect(),
    )
}

/// The two-snapshot comparison behind the legacy CLI form: returns the
/// per-row report lines and the failure count.
pub fn check(
    baseline: &[EngineRow],
    candidate: &[EngineRow],
    max_regression: f64,
) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut failures = 0usize;

    for b in baseline {
        let Some(c) = candidate
            .iter()
            .find(|c| c.backend == b.backend && c.actors == b.actors && c.shards == b.shards)
        else {
            lines.push(format!(
                "bench_check: candidate missing row for [{}] {} actors x {} shard(s)",
                b.backend, b.actors, b.shards
            ));
            failures += 1;
            continue;
        };
        let floor = b.ops_per_second * (1.0 - max_regression);
        let delta = (c.ops_per_second - b.ops_per_second) / b.ops_per_second * 100.0;
        let verdict = if c.ops_per_second < floor {
            failures += 1;
            "REGRESSION"
        } else {
            "ok"
        };
        lines.push(format!(
            "bench_check: [{}] {:>6} actors x {} shard(s): baseline {:>12.0} ops/s, candidate {:>12.0} ops/s ({delta:+.1}%) {verdict}",
            b.backend, b.actors, b.shards, b.ops_per_second, c.ops_per_second
        ));
    }

    // New actor counts on a known (backend, shards) combination are
    // ladder growth and pass freely; an unknown combination means the
    // candidate measured a configuration the baseline has never seen,
    // which must not silently count as "no regression".
    let known: BTreeSet<(&str, u64)> = baseline
        .iter()
        .map(|b| (b.backend.as_str(), b.shards))
        .collect();
    for c in candidate {
        if !known.contains(&(c.backend.as_str(), c.shards)) {
            lines.push(format!(
                "bench_check: candidate row [{}] {} actors x {} shard(s) names a \
                 backend/shards combination absent from the baseline — re-baseline \
                 or fix the bench configuration",
                c.backend, c.actors, c.shards
            ));
            failures += 1;
        }
    }

    (lines, failures)
}

/// Verify that a `BENCH_engine.json` snapshot and a history agree on the
/// latest run: for every backend the snapshot covers, the history's most
/// recent run for that backend must contain exactly the snapshot's rungs
/// with matching throughput. A mismatch means the snapshot was
/// regenerated without appending history (or vice versa) — an error, not
/// a silent snapshot win.
pub fn check_snapshot_agreement(
    snapshot: &[EngineRow],
    history: &[HistoryRow],
) -> Result<(), String> {
    let backends: BTreeSet<&str> = snapshot.iter().map(|r| r.backend.as_str()).collect();
    for backend in backends {
        let latest_ts = history
            .iter()
            .filter(|h| h.backend == backend)
            .map(|h| h.unix_ts)
            .max()
            .ok_or_else(|| {
                format!(
                    "BENCH_engine.json has [{backend}] rows but BENCH_history.jsonl has \
                     no run for that backend — record the run into the history"
                )
            })?;
        let latest: BTreeMap<(u64, u64), f64> = history
            .iter()
            .filter(|h| h.backend == backend && h.unix_ts == latest_ts)
            .map(|h| ((h.actors, h.shards), h.ops_per_second))
            .collect();
        let snap: BTreeMap<(u64, u64), f64> = snapshot
            .iter()
            .filter(|r| r.backend == backend)
            .map(|r| ((r.actors, r.shards), r.ops_per_second))
            .collect();
        for (&(actors, shards), &ops) in &snap {
            match latest.get(&(actors, shards)) {
                None => {
                    return Err(format!(
                        "BENCH_engine.json and BENCH_history.jsonl disagree on the latest \
                         [{backend}] run: snapshot has rung {actors} actors x {shards} \
                         shard(s) but the history's latest run (unix_ts {latest_ts}) does \
                         not — re-run `figures bench` (snapshot + history append together) \
                         or `bench_check record` the snapshot"
                    ));
                }
                Some(&h) if (h - ops).abs() > 1e-6 * ops.abs().max(1.0) => {
                    return Err(format!(
                        "BENCH_engine.json and BENCH_history.jsonl disagree on the latest \
                         [{backend}] run: rung {actors} actors x {shards} shard(s) is \
                         {ops:.1} ops/s in the snapshot but {h:.1} ops/s in the history's \
                         latest run (unix_ts {latest_ts}) — the snapshot was regenerated \
                         without recording history"
                    ));
                }
                Some(_) => {}
            }
        }
        for &(actors, shards) in latest.keys() {
            if !snap.contains_key(&(actors, shards)) {
                return Err(format!(
                    "BENCH_engine.json and BENCH_history.jsonl disagree on the latest \
                     [{backend}] run: the history's latest run (unix_ts {latest_ts}) has \
                     rung {actors} actors x {shards} shard(s) but the snapshot does not"
                ));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Trend detection.
// ---------------------------------------------------------------------------

/// Knobs of the trend detector.
#[derive(Clone, Copy, Debug)]
pub struct TrendConfig {
    /// How many prior runs the rolling baseline covers.
    pub window: usize,
    /// Relative drop that is *never* acceptable on a quiet series.
    pub tolerance: f64,
    /// How many robust standard deviations (1.4826 × MAD) a drop must
    /// also clear before it gates — the noise-band half-width.
    pub mad_gate: f64,
    /// Minimum prior runs before any verdict besides `Insufficient`.
    pub min_history: usize,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: 8,
            tolerance: 0.25,
            mad_gate: 4.0,
            min_history: 3,
        }
    }
}

/// Classification of the newest point of one series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrendVerdict {
    /// Fewer than `min_history` prior runs: nothing to gate against.
    Insufficient,
    /// Within tolerance and noise band of the rolling baseline.
    Stable,
    /// The series' own noise band exceeds the tolerance: a single point
    /// can never be called a regression (or an improvement) here.
    Noisy,
    /// Above baseline beyond both tolerance and noise band.
    Improvement,
    /// Below baseline beyond both tolerance and noise band — gates.
    Regression,
    /// Back within tolerance right after a regressed point.
    Recovery,
}

impl TrendVerdict {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            TrendVerdict::Insufficient => "insufficient-history",
            TrendVerdict::Stable => "stable",
            TrendVerdict::Noisy => "noisy",
            TrendVerdict::Improvement => "improvement",
            TrendVerdict::Regression => "REGRESSION",
            TrendVerdict::Recovery => "recovery",
        }
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Robust per-point statistics: the baseline the point was judged
/// against plus the resulting verdict.
#[derive(Clone, Copy, Debug)]
pub struct PointJudgement {
    /// Median of the prior window.
    pub baseline: f64,
    /// Median absolute deviation of the prior window.
    pub mad: f64,
    /// Relative deviation of the point from the baseline.
    pub deviation: f64,
    /// The verdict.
    pub verdict: TrendVerdict,
}

/// Judge every point of a chronological series against the rolling
/// window of points before it.
pub fn judge_series(values: &[f64], cfg: &TrendConfig) -> Vec<PointJudgement> {
    let mut out = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        let start = i.saturating_sub(cfg.window);
        let prior = &values[start..i];
        let j = if prior.len() < cfg.min_history {
            PointJudgement {
                baseline: median(prior),
                mad: 0.0,
                deviation: 0.0,
                verdict: TrendVerdict::Insufficient,
            }
        } else {
            let m = median(prior);
            let mad = median(&prior.iter().map(|x| (x - m).abs()).collect::<Vec<_>>());
            let sigma = 1.4826 * mad;
            let dev = if m > 0.0 { (v - m) / m } else { 0.0 };
            let prev_regressed = out
                .last()
                .is_some_and(|p: &PointJudgement| p.verdict == TrendVerdict::Regression);
            let verdict = if m <= 0.0 {
                TrendVerdict::Insufficient
            } else if dev < -cfg.tolerance && v < m - cfg.mad_gate * sigma {
                TrendVerdict::Regression
            } else if prev_regressed && dev >= -cfg.tolerance {
                TrendVerdict::Recovery
            } else if sigma / m > cfg.tolerance / 2.0 {
                TrendVerdict::Noisy
            } else if dev > cfg.tolerance && v > m + cfg.mad_gate * sigma {
                TrendVerdict::Improvement
            } else {
                TrendVerdict::Stable
            };
            PointJudgement {
                baseline: m,
                mad,
                deviation: dev,
                verdict,
            }
        };
        out.push(j);
    }
    out
}

/// The trend of one `(backend, actors, shards)` series.
#[derive(Clone, Debug)]
pub struct KeyTrend {
    /// Storage backend of the series.
    pub backend: String,
    /// Actor count of the series.
    pub actors: u64,
    /// Shard count of the series.
    pub shards: u64,
    /// Chronological throughput values, newest last.
    pub history: Vec<f64>,
    /// Timestamp of the newest row.
    pub latest_ts: u64,
    /// Judgement of the newest point.
    pub latest: PointJudgement,
    /// Whether the newest row belongs to the newest run in the whole
    /// history — only those series gate.
    pub in_latest_run: bool,
}

impl KeyTrend {
    /// Whether this series fails the gate.
    pub fn gated(&self) -> bool {
        self.in_latest_run && self.latest.verdict == TrendVerdict::Regression
    }

    /// One human-readable verdict line.
    pub fn line(&self) -> String {
        let v = self.history.last().copied().unwrap_or(0.0);
        if self.latest.verdict == TrendVerdict::Insufficient {
            return format!(
                "trend: [{}] {:>6} actors x {} shard(s): {:>12.0} ops/s ({} runs, \
                 insufficient history)",
                self.backend,
                self.actors,
                self.shards,
                v,
                self.history.len()
            );
        }
        format!(
            "trend: [{}] {:>6} actors x {} shard(s): {:>12.0} ops/s vs trend {:>12.0} \
             ({:+.1}%, {} runs) {}",
            self.backend,
            self.actors,
            self.shards,
            v,
            self.latest.baseline,
            self.latest.deviation * 100.0,
            self.history.len(),
            self.latest.verdict.label()
        )
    }
}

/// The whole trend analysis of a history.
#[derive(Clone, Debug)]
pub struct TrendReport {
    /// Per-series trends, ordered by (backend, shards, actors).
    pub keys: Vec<KeyTrend>,
    /// Timestamp of the newest run in the history.
    pub latest_ts: u64,
}

impl TrendReport {
    /// Series failing the gate.
    pub fn gated(&self) -> Vec<&KeyTrend> {
        self.keys.iter().filter(|k| k.gated()).collect()
    }
}

/// Group history rows into per-key series (file order is chronological —
/// [`append_rows`] enforces it) and judge each against its own trend.
pub fn analyze(rows: &[HistoryRow], cfg: &TrendConfig) -> TrendReport {
    let latest_ts = rows.iter().map(|r| r.unix_ts).max().unwrap_or(0);
    let mut series: BTreeMap<(String, u64, u64), Vec<&HistoryRow>> = BTreeMap::new();
    for r in rows {
        series
            .entry((r.backend.clone(), r.shards, r.actors))
            .or_default()
            .push(r);
    }
    let keys = series
        .into_iter()
        .map(|((backend, shards, actors), rows)| {
            let history: Vec<f64> = rows.iter().map(|r| r.ops_per_second).collect();
            let judgements = judge_series(&history, cfg);
            let latest = *judgements.last().expect("series is non-empty");
            let ts = rows.last().expect("series is non-empty").unix_ts;
            KeyTrend {
                backend,
                actors,
                shards,
                history,
                latest_ts: ts,
                latest,
                in_latest_run: ts == latest_ts,
            }
        })
        .collect();
    TrendReport { keys, latest_ts }
}

// ---------------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------------

/// Provenance summary of one run.
#[derive(Clone, Debug)]
pub struct RunInfo {
    /// Run timestamp.
    pub unix_ts: u64,
    /// Host the run executed on.
    pub host: String,
    /// Commit the run measured.
    pub commit: String,
    /// Backends the run covered.
    pub backends: BTreeSet<String>,
    /// Rung count.
    pub rows: usize,
}

/// Distinct runs of a history, oldest first.
pub fn runs(rows: &[HistoryRow]) -> Vec<RunInfo> {
    let mut by_ts: BTreeMap<u64, RunInfo> = BTreeMap::new();
    for r in rows {
        let e = by_ts.entry(r.unix_ts).or_insert_with(|| RunInfo {
            unix_ts: r.unix_ts,
            host: r.host.clone(),
            commit: r.commit.clone(),
            backends: BTreeSet::new(),
            rows: 0,
        });
        e.backends.insert(r.backend.clone());
        e.rows += 1;
    }
    by_ts.into_values().collect()
}

/// Render a value series as a unicode sparkline (one glyph per run).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    values
        .iter()
        .map(|&v| {
            if hi <= lo {
                BARS[3]
            } else {
                let t = (v - lo) / (hi - lo);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Format a Unix timestamp as an ISO-8601 UTC instant, no external
/// crates (Howard Hinnant's `civil_from_days`).
pub fn iso_utc(unix_ts: u64) -> String {
    let days = (unix_ts / 86_400) as i64;
    let secs = unix_ts % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02} {:02}:{:02}:{:02}Z",
        secs / 3600,
        (secs / 60) % 60,
        secs % 60
    )
}

/// How many trailing runs a report row's sparkline covers.
const SPARK_WINDOW: usize = 24;

fn spark_tail(history: &[f64]) -> &[f64] {
    &history[history.len().saturating_sub(SPARK_WINDOW)..]
}

/// Render the trend report as markdown: per `(backend, shards)` sections
/// with sparkline rung tables, plus the run provenance list.
pub fn render_markdown(rows: &[HistoryRow], report: &TrendReport, cfg: &TrendConfig) -> String {
    let mut out = String::from("# Benchmark history report\n\n");
    let run_list = runs(rows);
    out.push_str(&format!(
        "{} run(s), {} series, latest run {} — baseline: median + MAD over the \
         last {} run(s), gate at −{:.0}% beyond {}σ.\n\n",
        run_list.len(),
        report.keys.len(),
        iso_utc(report.latest_ts),
        cfg.window,
        cfg.tolerance * 100.0,
        cfg.mad_gate
    ));

    let gated = report.gated();
    if gated.is_empty() {
        out.push_str("**Gate: PASS** — no series regressed beyond its trend.\n\n");
    } else {
        out.push_str(&format!(
            "**Gate: FAIL** — {} series regressed beyond trend:\n\n",
            gated.len()
        ));
        for k in &gated {
            out.push_str(&format!("- {}\n", k.line()));
        }
        out.push('\n');
    }

    let mut sections: BTreeMap<(String, u64), Vec<&KeyTrend>> = BTreeMap::new();
    for k in &report.keys {
        sections
            .entry((k.backend.clone(), k.shards))
            .or_default()
            .push(k);
    }
    for ((backend, shards), keys) in sections {
        out.push_str(&format!("## backend `{backend}`, {shards} shard(s)\n\n"));
        out.push_str(
            "| actors | runs | trend | baseline ops/s | latest ops/s | Δ vs trend | verdict |\n\
             |---:|---:|---|---:|---:|---:|---|\n",
        );
        for k in keys {
            let latest = k.history.last().copied().unwrap_or(0.0);
            let (baseline, delta) = if k.latest.verdict == TrendVerdict::Insufficient {
                ("-".to_owned(), "-".to_owned())
            } else {
                (
                    format!("{:.0}", k.latest.baseline),
                    format!("{:+.1}%", k.latest.deviation * 100.0),
                )
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.0} | {} | {} |\n",
                k.actors,
                k.history.len(),
                sparkline(spark_tail(&k.history)),
                baseline,
                latest,
                delta,
                k.latest.verdict.label()
            ));
        }
        out.push('\n');
    }

    out.push_str(
        "## Runs\n\n| when | host | commit | backends | rungs |\n|---|---|---|---|---:|\n",
    );
    for r in &run_list {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            iso_utc(r.unix_ts),
            r.host,
            r.commit,
            r.backends.iter().cloned().collect::<Vec<_>>().join(", "),
            r.rows
        ));
    }
    out
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render the trend report as a self-contained HTML page (inline CSS, no
/// external assets) — the CI artifact.
pub fn render_html(rows: &[HistoryRow], report: &TrendReport, cfg: &TrendConfig) -> String {
    let run_list = runs(rows);
    let gated = report.gated();
    let mut out = String::from(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\
         <title>AzureBench benchmark history</title>\n<style>\n\
         body{font-family:system-ui,sans-serif;margin:2em;max-width:70em}\n\
         table{border-collapse:collapse;margin:1em 0}\n\
         th,td{border:1px solid #ccc;padding:.3em .6em;text-align:right}\n\
         th{background:#f0f0f0}td.l,th.l{text-align:left}\n\
         .spark{font-family:monospace;letter-spacing:.05em}\n\
         .pass{color:#006400;font-weight:bold}.fail{color:#8b0000;font-weight:bold}\n\
         .REGRESSION{color:#8b0000;font-weight:bold}.recovery{color:#006400}\n\
         .noisy{color:#8a6d00}\n</style></head><body>\n\
         <h1>AzureBench benchmark history</h1>\n",
    );
    out.push_str(&format!(
        "<p>{} run(s), {} series, latest run {} — baseline: median + MAD over the \
         last {} run(s), gate at &minus;{:.0}% beyond {}&sigma;.</p>\n",
        run_list.len(),
        report.keys.len(),
        iso_utc(report.latest_ts),
        cfg.window,
        cfg.tolerance * 100.0,
        cfg.mad_gate
    ));
    if gated.is_empty() {
        out.push_str("<p class=\"pass\">Gate: PASS — no series regressed beyond its trend.</p>\n");
    } else {
        out.push_str(&format!(
            "<p class=\"fail\">Gate: FAIL — {} series regressed beyond trend.</p>\n<ul>\n",
            gated.len()
        ));
        for k in &gated {
            out.push_str(&format!("<li>{}</li>\n", html_escape(&k.line())));
        }
        out.push_str("</ul>\n");
    }

    let mut sections: BTreeMap<(String, u64), Vec<&KeyTrend>> = BTreeMap::new();
    for k in &report.keys {
        sections
            .entry((k.backend.clone(), k.shards))
            .or_default()
            .push(k);
    }
    for ((backend, shards), keys) in sections {
        out.push_str(&format!(
            "<h2>backend <code>{}</code>, {shards} shard(s)</h2>\n\
             <table><tr><th>actors</th><th>runs</th><th class=\"l\">trend</th>\
             <th>baseline ops/s</th><th>latest ops/s</th><th>&Delta; vs trend</th>\
             <th class=\"l\">verdict</th></tr>\n",
            html_escape(&backend)
        ));
        for k in keys {
            let latest = k.history.last().copied().unwrap_or(0.0);
            let (baseline, delta) = if k.latest.verdict == TrendVerdict::Insufficient {
                ("-".to_owned(), "-".to_owned())
            } else {
                (
                    format!("{:.0}", k.latest.baseline),
                    format!("{:+.1}%", k.latest.deviation * 100.0),
                )
            };
            let verdict = k.latest.verdict.label();
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td class=\"l spark\">{}</td><td>{}</td>\
                 <td>{:.0}</td><td>{}</td><td class=\"l {verdict}\">{verdict}</td></tr>\n",
                k.actors,
                k.history.len(),
                sparkline(spark_tail(&k.history)),
                baseline,
                latest,
                delta,
            ));
        }
        out.push_str("</table>\n");
    }

    out.push_str(
        "<h2>Runs</h2>\n<table><tr><th class=\"l\">when</th><th class=\"l\">host</th>\
         <th class=\"l\">commit</th><th class=\"l\">backends</th><th>rungs</th></tr>\n",
    );
    for r in &run_list {
        out.push_str(&format!(
            "<tr><td class=\"l\">{}</td><td class=\"l\">{}</td><td class=\"l\">{}</td>\
             <td class=\"l\">{}</td><td>{}</td></tr>\n",
            iso_utc(r.unix_ts),
            html_escape(&r.host),
            html_escape(&r.commit),
            html_escape(&r.backends.iter().cloned().collect::<Vec<_>>().join(", ")),
            r.rows
        ));
    }
    out.push_str("</table>\n</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(ts: u64, backend: &str, actors: u64, shards: u64, ops: f64) -> HistoryRow {
        HistoryRow {
            unix_ts: ts,
            host: "testhost".into(),
            commit: "deadbeef".into(),
            backend: backend.into(),
            scale: 0.1,
            seed: 2012,
            actors,
            shards,
            cores: 1,
            simulated_ops: 1000,
            wall_seconds: 0.5,
            ops_per_second: ops,
            per_shard_events: vec![2000],
        }
    }

    /// One single-rung run per value, chronological.
    fn series_rows(values: &[f64]) -> Vec<HistoryRow> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| row(1000 + i as u64, "was", 32, 1, v))
            .collect()
    }

    #[test]
    fn row_roundtrips_through_its_own_line() {
        let r = row(1234, "s3", 128, 4, 123456.7);
        let parsed = parse_history(&r.to_line()).unwrap();
        assert_eq!(parsed, vec![r]);
    }

    #[test]
    fn rows_match_the_checked_in_schema() {
        let line = row(1234, "s3", 128, 4, 123456.7).to_line();
        let doc = parse(line.as_bytes()).unwrap();
        let errors = crate::schema::validate_against_file(
            &doc,
            concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../schemas/bench_history.schema.json"
            ),
        );
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn legacy_run_line_expands_to_one_row_per_rung() {
        let legacy = r#"{"unix_ts": 500, "scale": 0.1, "seed": 2012, "shards": 4, "cores": 1, "engine": [{ "actors": 1, "shards": 1, "cores": 1, "simulated_ops": 50000, "wall_seconds": 0.004, "ops_per_second": 12500000.0, "per_shard_events": [100000] }, { "actors": 8, "shards": 4, "cores": 1, "simulated_ops": 400000, "wall_seconds": 0.03, "ops_per_second": 13333333.3, "per_shard_events": [200000, 200000, 200000, 200000] }]}"#;
        let (rows, legacy_lines) = migrate(legacy).unwrap();
        assert_eq!(legacy_lines, 1);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].unix_ts, 500);
        assert_eq!(rows[0].backend, "was");
        assert_eq!(rows[0].host, "unknown");
        assert_eq!(rows[1].actors, 8);
        assert_eq!(rows[1].shards, 4);
        assert_eq!(rows[1].per_shard_events.len(), 4);
        // Migrated rows are v1 rows: parsing their lines yields them back.
        let text: String = rows.iter().map(|r| r.to_line() + "\n").collect();
        let (again, legacy_again) = migrate(&text).unwrap();
        assert_eq!(again, rows);
        assert_eq!(legacy_again, 0);
    }

    #[test]
    fn snapshot_rows_carry_config_provenance() {
        let doc = parse(
            br#"{"engine": [
                   { "backend": "was", "actors": 8, "shards": 4, "cores": 1,
                     "simulated_ops": 400, "wall_seconds": 0.02,
                     "ops_per_second": 20000.0, "per_shard_events": [200, 200, 200, 200] }
                 ],
                 "config": {"scale": 0.1, "seed": 2012, "shards": 4, "cores": 1}}"#,
        )
        .unwrap();
        let rows = snapshot_history_rows(&doc, "h1", "c0ffee", 42).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert_eq!(
            (r.unix_ts, r.host.as_str(), r.commit.as_str()),
            (42, "h1", "c0ffee")
        );
        assert_eq!((r.scale, r.seed, r.actors, r.shards), (0.1, 2012, 8, 4));
        assert_eq!(r.per_shard_events, vec![200, 200, 200, 200]);
    }

    #[test]
    fn unknown_schema_tag_is_an_error() {
        let line = r#"{"schema": "azurebench-bench-history/v9", "unix_ts": 1}"#;
        let err = parse_history(line).unwrap_err();
        assert!(err.contains("unknown history schema"), "{err}");
    }

    #[test]
    fn append_refuses_rows_older_than_the_tail() {
        let dir = std::env::temp_dir().join(format!("azb-hist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hist.jsonl");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);

        append_rows(path, &[row(100, "was", 1, 1, 10.0)]).unwrap();
        // Equal timestamps append fine (same run, multiple rungs/backends).
        append_rows(path, &[row(100, "was", 8, 1, 20.0)]).unwrap();
        append_rows(path, &[row(200, "was", 1, 1, 11.0)]).unwrap();
        let err = append_rows(path, &[row(150, "was", 1, 1, 12.0)]).unwrap_err();
        assert!(err.contains("refusing to append"), "{err}");
        let rows = parse_history(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(rows.len(), 3);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn checked_out_commit_reads_detached_and_packed_heads() {
        let root = std::env::temp_dir().join(format!("azb-git-{}", std::process::id()));
        let git = root.join(".git");
        std::fs::create_dir_all(&git).unwrap();
        let hash = "0123456789abcdef0123456789abcdef01234567";

        // Detached HEAD: the file holds the hash itself.
        std::fs::write(git.join("HEAD"), format!("{hash}\n")).unwrap();
        assert_eq!(checked_out_commit(&root).as_deref(), Some(hash));

        // A branch whose ref lives only in packed-refs (no loose file).
        std::fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(
            git.join("packed-refs"),
            format!(
                "# pack-refs with: peeled fully-peeled sorted\n\
                 ffffffffffffffffffffffffffffffffffffffff refs/heads/other\n\
                 {hash} refs/heads/main\n"
            ),
        )
        .unwrap();
        assert_eq!(checked_out_commit(&root).as_deref(), Some(hash));

        // A ref that resolves nowhere, and a directory that is no checkout.
        std::fs::write(git.join("HEAD"), "ref: refs/heads/gone\n").unwrap();
        assert_eq!(checked_out_commit(&root), None);
        assert_eq!(checked_out_commit(&git), None);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn step_regression_of_30_percent_gates() {
        // Clean series with small jitter, then a 30 % step down.
        let mut vals = vec![1000.0, 1010.0, 990.0, 1005.0, 995.0, 1000.0];
        vals.push(700.0);
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        assert_eq!(report.keys.len(), 1);
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Regression);
        assert!(k.gated());
        assert!(k.line().contains("REGRESSION"), "{}", k.line());
    }

    #[test]
    fn noisy_but_flat_series_passes_without_gating() {
        // ±15 % swings around a flat 1000 — the same −30 % low sample that
        // gates a quiet series is inside this series' own noise band.
        let vals = [
            1000.0, 1150.0, 850.0, 1120.0, 880.0, 1100.0, 900.0, 1150.0, 700.0,
        ];
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        let k = &report.keys[0];
        assert!(!k.gated(), "noisy series must not gate: {}", k.line());
        assert_eq!(k.latest.verdict, TrendVerdict::Noisy);
    }

    #[test]
    fn slow_drift_within_the_band_does_not_gate() {
        // 2 % decline per run: each point stays within tolerance of the
        // rolling median, so the detector (by design) follows the drift.
        let vals: Vec<f64> = (0..12).map(|i| 1000.0 * 0.98f64.powi(i)).collect();
        let report = analyze(&series_rows(&vals), &TrendConfig::default());
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Stable, "{}", k.line());
        assert!(!k.gated());
    }

    #[test]
    fn recovery_after_a_regression_is_labelled_and_passes() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 650.0, 1002.0];
        let rows = series_rows(&vals);
        let judged = judge_series(&vals, &TrendConfig::default());
        assert_eq!(judged[4].verdict, TrendVerdict::Regression);
        assert_eq!(judged[5].verdict, TrendVerdict::Recovery);
        let report = analyze(&rows, &TrendConfig::default());
        assert!(!report.keys[0].gated());
    }

    #[test]
    fn improvement_beyond_the_band_is_labelled() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 1500.0];
        let judged = judge_series(&vals, &TrendConfig::default());
        assert_eq!(judged[4].verdict, TrendVerdict::Improvement);
    }

    #[test]
    fn short_series_are_insufficient_not_gated() {
        let report = analyze(&series_rows(&[1000.0, 600.0]), &TrendConfig::default());
        let k = &report.keys[0];
        assert_eq!(k.latest.verdict, TrendVerdict::Insufficient);
        assert!(!k.gated());
    }

    #[test]
    fn only_series_in_the_latest_run_gate() {
        // The s3 series regressed in an *older* run; the latest run only
        // covers was. The stale regression must not gate today's run.
        let mut rows = Vec::new();
        for (i, v) in [1000.0, 1000.0, 1000.0, 1000.0, 600.0].iter().enumerate() {
            rows.push(row(1000 + i as u64, "s3", 32, 1, *v));
        }
        for (i, v) in [500.0, 505.0, 495.0, 500.0, 502.0].iter().enumerate() {
            rows.push(row(2000 + i as u64, "was", 32, 1, *v));
        }
        let report = analyze(&rows, &TrendConfig::default());
        let s3 = report.keys.iter().find(|k| k.backend == "s3").unwrap();
        assert_eq!(s3.latest.verdict, TrendVerdict::Regression);
        assert!(!s3.in_latest_run);
        assert!(report.gated().is_empty());
    }

    #[test]
    fn snapshot_and_history_agreement_is_checked_per_backend() {
        let snap = vec![
            EngineRow {
                backend: "was".into(),
                actors: 32,
                shards: 1,
                ops_per_second: 1000.0,
            },
            EngineRow {
                backend: "was".into(),
                actors: 128,
                shards: 1,
                ops_per_second: 900.0,
            },
        ];
        let hist = vec![
            row(100, "was", 32, 1, 800.0), // older run: may disagree freely
            row(200, "was", 32, 1, 1000.0),
            row(200, "was", 128, 1, 900.0),
        ];
        check_snapshot_agreement(&snap, &hist).unwrap();

        // Snapshot regenerated without recording: value differs.
        let mut stale = hist.clone();
        stale[1].ops_per_second = 2000.0;
        let err = check_snapshot_agreement(&snap, &stale).unwrap_err();
        assert!(err.contains("disagree on the latest"), "{err}");

        // Snapshot has a rung the history's latest run lacks.
        let err = check_snapshot_agreement(&snap, &hist[..2]).unwrap_err();
        assert!(err.contains("does not"), "{err}");

        // History has no run for the snapshot's backend at all.
        let s3 = vec![EngineRow {
            backend: "s3".into(),
            actors: 32,
            shards: 1,
            ops_per_second: 1.0,
        }];
        let err = check_snapshot_agreement(&s3, &hist).unwrap_err();
        assert!(err.contains("no run for that backend"), "{err}");
    }

    #[test]
    fn report_renders_markdown_and_html() {
        let vals = [1000.0, 1005.0, 995.0, 1000.0, 650.0];
        let rows = series_rows(&vals);
        let report = analyze(&rows, &TrendConfig::default());
        let md = render_markdown(&rows, &report, &TrendConfig::default());
        assert!(md.contains("Gate: FAIL"), "{md}");
        assert!(md.contains("backend `was`, 1 shard(s)"));
        assert!(md.contains('█'), "sparkline missing: {md}");
        let html = render_html(&rows, &report, &TrendConfig::default());
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("class=\"fail\""));
        assert!(html.contains("testhost"));
        // Self-contained: no external references.
        assert!(!html.contains("http://") && !html.contains("https://"));
    }

    #[test]
    fn sparkline_spans_the_range() {
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[5.0, 5.0]), "▄▄");
    }

    #[test]
    fn iso_utc_formats_known_instants() {
        assert_eq!(iso_utc(0), "1970-01-01 00:00:00Z");
        assert_eq!(iso_utc(1_786_110_026), "2026-08-07 13:40:26Z");
    }

    // ---- the legacy two-snapshot gate (moved from the bench_check bin) ----

    fn erow(backend: &str, actors: u64, shards: u64, ops: f64) -> EngineRow {
        EngineRow {
            backend: backend.to_owned(),
            actors,
            shards,
            ops_per_second: ops,
        }
    }

    #[test]
    fn rows_without_backend_or_shards_default_to_the_reference() {
        let doc = parse(
            br#"{"engine": [
                {"actors": 100, "ops_per_second": 5000.0},
                {"backend": "s3", "actors": 100, "shards": 4, "ops_per_second": 4000.0}
            ]}"#,
        )
        .unwrap();
        let rows = engine_rows(&doc).unwrap();
        assert_eq!(rows[0], erow(DEFAULT_BACKEND, 100, 1, 5000.0));
        assert_eq!(rows[1], erow("s3", 100, 4, 4000.0));
    }

    #[test]
    fn matching_rows_within_tolerance_pass() {
        let (lines, failures) = check(
            &[erow("was", 100, 1, 1000.0)],
            &[erow("was", 100, 1, 800.0)],
            0.25,
        );
        assert_eq!(failures, 0, "{lines:?}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let (lines, failures) = check(
            &[erow("was", 100, 1, 1000.0)],
            &[erow("was", 100, 1, 700.0)],
            0.25,
        );
        assert_eq!(failures, 1);
        assert!(lines.iter().any(|l| l.contains("REGRESSION")), "{lines:?}");
    }

    #[test]
    fn missing_candidate_row_fails() {
        let base = [erow("was", 100, 1, 1000.0), erow("was", 200, 1, 1500.0)];
        let (_, failures) = check(&base, &[erow("was", 100, 1, 1000.0)], 0.25);
        assert_eq!(failures, 1);
    }

    #[test]
    fn ladder_growth_on_a_known_combination_passes_freely() {
        let base = [erow("was", 100, 1, 1000.0)];
        let cand = [erow("was", 100, 1, 1000.0), erow("was", 400, 1, 2000.0)];
        let (lines, failures) = check(&base, &cand, 0.25);
        assert_eq!(failures, 0, "{lines:?}");
    }

    #[test]
    fn unknown_backend_combination_is_an_error_not_a_silent_pass() {
        let base = [erow("was", 100, 1, 1000.0)];
        let cand = [erow("was", 100, 1, 1000.0), erow("gcs", 100, 1, 900.0)];
        let (lines, failures) = check(&base, &cand, 0.25);
        assert_eq!(failures, 1);
        assert!(
            lines.iter().any(|l| l.contains("absent from the baseline")),
            "{lines:?}"
        );
    }

    #[test]
    fn unknown_shard_combination_is_an_error_too() {
        let base = [erow("was", 100, 1, 1000.0), erow("was", 100, 2, 1800.0)];
        let cand = [
            erow("was", 100, 1, 1000.0),
            erow("was", 100, 2, 1800.0),
            erow("was", 100, 8, 4000.0),
        ];
        let (_, failures) = check(&base, &cand, 0.25);
        assert_eq!(failures, 1);
    }

    #[test]
    fn backend_names_are_matched_case_insensitively_at_parse_time() {
        // `figures bench` serializes the serde-derived variant name
        // (`"Was"`); the hand-written history/config lines use lowercase.
        // Parsing folds both onto the lowercase profile name.
        let doc = parse(br#"{"engine": [{"backend": "Was", "actors": 1, "ops_per_second": 1.0}]}"#)
            .unwrap();
        assert_eq!(engine_rows(&doc).unwrap()[0].backend, "was");
    }
}
