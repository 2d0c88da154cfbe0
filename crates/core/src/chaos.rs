//! Chaos scenario: goodput and latency degradation under injected faults.
//!
//! This scenario is not a figure from the paper — it exercises what the
//! paper's bag-of-tasks pattern (Section IV-C) *implies*: workers drain a
//! shared task queue, the built-in visibility-timeout mechanism plus the
//! client resilience layer tolerate server crashes, throttle storms and
//! dropped requests, and **no task is ever lost** — the system only
//! degrades in goodput and latency.
//!
//! A fault-intensity knob in `[0, 1]` scales a fixed [`FaultPlan`]
//! template ([`chaos_plan`]): a crash of the server holding the shared
//! task queue, periodic cluster-wide `ServerBusy` storms, and
//! intensity-proportional request-drop / replica-stall probabilities. At
//! intensity `0` the plan is inert and the run is identical to a
//! fault-free baseline.
//!
//! Everything is seeded: the same config and intensity reproduce the same
//! metrics bit-for-bit, which is what makes goodput-vs-intensity curves
//! meaningful.

use crate::config::BenchConfig;
use crate::report::{Figure, Series};
use azsim_client::{Environment, ResilienceStats, ResilientPolicy, VirtualEnv};
use azsim_core::SimTime;
use azsim_fabric::{BusyStorm, FaultPlan, ServerCrash};
use azsim_framework::TaskQueue;
use azsim_storage::PartitionKey;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

/// Name of the shared task queue (its partition server is the crash
/// target in [`chaos_plan`]).
pub const CHAOS_QUEUE: &str = "chaos-tasks";

/// Simulated per-task processing time.
const TASK_WORK: Duration = Duration::from_millis(20);

/// One work item in the bag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosTask {
    /// Task id, unique within the run.
    pub id: u32,
}

/// Metrics of one chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosResult {
    /// The fault-intensity knob this run used.
    pub intensity: f64,
    /// Tasks submitted.
    pub tasks: u32,
    /// Distinct task ids completed at least once.
    pub distinct_done: usize,
    /// Tasks submitted but never completed (must be zero).
    pub lost: u32,
    /// Total completions (> `distinct_done` means visibility-timeout
    /// redeliveries caused duplicate processing — allowed, at-least-once).
    pub completions: u64,
    /// Virtual time until the last worker finished, in seconds.
    pub makespan_s: f64,
    /// Distinct tasks per second of makespan.
    pub goodput_tps: f64,
    /// Mean claim-to-complete latency per completion, in seconds.
    pub mean_task_latency_s: f64,
    /// Client-side resilience work, summed over workers.
    pub stats: ResilienceStats,
    /// Faults the cluster injected (storm rejections, crash/blackout
    /// faults, drops, stalls).
    pub injected_faults: u64,
    /// Tasks parked on the poison queue (must stay zero — chaos tasks are
    /// well-formed and processable).
    pub dead_lettered: u64,
}

/// The scenario's fault-plan template, scaled by `intensity` in `[0, 1]`.
/// Intensity `0` yields an inert plan.
pub fn chaos_plan(cfg: &BenchConfig, intensity: f64) -> FaultPlan {
    assert!(
        (0.0..=1.0).contains(&intensity),
        "fault intensity must be in [0, 1]"
    );
    let mut plan = FaultPlan {
        seed: cfg.seed,
        ..FaultPlan::default()
    };
    if intensity <= 0.0 {
        return plan;
    }
    // Crash the server that owns the shared task queue early in the run:
    // the partition everyone depends on fails over mid-drain.
    let server = PartitionKey::Queue {
        queue: CHAOS_QUEUE.into(),
    }
    .server_index(cfg.params.servers);
    plan.crashes.push(ServerCrash {
        server,
        at: SimTime::from_secs(2),
        failover: Duration::from_secs_f64(4.0 * intensity),
    });
    // Periodic cluster-wide throttle storms.
    for k in 0..4u64 {
        plan.busy_storms.push(BusyStorm {
            at: SimTime::from_secs(8 + 10 * k),
            duration: Duration::from_secs_f64(3.0 * intensity),
            retry_after: Duration::from_millis(500),
        });
    }
    plan.timeout_prob = 0.01 * intensity;
    plan.timeout = Duration::from_secs(5);
    plan.replica_stall_prob = 0.05 * intensity;
    plan
}

/// Run the chaos scenario once: `workers` drain a bag of scaled-`1000`
/// tasks from a shared queue while [`chaos_plan`] faults are injected.
pub fn run_chaos(cfg: &BenchConfig, workers: usize, intensity: f64) -> ChaosResult {
    let n_tasks = cfg.scaled(1000) as u32;
    let seed = cfg.seed;

    let mut cluster = crate::exec::build_cluster(cfg);
    let plan = chaos_plan(cfg, intensity);
    if !plan.is_inert() {
        cluster.set_fault_plan(plan);
    }

    let report = crate::exec::run_cluster_workers(cfg, cluster, workers, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        // One shared resilience policy per worker: jitter stream, breaker
        // map and stats span all of this worker's clients.
        let policy = Rc::new(
            ResilientPolicy::new(seed ^ me as u64)
                .with_max_attempts(10)
                .with_deadline(Duration::from_secs(120)),
        );
        let tq: TaskQueue<'_, _, ChaosTask> = TaskQueue::new(&env, CHAOS_QUEUE)
            .with_visibility(Duration::from_secs(60))
            .with_max_attempts(6)
            .with_policy(policy.clone());
        tq.init().await.unwrap();

        if me == 0 {
            for id in 0..n_tasks {
                // Submissions must survive storms: the policy absorbs
                // transient errors; if it still gives up, wait and re-send.
                while tq.submit(&ChaosTask { id }).await.is_err() {
                    env.sleep(Duration::from_secs(1)).await;
                }
            }
        }

        let mut done: Vec<(u32, f64)> = Vec::new();
        let mut idle = 0;
        while idle < 5 {
            let t0 = env.now();
            match tq.claim().await {
                Ok(Some(claimed)) => {
                    idle = 0;
                    env.sleep(TASK_WORK).await;
                    // Delete until the server gives a definite answer. A
                    // transient error that outlasts the policy (a storm's
                    // ServerBusy, a failover) is retried here: giving up
                    // would hide the task for the whole visibility timeout,
                    // and idle workers may all exit before it reappears.
                    // Only a stale pop receipt means the claim was
                    // superseded — the task is someone else's now, so it is
                    // not counted.
                    loop {
                        match tq.complete_checked(&claimed).await {
                            Ok(true) => {
                                let latency = env.now().saturating_since(t0).as_secs_f64();
                                done.push((claimed.task.id, latency));
                                break;
                            }
                            Ok(false) => break,
                            Err(e) => {
                                assert!(e.is_retryable(), "completing a chaos task failed: {e}");
                                env.sleep(Duration::from_secs(1)).await;
                            }
                        }
                    }
                }
                Ok(None) => {
                    idle += 1;
                    env.sleep(Duration::from_secs(1)).await;
                }
                Err(_) => {
                    // Breaker open or retries exhausted: the partition is
                    // mid-failover. Back off and try again; fault windows
                    // are finite.
                    env.sleep(Duration::from_secs(1)).await;
                }
            }
        }
        (
            done,
            policy.stats(),
            tq.dead_lettered(),
            env.now().as_secs_f64(),
        )
    });

    let injected_faults = report.model.fault_metrics().total();
    let mut distinct = HashSet::new();
    let mut completions = 0u64;
    let mut latency_sum = 0.0;
    let mut stats = ResilienceStats::default();
    let mut dead_lettered = 0u64;
    let mut makespan_s: f64 = 0.0;
    for (done, worker_stats, dl, end_s) in report.results {
        for (id, latency) in done {
            distinct.insert(id);
            completions += 1;
            latency_sum += latency;
        }
        stats.attempts += worker_stats.attempts;
        stats.retries += worker_stats.retries;
        stats.giveups += worker_stats.giveups;
        stats.fast_failures += worker_stats.fast_failures;
        stats.breaker_opens += worker_stats.breaker_opens;
        stats.deadline_expired += worker_stats.deadline_expired;
        dead_lettered += dl;
        makespan_s = makespan_s.max(end_s);
    }

    ChaosResult {
        intensity,
        tasks: n_tasks,
        distinct_done: distinct.len(),
        lost: n_tasks - distinct.len() as u32,
        completions,
        makespan_s,
        goodput_tps: distinct.len() as f64 / makespan_s.max(f64::EPSILON),
        mean_task_latency_s: latency_sum / (completions.max(1)) as f64,
        stats,
        injected_faults,
        dead_lettered,
    }
}

/// Sweep fault intensities and produce the chaos figures: goodput,
/// mean task latency, and resilience/injection counters vs intensity.
pub fn figure_chaos(cfg: &BenchConfig, workers: usize, intensities: &[f64]) -> Vec<Figure> {
    let mut goodput = Figure::new(
        "chaos-goodput",
        "Chaos: goodput vs fault intensity",
        "fault intensity",
        "distinct tasks per second",
    );
    goodput.series.push(Series::new("goodput"));

    let mut latency = Figure::new(
        "chaos-latency",
        "Chaos: task latency vs fault intensity",
        "fault intensity",
        "mean claim-to-complete ms",
    );
    latency.series.push(Series::new("latency"));

    let mut work = Figure::new(
        "chaos-work",
        "Chaos: resilience work vs fault intensity",
        "fault intensity",
        "count",
    );
    work.series.push(Series::new("retries"));
    work.series.push(Series::new("injected faults"));
    work.series.push(Series::new("duplicate completions"));

    let swept = crate::sweep::sweep_points(intensities, cfg.sweep_threads, |&intensity| {
        run_chaos(cfg, workers, intensity)
    });
    for (&intensity, r) in intensities.iter().zip(swept) {
        assert_eq!(r.lost, 0, "chaos run lost tasks at intensity {intensity}");
        goodput.series[0].push(intensity, r.goodput_tps);
        latency.series[0].push(intensity, r.mean_task_latency_s * 1e3);
        work.series[0].push(intensity, r.stats.retries as f64);
        work.series[1].push(intensity, r.injected_faults as f64);
        work.series[2].push(intensity, (r.completions - r.distinct_done as u64) as f64);
    }
    vec![goodput, latency, work]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BenchConfig {
        // 20 tasks, small cluster, 4 workers used by callers.
        BenchConfig::paper().with_scale(0.02)
    }

    #[test]
    fn baseline_runs_clean_without_faults() {
        let r = run_chaos(&tiny(), 4, 0.0);
        assert_eq!(r.lost, 0);
        assert_eq!(r.distinct_done as u32, r.tasks);
        assert_eq!(r.injected_faults, 0);
        assert_eq!(r.dead_lettered, 0);
        assert!(r.goodput_tps > 0.0);
    }

    #[test]
    fn full_intensity_degrades_but_loses_nothing() {
        let cfg = tiny();
        let calm = run_chaos(&cfg, 4, 0.0);
        let storm = run_chaos(&cfg, 4, 1.0);
        assert_eq!(storm.lost, 0, "faults must never lose tasks");
        assert!(storm.injected_faults > 0, "plan must actually inject");
        assert!(
            storm.makespan_s > calm.makespan_s,
            "faults must slow the run: {} !> {}",
            storm.makespan_s,
            calm.makespan_s
        );
        assert!(storm.stats.retries > 0, "the resilience layer must work");
    }

    #[test]
    fn chaos_replay_is_deterministic() {
        let cfg = tiny();
        let a = run_chaos(&cfg, 3, 0.7);
        let b = run_chaos(&cfg, 3, 0.7);
        assert_eq!(a, b, "same seed + same plan must replay identically");
    }

    #[test]
    fn figure_sweep_covers_the_ladder() {
        let figs = figure_chaos(&tiny(), 2, &[0.0, 1.0]);
        assert_eq!(figs.len(), 3);
        for f in &figs {
            for s in &f.series {
                assert_eq!(s.points.len(), 2);
            }
        }
        // Goodput at full intensity must not exceed the calm baseline.
        let g = &figs[0].series[0];
        assert!(g.points[1].1 <= g.points[0].1);
    }
}
