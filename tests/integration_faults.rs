//! Integration: fault injection end to end.
//!
//! A bag of tasks is drained from a shared queue while a seeded
//! [`FaultPlan`] crashes the queue's partition server and injects a
//! cluster-wide `ServerBusy` storm. The stack under test spans every
//! layer added for fault tolerance: the fabric's `FaultInjector`, the
//! client's `ResilientPolicy` (jittered backoff, deadlines, breaker) and
//! the framework's visibility-timeout + dead-letter task queue.
//!
//! Guarantees asserted here:
//! * **no task loss** — every submitted task completes despite the faults;
//! * **deterministic replay** — two runs with the same seed produce
//!   identical results and identical fault/metric counters.

use azsim_client::{Environment, ResilientPolicy, VirtualEnv};
use azsim_core::{SimTime, Simulation};
use azsim_fabric::{BusyStorm, Cluster, ClusterParams, FaultMetrics, FaultPlan, ServerCrash};
use azsim_framework::TaskQueue;
use azsim_storage::PartitionKey;
use azurebench::chaos::run_chaos;
use azurebench::BenchConfig;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use std::time::Duration;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Item {
    id: u32,
}

const QUEUE: &str = "bag";
const TASKS: u32 = 60;
const WORKERS: usize = 4;

/// Crash the bag's partition server at t=1 s (3 s failover) and throw a
/// 2 s `ServerBusy` storm at t=6 s, plus a sprinkle of dropped requests.
fn crash_and_storm_plan(params: &ClusterParams) -> FaultPlan {
    let server = PartitionKey::Queue {
        queue: QUEUE.into(),
    }
    .server_index(params.servers);
    FaultPlan {
        seed: 7,
        crashes: vec![ServerCrash {
            server,
            at: SimTime::from_secs(1),
            failover: Duration::from_secs(3),
        }],
        busy_storms: vec![BusyStorm {
            at: SimTime::from_secs(6),
            duration: Duration::from_secs(2),
            retry_after: Duration::from_millis(250),
        }],
        timeout_prob: 0.005,
        ..FaultPlan::default()
    }
}

/// One full bag-of-tasks run under the fault plan. Returns the sorted
/// completed ids, the per-run fault counters and the virtual makespan.
fn run_bag(seed: u64) -> (Vec<u32>, FaultMetrics, u64) {
    let params = ClusterParams::default();
    let plan = crash_and_storm_plan(&params);
    let mut cluster = Cluster::new(params);
    cluster.set_fault_plan(plan);

    let sim = Simulation::new(cluster, seed);
    let report = sim.run_workers(WORKERS, move |ctx| async move {
        let env = VirtualEnv::new(&ctx);
        let me = env.instance();
        let policy = Rc::new(
            ResilientPolicy::new(seed ^ me as u64)
                .with_max_attempts(10)
                .with_deadline(Duration::from_secs(120)),
        );
        let tq: TaskQueue<'_, _, Item> = TaskQueue::new(&env, QUEUE)
            .with_visibility(Duration::from_secs(60))
            .with_policy(policy);
        tq.init().await.unwrap();
        if me == 0 {
            for id in 0..TASKS {
                while tq.submit(&Item { id }).await.is_err() {
                    env.sleep(Duration::from_secs(1)).await;
                }
            }
        }
        let mut done = Vec::new();
        let mut idle = 0;
        while idle < 5 {
            match tq.claim().await {
                Ok(Some(claimed)) => {
                    idle = 0;
                    env.sleep(Duration::from_millis(10)).await;
                    if tq.complete(&claimed).await.is_ok() {
                        done.push(claimed.task.id);
                    }
                }
                Ok(None) => {
                    idle += 1;
                    env.sleep(Duration::from_secs(1)).await;
                }
                Err(_) => env.sleep(Duration::from_secs(1)).await,
            }
        }
        (done, env.now().as_nanos())
    });

    let faults = *report.model.fault_metrics();
    let mut ids: Vec<u32> = Vec::new();
    let mut makespan = 0u64;
    for (done, end) in report.results {
        ids.extend(done);
        makespan = makespan.max(end);
    }
    ids.sort_unstable();
    ids.dedup();
    (ids, faults, makespan)
}

#[test]
fn bag_survives_crash_and_storm_without_task_loss() {
    let (ids, faults, _) = run_bag(2012);
    let expect: Vec<u32> = (0..TASKS).collect();
    assert_eq!(ids, expect, "every task must complete at least once");
    assert!(
        faults.crash_faults > 0,
        "the crash window must actually reject requests: {faults:?}"
    );
    assert!(
        faults.injected_busy > 0,
        "the storm must actually reject requests: {faults:?}"
    );
}

#[test]
fn same_seed_replays_identically() {
    let a = run_bag(99);
    let b = run_bag(99);
    assert_eq!(a, b, "same-seed runs must replay bit-identically");
}

#[test]
fn different_seeds_still_lose_nothing() {
    let (ids, _, _) = run_bag(4242);
    assert_eq!(ids.len() as u32, TASKS);
}

#[test]
fn chaos_scenario_is_lossless_and_deterministic() {
    // The second case is `figures chaos` at its defaults: a delete that
    // gave up during a storm once left a task invisible past the run's end.
    for (cfg, workers, intensity) in [
        (BenchConfig::paper().with_scale(0.02), 3, 0.8),
        (BenchConfig::paper(), 8, 0.75),
    ] {
        let a = run_chaos(&cfg, workers, intensity);
        assert_eq!(a.lost, 0, "lost tasks at intensity {intensity}");
        assert!(a.injected_faults > 0);
        let b = run_chaos(&cfg, workers, intensity);
        assert_eq!(a, b, "chaos metrics must replay identically");
    }
}
