//! Twins of the Algorithm 1, 3 and 5 actor bodies.
//!
//! The drivers' bodies are closures that cannot be reached from outside
//! `azurebench`, so each twin transcribes its driver's loop over the public
//! client API, generic over a [`Probe`] environment. A twin run on the plain
//! [`VirtualEnv`] must reproduce its driver's output bit for bit (checked by
//! the trace run and `tests/twin_fidelity.rs`); the traced run substitutes
//! [`crate::trace::TracedEnv`], whose probes time each layer.

use crate::workload::{Output, Workload};
use azsim_client::{BlobClient, Environment, QueueClient, TableClient, VirtualEnv};
use azsim_core::SimTime;
use azsim_framework::QueueBarrier;
use azsim_storage::{Entity, PropValue};
use azurebench::alg1_blob::{BlobPhase, PhaseAggregate, PhaseSample};
use azurebench::alg3_queue::QueueOp;
use azurebench::alg5_table::TableOp;
use azurebench::payload::PayloadGen;
use azurebench::BenchConfig;
use bytes::Bytes;
use rand::rngs::SmallRng;
use std::collections::HashMap;
use std::future::Future;
use std::time::Duration;

/// An environment the twins run on, with hooks where the traced run
/// places its probes. The defaults add nothing to the plain run.
pub trait Probe: Environment {
    /// Run `f` with this actor's deterministic random stream.
    fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R;

    /// Draw a payload (`PayloadGen::bytes`).
    fn payload(&self, gen: &mut PayloadGen, size: usize) -> Bytes {
        gen.bytes(size)
    }

    /// One logical storage op of the algorithm.
    fn op<F: Future>(&self, fut: F) -> impl Future<Output = F::Output> {
        fut
    }

    /// Client traffic of the queue barrier: client-layer work that is not
    /// a logical op.
    fn sync<F: Future>(&self, fut: F) -> impl Future<Output = F::Output> {
        fut
    }
}

impl Probe for VirtualEnv {
    fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        self.ctx().with_rng(f)
    }
}

/// Runs `workers` identical actors on one simulated cluster, handing each
/// body its environment.
pub trait Runner {
    /// The environment each actor body gets.
    type Env: Probe;

    /// Run one ladder point and return the per-worker results in actor
    /// order.
    fn run<R, F, Fut>(&self, cfg: &BenchConfig, workers: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Self::Env) -> Fut + Sync,
        Fut: Future<Output = R>;
}

/// The drivers' own executor path (`exec::run_cluster_workers`) with a
/// plain [`VirtualEnv`]: the untraced twin.
pub struct Plain;

impl Runner for Plain {
    type Env = VirtualEnv;

    fn run<R, F, Fut>(&self, cfg: &BenchConfig, workers: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(VirtualEnv) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        azurebench::exec::run_cluster_workers(
            cfg,
            azurebench::exec::build_cluster(cfg),
            workers,
            |ctx| body(VirtualEnv::new(&ctx)),
        )
        .results
    }
}

/// Run `wl`'s twin at one ladder point on `runner`.
pub fn run_twin<Rn: Runner>(
    wl: Workload,
    cfg: &BenchConfig,
    workers: usize,
    runner: &Rn,
) -> Output {
    match wl {
        Workload::BlobAlg1 => Output::Alg1(alg1(cfg, workers, runner)),
        Workload::QueueAlg3 => Output::Alg3(alg3(cfg, workers, runner)),
        Workload::TableAlg5 => Output::Alg5(alg5(cfg, workers, runner)),
    }
}

/// Twin of `alg1_blob::run_alg1`.
fn alg1<Rn: Runner>(
    cfg: &BenchConfig,
    workers: usize,
    runner: &Rn,
) -> Vec<(BlobPhase, PhaseAggregate)> {
    let chunks = cfg.blob_chunks();
    let chunk_bytes = cfg.chunk_bytes();
    let repeats = cfg.blob_repeats();
    let seed = cfg.seed;

    let results = runner.run(cfg, workers, move |env| async move {
        let env = &env;
        let me = env.instance();
        let blobs = BlobClient::new(env, "azurebench");
        env.op(blobs.create_container()).await.unwrap();
        let mut barrier = QueueBarrier::new(env, "alg1-sync", workers);
        env.sync(barrier.init()).await.unwrap();
        let mut gen = PayloadGen::new(seed, me as u64);
        let mut samples: Vec<PhaseSample> = Vec::new();

        let per = chunks / workers;
        let extra = chunks % workers;
        let lo = me * per + me.min(extra);
        let hi = lo + per + usize::from(me < extra);

        let record = |samples: &mut Vec<PhaseSample>, phase, start: SimTime, end, bytes| {
            samples.push(PhaseSample {
                phase,
                start,
                end,
                bytes,
            });
        };

        for repeat in 0..repeats {
            let page_blob = format!("AzureBenchPageBlob-{repeat}");
            let block_blob = format!("AzureBenchBlockBlob-{repeat}");
            if me == 0 {
                env.op(blobs.create_page_blob(&page_blob, (chunks * chunk_bytes) as u64))
                    .await
                    .unwrap();
            }
            env.sync(barrier.wait()).await.unwrap();

            let t0 = env.now();
            for chunk in lo..hi {
                let content = env.payload(&mut gen, chunk_bytes);
                env.op(blobs.put_page(&page_blob, (chunk * chunk_bytes) as u64, content))
                    .await
                    .unwrap();
            }
            let bytes = ((hi - lo) * chunk_bytes) as u64;
            record(&mut samples, BlobPhase::PageUpload, t0, env.now(), bytes);

            let t0 = env.now();
            for chunk in lo..hi {
                let content = env.payload(&mut gen, chunk_bytes);
                env.op(blobs.put_block(&block_blob, format!("{chunk:06}"), content))
                    .await
                    .unwrap();
            }
            record(&mut samples, BlobPhase::BlockUpload, t0, env.now(), bytes);
            env.sync(barrier.wait()).await.unwrap();
            if me == 0 {
                let ids: Vec<String> = (0..chunks).map(|c| format!("{c:06}")).collect();
                env.op(blobs.put_block_list(&block_blob, ids))
                    .await
                    .unwrap();
            }
            env.sync(barrier.wait()).await.unwrap();

            let t0 = env.now();
            for _ in 0..chunks {
                let chunk = env.with_rng(|r| rand::Rng::random_range(r, 0..chunks));
                let data = env
                    .op(blobs.get_page(
                        &page_blob,
                        (chunk * chunk_bytes) as u64,
                        chunk_bytes as u64,
                    ))
                    .await
                    .unwrap();
                assert_eq!(data.len(), chunk_bytes);
            }
            let bytes = (chunks * chunk_bytes) as u64;
            record(
                &mut samples,
                BlobPhase::PageRandomRead,
                t0,
                env.now(),
                bytes,
            );

            let t0 = env.now();
            for block in 0..chunks {
                let data = env.op(blobs.get_block(&block_blob, block)).await.unwrap();
                assert_eq!(data.len(), chunk_bytes);
            }
            record(&mut samples, BlobPhase::BlockSeqRead, t0, env.now(), bytes);
            env.sync(barrier.wait()).await.unwrap();

            let t0 = env.now();
            let data = env.op(blobs.download(&page_blob)).await.unwrap();
            let len = data.len() as u64;
            record(
                &mut samples,
                BlobPhase::PageFullDownload,
                t0,
                env.now(),
                len,
            );
            let t0 = env.now();
            let data = env.op(blobs.download(&block_blob)).await.unwrap();
            let len = data.len() as u64;
            record(
                &mut samples,
                BlobPhase::BlockFullDownload,
                t0,
                env.now(),
                len,
            );
            env.sync(barrier.wait()).await.unwrap();

            if me == 0 {
                env.op(blobs.delete(&page_blob)).await.unwrap();
                env.op(blobs.delete(&block_blob)).await.unwrap();
            }
            env.sync(barrier.wait()).await.unwrap();
        }
        samples
    });
    aggregate_alg1(results, repeats)
}

/// Transcription of `alg1_blob`'s private `aggregate`.
fn aggregate_alg1(
    per_worker: Vec<Vec<PhaseSample>>,
    repeats: usize,
) -> Vec<(BlobPhase, PhaseAggregate)> {
    BlobPhase::ALL
        .iter()
        .map(|&phase| {
            let mut worker_secs = Vec::new();
            let mut tput_sum = 0.0;
            let mut tput_n = 0;
            for rep in 0..repeats {
                let samples: Vec<&PhaseSample> = per_worker
                    .iter()
                    .filter_map(|w| w.iter().filter(|s| s.phase == phase).nth(rep))
                    .collect();
                if samples.is_empty() {
                    continue;
                }
                let start = samples.iter().map(|s| s.start).min().unwrap();
                let end = samples.iter().map(|s| s.end).max().unwrap();
                let bytes: u64 = samples.iter().map(|s| s.bytes).sum();
                let window = end.saturating_since(start).as_secs_f64();
                if window > 0.0 {
                    tput_sum += bytes as f64 / (1 << 20) as f64 / window;
                    tput_n += 1;
                }
                for s in &samples {
                    worker_secs.push(s.end.saturating_since(s.start).as_secs_f64());
                }
            }
            let agg = PhaseAggregate {
                mean_worker_seconds: if worker_secs.is_empty() {
                    0.0
                } else {
                    worker_secs.iter().sum::<f64>() / worker_secs.len() as f64
                },
                throughput_mb_s: if tput_n == 0 {
                    0.0
                } else {
                    tput_sum / tput_n as f64
                },
            };
            (phase, agg)
        })
        .collect()
}

/// Twin of `alg3_queue::run_alg3`.
fn alg3<Rn: Runner>(
    cfg: &BenchConfig,
    workers: usize,
    runner: &Rn,
) -> HashMap<(usize, QueueOp), (f64, f64)> {
    let sizes = cfg.message_sizes();
    let per_worker = (cfg.queue_messages_total() / workers).max(1);
    let seed = cfg.seed;

    let results = runner.run(cfg, workers, move |env| {
        let sizes = sizes.clone();
        async move {
            let env = &env;
            let me = env.instance();
            let queue = QueueClient::new(env, format!("AzureBenchQueue{me}"));
            env.op(queue.create()).await.unwrap();
            let mut gen = PayloadGen::new(seed, me as u64);
            let mut out: Vec<((usize, QueueOp), f64)> = Vec::new();

            for &size in &sizes {
                let t0 = env.now();
                for _ in 0..per_worker {
                    let data = env.payload(&mut gen, size);
                    env.op(queue.put_message(data)).await.unwrap();
                }
                out.push(((size, QueueOp::Put), secs_since(env, t0)));

                let t0 = env.now();
                for _ in 0..per_worker {
                    let m = env.op(queue.peek_message()).await.unwrap();
                    assert!(m.is_some(), "peek must find a message");
                }
                out.push(((size, QueueOp::Peek), secs_since(env, t0)));

                let t0 = env.now();
                for _ in 0..per_worker {
                    let m = env
                        .op(queue.get_message_with_visibility(Duration::from_secs(3600)))
                        .await
                        .unwrap()
                        .expect("queue must not run dry");
                    assert_eq!(m.data.len(), size);
                    env.op(queue.delete_message(&m)).await.unwrap();
                }
                out.push(((size, QueueOp::Get), secs_since(env, t0)));
            }
            env.op(queue.delete_queue()).await.unwrap();
            out
        }
    });
    mean_phases(results, per_worker)
}

/// Twin of `alg5_table::run_alg5`.
fn alg5<Rn: Runner>(
    cfg: &BenchConfig,
    workers: usize,
    runner: &Rn,
) -> HashMap<(usize, TableOp), (f64, f64)> {
    let sizes = cfg.entity_sizes();
    let count = cfg.table_entities();
    let seed = cfg.seed;

    let results = runner.run(cfg, workers, move |env| {
        let sizes = sizes.clone();
        async move {
            let env = &env;
            let me = env.instance();
            let table = TableClient::new(env, "AzureBenchTable");
            env.op(table.create_table()).await.unwrap();
            let pk = format!("role-{me}");
            let mut gen = PayloadGen::new(seed, me as u64);
            let mut out: Vec<((usize, TableOp), f64)> = Vec::new();
            let entity = |rk: usize, gen: &mut PayloadGen, size| {
                let data = env.payload(gen, size);
                Entity::new(&pk, rk.to_string()).with("data", PropValue::Binary(data))
            };

            for &size in &sizes {
                let t0 = env.now();
                for rk in 0..count {
                    env.op(table.insert(entity(rk, &mut gen, size)))
                        .await
                        .unwrap();
                }
                out.push(((size, TableOp::Insert), secs_since(env, t0)));

                let t0 = env.now();
                for rk in 0..count {
                    let got = env.op(table.query(&pk, &rk.to_string())).await.unwrap();
                    assert!(got.is_some(), "query must hit");
                }
                out.push(((size, TableOp::Query), secs_since(env, t0)));

                let t0 = env.now();
                for rk in 0..count {
                    env.op(table.update(entity(rk, &mut gen, size)))
                        .await
                        .unwrap();
                }
                out.push(((size, TableOp::Update), secs_since(env, t0)));

                let t0 = env.now();
                for rk in 0..count {
                    env.op(table.delete_entity(&pk, &rk.to_string()))
                        .await
                        .unwrap();
                }
                out.push(((size, TableOp::Delete), secs_since(env, t0)));
            }
            out
        }
    });
    mean_phases(results, count)
}

fn secs_since<E: Environment>(env: &E, t0: SimTime) -> f64 {
    env.now().saturating_since(t0).as_secs_f64()
}

/// Transcription of the drivers' fold: mean phase time across workers, and
/// per-op mean = phase / count.
fn mean_phases<K: Eq + std::hash::Hash>(
    per_worker: Vec<Vec<(K, f64)>>,
    count: usize,
) -> HashMap<K, (f64, f64)> {
    let mut acc: HashMap<K, Vec<f64>> = HashMap::new();
    for worker in per_worker {
        for (key, secs) in worker {
            acc.entry(key).or_default().push(secs);
        }
    }
    acc.into_iter()
        .map(|(key, v)| {
            let mean_phase = v.iter().sum::<f64>() / v.len() as f64;
            (key, (mean_phase, mean_phase / count as f64))
        })
        .collect()
}
