//! The workloads: which algorithm drivers each runs, at what size, how many
//! logical storage ops a driver issues, and how its output is checked.

use azurebench::alg1_blob::{run_alg1, BlobPhase, PhaseAggregate};
use azurebench::alg3_queue::{run_alg3, Alg3Result, QueueOp};
use azurebench::alg5_table::{run_alg5, Alg5Result, TableOp};
use azurebench::BenchConfig;

/// The paper's worker ladder; every pass runs each point once, in order.
pub const LADDER: [usize; 10] = [1, 2, 4, 8, 16, 32, 48, 64, 80, 96];

/// The seed whose driver outputs are pinned in `reference.txt`.
pub const REFERENCE_SEED: u64 = 2012;

/// Committed `workload digest` lines for [`REFERENCE_SEED`].
const REFERENCE: &str = include_str!("../reference.txt");

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1: few 1 MiB blob ops over a working set far beyond the
    /// CPU caches.
    BlobAlg1,
    /// Algorithm 3: many small queue ops, one queue per worker.
    QueueAlg3,
    /// Algorithm 5: table CRUD per partition, throttled into the client's
    /// sleep-and-retry path.
    TableAlg5,
}

/// The workloads `--workload` names, each with the drivers one pass runs,
/// in order, each over the whole ladder. `queue-table` runs the queue
/// ladder and then the table ladder, so one run covers both small-op
/// stores and the time of a run is shared between them.
pub const WORKLOADS: [(&str, &[Workload]); 4] = [
    ("blob-alg1", &[Workload::BlobAlg1]),
    ("queue-alg3", &[Workload::QueueAlg3]),
    ("table-alg5", &[Workload::TableAlg5]),
    ("queue-table", &[Workload::QueueAlg3, Workload::TableAlg5]),
];

/// The drivers of the workload named `name` (see [`WORKLOADS`]).
pub fn parts(name: &str) -> Option<(&'static str, &'static [Workload])> {
    WORKLOADS.into_iter().find(|(n, _)| *n == name)
}

/// What a driver returns at one ladder point.
#[derive(Clone, Debug)]
pub enum Output {
    /// `run_alg1`.
    Alg1(Vec<(BlobPhase, PhaseAggregate)>),
    /// `run_alg3`.
    Alg3(Alg3Result),
    /// `run_alg5`.
    Alg5(Alg5Result),
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::BlobAlg1, Workload::QueueAlg3, Workload::TableAlg5];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BlobAlg1 => "blob-alg1",
            Workload::QueueAlg3 => "queue-alg3",
            Workload::TableAlg5 => "table-alg5",
        }
    }

    /// Workload scale relative to the paper's volumes.
    pub fn scale(self) -> f64 {
        match self {
            // 30 × 1 MiB chunks per blob, 3 repeats.
            Workload::BlobAlg1 => 0.3,
            // 10 000 messages per size.
            Workload::QueueAlg3 => 0.5,
            // 250 entities per worker and size.
            Workload::TableAlg5 => 0.5,
        }
    }

    /// The configuration every pass runs: serial sweep, one shard.
    pub fn config(self, seed: u64) -> BenchConfig {
        let mut cfg = BenchConfig::paper()
            .with_scale(self.scale())
            .with_workers(LADDER.to_vec())
            .with_sweep_threads(1)
            .with_shards(1);
        cfg.seed = seed;
        cfg
    }

    /// Logical storage ops the algorithm issues at `workers`: every client
    /// call of the algorithm itself, each counted once however often it is
    /// retried. Barrier traffic (Algorithm 2) is not counted, because its
    /// polling count depends on timing.
    pub fn logical_ops(self, cfg: &BenchConfig, workers: usize) -> u64 {
        let w = workers as u64;
        match self {
            Workload::BlobAlg1 => {
                let c = cfg.blob_chunks() as u64;
                let r = cfg.blob_repeats() as u64;
                // create_container per worker; per repeat: create_page_blob,
                // c puts of each kind, put_block_list, c page and c block
                // reads plus two downloads per worker, two deletes.
                w + r * (1 + 2 * c + 1 + 2 * c * w + 2 * w + 2)
            }
            Workload::QueueAlg3 => {
                let per = (cfg.queue_messages_total() / workers).max(1) as u64;
                let sizes = cfg.message_sizes().len() as u64;
                // create + delete_queue, and put/peek/get/delete per message.
                w * (2 + 4 * per * sizes)
            }
            Workload::TableAlg5 => {
                let n = cfg.table_entities() as u64;
                let sizes = cfg.entity_sizes().len() as u64;
                // create_table, and insert/query/update/delete per entity.
                w * (1 + 4 * n * sizes)
            }
        }
    }

    /// Logical ops of one whole ladder pass.
    pub fn pass_ops(self, cfg: &BenchConfig) -> u64 {
        LADDER.iter().map(|&w| self.logical_ops(cfg, w)).sum()
    }

    /// Run the algorithm driver at one ladder point.
    pub fn run_driver(self, cfg: &BenchConfig, workers: usize) -> Output {
        match self {
            Workload::BlobAlg1 => Output::Alg1(run_alg1(cfg, workers)),
            Workload::QueueAlg3 => Output::Alg3(run_alg3(cfg, workers)),
            Workload::TableAlg5 => Output::Alg5(run_alg5(cfg, workers)),
        }
    }

    /// The committed digest of a whole pass at [`REFERENCE_SEED`].
    pub fn reference_digest(self) -> Option<u64> {
        REFERENCE.lines().find_map(|line| {
            let (name, hex) = line.split_once(' ')?;
            (name == self.name())
                .then(|| u64::from_str_radix(hex.trim(), 16).ok())
                .flatten()
        })
    }
}

impl Output {
    /// The output as a canonical word sequence: keys in a fixed order and
    /// every `f64` by its bits, so equal words mean bit-identical outputs.
    pub fn words(&self, cfg: &BenchConfig) -> Vec<u64> {
        let mut out = Vec::new();
        match self {
            Output::Alg1(aggs) => {
                for (phase, agg) in aggs {
                    out.push(BlobPhase::ALL.iter().position(|p| p == phase).unwrap() as u64);
                    out.push(agg.mean_worker_seconds.to_bits());
                    out.push(agg.throughput_mb_s.to_bits());
                }
            }
            Output::Alg3(r) => {
                for size in cfg.message_sizes() {
                    for op in QueueOp::ALL {
                        push_pair(&mut out, size, r.get(&(size, op)));
                    }
                }
                out.push(r.len() as u64);
            }
            Output::Alg5(r) => {
                for size in cfg.entity_sizes() {
                    for op in TableOp::ALL {
                        push_pair(&mut out, size, r.get(&(size, op)));
                    }
                }
                out.push(r.len() as u64);
            }
        }
        out
    }

    /// Invariants that hold at every seed: every phase and op is present
    /// and measured a positive, finite time (and, for blobs, throughput),
    /// and a per-op mean never exceeds its phase time.
    pub fn check(&self, cfg: &BenchConfig) -> Result<(), String> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        match self {
            Output::Alg1(aggs) => {
                let phases: Vec<BlobPhase> = aggs.iter().map(|(p, _)| *p).collect();
                if phases != BlobPhase::ALL {
                    return Err(format!("phases {phases:?} are not {:?}", BlobPhase::ALL));
                }
                for (p, a) in aggs {
                    if !positive(a.mean_worker_seconds) || !positive(a.throughput_mb_s) {
                        return Err(format!("phase {p:?} measured {a:?}"));
                    }
                }
            }
            Output::Alg3(r) => check_ops(r, &cfg.message_sizes(), &QueueOp::ALL)?,
            Output::Alg5(r) => check_ops(r, &cfg.entity_sizes(), &TableOp::ALL)?,
        }
        Ok(())
    }
}

fn push_pair(out: &mut Vec<u64>, size: usize, v: Option<&(f64, f64)>) {
    out.push(size as u64);
    match v {
        Some((phase, per_op)) => {
            out.push(phase.to_bits());
            out.push(per_op.to_bits());
        }
        None => out.push(u64::MAX),
    }
}

fn check_ops<Op>(
    r: &std::collections::HashMap<(usize, Op), (f64, f64)>,
    sizes: &[usize],
    ops: &[Op],
) -> Result<(), String>
where
    Op: Copy + std::fmt::Debug + Eq + std::hash::Hash,
{
    if r.len() != sizes.len() * ops.len() {
        return Err(format!(
            "{} results, expected {}",
            r.len(),
            sizes.len() * ops.len()
        ));
    }
    for &size in sizes {
        for &op in ops {
            let Some(&(phase, per_op)) = r.get(&(size, op)) else {
                return Err(format!("{size}/{op:?} missing"));
            };
            if !(phase.is_finite() && phase > 0.0 && per_op > 0.0 && per_op <= phase) {
                return Err(format!("{size}/{op:?}: phase {phase}, per op {per_op}"));
            }
        }
    }
    Ok(())
}

/// FNV-1a over a pass's outputs, each point prefixed by its worker count.
pub fn digest<'a>(points: impl IntoIterator<Item = (usize, &'a [u64])>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (workers, words) in points {
        for w in std::iter::once(workers as u64).chain(words.iter().copied()) {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    h
}
