//! The traced run's probes: spans timed from outside each layer's public
//! functions.
//!
//! * [`Traced`] wraps the [`Cluster`] model and times every `handle` call
//!   (fabric plus stores); the executor calls it from its own loop, never
//!   inside an actor poll.
//! * [`TracedEnv`] times each poll of the client-op futures, of the
//!   executor futures they await (`ActorCtx::call`/`sleep`), and each
//!   `PayloadGen::bytes` call; [`TracedRunner`] times each poll of the
//!   actor body.
//! * [`Traced`] also records each request the cluster applied and replays
//!   it at once, while request and store state are as warm as in the live
//!   call, through the public `BlobStore`/`QueueStore`/`TableStore`
//!   functions of a [`Shadow`] account, to split store time out of
//!   `handle`.

use crate::twin::{Probe, Runner};
use azsim_blob::BlobStore;
use azsim_client::Environment;
use azsim_core::runtime::ActorCtx;
use azsim_core::{ActorId, Model, SimTime, Simulation};
use azsim_fabric::{Cluster, ClusterParams};
use azsim_queue::QueueStore;
use azsim_storage::{OpClass, Service, StorageError, StorageOk, StorageRequest, StorageResult};
use azsim_table::TableStore;
use azurebench::payload::PayloadGen;
use azurebench::BenchConfig;
use bytes::Bytes;
use rand::rngs::SmallRng;
use std::cell::{Cell, RefCell};
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

/// A request moving at least this many payload bytes (up plus down) is
/// payload-heavy: the largest table entity qualifies, the largest queue
/// message does not.
pub const HEAVY_BYTES: u64 = 64 << 10;

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn add(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get() + v);
}

/// A future whose every poll is timed into `acc`.
pub struct Timed<'a, F> {
    fut: F,
    acc: &'a Cell<u64>,
}

impl<'a, F> Timed<'a, F> {
    /// Time `fut`'s polls into `acc`.
    pub fn new(fut: F, acc: &'a Cell<u64>) -> Self {
        Timed { fut, acc }
    }
}

impl<F: Future> Future for Timed<'_, F> {
    type Output = F::Output;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        // SAFETY: `fut` is structurally pinned: it is never moved out of
        // `Timed`, and `Timed` has no `Drop` impl and is `Unpin` only when
        // `F` is.
        let this = unsafe { self.get_unchecked_mut() };
        let fut = unsafe { Pin::new_unchecked(&mut this.fut) };
        let t0 = Instant::now();
        let polled = fut.poll(cx);
        add(this.acc, ns(t0.elapsed()));
        polled
    }
}

/// Actor-side span totals of one traced ladder point (nanoseconds, except
/// the counts).
#[derive(Default)]
pub struct Ledger {
    /// Polls of the actor bodies.
    pub body_ns: Cell<u64>,
    /// Polls of client-op futures (logical ops and barrier traffic).
    pub client_ns: Cell<u64>,
    /// Polls of the executor futures behind `Environment::execute`/`sleep`.
    pub exec_ns: Cell<u64>,
    /// `PayloadGen::bytes` calls.
    pub payload_ns: Cell<u64>,
    /// Logical ops issued.
    pub ops: Cell<u64>,
    /// `Environment::execute` calls (attempts, retries included).
    pub attempts: Cell<u64>,
}

/// The traced actor environment over `Simulation<Traced>`.
pub struct TracedEnv<'l> {
    ctx: ActorCtx<Traced>,
    ledger: &'l Ledger,
}

impl Environment for TracedEnv<'_> {
    fn now(&self) -> SimTime {
        self.ctx.now()
    }

    fn sleep(&self, d: Duration) -> impl Future<Output = ()> {
        Timed::new(self.ctx.sleep(d), &self.ledger.exec_ns)
    }

    fn execute(&self, req: StorageRequest) -> impl Future<Output = StorageResult<StorageOk>> {
        add(&self.ledger.attempts, 1);
        Timed::new(self.ctx.call(req), &self.ledger.exec_ns)
    }

    fn instance(&self) -> usize {
        self.ctx.id().0
    }
}

impl Probe for TracedEnv<'_> {
    fn with_rng<R>(&self, f: impl FnOnce(&mut SmallRng) -> R) -> R {
        self.ctx.with_rng(f)
    }

    fn payload(&self, gen: &mut PayloadGen, size: usize) -> Bytes {
        let t0 = Instant::now();
        let data = gen.bytes(size);
        add(&self.ledger.payload_ns, ns(t0.elapsed()));
        data
    }

    fn op<F: Future>(&self, fut: F) -> impl Future<Output = F::Output> {
        add(&self.ledger.ops, 1);
        Timed::new(fut, &self.ledger.client_ns)
    }

    fn sync<F: Future>(&self, fut: F) -> impl Future<Output = F::Output> {
        Timed::new(fut, &self.ledger.client_ns)
    }
}

/// Store time per service, and replay outcomes that differ from the live
/// run.
#[derive(Default)]
pub struct StoreTime {
    /// Time inside `BlobStore` calls.
    pub blob_ns: u64,
    /// Time inside `QueueStore` calls.
    pub queue_ns: u64,
    /// Time inside `TableStore` calls.
    pub table_ns: u64,
    /// Replayed requests whose success differs from the live call.
    pub mismatches: u64,
}

/// The cluster model with every `handle` call timed.
pub struct Traced {
    cluster: Cluster,
    shadow: Shadow,
    /// Time inside `Cluster::handle`.
    pub handle_ns: u64,
    /// `handle` time per op class.
    pub class_ns: [u64; OpClass::COUNT],
    /// `handle` time of payload-heavy requests (see [`HEAVY_BYTES`]).
    pub heavy_ns: u64,
    /// This wrapper's own bookkeeping around `handle` (request copy,
    /// accounting), excluding the replay.
    pub book_ns: u64,
    /// The replay of every applied request through the [`Shadow`] stores.
    pub stores: StoreTime,
}

impl Traced {
    /// Wrap `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        let shadow = Shadow::new(cluster.params());
        Traced {
            cluster,
            shadow,
            handle_ns: 0,
            class_ns: [0; OpClass::COUNT],
            heavy_ns: 0,
            book_ns: 0,
            stores: StoreTime::default(),
        }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Total replay time.
    pub fn replay_ns(&self) -> u64 {
        self.stores.blob_ns + self.stores.queue_ns + self.stores.table_ns
    }
}

impl Model for Traced {
    type Req = StorageRequest;
    type Resp = StorageResult<StorageOk>;

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        req: StorageRequest,
    ) -> (SimTime, Self::Resp) {
        let t_enter = Instant::now();
        let class = req.class();
        let up = req.payload_bytes_up();
        let copy = req.clone();
        let t0 = Instant::now();
        let (done, resp) = self.cluster.handle(now, actor, req);
        let t1 = Instant::now();
        let took = ns(t1 - t0);
        self.handle_ns += took;
        self.class_ns[class.index()] += took;
        let down = resp.as_ref().map_or(0, StorageOk::payload_bytes_down);
        if up + down >= HEAVY_BYTES {
            self.heavy_ns += took;
        }
        // A throttled request never reaches the stores.
        let throttled = matches!(
            resp,
            Err(StorageError::ServerBusy { .. } | StorageError::SlowDown { .. })
        );
        let mut replay = 0;
        if !throttled {
            let t2 = Instant::now();
            let ok = self.shadow.apply(now, &copy);
            replay = ns(t2.elapsed());
            let s = &mut self.stores;
            match class.service() {
                Service::Blob => s.blob_ns += replay,
                Service::Queue => s.queue_ns += replay,
                Service::Table => s.table_ns += replay,
            }
            s.mismatches += u64::from(ok != resp.is_ok());
        }
        drop(copy);
        self.book_ns += ns(t0 - t_enter) + ns(t1.elapsed()) - replay;
        (done, resp)
    }

    fn partition_of(&self, req: &StorageRequest) -> Option<u32> {
        self.cluster.partition_of(req)
    }
}

/// What the simulation itself reported for one traced ladder point.
pub struct SimTrace {
    /// Wall time of `Simulation::run_workers`.
    pub run_ns: u64,
    /// Events the executor fired.
    pub events: u64,
    /// The model after the run.
    pub model: Traced,
}

/// Runs the twin on `Simulation<Traced>` with every body poll timed.
pub struct TracedRunner<'l> {
    ledger: &'l Ledger,
    /// Executor-side outcome of the last run.
    pub sim: RefCell<Option<SimTrace>>,
}

impl<'l> TracedRunner<'l> {
    /// A runner recording actor-side spans into `ledger`.
    pub fn new(ledger: &'l Ledger) -> Self {
        TracedRunner {
            ledger,
            sim: RefCell::new(None),
        }
    }
}

impl<'l> Runner for TracedRunner<'l> {
    type Env = TracedEnv<'l>;

    fn run<R, F, Fut>(&self, cfg: &BenchConfig, workers: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(TracedEnv<'l>) -> Fut + Sync,
        Fut: Future<Output = R>,
    {
        let ledger = self.ledger;
        let model = Traced::new(azurebench::exec::build_cluster(cfg));
        let t0 = Instant::now();
        let report = Simulation::new(model, cfg.seed).run_workers(workers, |ctx| {
            Timed::new(body(TracedEnv { ctx, ledger }), &ledger.body_ns)
        });
        *self.sim.borrow_mut() = Some(SimTrace {
            run_ns: ns(t0.elapsed()),
            events: report.events,
            model: report.model,
        });
        report.results
    }
}

/// A second account's stores, fed the requests the live cluster applied.
pub struct Shadow {
    blobs: BlobStore,
    queues: QueueStore,
    tables: TableStore,
}

impl Shadow {
    /// Empty stores seeded as `Cluster::new` seeds its own.
    pub fn new(params: &ClusterParams) -> Self {
        Shadow {
            blobs: BlobStore::new(),
            queues: QueueStore::new(params.seed, params.fifo_fuzz),
            tables: TableStore::new(),
        }
    }

    /// Apply `req` as `Cluster::apply` does and return whether it
    /// succeeded. `now` is the arrival time where the cluster passes its
    /// service start; [`StoreTime::mismatches`] shows if that ever changes
    /// an outcome.
    pub fn apply(&mut self, now: SimTime, req: &StorageRequest) -> bool {
        use StorageRequest::*;
        let (blobs, queues, tables) = (&mut self.blobs, &mut self.queues, &mut self.tables);
        match req {
            CreateContainer { container } => blobs.create_container(container).is_ok(),
            PutBlock {
                container,
                blob,
                block_id,
                data,
            } => blobs
                .put_block(container, blob, block_id.clone(), data.clone())
                .is_ok(),
            PutBlockList {
                container,
                blob,
                block_ids,
            } => blobs.put_block_list(container, blob, block_ids).is_ok(),
            UploadBlockBlob {
                container,
                blob,
                data,
            } => blobs
                .upload_block_blob(container, blob, data.clone())
                .is_ok(),
            GetBlock {
                container,
                blob,
                index,
            } => blobs.get_block(container, blob, *index).is_ok(),
            DownloadBlob { container, blob } => blobs.download(container, blob).is_ok(),
            CreatePageBlob {
                container,
                blob,
                size,
            } => blobs.create_page_blob(container, blob, *size).is_ok(),
            PutPage {
                container,
                blob,
                offset,
                data,
            } => blobs
                .put_page(container, blob, *offset, data.clone())
                .is_ok(),
            GetPage {
                container,
                blob,
                offset,
                length,
            } => blobs.get_page(container, blob, *offset, *length).is_ok(),
            DeleteBlob { container, blob } => blobs.delete(container, blob).is_ok(),
            ListBlobs { container } => blobs.list_blobs(container).is_ok(),
            CreateQueue { queue } => queues.create_queue(queue).is_ok(),
            DeleteQueue { queue } => queues.delete_queue(queue).is_ok(),
            PutMessage { queue, data, ttl } => queues.put(now, queue, data.clone(), *ttl).is_ok(),
            GetMessage {
                queue,
                visibility_timeout,
            } => queues.get(now, queue, *visibility_timeout).is_ok(),
            PeekMessage { queue } => queues.peek(now, queue).is_ok(),
            DeleteMessage {
                queue,
                id,
                pop_receipt,
            } => queues.delete_message(queue, *id, *pop_receipt).is_ok(),
            GetMessageCount { queue } => queues.approximate_count(now, queue).is_ok(),
            ClearQueue { queue } => queues.clear(queue).is_ok(),
            CreateTable { table } => tables.create_table(table).is_ok(),
            DeleteTable { table } => tables.delete_table(table).is_ok(),
            InsertEntity { table, entity } => tables.insert(table, entity.clone()).is_ok(),
            QueryEntity {
                table,
                partition,
                row,
            } => tables.query(table, partition, row).is_ok(),
            QueryPartition { table, partition } => tables.query_partition(table, partition).is_ok(),
            UpdateEntity {
                table,
                entity,
                condition,
            } => tables.update(table, entity.clone(), *condition).is_ok(),
            ExecuteBatch {
                table,
                partition,
                ops,
            } => tables.execute_batch(table, partition, ops).is_ok(),
            DeleteEntity {
                table,
                partition,
                row,
                condition,
            } => tables.delete(table, partition, row, *condition).is_ok(),
        }
    }
}
