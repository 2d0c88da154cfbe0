//! The cluster: request pipeline, partition placement, replication and
//! throttling.
//!
//! A request's virtual latency is assembled from the stages a real request
//! crosses (paper §IV, and the WAS SOSP'11 architecture it references):
//!
//! ```text
//! client NIC ─► LB/front-end ─► account buckets ─► partition throttle
//!   ─► partition-server FIFO (base + per-class overhead)
//!   ─► data pipes (per-blob 60 MB/s write / ~170 MB/s read, per-server,
//!       shared table front-end)
//!   ─► replica synchronization (writes; + visibility state for GetMessage)
//!   ─► response over the same pipes and NIC
//! ```
//!
//! All stages are non-preemptive FIFO resources, so each operation is
//! priced analytically at arrival (one event per op in the runtime).

use crate::backend::ThrottleShape;
use crate::faults::{FaultDecision, FaultInjector, FaultMetrics, FaultPlan};
use crate::metrics::ClusterMetrics;
use crate::metrics::{MetricsSnapshot, PartitionHeat};
use crate::params::ClusterParams;
use crate::timeline::{ClusterSample, ClusterTimeline, ResourceUsage};
use crate::trace::{Phase, PhaseBreadcrumb, TraceOutcome, TraceRecord, Tracer};
use crate::verify::{History, OpOutcome, OpRecord};
use azsim_blob::BlobStore;
use azsim_core::resource::{Admission, FifoServer, Pipe, TokenBucket};
use azsim_core::runtime::{ActorId, Model};
use azsim_core::SimTime;
use azsim_queue::QueueStore;
use azsim_storage::{
    OpClass, PartitionKey, PartitionRef, Service, StorageError, StorageOk, StorageRequest,
    StorageResult, SyncClass,
};
use azsim_table::TableStore;
use std::collections::HashMap;
use std::time::Duration;

/// All simulated resources of one partition, created the first time the
/// partition is addressed and thereafter reached through a dense interned
/// id — one hash of the *borrowed* key per operation instead of five owned
/// `HashMap<PartitionKey, _>` probes with per-op `String` clones.
///
/// Eager creation is sound because every resource's initial state is
/// creation-time independent: a [`FifoServer`] starts free, a [`Pipe`]
/// transfers zero-cost until first use, and a [`TokenBucket`] starts full
/// (refill is capped at burst, so "created long ago" ≡ "created now").
struct PartitionSlot {
    /// Owned key, materialized once (fault rules compare against it).
    key: PartitionKey,
    /// Cached partition-server placement.
    server: usize,
    /// Per-partition request serialization.
    fifo: FifoServer,
    /// Per-blob write pipe (blob partitions only).
    write_pipe: Option<Pipe>,
    /// Per-blob read pipe (blob partitions only).
    read_pipe: Option<Pipe>,
    /// 500 msg/s queue bucket or 500 entities/s table-partition bucket.
    bucket: Option<TokenBucket>,
    /// Operations addressed to this partition (hot-key heatmap).
    ops: u64,
    /// Operations rejected by this partition's throttle.
    throttled: u64,
}

/// Per-object mutation rate limiter (GCS-style backends): one token
/// bucket and consecutive-rejection counter per limited object. Blob
/// partitions are already per-object, so the object id is empty there;
/// table mutations key by row so two rows of one partition are limited
/// independently, as GCS documents.
struct ObjectUpdateLimiter {
    /// Mutations per second per object.
    rate: f64,
    /// `(slot, object id)` → (bucket, consecutive rejections).
    buckets: HashMap<(usize, String), (TokenBucket, u32)>,
}

/// The object a mutation targets under a per-object update limit, or
/// `None` when the class is not update-limited.
fn update_limited_object(req: &StorageRequest) -> Option<String> {
    match req {
        // Blob mutations: the partition slot is the blob, so the slot id
        // alone identifies the object.
        StorageRequest::PutBlock { .. }
        | StorageRequest::PutBlockList { .. }
        | StorageRequest::UploadBlockBlob { .. }
        | StorageRequest::PutPage { .. } => Some(String::new()),
        // Table mutations of an existing row.
        StorageRequest::UpdateEntity { entity, .. } => Some(entity.row_key.clone()),
        StorageRequest::DeleteEntity { row, .. } => Some(row.clone()),
        _ => None,
    }
}

/// Client-visible round trip of a fast rejection (throttle or injected
/// fault) after it reaches the front end.
const REJECT_RTT: Duration = Duration::from_millis(1);

/// How one submitted operation ended. Every exit of [`Cluster::submit`]
/// builds one and hands it to [`Cluster::complete`], the one place an
/// outcome reaches the observers.
struct Completion {
    issued: SimTime,
    done: SimTime,
    actor: usize,
    class: OpClass,
    slot: usize,
    outcome: OpOutcome,
    /// Rejected by a throttle, injected or declared — also when the
    /// rejection's response was then lost and the client saw a timeout.
    throttled: bool,
    bytes_up: u64,
    bytes_down: u64,
    /// Stage boundaries: FIFO arrival, service start, service end and
    /// replication end. A request rejected before the partition server has
    /// all four at the rejection point.
    stages: [SimTime; 4],
}

/// The simulated storage cluster for one account.
pub struct Cluster {
    params: ClusterParams,
    blobs: BlobStore,
    queues: QueueStore,
    tables: TableStore,
    /// Stable hash → slot-id candidates (more than one only on a collision).
    intern: HashMap<u64, Vec<u32>>,
    /// Interned partition resources, indexed by slot id.
    slots: Vec<PartitionSlot>,
    server_rx: Vec<Pipe>,
    server_tx: Vec<Pipe>,
    table_frontend: Pipe,
    account_up: Pipe,
    account_down: Pipe,
    account_tx: TokenBucket,
    /// Consecutive account-scope throttle rejections — drives the S3
    /// `SlowDown` doubling curve and GCS pushback; reset whenever a
    /// request is admitted. Unused under WAS's deficit-hint shape.
    account_pushback: u32,
    /// Per-object mutation limiter, present iff the backend declares an
    /// object update rate (GCS).
    object_update: Option<ObjectUpdateLimiter>,
    /// Eventual list-after-write overlay, present iff the backend declares
    /// a listing visibility window (S3): `(container, blob)` → the time the
    /// blob becomes listable.
    list_visibility: Option<HashMap<(String, String), SimTime>>,
    /// Per-actor NICs, indexed by actor id (grown on demand).
    nics: Vec<Option<Pipe>>,
    /// Per-actor NIC bandwidth overrides set before first use.
    nic_overrides: Vec<Option<f64>>,
    metrics: ClusterMetrics,
    tracer: Option<Tracer>,
    timeline: Option<ClusterTimeline>,
    faults: FaultInjector,
    history: Option<History>,
}

impl Cluster {
    /// Build a cluster from parameters.
    pub fn new(params: ClusterParams) -> Self {
        // Every shared pipe is full duplex (separate uplink and downlink
        // lanes): within one operation the uplink is crossed early and the
        // downlink late, so a half-duplex pipe would let late downlink
        // timestamps falsely delay the next operation's uplink.
        let server_rx = (0..params.servers)
            .map(|_| Pipe::new(params.server_bandwidth))
            .collect();
        let server_tx = (0..params.servers)
            .map(|_| Pipe::new(params.server_bandwidth))
            .collect();
        // The backend profile decides the account transaction rate: WAS
        // uses the documented 5 000 tx/s, peers may override it, and a
        // cap-free backend (file://) gets a bucket so large it can never
        // engage — keeping the field non-optional so telemetry and
        // resource accounting are uniform across backends.
        let account_rate = if params.backend.account_cap {
            params
                .backend
                .account_rate_override
                .unwrap_or(params.account_tx_rate)
        } else {
            1e12
        };
        Cluster {
            blobs: BlobStore::new(),
            queues: QueueStore::new(params.seed, params.fifo_fuzz),
            tables: TableStore::new(),
            intern: HashMap::new(),
            slots: Vec::new(),
            server_rx,
            server_tx,
            table_frontend: Pipe::new(params.table_frontend_bandwidth),
            account_up: Pipe::new(params.account_bandwidth),
            account_down: Pipe::new(params.account_bandwidth),
            account_tx: TokenBucket::new(
                account_rate,
                params.throttle_burst.max(account_rate / 10.0),
            ),
            account_pushback: 0,
            object_update: params
                .backend
                .object_update_rate
                .map(|rate| ObjectUpdateLimiter {
                    rate,
                    buckets: HashMap::new(),
                }),
            list_visibility: params
                .backend
                .list_visibility_window
                .map(|_| HashMap::new()),
            nics: Vec::new(),
            nic_overrides: Vec::new(),
            metrics: ClusterMetrics::new(),
            tracer: None,
            timeline: params.timeline_resolution.map(ClusterTimeline::new),
            faults: FaultInjector::inert(),
            history: None,
            params,
        }
    }

    /// Dense id for a partition, creating its resources on first sight.
    fn intern(&mut self, pr: PartitionRef<'_>) -> usize {
        let h = pr.stable_hash();
        let ids = self.intern.entry(h).or_default();
        for &id in ids.iter() {
            if pr.matches(&self.slots[id as usize].key) {
                return id as usize;
            }
        }
        let id = self.slots.len() as u32;
        ids.push(id);
        let key = pr.to_key();
        let p = &self.params;
        let (write_pipe, read_pipe, bucket) = match &key {
            PartitionKey::Blob { .. } => (
                Some(Pipe::new(p.blob_write_bandwidth)),
                Some(Pipe::new(p.blob_read_bandwidth)),
                None,
            ),
            PartitionKey::Queue { .. } => (
                None,
                None,
                p.backend
                    .per_partition_caps
                    .then(|| TokenBucket::new(p.queue_rate, p.throttle_burst)),
            ),
            PartitionKey::Table { .. } => (
                None,
                None,
                p.backend
                    .per_partition_caps
                    .then(|| TokenBucket::new(p.partition_rate, p.throttle_burst)),
            ),
            PartitionKey::Control => (None, None, None),
        };
        self.slots.push(PartitionSlot {
            server: pr.server_index(p.servers),
            key,
            fifo: FifoServer::new(),
            write_pipe,
            read_pipe,
            bucket,
            ops: 0,
            throttled: 0,
        });
        id as usize
    }

    /// A cluster with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(ClusterParams::default())
    }

    /// Override one role instance's NIC bandwidth (bytes/s) — used by the
    /// compute layer to express VM sizes. Must be called before the actor's
    /// first request.
    pub fn set_actor_nic(&mut self, actor: usize, bytes_per_sec: f64) {
        if actor >= self.nic_overrides.len() {
            self.nic_overrides.resize(actor + 1, None);
        }
        self.nic_overrides[actor] = Some(bytes_per_sec);
    }

    /// Cluster parameters.
    pub fn params(&self) -> &ClusterParams {
        &self.params
    }

    /// Server-side metrics.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Install a fault plan. The default plan is inert; a non-inert plan
    /// makes the cluster inject the scheduled and probabilistic faults it
    /// describes. Install before the first request for reproducibility.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = FaultInjector::new(plan);
    }

    /// Counters of injected faults (all zero under the inert default).
    pub fn fault_metrics(&self) -> &FaultMetrics {
        self.faults.metrics()
    }

    /// Record one ground-truth [`OpRecord`] per submitted operation —
    /// including whether timed-out operations secretly executed. Off by
    /// default (one branch per op when off); enable for verification runs.
    pub fn enable_history(&mut self) {
        self.history = Some(History::default());
    }

    /// The recorded ground-truth history, if enabled.
    pub fn history(&self) -> Option<&History> {
        self.history.as_ref()
    }

    /// Ground-truth audit of one queue's live messages at `now` — the
    /// final-state evidence the verification layer checks invariants
    /// against (bypasses pricing, faults and metrics entirely).
    pub fn queue_audit(
        &self,
        now: SimTime,
        name: &str,
    ) -> azsim_storage::StorageResult<Vec<azsim_queue::AuditedMessage>> {
        self.queues.audit(now, name)
    }

    /// Ground-truth point read of one table entity (verification only;
    /// bypasses pricing, faults and metrics).
    pub fn table_entity(
        &self,
        table: &str,
        partition: &str,
        row: &str,
    ) -> Option<azsim_storage::Entity> {
        self.tables
            .query(table, partition, row)
            .ok()
            .flatten()
            .map(|(e, _)| e)
    }

    /// Exportable snapshot of everything the cluster measured: per-class
    /// counters, fault tallies, the hottest partitions (top 64 by op count,
    /// ties broken by label), and — when phase profiling is enabled —
    /// per-class/per-phase latency histograms.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut heat: Vec<PartitionHeat> = self
            .slots
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| PartitionHeat {
                partition: s.key.to_string(),
                server: s.server,
                ops: s.ops,
                throttled: s.throttled,
            })
            .collect();
        heat.sort_by(|a, b| {
            b.ops
                .cmp(&a.ops)
                .then_with(|| a.partition.cmp(&b.partition))
        });
        heat.truncate(64);
        MetricsSnapshot::build(
            &self.metrics,
            self.faults.metrics(),
            heat,
            self.tracer.as_ref().and_then(|t| t.phase_stats()),
        )
    }

    /// Record one [`TraceRecord`] per operation, keeping at most
    /// `capacity` records. Off by default.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::with_capacity(capacity));
    }

    /// Stream every operation into a per-class/per-phase aggregate without
    /// retaining records — O(1) memory per operation. If a record buffer is
    /// already enabled, aggregation is added alongside it.
    pub fn enable_phase_profiling(&mut self) {
        match &mut self.tracer {
            Some(tr) => tr.enable_aggregation(),
            None => self.tracer = Some(Tracer::aggregate_only()),
        }
    }

    /// Sample the gauge timeline (token-bucket fill, FIFO backlog,
    /// inflight ops, fault windows, …) at the given virtual-time
    /// resolution. Off by default — and when off, the per-operation cost
    /// is a single branch. Sampling is passive, so completion times are
    /// bit-identical with the timeline on or off.
    pub fn enable_timeline(&mut self, resolution: Duration) {
        self.timeline = Some(ClusterTimeline::new(resolution));
    }

    /// The gauge timeline, if sampling is enabled.
    pub fn timeline(&self) -> Option<&ClusterTimeline> {
        self.timeline.as_ref()
    }

    /// Time-weighted usage of every cluster resource over `[0, end]`:
    /// token buckets (saturation needs the timeline enabled; throttle
    /// counts are always exact), partition FIFOs and all shared pipes
    /// (busy-time utilization, exact regardless of the timeline). Rows
    /// come out in a fixed construction order; consumers rank them.
    pub fn resource_usage(&self, end: SimTime) -> Vec<ResourceUsage> {
        let window = end.saturating_since(SimTime::ZERO);
        let mut out = Vec::new();
        out.push(ResourceUsage {
            resource: "account_tx".into(),
            kind: "token_bucket".into(),
            saturation: self
                .timeline
                .as_ref()
                .map(|tl| tl.account_tx_saturation(end))
                .unwrap_or(0.0),
            throttled: self.account_tx.throttle_count(),
            busy_s: 0.0,
        });
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.ops == 0 {
                continue;
            }
            let label = slot.key.to_string();
            if let Some(bucket) = &slot.bucket {
                out.push(ResourceUsage {
                    resource: format!("bucket:{label}"),
                    kind: "token_bucket".into(),
                    saturation: self
                        .timeline
                        .as_ref()
                        .and_then(|tl| tl.slot_saturation(i, end))
                        .unwrap_or(0.0),
                    throttled: bucket.throttle_count(),
                    busy_s: 0.0,
                });
            }
            if let Some(pipe) = &slot.write_pipe {
                if pipe.bytes_transferred() > 0 {
                    out.push(ResourceUsage::busy(
                        format!("pipe:blob-write:{label}"),
                        "pipe",
                        pipe.busy_time(),
                        window,
                    ));
                }
            }
            if let Some(pipe) = &slot.read_pipe {
                if pipe.bytes_transferred() > 0 {
                    out.push(ResourceUsage::busy(
                        format!("pipe:blob-read:{label}"),
                        "pipe",
                        pipe.busy_time(),
                        window,
                    ));
                }
            }
            if slot.fifo.busy_time() > Duration::ZERO {
                out.push(ResourceUsage::busy(
                    format!("fifo:{label}"),
                    "fifo",
                    slot.fifo.busy_time(),
                    window,
                ));
            }
        }
        if self.table_frontend.bytes_transferred() > 0 {
            out.push(ResourceUsage::busy(
                "pipe:table_frontend".into(),
                "pipe",
                self.table_frontend.busy_time(),
                window,
            ));
        }
        out.push(ResourceUsage::busy(
            "pipe:account_up".into(),
            "pipe",
            self.account_up.busy_time(),
            window,
        ));
        out.push(ResourceUsage::busy(
            "pipe:account_down".into(),
            "pipe",
            self.account_down.busy_time(),
            window,
        ));
        // Server and NIC pipes are numerous and rarely the binding limit:
        // report only the busiest of each family (ties: lowest index).
        let busiest = |pipes: &[Pipe]| -> Option<(usize, Duration)> {
            pipes
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.busy_time()))
                .filter(|(_, b)| *b > Duration::ZERO)
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
        };
        if let Some((i, b)) = busiest(&self.server_rx) {
            out.push(ResourceUsage::busy(
                format!("pipe:server_rx:{i}"),
                "pipe",
                b,
                window,
            ));
        }
        if let Some((i, b)) = busiest(&self.server_tx) {
            out.push(ResourceUsage::busy(
                format!("pipe:server_tx:{i}"),
                "pipe",
                b,
                window,
            ));
        }
        let nic = self
            .nics
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.as_ref().map(|p| (i, p.busy_time())))
            .filter(|(_, b)| *b > Duration::ZERO)
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)));
        if let Some((i, b)) = nic {
            out.push(ResourceUsage::busy(
                format!("pipe:nic:{i}"),
                "pipe",
                b,
                window,
            ));
        }
        out
    }

    /// The trace buffer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable trace sink, if tracing is enabled (client harnesses use this
    /// to fold retry-phase spans into the aggregate).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Read access to the blob namespace (tests, examples).
    pub fn blob_store(&self) -> &BlobStore {
        &self.blobs
    }

    /// Mutable access to the queue namespace (tests, fault injection).
    pub fn queue_store_mut(&mut self) -> &mut QueueStore {
        &mut self.queues
    }

    /// Read access to the table namespace.
    pub fn table_store(&self) -> &TableStore {
        &self.tables
    }

    fn nic(&mut self, actor: usize) -> &mut Pipe {
        if actor >= self.nics.len() {
            self.nics.resize_with(actor + 1, || None);
        }
        self.nics[actor].get_or_insert_with(|| {
            let bw = self
                .nic_overrides
                .get(actor)
                .copied()
                .flatten()
                .unwrap_or(self.params.default_nic_bandwidth);
            Pipe::new(bw)
        })
    }

    /// Per-class service-time overhead on the partition server. This is
    /// where the blob-path asymmetries live (block staging vs page write,
    /// sequential block read vs random page locate).
    fn class_overhead(&self, class: OpClass) -> Duration {
        let p = &self.params;
        match class {
            OpClass::BlobPutPage => p.page_write_overhead,
            OpClass::BlobPutBlock | OpClass::BlobUploadSingle => p.block_write_overhead,
            OpClass::BlobPutBlockList => p.block_commit_overhead,
            OpClass::BlobGetBlock => p.get_block_overhead,
            OpClass::BlobGetPage => p.get_page_overhead,
            OpClass::BlobDownload => p.download_overhead,
            OpClass::BlobCreateContainer
            | OpClass::BlobCreatePage
            | OpClass::BlobDelete
            | OpClass::BlobList => Duration::from_millis(1),
            OpClass::QueueCreate | OpClass::QueueDelete | OpClass::QueueClear => {
                Duration::from_millis(1)
            }
            OpClass::QueuePut
            | OpClass::QueueGet
            | OpClass::QueuePeek
            | OpClass::QueueDeleteMsg
            | OpClass::QueueCount => p.queue_op_service,
            OpClass::TableCreate | OpClass::TableDelete => Duration::from_millis(1),
            // An entity-group transaction is one round trip and one log
            // append: base table service regardless of operation count
            // (per-row work is priced via occupancy in `submit`).
            OpClass::TableBatch => p.table_op_service,
            OpClass::TableUpdate => p.table_op_service + p.table_update_extra,
            OpClass::TableDeleteEntity => p.table_op_service + p.table_delete_extra,
            OpClass::TableInsert | OpClass::TableQuery | OpClass::TableQueryPartition => {
                p.table_op_service
            }
        }
    }

    /// Deterministic listing lag for one blob in `[0, window]`: FNV-1a over
    /// the blob address and cluster seed, scaled into the window. A fixed
    /// hash (not the std hasher) keeps the lag stable across toolchains, so
    /// per-backend golden CSVs stay bit-identical.
    fn listing_lag(&self, container: &str, blob: &str, window: Duration) -> Duration {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET ^ self.params.seed;
        for byte in container
            .as_bytes()
            .iter()
            .chain([0xffu8].iter())
            .chain(blob.as_bytes())
        {
            h ^= u64::from(*byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
        window.mul_f64((h >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Record when a freshly committed blob becomes listable (no-op unless
    /// the backend declares a visibility window). `entry().or_insert` keeps
    /// visibility monotonic: overwriting an already-listable blob never
    /// makes it flicker back out of listings.
    fn note_blob_listable(&mut self, now: SimTime, container: &str, blob: &str) {
        let Some(window) = self.params.backend.list_visibility_window else {
            return;
        };
        let lag = self.listing_lag(container, blob, window);
        if let Some(map) = self.list_visibility.as_mut() {
            map.entry((container.to_string(), blob.to_string()))
                .or_insert(now + lag);
        }
    }

    /// Execute the state transition at the partition's service-start time.
    fn apply(&mut self, now: SimTime, req: &StorageRequest) -> StorageResult<StorageOk> {
        use StorageRequest::*;
        match req {
            CreateContainer { container } => self
                .blobs
                .create_container(container)
                .map(|_| StorageOk::Ack),
            PutBlock {
                container,
                blob,
                block_id,
                data,
            } => self
                .blobs
                .put_block(container, blob, block_id.clone(), data.clone())
                .map(|_| StorageOk::Ack),
            PutBlockList {
                container,
                blob,
                block_ids,
            } => {
                let r = self.blobs.put_block_list(container, blob, block_ids);
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            UploadBlockBlob {
                container,
                blob,
                data,
            } => {
                let r = self.blobs.upload_block_blob(container, blob, data.clone());
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            GetBlock {
                container,
                blob,
                index,
            } => self
                .blobs
                .get_block(container, blob, *index)
                .map(StorageOk::Data),
            DownloadBlob { container, blob } => {
                self.blobs.download(container, blob).map(StorageOk::Data)
            }
            CreatePageBlob {
                container,
                blob,
                size,
            } => {
                let r = self.blobs.create_page_blob(container, blob, *size);
                if r.is_ok() {
                    self.note_blob_listable(now, container, blob);
                }
                r.map(|_| StorageOk::Ack)
            }
            PutPage {
                container,
                blob,
                offset,
                data,
            } => self
                .blobs
                .put_page(container, blob, *offset, data.clone())
                .map(|_| StorageOk::Ack),
            GetPage {
                container,
                blob,
                offset,
                length,
            } => self
                .blobs
                .get_page(container, blob, *offset, *length)
                .map(StorageOk::Data),
            DeleteBlob { container, blob } => {
                let r = self.blobs.delete(container, blob);
                if r.is_ok() {
                    if let Some(map) = self.list_visibility.as_mut() {
                        map.remove(&(container.clone(), blob.clone()));
                    }
                }
                r.map(|_| StorageOk::Ack)
            }
            ListBlobs { container } => {
                let names = self.blobs.list_blobs(container)?;
                // Eventual list-after-write: suppress blobs whose listing
                // visibility time has not arrived yet. Blobs without an
                // entry predate the overlay's knowledge and list normally.
                let names = match &self.list_visibility {
                    Some(map) => names
                        .into_iter()
                        .filter(|b| {
                            map.get(&(container.clone(), b.clone()))
                                .is_none_or(|&visible_at| visible_at <= now)
                        })
                        .collect(),
                    None => names,
                };
                Ok(StorageOk::Names(names))
            }
            CreateQueue { queue } => self.queues.create_queue(queue).map(|_| StorageOk::Ack),
            DeleteQueue { queue } => self.queues.delete_queue(queue).map(|_| StorageOk::Ack),
            PutMessage { queue, data, ttl } => self
                .queues
                .put(now, queue, data.clone(), *ttl)
                .map(|_| StorageOk::Ack),
            GetMessage {
                queue,
                visibility_timeout,
            } => self
                .queues
                .get(now, queue, *visibility_timeout)
                .map(StorageOk::Message),
            PeekMessage { queue } => self.queues.peek(now, queue).map(StorageOk::Peeked),
            DeleteMessage {
                queue,
                id,
                pop_receipt,
            } => self
                .queues
                .delete_message(queue, *id, *pop_receipt)
                .map(|_| StorageOk::Ack),
            GetMessageCount { queue } => self
                .queues
                .approximate_count(now, queue)
                .map(StorageOk::Count),
            ClearQueue { queue } => self.queues.clear(queue).map(StorageOk::Count),
            CreateTable { table } => self.tables.create_table(table).map(|_| StorageOk::Ack),
            DeleteTable { table } => self.tables.delete_table(table).map(|_| StorageOk::Ack),
            InsertEntity { table, entity } => self
                .tables
                .insert(table, entity.clone())
                .map(StorageOk::Tag),
            QueryEntity {
                table,
                partition,
                row,
            } => self
                .tables
                .query(table, partition, row)
                .map(StorageOk::Entity),
            QueryPartition { table, partition } => self
                .tables
                .query_partition(table, partition)
                .map(StorageOk::Entities),
            UpdateEntity {
                table,
                entity,
                condition,
            } => self
                .tables
                .update(table, entity.clone(), *condition)
                .map(StorageOk::Tag),
            ExecuteBatch {
                table,
                partition,
                ops,
            } => self
                .tables
                .execute_batch(table, partition, ops)
                .map(StorageOk::BatchTags),
            DeleteEntity {
                table,
                partition,
                row,
                condition,
            } => self
                .tables
                .delete(table, partition, row, *condition)
                .map(|_| StorageOk::Ack),
        }
    }

    /// Check the backend's declared rate limits; on rejection the caller
    /// returns the shaped throttle error without touching the partition.
    ///
    /// The account bucket fires with the backend's declared shape: WAS
    /// returns `ServerBusy` carrying the bucket's computed deficit floored
    /// at the coarse retry hint; S3 returns `SlowDown` with a hint that
    /// doubles per consecutive rejection; GCS returns `ServerBusy` with the
    /// same exponential escalation. Per-partition buckets exist only where
    /// the profile declares them (WAS) and keep WAS's hint shape; the
    /// per-object update limiter (GCS) escalates independently per object.
    fn throttle(
        &mut self,
        t: SimTime,
        class: OpClass,
        slot: usize,
        req: &StorageRequest,
    ) -> Result<(), StorageError> {
        if class.is_control() {
            return Ok(());
        }
        let shape = self.params.backend.throttle;
        let hint = self.params.throttle_retry_hint;
        if let Admission::Throttled(w) = self.account_tx.acquire(t, 1.0) {
            self.account_pushback = self.account_pushback.saturating_add(1);
            let retry_after = shape.retry_after(self.account_pushback, w, hint);
            return Err(match shape {
                ThrottleShape::SlowDownCurve { .. } => StorageError::SlowDown { retry_after },
                _ => StorageError::ServerBusy { retry_after },
            });
        }
        // Queue partitions carry the 500 msg/s bucket and table partitions
        // the 500 entities/s bucket; blob scalability is bandwidth-limited
        // (per-blob pipes), not transaction-limited, so blob slots have no
        // bucket at all.
        if let Some(bucket) = self.slots[slot].bucket.as_mut() {
            if let Admission::Throttled(w) = bucket.acquire(t, 1.0) {
                return Err(StorageError::ServerBusy {
                    retry_after: w.max(hint),
                });
            }
        }
        if let Some(lim) = self.object_update.as_mut() {
            if let Some(object) = update_limited_object(req) {
                let rate = lim.rate;
                let (bucket, pushback) = lim
                    .buckets
                    .entry((slot, object))
                    .or_insert_with(|| (TokenBucket::new(rate, 1.0), 0));
                if let Admission::Throttled(w) = bucket.acquire(t, 1.0) {
                    *pushback = pushback.saturating_add(1);
                    let retry_after = shape.retry_after(*pushback, w, hint);
                    return Err(StorageError::ServerBusy { retry_after });
                }
                *pushback = 0;
            }
        }
        self.account_pushback = 0;
        Ok(())
    }

    /// The cluster-wide gauges at `now`, with the arriving actor's NIC
    /// backlog when there is an arrival. Reads only side-effect-free
    /// accessors.
    fn cluster_sample(&self, now: SimTime, nic_backlog_s: Option<f64>) -> ClusterSample {
        let backlog = |free: SimTime| free.saturating_since(now).as_secs_f64();
        ClusterSample {
            account_tx_fill: self.account_tx.fill(now),
            up_backlog_s: backlog(self.account_up.next_free()),
            down_backlog_s: backlog(self.account_down.next_free()),
            table_frontend_backlog_s: backlog(self.table_frontend.next_free()),
            nic_backlog_s,
            fault_windows: self.faults.active_windows(now),
        }
    }

    /// Sample every instrumented gauge at one arrival (no-op unless the
    /// timeline is enabled). Reads only side-effect-free accessors, so the
    /// simulated outcome is untouched.
    fn sample_timeline(&mut self, now: SimTime, actor: usize, slot: usize) {
        let backlog = |free: SimTime| free.saturating_since(now).as_secs_f64();
        let nic = self.nics.get(actor).and_then(|n| n.as_ref());
        let sample = self.cluster_sample(now, nic.map(|p| backlog(p.next_free())));
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        let s = &self.slots[slot];
        tl.observe_slot(
            now,
            slot,
            &s.key,
            s.bucket.as_ref().map(|b| b.fill(now)),
            s.write_pipe.as_ref().map(|p| backlog(p.next_free())),
            backlog(s.fifo.next_free()),
        );
        tl.observe_cluster(now, sample);
    }

    /// Sample the cluster-wide gauges at `now` without an accompanying
    /// arrival (no-op unless the timeline is enabled). Virtual-time runs
    /// sample on every arrival; live mode calls this on a periodic
    /// wall-clock cadence so the recorder carries the same gauge and
    /// counter series either way. Per-partition series are skipped:
    /// without an arrival there is no current slot, and the cluster-wide
    /// gauges are the live dashboards' payload.
    pub fn flush_timeline(&mut self, now: SimTime) {
        let sample = self.cluster_sample(now, None);
        let Some(tl) = self.timeline.as_mut() else {
            return;
        };
        tl.observe_cluster(now, sample);
        tl.flush_counters(now);
    }

    /// Hand one finished operation to every observer, in order: metrics,
    /// timeline, tracer, history. This is the only place `submit` writes
    /// to any of them, so each outcome is classified exactly once.
    fn complete(&mut self, c: Completion) {
        let ctr = self.metrics.counter_mut(c.class);
        match c.outcome {
            _ if c.throttled => ctr.throttled += 1,
            OpOutcome::Ok => {
                ctr.completed += 1;
                ctr.bytes_up += c.bytes_up;
                ctr.bytes_down += c.bytes_down;
                ctr.latency.record((c.done - c.issued).as_secs_f64());
            }
            // The server-side ledger counts the execution; the latency
            // histogram gets no sample because no response arrived.
            OpOutcome::TimedOutExecuted => {
                ctr.completed += 1;
                ctr.bytes_up += c.bytes_up;
            }
            _ => ctr.failed += 1,
        }
        let ambiguous = c.outcome.is_ambiguous();
        if let Some(tl) = self.timeline.as_mut() {
            tl.note_outcome(c.issued, c.done, c.throttled);
            if ambiguous {
                tl.note_ambiguous(c.issued);
            }
        }
        if let Some(tr) = self.tracer.as_mut() {
            // The segments partition [issued, done] exactly. A delivered
            // response ends in its downlink transfer; a rejection, a drop
            // or a lost ack ends in the rejection round trip or the
            // client's expired wait.
            let [arrive, start, service_end, replica_end] = c.stages;
            let last = match c.outcome {
                OpOutcome::Ok | OpOutcome::Error => Phase::Transfer,
                _ => Phase::Rejection,
            };
            let mut phases = PhaseBreadcrumb::new();
            phases.add(Phase::ClientSend, arrive.saturating_since(c.issued));
            phases.add(Phase::QueueWait, start.saturating_since(arrive));
            phases.add(Phase::Service, service_end.saturating_since(start));
            phases.add(
                Phase::ReplicaSync,
                replica_end.saturating_since(service_end),
            );
            phases.add(last, c.done.saturating_since(replica_end));
            tr.record(TraceRecord {
                issued: c.issued,
                completed: c.done,
                actor: c.actor,
                class: c.class,
                outcome: TraceOutcome::from(c.outcome),
                bytes_up: c.bytes_up,
                bytes_down: if ambiguous { 0 } else { c.bytes_down },
                phases,
            });
        }
        if let Some(h) = self.history.as_mut() {
            h.push(OpRecord {
                issued: c.issued,
                completed: c.done,
                actor: c.actor,
                class: c.class,
                partition: self.slots[c.slot].key.clone(),
                outcome: c.outcome,
            });
        }
    }

    /// Whether the 16 KB `GetMessage` anomaly applies to this payload.
    fn quirk_applies(&self, class: OpClass, bytes_down: u64) -> bool {
        self.params.quirk_get16k
            && class == OpClass::QueueGet
            && (12 * 1024 < bytes_down && bytes_down <= 24 * 1024)
    }

    /// Price and execute one request arriving at `now` from `actor`.
    /// Returns `(completion_time, result)`.
    pub fn submit(
        &mut self,
        now: SimTime,
        actor: usize,
        req: &StorageRequest,
    ) -> (SimTime, StorageResult<StorageOk>) {
        let class = req.class();
        let slot = self.intern(req.partition_ref());
        self.slots[slot].ops += 1;
        if self.timeline.is_some() {
            self.sample_timeline(now, actor, slot);
        }
        let up = req.payload_bytes_up();

        // Uplink: client NIC, then LB/front-end.
        let (_, mut t) = self.nic(actor).transfer(now, up);
        t += self.params.frontend_rtt;

        // Fault injection (inert by default). Faults fire where a real
        // cluster produces them: storms at the front end, crash/blackout
        // at the partition server, drops anywhere in between. An ack loss
        // does *not* divert the request: it proceeds through throttles,
        // state transition and replication, and only the response is lost.
        let sidx = self.slots[slot].server;
        let t_fault = t;
        let mut ack_loss: Option<Duration> = None;
        let fault = match self.faults.decide(t, class, &self.slots[slot].key, sidx) {
            FaultDecision::None => None,
            FaultDecision::AckLoss { elapsed } => {
                ack_loss = Some(elapsed);
                None
            }
            FaultDecision::Busy { retry_after } => Some((
                OpOutcome::Throttled,
                t + REJECT_RTT,
                StorageError::ServerBusy { retry_after },
            )),
            FaultDecision::Fault { retry_after } => Some((
                OpOutcome::Faulted,
                t + REJECT_RTT,
                StorageError::ServerFault { retry_after },
            )),
            // The request vanishes; the client's wait expires. No state
            // transition happens server-side.
            FaultDecision::Drop { elapsed } => Some((
                OpOutcome::TimedOutLost,
                t + elapsed,
                StorageError::Timeout { elapsed },
            )),
        };

        // Declared rate limits, shaped per backend: WAS surfaces the token
        // bucket's computed deficit floored at the coarse Retry-After, S3
        // a doubling SlowDown curve, GCS exponential pushback. Only a
        // declared throttle heats the partition; an injected storm does not.
        let rejection = match fault {
            Some((outcome, done, err)) => {
                Some((outcome, outcome == OpOutcome::Throttled, done, err))
            }
            None => self.throttle(t, class, slot, req).err().map(|err| {
                self.slots[slot].throttled += 1;
                match ack_loss {
                    // The throttle rejected the request before it executed,
                    // but the (rejection) response is the part that gets
                    // lost: the client still observes an opaque timeout.
                    Some(elapsed) => (
                        OpOutcome::TimedOutLost,
                        true,
                        t + elapsed,
                        StorageError::Timeout { elapsed },
                    ),
                    None => (OpOutcome::Throttled, true, t + REJECT_RTT, err),
                }
            }),
        };
        if let Some((outcome, throttled, done, err)) = rejection {
            self.complete(Completion {
                issued: now,
                done,
                actor,
                class,
                slot,
                outcome,
                throttled,
                bytes_up: up,
                bytes_down: 0,
                stages: [t; 4],
            });
            return (done, Err(err));
        }

        // Account + server data path for the uplink payload.
        t = self.account_up.transfer(t, up).1;
        t = self.server_rx[sidx].transfer(t, up).1;
        // Blob writes additionally cross the per-blob write pipe
        // (the 60 MB/s single-blob target).
        if matches!(
            class,
            OpClass::BlobPutBlock | OpClass::BlobPutPage | OpClass::BlobUploadSingle
        ) {
            let pipe = self.slots[slot]
                .write_pipe
                .as_mut()
                .expect("blob write targets a blob partition");
            t = pipe.transfer(t, up).1;
        }

        // Partition-server FIFO, serialized per partition (the unit of
        // serialization in WAS). Partition servers pipeline requests, so a
        // request's *occupancy* (the slot time that limits partition
        // throughput) can be smaller than its client-visible service
        // latency; the residual is added after the FIFO as pure latency.
        // For table ops the occupancy is sized so the documented 500
        // entities/s bucket — not raw server saturation — binds first.
        let service = self.params.server_base_service + self.class_overhead(class);
        let occupancy = if class.service() == Service::Table && !class.is_control() {
            let base = self.params.server_base_service + self.params.table_op_occupancy;
            if let StorageRequest::ExecuteBatch { ops, .. } = req {
                // Batched rows share the slot but each adds a little
                // per-row work on the partition server.
                base + Duration::from_micros(200) * ops.len() as u32
            } else {
                base
            }
        } else {
            service
        };
        let latency_extra = service.saturating_sub(occupancy);
        let t_arrive = t;
        let (start, t_fifo) = self.slots[slot].fifo.admit(t, occupancy);
        let mut t = t_fifo + latency_extra;

        // Execute the state transition at service start.
        let result = self.apply(start, req);
        let down = result
            .as_ref()
            .map(|ok| ok.payload_bytes_down())
            .unwrap_or(0);

        // The paper's unexplained 16 KB GetMessage anomaly, modeled as a
        // server-side service-time pathology at that payload bucket.
        if result.is_ok() && self.quirk_applies(class, down) {
            t += (self.params.queue_op_service + self.params.replica_sync + self.params.state_sync)
                .mul_f64(self.params.quirk_get16k_factor - 1.0);
        }
        let t_service_end = t;
        if result.is_ok() {
            // Strong consistency: replicate writes; GetMessage also
            // propagates visibility state. An injected stall models a
            // slow secondary holding up the synchronous ack.
            match class.sync_class() {
                SyncClass::ReadPrimary => {}
                SyncClass::Replicate => {
                    t += self.params.replica_sync;
                    if let Some(stall) = self.faults.replica_stall() {
                        t += stall;
                    }
                }
                SyncClass::ReplicateState => {
                    t = t + self.params.replica_sync + self.params.state_sync;
                    if let Some(stall) = self.faults.replica_stall() {
                        t += stall;
                    }
                }
            }
        }
        let t_replica_end = t;

        // Mid-window crash semantics: a crash that begins while a
        // replicated write is still syncing applies the write on the
        // primary but the ack never leaves the dying server — the client
        // observes a timeout for an operation that executed.
        if ack_loss.is_none()
            && result.is_ok()
            && !matches!(class.sync_class(), SyncClass::ReadPrimary)
        {
            ack_loss = self.faults.ack_cut_by_crash(sidx, start, t_replica_end);
        }

        // Downlink: blob reads cross the per-blob read path; table payloads
        // cross the shared table front-end; everything crosses the server,
        // account and NIC pipes.
        if down > 0
            && matches!(
                class,
                OpClass::BlobGetBlock | OpClass::BlobGetPage | OpClass::BlobDownload
            )
        {
            let pipe = self.slots[slot]
                .read_pipe
                .as_mut()
                .expect("blob read targets a blob partition");
            t = pipe.transfer(t, down).1;
        }
        if class.service() == Service::Table && !class.is_control() {
            t = self.table_frontend.transfer(t, up + down).1;
        }
        t = self.server_tx[sidx].transfer(t, down).1;
        t = self.account_down.transfer(t, down).1;
        t = self.nic(actor).transfer(t, down).1;

        // A lost ack: the operation ran to completion above (state
        // transition, replication, even the response transfers — the loss
        // happens en route), but the client's wait expires instead. A
        // state-machine rejection (e.g. AlreadyExists) changed nothing, and
        // its definite answer was lost with the ack.
        let (outcome, done, response) = match ack_loss {
            Some(elapsed) => (
                if result.is_ok() {
                    OpOutcome::TimedOutExecuted
                } else {
                    OpOutcome::TimedOutLost
                },
                (t_fault + elapsed).max(t),
                Err(StorageError::Timeout { elapsed }),
            ),
            None if result.is_ok() => (OpOutcome::Ok, t, result),
            None => (OpOutcome::Error, t, result),
        };
        self.complete(Completion {
            issued: now,
            done,
            actor,
            class,
            slot,
            outcome,
            throttled: false,
            bytes_up: up,
            bytes_down: down,
            stages: [t_arrive, start, t_service_end, t_replica_end],
        });
        (done, response)
    }
}

impl Model for Cluster {
    type Req = StorageRequest;
    type Resp = StorageResult<StorageOk>;

    fn handle(
        &mut self,
        now: SimTime,
        actor: ActorId,
        req: StorageRequest,
    ) -> (SimTime, StorageResult<StorageOk>) {
        self.submit(now, actor.0, &req)
    }
}

impl azsim_core::ShardableModel for Cluster {
    /// One storage account is fully coupled — every request crosses the
    /// shared account pipes and transaction bucket — so a `Cluster` only
    /// splits into itself. Run single-account scenarios under
    /// `ShardPlan::colocated`; multi-account parallelism lives in
    /// [`crate::fleet::Fleet`], where the account boundary is the partition
    /// boundary.
    fn split(self, partitions: u32) -> Vec<Self> {
        assert_eq!(
            partitions, 1,
            "a Cluster models one account and cannot be split across \
             partitions (use Fleet for multi-account plans)"
        );
        vec![self]
    }

    fn merge(mut parts: Vec<Self>) -> Self {
        assert_eq!(parts.len(), 1, "Cluster::merge expects one partition");
        parts.pop().expect("one partition")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn cluster() -> Cluster {
        Cluster::with_defaults()
    }

    fn put_msg(queue: &str, bytes: usize) -> StorageRequest {
        StorageRequest::PutMessage {
            queue: queue.into(),
            data: Bytes::from(vec![7u8; bytes]),
            ttl: None,
        }
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn queue_roundtrip_through_cluster() {
        let mut c = cluster();
        let (_, r) = c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() });
        r.unwrap();
        let (t1, r) = c.submit(at(10), 0, &put_msg("q", 100));
        r.unwrap();
        assert!(t1 > at(10));
        let (_, r) = c.submit(
            t1,
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(30),
            },
        );
        match r.unwrap() {
            StorageOk::Message(Some(m)) => assert_eq!(m.data.len(), 100),
            other => panic!("expected message, got {other:?}"),
        }
        assert_eq!(c.metrics().total_completed(), 3);
    }

    #[test]
    fn peek_put_get_cost_ordering() {
        // The paper's core queue finding: Peek < Put < Get.
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        // Preload two messages so both peek and get find one.
        c.submit(at(100), 0, &put_msg("q", 1024)).1.unwrap();
        let (t_put_end, _) = c.submit(at(200), 0, &put_msg("q", 1024));
        let put_cost = t_put_end - at(200);

        let (t_peek_end, r) = c.submit(
            at(300),
            0,
            &StorageRequest::PeekMessage { queue: "q".into() },
        );
        assert!(matches!(r.unwrap(), StorageOk::Peeked(Some(_))));
        let peek_cost = t_peek_end - at(300);

        let (t_get_end, r) = c.submit(
            at(400),
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(30),
            },
        );
        assert!(matches!(r.unwrap(), StorageOk::Message(Some(_))));
        let get_cost = t_get_end - at(400);

        assert!(
            peek_cost < put_cost && put_cost < get_cost,
            "expected peek {peek_cost:?} < put {put_cost:?} < get {get_cost:?}"
        );
    }

    #[test]
    fn queue_throttles_at_500_per_second() {
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        // Slam far more than burst + rate ops into one virtual instant.
        let mut throttled = 0;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &put_msg("q", 16));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                throttled += 1;
            }
        }
        assert!(throttled > 0, "500 msg/s target must engage");
        assert_eq!(c.metrics().total_throttled(), throttled);
        // After a second of virtual idle time the bucket refills.
        let (_, r) = c.submit(at(1_500), 0, &put_msg("q", 16));
        r.unwrap();
    }

    #[test]
    fn throttle_retry_hint_is_a_floor_not_a_cap() {
        // A tiny refill rate makes the bucket's computed wait exceed the 1 s
        // hint: the client must be told the real deficit.
        let mut c = Cluster::new(ClusterParams {
            queue_rate: 0.5,
            throttle_burst: 1.0,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        match r {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert!(
                    retry_after > Duration::from_secs(1),
                    "computed wait {retry_after:?} must exceed the configured floor"
                );
            }
            other => panic!("expected ServerBusy, got {other:?}"),
        }
        // A mild deficit is still clamped up to the configured floor.
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 1.0,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        match r {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert_eq!(retry_after, c.params().throttle_retry_hint);
            }
            other => panic!("expected ServerBusy, got {other:?}"),
        }
    }

    #[test]
    fn interner_reuses_partition_slots() {
        let mut c = cluster();
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        for i in 0..10 {
            c.submit(at(10 + i), 0, &put_msg("q", 16)).1.unwrap();
        }
        // One slot for the control partition, one for queue "q" — repeated
        // operations reuse the interned slot instead of re-keying maps.
        assert_eq!(c.slots.len(), 2);
        assert_eq!(c.slots[1].key, PartitionKey::Queue { queue: "q".into() });
        assert!(c.slots[1].bucket.is_some());
        assert!(c.slots[1].write_pipe.is_none());
    }

    #[test]
    fn separate_queues_do_not_share_throttle() {
        let mut c = cluster();
        for q in ["a", "b"] {
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.into() })
                .1
                .unwrap();
        }
        // Exhaust queue a's bucket.
        let mut a_throttled = false;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &put_msg("a", 16));
            a_throttled |= matches!(r, Err(StorageError::ServerBusy { .. }));
        }
        assert!(a_throttled);
        // Queue b is unaffected.
        let (_, r) = c.submit(at(1), 0, &put_msg("b", 16));
        r.unwrap();
    }

    #[test]
    fn table_partition_throttles_independently() {
        use azsim_storage::{Entity, PropValue};
        let mut c = Cluster::new(ClusterParams {
            // Make the account bucket irrelevant for this test.
            account_tx_rate: 1e9,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateTable { table: "t".into() })
            .1
            .unwrap();
        let insert = |pk: &str, rk: usize| StorageRequest::InsertEntity {
            table: "t".into(),
            entity: Entity::new(pk, rk.to_string()).with("v", PropValue::I64(1)),
        };
        let mut hot_throttled = 0;
        for i in 0..200 {
            let (_, r) = c.submit(at(1), i, &insert("hot", i));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                hot_throttled += 1;
            }
        }
        assert!(
            hot_throttled > 0,
            "500 entities/s per partition must engage"
        );
        // A different partition of the same table is fine.
        let (_, r) = c.submit(at(1), 0, &insert("cold", 0));
        r.unwrap();
    }

    #[test]
    fn block_upload_slower_than_page_upload() {
        // Figure 4's asymmetry: page-blob writes are cheap, block staging is
        // expensive.
        let mut c = cluster();
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(0),
            0,
            &StorageRequest::CreatePageBlob {
                container: "c".into(),
                blob: "p".into(),
                size: 4 * 1024 * 1024,
            },
        )
        .1
        .unwrap();
        let mb = Bytes::from(vec![1u8; 1024 * 1024]);
        let (t_end, r) = c.submit(
            at(1_000),
            0,
            &StorageRequest::PutPage {
                container: "c".into(),
                blob: "p".into(),
                offset: 0,
                data: mb.clone(),
            },
        );
        r.unwrap();
        let page_cost = t_end - at(1_000);
        let (t_end, r) = c.submit(
            at(2_000),
            0,
            &StorageRequest::PutBlock {
                container: "c".into(),
                blob: "b".into(),
                block_id: "0".into(),
                data: mb,
            },
        );
        r.unwrap();
        let block_cost = t_end - at(2_000);
        assert!(
            block_cost > page_cost + Duration::from_millis(20),
            "block {block_cost:?} must be well above page {page_cost:?}"
        );
    }

    #[test]
    fn get16k_quirk_is_togglable() {
        let run = |quirk: bool| {
            let mut c = Cluster::new(ClusterParams {
                quirk_get16k: quirk,
                ..ClusterParams::default()
            });
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            c.submit(at(10), 0, &put_msg("q", 16 * 1024)).1.unwrap();
            let (t_end, r) = c.submit(
                at(2_000),
                0,
                &StorageRequest::GetMessage {
                    queue: "q".into(),
                    visibility_timeout: Duration::from_secs(30),
                },
            );
            assert!(matches!(r.unwrap(), StorageOk::Message(Some(_))));
            t_end - at(2_000)
        };
        let with_quirk = run(true);
        let without = run(false);
        assert!(
            with_quirk > without + Duration::from_millis(10),
            "quirk on {with_quirk:?} must exceed off {without:?}"
        );
    }

    #[test]
    fn quirk_spares_other_sizes() {
        let cost_for = |payload: usize| {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            c.submit(at(10), 0, &put_msg("q", payload)).1.unwrap();
            let (t_end, _) = c.submit(
                at(2_000),
                0,
                &StorageRequest::GetMessage {
                    queue: "q".into(),
                    visibility_timeout: Duration::from_secs(30),
                },
            );
            t_end - at(2_000)
        };
        let c4 = cost_for(4 * 1024);
        let c16 = cost_for(16 * 1024);
        let c48 = cost_for(48 * 1024);
        // The anomaly: 16 KB is slower than both smaller AND larger sizes.
        assert!(c16 > c4, "16K {c16:?} must exceed 4K {c4:?}");
        assert!(c16 > c48, "16K {c16:?} must exceed 48K {c48:?}");
    }

    #[test]
    fn errors_do_not_pay_replication() {
        let mut c = cluster();
        // Miss: queue exists but is empty — still a fast primary read.
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_end, r) = c.submit(
            at(100),
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(1),
            },
        );
        assert!(matches!(r.unwrap(), StorageOk::Message(None)));
        // Semantic error: unknown queue.
        let (t_err, r) = c.submit(
            at(200),
            0,
            &StorageRequest::PutMessage {
                queue: "nope".into(),
                data: Bytes::new(),
                ttl: None,
            },
        );
        assert!(matches!(r, Err(StorageError::QueueNotFound(_))));
        assert!(t_end > at(100) && t_err > at(200));
        assert_eq!(c.metrics().counter(OpClass::QueuePut).unwrap().failed, 1);
    }

    #[test]
    fn nic_override_changes_transfer_time() {
        let mut slow = cluster();
        slow.set_actor_nic(0, 1_000_000.0); // 1 MB/s
        slow.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_slow, _) = slow.submit(at(100), 0, &put_msg("q", 48 * 1024));

        let mut fast = cluster();
        fast.set_actor_nic(0, 1e9); // 1 GB/s
        fast.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let (t_fast, _) = fast.submit(at(100), 0, &put_msg("q", 48 * 1024));
        assert!(t_slow - at(100) > t_fast - at(100));
    }

    #[test]
    fn tracing_records_operations_when_enabled() {
        let mut c = cluster();
        assert!(c.tracer().is_none(), "tracing is off by default");
        c.enable_tracing(100);
        c.submit(at(0), 3, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(10), 3, &put_msg("q", 256)).1.unwrap();
        c.submit(
            at(20),
            4,
            &StorageRequest::PutMessage {
                queue: "missing".into(),
                data: Bytes::new(),
                ttl: None,
            },
        )
        .1
        .unwrap_err();
        let tr = c.tracer().unwrap();
        assert_eq!(tr.records().len(), 3);
        let r = &tr.records()[1];
        assert_eq!(r.actor, 3);
        assert_eq!(r.class, OpClass::QueuePut);
        assert_eq!(r.outcome, crate::trace::TraceOutcome::Ok);
        assert_eq!(r.bytes_up, 256);
        assert!(r.latency() > Duration::ZERO);
        assert_eq!(tr.records()[2].outcome, crate::trace::TraceOutcome::Failed);
        let csv = tr.to_csv();
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn tracing_marks_throttled_ops() {
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 1.0,
            queue_rate: 1.0,
            ..ClusterParams::default()
        });
        c.enable_tracing(100);
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        c.submit(at(1), 0, &put_msg("q", 16)).1.unwrap();
        let (_, r) = c.submit(at(1), 1, &put_msg("q", 16));
        assert!(matches!(r, Err(StorageError::ServerBusy { .. })));
        let outcomes: Vec<_> = c
            .tracer()
            .unwrap()
            .records()
            .iter()
            .map(|r| r.outcome)
            .collect();
        assert!(outcomes.contains(&crate::trace::TraceOutcome::Throttled));
    }

    #[test]
    fn timeline_sampling_never_changes_completion_times() {
        // The same borderline-throttled workload, with and without the
        // timeline: every virtual completion time must be bit-identical,
        // because sampling reads only side-effect-free accessors.
        let run = |resolution: Option<Duration>| {
            let mut c = Cluster::new(ClusterParams {
                throttle_burst: 3.0,
                queue_rate: 40.0,
                timeline_resolution: resolution,
                ..ClusterParams::default()
            });
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            let mut ends = Vec::new();
            for i in 0..300u64 {
                let (done, r) = c.submit(at(1 + i * 7), (i % 5) as usize, &put_msg("q", 900));
                ends.push((done, r.is_ok()));
            }
            ends
        };
        let plain = run(None);
        let sampled = run(Some(Duration::from_millis(50)));
        assert_eq!(plain, sampled);
    }

    #[test]
    fn timeline_collects_gauges_and_usage() {
        let mut c = Cluster::new(ClusterParams {
            throttle_burst: 2.0,
            queue_rate: 10.0,
            timeline_resolution: Some(Duration::from_millis(20)),
            ..ClusterParams::default()
        });
        assert!(c.timeline().is_some());
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let mut end = SimTime::ZERO;
        for i in 0..100u64 {
            let (done, _) = c.submit(at(1 + i), 0, &put_msg("q", 64));
            end = end.max(done);
        }
        let tl = c.timeline().unwrap();
        let fill = tl
            .recorder()
            .gauges()
            .iter()
            .find(|g| g.name == "bucket_fill:queue:q")
            .expect("per-queue fill gauge registered");
        assert!(fill.series.sample_count() >= 100);
        // Slamming 100 ops into 100 ms against a 10/s bucket saturates it.
        let usage = c.resource_usage(end);
        let bucket = usage
            .iter()
            .find(|u| u.resource == "bucket:queue:q")
            .unwrap();
        assert!(bucket.saturation > 0.8, "saturation {}", bucket.saturation);
        assert!(bucket.throttled > 0);
        // The FIFO barely worked in comparison.
        let fifo = usage.iter().find(|u| u.resource == "fifo:queue:q").unwrap();
        assert!(fifo.saturation < bucket.saturation);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// A sequential client's completions are strictly increasing, every
        /// op costs at least the front-end round trip, and the metrics'
        /// byte counters exactly equal the payloads moved.
        #[test]
        fn prop_sequential_latency_and_byte_accounting(
            sizes in proptest::collection::vec(1usize..48_000, 1..40)
        ) {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            let mut t = SimTime::from_millis(10);
            let mut last_done = t;
            let mut bytes = 0u64;
            for s in &sizes {
                let (done, r) = c.submit(t, 0, &put_msg("q", *s));
                match r {
                    Ok(_) => {
                        bytes += *s as u64;
                        proptest::prop_assert!(done > last_done);
                        proptest::prop_assert!(
                            done.saturating_since(t) >= c.params().frontend_rtt
                        );
                        last_done = done;
                        t = done;
                    }
                    Err(StorageError::ServerBusy { .. }) => {
                        // Back off like the SDK would.
                        t = done + Duration::from_secs(1);
                    }
                    Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                        format!("unexpected error {e}"))),
                }
            }
            let put = c.metrics().counter(OpClass::QueuePut).unwrap();
            proptest::prop_assert_eq!(put.bytes_up, bytes);
            proptest::prop_assert_eq!(put.bytes_down, 0);
        }

        /// A saturated per-blob write pipe never admits more than its
        /// bandwidth allows over the busy window.
        #[test]
        fn prop_blob_pipe_respects_bandwidth(
            n_chunks in 4usize..24,
        ) {
            let mut c = cluster();
            c.submit(at(0), 0, &StorageRequest::CreateContainer { container: "c".into() })
                .1
                .unwrap();
            c.submit(
                at(0),
                0,
                &StorageRequest::CreatePageBlob {
                    container: "c".into(),
                    blob: "p".into(),
                    size: (n_chunks as u64) << 20,
                },
            )
            .1
            .unwrap();
            // Saturate: many actors write 1 MB pages at the same instant.
            let mut last_end = SimTime::ZERO;
            for i in 0..n_chunks {
                let (done, r) = c.submit(
                    at(100),
                    i,
                    &StorageRequest::PutPage {
                        container: "c".into(),
                        blob: "p".into(),
                        offset: (i as u64) << 20,
                        data: Bytes::from(vec![0u8; 1 << 20]),
                    },
                );
                r.unwrap();
                last_end = last_end.max(done);
            }
            let window = last_end.saturating_since(at(100)).as_secs_f64();
            let mb_s = n_chunks as f64 / window;
            // The documented 60 MB/s single-blob target binds (allow the
            // first in-flight chunk as slack).
            proptest::prop_assert!(
                mb_s <= 62.0,
                "blob pipe over-admitted: {mb_s:.1} MB/s over {window:.3}s"
            );
        }
    }

    #[test]
    fn account_tx_bucket_spans_services() {
        let mut c = Cluster::new(ClusterParams {
            account_tx_rate: 100.0,
            throttle_burst: 5.0,
            queue_rate: 1e9,
            partition_rate: 1e9,
            ..ClusterParams::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let mut throttled = 0;
        for i in 0..20 {
            // Spread over many queues: only the ACCOUNT bucket can throttle.
            let q = format!("q{}", i % 3);
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.clone() })
                .1
                .ok();
            let (_, r) = c.submit(at(1), i, &put_msg(&q, 16));
            if matches!(r, Err(StorageError::ServerBusy { .. })) {
                throttled += 1;
            }
        }
        assert!(
            throttled > 0,
            "account-level 5000 tx/s analogue must engage"
        );
    }

    // ---- completion exits ----

    /// Every observer's view of one cluster, read before and after a probe.
    #[derive(Debug, PartialEq)]
    struct Observed {
        completed: u64,
        throttled: u64,
        failed: u64,
        bytes_up: u64,
        bytes_down: u64,
        latency_samples: u64,
        heat: u64,
        timeline: [u64; 3],
        traces: usize,
        history: usize,
    }

    fn observe(c: &Cluster, queue: &str) -> Observed {
        let ctr = c.metrics().counter(OpClass::QueuePut);
        let tl_total = |name: &str| {
            let tl = c.timeline().expect("timeline enabled");
            let series = tl
                .recorder()
                .counters()
                .iter()
                .find(|s| s.name == name)
                .expect("counter registered");
            series
                .series
                .series()
                .iter()
                .map(|(_, b)| b.sum)
                .sum::<f64>() as u64
        };
        let key = PartitionKey::Queue {
            queue: queue.into(),
        };
        let heat = c
            .slots
            .iter()
            .find(|s| s.key == key)
            .map_or(0, |s| s.throttled);
        Observed {
            completed: ctr.map_or(0, |k| k.completed),
            throttled: ctr.map_or(0, |k| k.throttled),
            failed: ctr.map_or(0, |k| k.failed),
            bytes_up: ctr.map_or(0, |k| k.bytes_up),
            bytes_down: ctr.map_or(0, |k| k.bytes_down),
            latency_samples: ctr.map_or(0, |k| k.latency.count()),
            heat,
            timeline: [
                tl_total("ops.submitted"),
                tl_total("ops.throttled"),
                tl_total("ops.ambiguous"),
            ],
            traces: c.tracer().unwrap().records().len(),
            history: c.history().unwrap().records().len(),
        }
    }

    /// One forced exit of `submit` and what every observer must record.
    struct Exit {
        name: &'static str,
        /// A 1-token, near-zero-refill queue bucket, drained before the probe.
        drain_bucket: bool,
        plan: FaultPlan,
        /// Probe the existing queue `q` (else a missing queue: semantic error).
        existing: bool,
        err: Option<fn(&StorageError) -> bool>,
        /// Deltas: completed, throttled, failed, bytes_up, latency samples.
        counters: [u64; 5],
        heat: u64,
        /// Deltas: timeline submitted, throttled, ambiguous.
        timeline: [u64; 3],
        trace: TraceOutcome,
        /// Whether the probe reached the partition server (has service time).
        executed: bool,
        /// The breadcrumb's closing segment.
        last: Phase,
        op: OpOutcome,
    }

    #[test]
    fn every_submit_exit_updates_every_observer_once() {
        let probe_bytes = 64u64;
        let server = PartitionKey::Queue { queue: "q".into() }
            .server_index(ClusterParams::default().servers);
        let forever = Duration::from_secs(3_600);
        let exits = [
            Exit {
                name: "injected busy",
                drain_bucket: false,
                plan: FaultPlan {
                    busy_storms: vec![crate::faults::BusyStorm {
                        at: SimTime::ZERO,
                        duration: forever,
                        retry_after: Duration::from_millis(500),
                    }],
                    ..FaultPlan::default()
                },
                existing: true,
                err: Some(|e| {
                    matches!(e, StorageError::ServerBusy { retry_after }
                        if *retry_after == Duration::from_millis(500))
                }),
                counters: [0, 1, 0, 0, 0],
                heat: 0,
                timeline: [1, 1, 0],
                trace: TraceOutcome::Throttled,
                executed: false,
                last: Phase::Rejection,
                op: OpOutcome::Throttled,
            },
            Exit {
                name: "injected fault",
                drain_bucket: false,
                plan: FaultPlan {
                    crashes: vec![crate::faults::ServerCrash {
                        server,
                        at: SimTime::ZERO,
                        failover: forever,
                    }],
                    ..FaultPlan::default()
                },
                existing: true,
                err: Some(|e| matches!(e, StorageError::ServerFault { .. })),
                counters: [0, 0, 1, 0, 0],
                heat: 0,
                timeline: [1, 0, 0],
                trace: TraceOutcome::Faulted,
                executed: false,
                last: Phase::Rejection,
                op: OpOutcome::Faulted,
            },
            Exit {
                name: "drop",
                drain_bucket: false,
                plan: FaultPlan {
                    timeout_prob: 1.0,
                    timeout: Duration::from_secs(5),
                    ..FaultPlan::default()
                },
                existing: true,
                err: Some(|e| {
                    matches!(e, StorageError::Timeout { elapsed }
                        if *elapsed == Duration::from_secs(5))
                }),
                counters: [0, 0, 1, 0, 0],
                heat: 0,
                timeline: [1, 0, 1],
                trace: TraceOutcome::TimedOut,
                executed: false,
                last: Phase::Rejection,
                op: OpOutcome::TimedOutLost,
            },
            Exit {
                name: "throttle",
                drain_bucket: true,
                plan: FaultPlan::default(),
                existing: true,
                err: Some(|e| matches!(e, StorageError::ServerBusy { .. })),
                counters: [0, 1, 0, 0, 0],
                heat: 1,
                timeline: [1, 1, 0],
                trace: TraceOutcome::Throttled,
                executed: false,
                last: Phase::Rejection,
                op: OpOutcome::Throttled,
            },
            Exit {
                name: "throttle + ack loss",
                drain_bucket: true,
                plan: FaultPlan {
                    ack_loss_prob: 1.0,
                    timeout: Duration::from_secs(5),
                    ..FaultPlan::default()
                },
                existing: true,
                err: Some(|e| matches!(e, StorageError::Timeout { .. })),
                counters: [0, 1, 0, 0, 0],
                heat: 1,
                timeline: [1, 1, 1],
                trace: TraceOutcome::TimedOut,
                executed: false,
                last: Phase::Rejection,
                op: OpOutcome::TimedOutLost,
            },
            Exit {
                name: "ack loss after success",
                drain_bucket: false,
                plan: FaultPlan {
                    ack_loss_prob: 1.0,
                    timeout: Duration::from_secs(5),
                    ..FaultPlan::default()
                },
                existing: true,
                err: Some(|e| matches!(e, StorageError::Timeout { .. })),
                counters: [1, 0, 0, probe_bytes, 0],
                heat: 0,
                timeline: [1, 0, 1],
                trace: TraceOutcome::TimedOut,
                executed: true,
                last: Phase::Rejection,
                op: OpOutcome::TimedOutExecuted,
            },
            Exit {
                name: "ack loss after semantic error",
                drain_bucket: false,
                plan: FaultPlan {
                    ack_loss_prob: 1.0,
                    timeout: Duration::from_secs(5),
                    ..FaultPlan::default()
                },
                existing: false,
                err: Some(|e| matches!(e, StorageError::Timeout { .. })),
                counters: [0, 0, 1, 0, 0],
                heat: 0,
                timeline: [1, 0, 1],
                trace: TraceOutcome::TimedOut,
                executed: true,
                last: Phase::Rejection,
                op: OpOutcome::TimedOutLost,
            },
            Exit {
                name: "ok",
                drain_bucket: false,
                plan: FaultPlan::default(),
                existing: true,
                err: None,
                counters: [1, 0, 0, probe_bytes, 1],
                heat: 0,
                timeline: [1, 0, 0],
                trace: TraceOutcome::Ok,
                executed: true,
                last: Phase::Transfer,
                op: OpOutcome::Ok,
            },
            Exit {
                name: "semantic error",
                drain_bucket: false,
                plan: FaultPlan::default(),
                existing: false,
                err: Some(|e| matches!(e, StorageError::QueueNotFound(_))),
                counters: [0, 0, 1, 0, 0],
                heat: 0,
                timeline: [1, 0, 0],
                trace: TraceOutcome::Failed,
                executed: true,
                last: Phase::Transfer,
                op: OpOutcome::Error,
            },
        ];
        for x in exits {
            let name = x.name;
            let mut params = ClusterParams {
                timeline_resolution: Some(Duration::from_millis(10)),
                ..ClusterParams::default()
            };
            if x.drain_bucket {
                params.queue_rate = 1e-3;
                params.throttle_burst = 1.0;
            }
            let mut c = Cluster::new(params);
            c.enable_tracing(16);
            c.enable_history();
            c.set_fault_plan(x.plan);
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
                .1
                .unwrap();
            if x.drain_bucket {
                // Takes the only token; the ack-loss plan may hide its result.
                let _ = c.submit(at(1), 0, &put_msg("q", 16));
            }
            let queue = if x.existing { "q" } else { "missing" };
            let before = observe(&c, queue);
            let issued = at(100);
            let (done, r) = c.submit(issued, 7, &put_msg(queue, probe_bytes as usize));
            let after = observe(&c, queue);

            match (x.err, &r) {
                (None, Ok(_)) => {}
                (Some(is), Err(e)) => assert!(is(e), "{name}: unexpected error {e}"),
                _ => panic!("{name}: unexpected result {r:?}"),
            }
            let [completed, throttled, failed, bytes_up, latency_samples] = x.counters;
            let delta = |a: [u64; 3], b: [u64; 3]| [a[0] - b[0], a[1] - b[1], a[2] - b[2]];
            assert_eq!(
                Observed {
                    completed: after.completed - before.completed,
                    throttled: after.throttled - before.throttled,
                    failed: after.failed - before.failed,
                    bytes_up: after.bytes_up - before.bytes_up,
                    bytes_down: after.bytes_down - before.bytes_down,
                    latency_samples: after.latency_samples - before.latency_samples,
                    heat: after.heat - before.heat,
                    timeline: delta(after.timeline, before.timeline),
                    traces: after.traces - before.traces,
                    history: after.history - before.history,
                },
                Observed {
                    completed,
                    throttled,
                    failed,
                    bytes_up,
                    bytes_down: 0,
                    latency_samples,
                    heat: x.heat,
                    timeline: x.timeline,
                    traces: 1,
                    history: 1,
                },
                "{name}: observer deltas"
            );

            let tr = c.tracer().unwrap().records().last().copied().unwrap();
            assert_eq!(
                (tr.issued, tr.completed, tr.actor, tr.class),
                (issued, done, 7, OpClass::QueuePut),
                "{name}: trace identity"
            );
            assert_eq!(tr.outcome, x.trace, "{name}: trace outcome");
            assert_eq!((tr.bytes_up, tr.bytes_down), (probe_bytes, 0), "{name}");
            assert_eq!(tr.phases.total(), tr.latency(), "{name}: phases sum");
            assert!(tr.phases.get(Phase::ClientSend) > Duration::ZERO, "{name}");
            assert_eq!(
                tr.phases.get(Phase::Service) > Duration::ZERO,
                x.executed,
                "{name}: service segment"
            );
            let other = match x.last {
                Phase::Rejection => Phase::Transfer,
                _ => Phase::Rejection,
            };
            assert_eq!(tr.phases.get(other), Duration::ZERO, "{name}: {other:?}");
            if x.last == Phase::Rejection {
                assert!(tr.phases.get(Phase::Rejection) > Duration::ZERO, "{name}");
            }

            let rec = c.history().unwrap().records().last().cloned().unwrap();
            assert_eq!(
                (rec.issued, rec.completed, rec.actor, rec.class, rec.outcome),
                (issued, done, 7, OpClass::QueuePut, x.op),
                "{name}: history record"
            );
            let expected_partition = PartitionKey::Queue {
                queue: queue.into(),
            };
            assert_eq!(rec.partition, expected_partition, "{name}: partition");
        }
    }

    #[test]
    fn ack_lost_read_reports_no_downlink_bytes() {
        // The message really crossed the downlink, but the client never
        // received it: neither the metrics nor the trace may count it.
        let mut c = cluster();
        c.enable_tracing(16);
        c.set_fault_plan(FaultPlan {
            ack_loss_prob: 1.0,
            ..FaultPlan::default()
        });
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        let _ = c.submit(at(10), 0, &put_msg("q", 4096));
        let (_, r) = c.submit(
            at(100),
            0,
            &StorageRequest::GetMessage {
                queue: "q".into(),
                visibility_timeout: Duration::from_secs(30),
            },
        );
        assert!(matches!(r, Err(StorageError::Timeout { .. })));
        let get = c.metrics().counter(OpClass::QueueGet).unwrap();
        assert_eq!(
            (get.completed, get.bytes_down, get.latency.count()),
            (1, 0, 0)
        );
        let tr = c.tracer().unwrap().records().last().copied().unwrap();
        assert_eq!(tr.outcome, TraceOutcome::TimedOut);
        assert_eq!(tr.bytes_down, 0);
        assert!(tr.phases.get(Phase::ReplicaSync) > Duration::ZERO);
        assert_eq!(tr.phases.total(), tr.latency());
        let executed = c.queue_audit(at(100), "q").unwrap();
        assert_eq!(executed[0].dequeue_count, 1, "the get did execute");
    }

    // ---- backend profiles ----

    use crate::backend::BackendProfile;

    #[test]
    fn s3_backend_throttles_at_account_scope_with_slowdown_curve() {
        // Shrink the account rate so the cap engages quickly; shape and
        // scope are what this test pins.
        let mut profile = BackendProfile::s3();
        profile.account_rate_override = Some(50.0);
        let mut c = Cluster::new(ClusterParams::for_backend(profile));
        for q in ["a", "b"] {
            c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: q.into() })
                .1
                .unwrap();
        }
        let mut hints = Vec::new();
        for i in 0..120 {
            match c.submit(at(1), i, &put_msg("a", 16)).1 {
                Ok(_) => {}
                Err(StorageError::SlowDown { retry_after }) => hints.push(retry_after),
                Err(other) => panic!("s3 throttle must be SlowDown, got {other}"),
            }
        }
        assert!(hints.len() >= 3, "the shrunk account cap must engage");
        // Consecutive rejections escalate along the declared doubling
        // curve: 100 ms, 200 ms, 400 ms, … capped at 5 s.
        assert_eq!(hints[0], Duration::from_millis(100));
        assert_eq!(hints[1], Duration::from_millis(200));
        assert_eq!(hints[2], Duration::from_millis(400));
        assert!(hints.iter().all(|h| *h <= Duration::from_secs(5)));
        // No per-partition caps: a *fresh* queue is rejected just the same,
        // because the scope is the account (WAS would admit it).
        let (_, r) = c.submit(at(1), 0, &put_msg("b", 16));
        assert!(matches!(r, Err(StorageError::SlowDown { .. })));
        // An admitted request resets the curve back to its base.
        c.submit(at(10_000), 0, &put_msg("a", 16)).1.unwrap();
        let mut c2_hint = None;
        for i in 0..120 {
            if let Err(StorageError::SlowDown { retry_after }) =
                c.submit(at(10_001), i, &put_msg("a", 16)).1
            {
                c2_hint = Some(retry_after);
                break;
            }
        }
        assert_eq!(c2_hint, Some(Duration::from_millis(100)));
    }

    #[test]
    fn gcs_object_update_limit_is_per_object_with_exponential_pushback() {
        use azsim_storage::{Entity, EtagCondition, PropValue};
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::gcs()));
        c.submit(at(0), 0, &StorageRequest::CreateTable { table: "t".into() })
            .1
            .unwrap();
        let entity = |rk: &str, v: i64| Entity::new("p", rk).with("v", PropValue::I64(v));
        for rk in ["r1", "r2"] {
            c.submit(
                at(100),
                0,
                &StorageRequest::InsertEntity {
                    table: "t".into(),
                    entity: entity(rk, 0),
                },
            )
            .1
            .unwrap();
        }
        let update = |rk: &str, v: i64| StorageRequest::UpdateEntity {
            table: "t".into(),
            entity: entity(rk, v),
            condition: EtagCondition::Any,
        };
        // One update per second per object: the first is admitted, rapid
        // consecutive retries push back exponentially (400, 800, 1600 ms).
        c.submit(at(5_000), 0, &update("r1", 1)).1.unwrap();
        let mut hints = Vec::new();
        for v in 2..5 {
            match c.submit(at(5_000), 0, &update("r1", v)).1 {
                Err(StorageError::ServerBusy { retry_after }) => hints.push(retry_after),
                other => panic!("expected per-object pushback, got {other:?}"),
            }
        }
        assert_eq!(
            hints,
            vec![
                Duration::from_millis(400),
                Duration::from_millis(800),
                Duration::from_millis(1_600),
            ]
        );
        // A different row of the *same* partition is a different object and
        // is untouched by r1's pushback.
        c.submit(at(5_000), 0, &update("r2", 1)).1.unwrap();
        // After the object's bucket refills, r1 admits again and the
        // pushback counter resets.
        c.submit(at(8_000), 0, &update("r1", 9)).1.unwrap();
        match c.submit(at(8_000), 0, &update("r1", 10)).1 {
            Err(StorageError::ServerBusy { retry_after }) => {
                assert_eq!(retry_after, Duration::from_millis(400));
            }
            other => panic!("expected pushback restart, got {other:?}"),
        }
    }

    #[test]
    fn file_backend_never_throttles() {
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::file()));
        c.submit(at(0), 0, &StorageRequest::CreateQueue { queue: "q".into() })
            .1
            .unwrap();
        for i in 0..600 {
            c.submit(at(1), i, &put_msg("q", 16)).1.unwrap();
        }
        assert_eq!(c.metrics().total_throttled(), 0);
        assert_eq!(c.metrics().total_completed(), 601);
    }

    #[test]
    fn s3_listing_hides_fresh_blobs_for_at_most_the_declared_window() {
        let window = BackendProfile::s3().list_visibility_window.unwrap();
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        let mut acked = Vec::new();
        for i in 0..16 {
            let (done, r) = c.submit(
                at(100),
                0,
                &StorageRequest::UploadBlockBlob {
                    container: "c".into(),
                    blob: format!("b{i}"),
                    data: Bytes::from_static(b"x"),
                },
            );
            r.unwrap();
            acked.push(done);
        }
        let list = |c: &mut Cluster, t: SimTime| -> Vec<String> {
            match c
                .submit(
                    t,
                    1,
                    &StorageRequest::ListBlobs {
                        container: "c".into(),
                    },
                )
                .1
                .unwrap()
            {
                StorageOk::Names(names) => names,
                other => panic!("expected names, got {other:?}"),
            }
        };
        // Immediately after the writes some blobs lag out of the listing —
        // the declared deviation from WAS must be observable.
        let fresh = list(&mut c, *acked.iter().max().unwrap());
        assert!(
            fresh.len() < 16,
            "with a 2 s window, 16 fresh blobs must not all list instantly"
        );
        // One declared window later every blob lists.
        let horizon = *acked.iter().max().unwrap() + window + Duration::from_millis(1);
        assert_eq!(list(&mut c, horizon).len(), 16);
        // WAS lists everything immediately (strong list-after-write).
        let mut was = Cluster::with_defaults();
        was.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        let mut done_max = SimTime::ZERO;
        for i in 0..16 {
            let (done, r) = was.submit(
                at(100),
                0,
                &StorageRequest::UploadBlockBlob {
                    container: "c".into(),
                    blob: format!("b{i}"),
                    data: Bytes::from_static(b"x"),
                },
            );
            r.unwrap();
            done_max = done_max.max(done);
        }
        assert_eq!(list(&mut was, done_max).len(), 16);
    }

    #[test]
    fn deleted_blob_leaves_the_visibility_overlay() {
        let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
        c.submit(
            at(0),
            0,
            &StorageRequest::CreateContainer {
                container: "c".into(),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(100),
            0,
            &StorageRequest::UploadBlockBlob {
                container: "c".into(),
                blob: "b".into(),
                data: Bytes::from_static(b"x"),
            },
        )
        .1
        .unwrap();
        c.submit(
            at(200),
            0,
            &StorageRequest::DeleteBlob {
                container: "c".into(),
                blob: "b".into(),
            },
        )
        .1
        .unwrap();
        assert!(c
            .list_visibility
            .as_ref()
            .expect("s3 declares a window")
            .is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        /// The S3-style backend's declared eventual list-after-write,
        /// property-checked over random write/probe schedules: a committed
        /// blob (1) lists no later than its declared window after the ack,
        /// (2) is never lost, and (3) never flickers back out of listings
        /// once observed (monotonic per key).
        #[test]
        fn prop_s3_list_after_write_is_bounded_lossless_monotonic(
            n_blobs in 1usize..12,
            upload_ms in proptest::collection::vec(0u64..3_000, 12),
            probe_ms in proptest::collection::vec(0u64..8_000, 1..24),
        ) {
            let window = BackendProfile::s3().list_visibility_window.unwrap();
            let mut c = Cluster::new(ClusterParams::for_backend(BackendProfile::s3()));
            c.submit(at(0), 0, &StorageRequest::CreateContainer { container: "c".into() })
                .1
                .unwrap();

            // Interleave uploads and list probes in virtual-time order.
            enum Act { Upload(usize), Probe }
            let mut sched: Vec<(u64, Act)> = (0..n_blobs)
                .map(|i| (10 + upload_ms[i], Act::Upload(i)))
                .chain(probe_ms.iter().map(|&ms| (10 + ms, Act::Probe)))
                .collect();
            sched.sort_by_key(|(ms, act)| (*ms, matches!(act, Act::Probe)));

            let mut acked: Vec<(String, SimTime)> = Vec::new();
            let mut seen: std::collections::HashSet<String> = Default::default();
            for (ms, act) in sched {
                match act {
                    Act::Upload(i) => {
                        let name = format!("b{i}");
                        let (done, r) = c.submit(at(ms), 0, &StorageRequest::UploadBlockBlob {
                            container: "c".into(),
                            blob: name.clone(),
                            data: Bytes::from_static(b"x"),
                        });
                        r.unwrap();
                        acked.push((name, done));
                    }
                    Act::Probe => {
                        let names = match c
                            .submit(at(ms), 1, &StorageRequest::ListBlobs { container: "c".into() })
                            .1
                            .unwrap()
                        {
                            StorageOk::Names(names) => names,
                            other => panic!("expected names, got {other:?}"),
                        };
                        for s in &seen {
                            proptest::prop_assert!(
                                names.contains(s),
                                "blob {s} flickered out of the listing"
                            );
                        }
                        for (name, done) in &acked {
                            if at(ms).saturating_since(*done) > window {
                                proptest::prop_assert!(
                                    names.contains(name),
                                    "blob {name} still unlisted past the declared window"
                                );
                            }
                        }
                        seen.extend(names);
                    }
                }
            }

            // Never lost: one declared window past the last ack, every
            // committed blob lists.
            let horizon = acked
                .iter()
                .map(|(_, done)| *done)
                .max()
                .unwrap_or(SimTime::ZERO)
                + window
                + Duration::from_millis(1);
            let names = match c
                .submit(horizon, 1, &StorageRequest::ListBlobs { container: "c".into() })
                .1
                .unwrap()
            {
                StorageOk::Names(names) => names,
                other => panic!("expected names, got {other:?}"),
            };
            for (name, _) in &acked {
                proptest::prop_assert!(names.contains(name), "blob {name} was lost");
            }
        }
    }
}
