//! The server proper: bounded admission, the dynamic batcher thread, and
//! response plumbing.

use crate::cache::{PlanCache, PlanKey};
use crate::config::ServeConfig;
use mersit_nn::{predict_one_batch_ref, Model};
use mersit_ptq::{Calibration, Executor, FormatAssignment};
use mersit_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One inference request: a single sample for a named model, optionally
/// choosing a quantization format and execution engine.
///
/// Built with consuming setters:
///
/// ```
/// use mersit_ptq::Executor;
/// use mersit_serve::Request;
/// use mersit_tensor::Tensor;
///
/// let sample = Tensor::from_vec(vec![0.5, -1.0, 0.25, 2.0], &[4]);
/// let req = Request::new("toy", sample)
///     .format("MERSIT(8,2)")
///     .executor(Executor::BitTrue);
/// assert_eq!(req.model(), "toy");
/// ```
#[derive(Debug, Clone)]
pub struct Request {
    model: String,
    format: Option<String>,
    executor: Option<Executor>,
    input: Tensor,
}

impl Request {
    /// A request for one sample (no leading batch dimension — the server
    /// batches for you) against the named model. Without further setters
    /// it runs the FP32 reference forward.
    #[must_use]
    pub fn new(model: impl Into<String>, input: Tensor) -> Self {
        Self {
            model: model.into(),
            format: None,
            executor: None,
            input,
        }
    }

    /// Quantize through this format — any `mersit-core` format name
    /// (`"MERSIT(8,2)"`, `"Posit(8,1)"`, `"INT8"`) or a per-layer
    /// assignment spec (`"MERSIT(8,2);head.fc=FP(8,4)"`, see
    /// [`FormatAssignment::parse`]). Unset means the FP32 reference
    /// forward — no quantization, executor ignored.
    #[must_use]
    pub fn format(mut self, fmt: impl Into<String>) -> Self {
        self.format = Some(fmt.into());
        self
    }

    /// Run on this execution engine. Unset means the server config's
    /// default executor ([`ServeConfig::from_env`] honors
    /// `MERSIT_EXECUTOR`).
    #[must_use]
    pub fn executor(mut self, e: Executor) -> Self {
        self.executor = Some(e);
        self
    }

    /// The model this request targets.
    #[must_use]
    pub fn model(&self) -> &str {
        &self.model
    }
}

/// A completed inference: the predicted class plus latency accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Argmax class index for the submitted sample.
    pub prediction: usize,
    /// How many requests rode in the coalesced batch that computed this.
    pub batch_size: usize,
    /// Microseconds from admission to the batch starting to compute.
    pub queue_us: u64,
    /// Microseconds from admission to the response being ready.
    pub total_us: u64,
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was at its configured depth; the request was
    /// rejected without queueing (backpressure — retry later or raise
    /// `MERSIT_SERVE_QUEUE_DEPTH`).
    QueueFull {
        /// The configured depth that was full.
        depth: usize,
    },
    /// No model with this name is loaded.
    UnknownModel(String),
    /// The format string did not parse.
    BadFormat(String),
    /// The server is shutting down (or has shut down) and admits nothing.
    ShuttingDown,
    /// The batch this request rode in panicked during compute (e.g. an
    /// input shape the model cannot consume).
    Internal(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { depth } => {
                write!(f, "admission queue full (depth {depth})")
            }
            ServeError::UnknownModel(m) => write!(f, "unknown model {m:?}"),
            ServeError::BadFormat(e) => write!(f, "bad format: {e}"),
            ServeError::ShuttingDown => f.write_str("server is shutting down"),
            ServeError::Internal(e) => write!(f, "inference failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A claim on a future [`Response`]: returned by [`Server::submit`] so
/// callers can overlap their own work with queued inference.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is served (or rejected by shutdown).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll: `None` while the request is still queued or
    /// computing, `Some(..)` once its outcome is available. The socket
    /// front door ([`crate::net`]) drains tickets with this from its
    /// event loop, so completed batches flow back to clients without
    /// anyone blocking on [`Ticket::wait`].
    #[must_use]
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// Counters describing everything a server has done so far. Admission
/// conservation: every submitted request is eventually exactly one of
/// completed or failed, and `rejected` counts the ones never admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests answered with a [`Response`].
    pub completed: u64,
    /// Requests rejected at admission ([`ServeError::QueueFull`]).
    pub rejected: u64,
    /// Admitted requests answered with [`ServeError::Internal`].
    pub failed: u64,
    /// Coalesced batches flushed.
    pub batches: u64,
    /// Compiled plans currently in the cache.
    pub cached_plans: usize,
}

/// How requests group into coalescable batches: same model, same
/// canonical assignment name (None = FP32 reference), same executor,
/// same sample shape. Only identical keys ever share a forward, so a
/// batch is always one `cat_outer` away from a valid model input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct GroupKey {
    model: String,
    format: Option<String>,
    executor: Executor,
    shape: Vec<usize>,
}

/// One admitted request waiting in the queue.
struct Pending {
    key: GroupKey,
    fmt: Option<FormatAssignment>,
    /// The sample lifted to `[1, ...]`, ready to concatenate.
    input: Tensor,
    enqueued: Instant,
    tx: mpsc::Sender<Result<Response, ServeError>>,
}

struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

#[derive(Debug, Default)]
struct StatsInner {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
}

struct ModelEntry {
    model: Model,
    cal: Calibration,
}

struct Shared {
    cfg: ServeConfig,
    models: HashMap<String, ModelEntry>,
    cache: PlanCache,
    state: Mutex<State>,
    notify: Condvar,
    stats: StatsInner,
}

/// A persistent in-process inference server over compiled plans.
///
/// [`Server::start`] spawns exactly one lightweight batcher thread, which
/// only admits and coalesces — all tensor compute it triggers fans out
/// through the global `mersit-tensor` work-stealing pool, so the server
/// adds no second compute pool. Requests arrive via [`Server::submit`]
/// (non-blocking, returns a [`Ticket`]) or [`Server::infer`] (blocking);
/// any number of client threads may call both concurrently (`&self`).
///
/// Dropping the server (or calling [`Server::shutdown`]) stops admission,
/// drains every queued request with a real response, and joins the
/// batcher — no request is silently dropped.
pub struct Server {
    shared: Arc<Shared>,
    batcher: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.shared.models.len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server over the given calibrated models.
    ///
    /// # Panics
    ///
    /// Panics if two models share a name (requests would be ambiguous).
    #[must_use]
    pub fn start(models: Vec<(Model, Calibration)>, cfg: ServeConfig) -> Self {
        let mut map = HashMap::new();
        for (model, cal) in models {
            let prev = map.insert(model.name.clone(), ModelEntry { model, cal });
            assert!(prev.is_none(), "duplicate model name");
        }
        let shared = Arc::new(Shared {
            cfg,
            models: map,
            cache: PlanCache::new(),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            notify: Condvar::new(),
            stats: StatsInner::default(),
        });
        let worker = Arc::clone(&shared);
        let batcher = std::thread::Builder::new()
            .name("mersit-serve-batcher".into())
            .spawn(move || batcher_loop(&worker))
            .expect("spawn batcher thread");
        Self {
            shared,
            batcher: Some(batcher),
        }
    }

    /// Validates and enqueues a request, returning a [`Ticket`] for its
    /// response. Never blocks on compute: a full queue rejects with
    /// [`ServeError::QueueFull`] instead of waiting.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] / [`ServeError::BadFormat`] for
    /// invalid requests, [`ServeError::QueueFull`] under backpressure,
    /// [`ServeError::ShuttingDown`] after shutdown began.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let shared = &self.shared;
        if !shared.models.contains_key(&req.model) {
            return Err(ServeError::UnknownModel(req.model));
        }
        let fmt = match &req.format {
            Some(spec) => Some(
                FormatAssignment::parse(spec).map_err(|e| ServeError::BadFormat(e.to_string()))?,
            ),
            None => None,
        };
        // FP32 reference requests all share one group regardless of the
        // (ignored) executor choice.
        let executor = match &fmt {
            Some(_) => req.executor.unwrap_or(shared.cfg.default_executor),
            None => Executor::Float,
        };
        let key = GroupKey {
            model: req.model,
            format: fmt.as_ref().map(FormatAssignment::name),
            executor,
            shape: req.input.shape().to_vec(),
        };
        let mut lifted = vec![1usize];
        lifted.extend_from_slice(req.input.shape());
        let input = Tensor::from_vec(req.input.data().to_vec(), &lifted);
        let (tx, rx) = mpsc::channel();
        let pending = Pending {
            key,
            fmt,
            input,
            enqueued: Instant::now(),
            tx,
        };
        let mut st = shared.state.lock().expect("serve state poisoned");
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if st.queue.len() >= shared.cfg.queue_depth {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            mersit_obs::incr("serve.admission.rejected");
            return Err(ServeError::QueueFull {
                depth: shared.cfg.queue_depth,
            });
        }
        st.queue.push_back(pending);
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        mersit_obs::incr("serve.requests");
        mersit_obs::observe("serve.queue.depth", st.queue.len() as f64);
        drop(st);
        shared.notify.notify_all();
        Ok(Ticket { rx })
    }

    /// Submits and blocks for the response: `submit(req)?.wait()`.
    ///
    /// # Errors
    ///
    /// Everything [`Server::submit`] rejects, plus
    /// [`ServeError::Internal`] when the batch panicked in compute.
    pub fn infer(&self, req: Request) -> Result<Response, ServeError> {
        self.submit(req)?.wait()
    }

    /// A consistent-enough snapshot of the server's counters.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        let s = &self.shared.stats;
        ServeStats {
            submitted: s.submitted.load(Ordering::Relaxed),
            completed: s.completed.load(Ordering::Relaxed),
            rejected: s.rejected.load(Ordering::Relaxed),
            failed: s.failed.load(Ordering::Relaxed),
            batches: s.batches.load(Ordering::Relaxed),
            cached_plans: self.shared.cache.len(),
        }
    }

    /// Stops admission, serves every already-queued request, and joins
    /// the batcher thread. Idempotent; also runs on drop. Submissions
    /// racing with shutdown either get queued-and-served or
    /// [`ServeError::ShuttingDown`] — never silence.
    pub fn shutdown(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("serve state poisoned");
            st.shutdown = true;
        }
        self.shared.notify.notify_all();
        if let Some(h) = self.batcher.take() {
            h.join().expect("batcher thread panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The batcher: wait for work, coalesce the front group, flush, repeat.
/// On shutdown it keeps flushing until the queue is empty, so every
/// admitted request is answered.
fn batcher_loop(shared: &Shared) {
    loop {
        let Some(batch) = next_batch(shared) else {
            return;
        };
        flush(shared, batch);
    }
}

/// Blocks until a batch is ready under the flush policy — the front
/// request's group reaching `max_batch`, the group already holding
/// *every* queued request (waiting longer could not grow the batch, so a
/// lone request never pays `max_wait_us`), or its deadline
/// (`enqueued + max_wait_us`) passing, whichever comes first; shutdown
/// flushes immediately. Returns `None` when shut down and drained.
fn next_batch(shared: &Shared) -> Option<Vec<Pending>> {
    let mut st: MutexGuard<'_, State> = shared.state.lock().expect("serve state poisoned");
    loop {
        if st.queue.is_empty() {
            if st.shutdown {
                return None;
            }
            st = shared.notify.wait(st).expect("serve state poisoned");
            continue;
        }
        let front = st.queue.front().expect("non-empty queue");
        let key = front.key.clone();
        let deadline = front.enqueued + Duration::from_micros(shared.cfg.max_wait_us);
        let same = st.queue.iter().filter(|p| p.key == key).count();
        let now = Instant::now();
        if same >= shared.cfg.max_batch || same == st.queue.len() || now >= deadline || st.shutdown
        {
            return Some(extract_group(&mut st.queue, &key, shared.cfg.max_batch));
        }
        let (guard, _) = shared
            .notify
            .wait_timeout(st, deadline - now)
            .expect("serve state poisoned");
        st = guard;
    }
}

/// Removes up to `max` requests with this key from the queue, preserving
/// FIFO order (both inside the batch and among the left-behind rest).
fn extract_group(queue: &mut VecDeque<Pending>, key: &GroupKey, max: usize) -> Vec<Pending> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < queue.len() && out.len() < max {
        if queue[i].key == *key {
            out.push(queue.remove(i).expect("index checked"));
        } else {
            i += 1;
        }
    }
    out
}

/// Runs one coalesced batch end to end and answers every ticket in it.
/// A panic in compute (bad input shape, model/plan mismatch) fails the
/// batch with [`ServeError::Internal`] instead of killing the server.
fn flush(shared: &Shared, batch: Vec<Pending>) {
    let _span = mersit_obs::span("serve.batch.flush");
    let n = batch.len();
    mersit_obs::observe("serve.batch.size", n as f64);
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    let key = &batch[0].key;
    let entry = shared.models.get(&key.model).expect("validated at submit");
    let compute_start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        let parts: Vec<&Tensor> = batch.iter().map(|p| &p.input).collect();
        let x = Tensor::cat_outer(&parts);
        match (&batch[0].fmt, &key.format) {
            (Some(assign), Some(canonical)) => {
                let plan_key = PlanKey {
                    model: key.model.clone(),
                    format: canonical.clone(),
                    executor: key.executor,
                };
                let plan = shared
                    .cache
                    .get_or_build(&plan_key, &entry.model, assign, &entry.cal);
                plan.predict_one_batch(&entry.model, x)
            }
            _ => predict_one_batch_ref(&entry.model.net, x),
        }
    }));
    match result {
        Ok(preds) => {
            assert_eq!(preds.len(), n, "one prediction per batched request");
            let done = Instant::now();
            for (p, prediction) in batch.into_iter().zip(preds) {
                let resp = Response {
                    prediction,
                    batch_size: n,
                    queue_us: micros_between(p.enqueued, compute_start),
                    total_us: micros_between(p.enqueued, done),
                };
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                let _ = p.tx.send(Ok(resp));
            }
        }
        Err(payload) => {
            mersit_obs::incr("serve.batch.failed");
            let msg = panic_message(&*payload);
            for p in batch {
                shared.stats.failed.fetch_add(1, Ordering::Relaxed);
                let _ = p.tx.send(Err(ServeError::Internal(msg.clone())));
            }
        }
    }
}

fn micros_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "batch compute panicked".to_owned()
    }
}
