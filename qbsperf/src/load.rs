//! Load generators: a closed loop (each caller waits for its reply before
//! sending again) and an open loop (batches fall due on a fixed schedule,
//! whether or not earlier ones have completed).
//!
//! Every batch is checked against the oracle after its timer stops, so
//! checking never counts towards latency.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use qbs_core::{Qbs, QueryOutcome, QueryRequest};
use qbs_server::{BatchReply, QbsClient};

use crate::oracle::{Oracle, PathSample};
use crate::stats::{self, us};
use crate::trace::Trace;

/// The quantile of a load level's slices its figures are taken at: the
/// best slice. On a shared virtual machine the host preempts the guest's
/// cores in bursts; a burst spoils the slices it overlaps (within one run
/// the slices' 99th percentiles spread over 2-5x), while the best slice
/// repeats within a few percent between runs and still moves with a change
/// that slows every slice.
pub const BEST_SLICE: f64 = 0.0;

/// How many leading stream slots keep their path-graph answer for the
/// edge-set check.
pub const PATH_SLOTS: usize = 128;

/// One way to send a batch: in process or over a connection.
pub trait Caller: Send {
    /// The batch's outcomes, or `Err` when the whole batch was refused
    /// (Busy, Unavailable connection or a protocol error).
    fn call(&mut self, batch: &[QueryRequest]) -> Result<Vec<QueryOutcome>, String>;
}

impl Caller for &Qbs {
    fn call(&mut self, batch: &[QueryRequest]) -> Result<Vec<QueryOutcome>, String> {
        Ok(self.submit(batch))
    }
}

impl<T: Caller> Caller for &mut T {
    fn call(&mut self, batch: &[QueryRequest]) -> Result<Vec<QueryOutcome>, String> {
        (**self).call(batch)
    }
}

impl Caller for QbsClient {
    fn call(&mut self, batch: &[QueryRequest]) -> Result<Vec<QueryOutcome>, String> {
        match self.submit(batch) {
            Ok(BatchReply::Outcomes(outcomes)) => Ok(outcomes),
            Ok(BatchReply::Busy(reason)) => Err(format!("busy: {reason:?}")),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// The request stream of a run with the oracle's answer for each slot.
pub struct Stream {
    pub requests: Vec<QueryRequest>,
    pub oracle: Oracle,
}

impl Stream {
    /// The first slot and the requests of batch `k` of size `batch`: slots
    /// `k·batch ..` modulo the stream length (a multiple of every batch
    /// size used, so no batch wraps).
    pub fn batch(&self, k: usize, batch: usize) -> (usize, &[QueryRequest]) {
        let first = (k * batch) % self.requests.len();
        (first, &self.requests[first..first + batch])
    }
}

/// What one phase of load measured.
#[derive(Default)]
pub struct Phase {
    /// Per-batch latency in microseconds (from the due time in an open
    /// loop, from the send in a closed loop).
    pub lat_us: Vec<f64>,
    /// How late the generator sent batches it was free to send on time.
    pub late_us: Vec<f64>,
    pub requests: u64,
    pub failed: u64,
    pub mismatches: u64,
    pub refusals: Vec<String>,
    pub elapsed: Duration,
    /// Open loop only: the send lag at the end of the phase exceeded the
    /// latency limit, so the backlog grew during the run.
    pub backlog_grew: bool,
    /// Figures of the slices folded in by [`Phase::absorb_slice`].
    pub slices: Vec<Slice>,
}

/// The figures of one slice of a load level.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub rps: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl Phase {
    pub fn mean_us(&self) -> f64 {
        stats::mean(&self.lat_us)
    }

    /// Requests per second; over folded slices (see
    /// [`Phase::absorb_slice`]), the [`BEST_SLICE`] quantile.
    pub fn rps(&self) -> f64 {
        self.over_slices(
            |s| s.rps,
            1.0 - BEST_SLICE,
            || stats::ratio(self.requests as f64, self.elapsed.as_secs_f64()),
        )
    }

    /// Median batch latency; over folded slices, the [`BEST_SLICE`]
    /// quantile of the slices' medians.
    pub fn p50_us(&self) -> f64 {
        self.over_slices(
            |s| s.p50_us,
            BEST_SLICE,
            || stats::quantile(&mut self.lat_us.clone(), 0.50),
        )
    }

    /// 99th-percentile batch latency; over folded slices, the
    /// [`BEST_SLICE`] quantile of the slices' 99th percentiles.
    pub fn p99_us(&self) -> f64 {
        self.over_slices(
            |s| s.p99_us,
            BEST_SLICE,
            || stats::quantile(&mut self.lat_us.clone(), 0.99),
        )
    }

    fn over_slices(&self, pick: impl Fn(&Slice) -> f64, q: f64, whole: impl Fn() -> f64) -> f64 {
        if self.slices.is_empty() {
            whole()
        } else {
            stats::quantile(&mut self.slices.iter().map(pick).collect::<Vec<_>>(), q)
        }
    }

    /// Folds one slice of the same load level into this phase, keeping the
    /// slice's own figures.
    pub fn absorb_slice(&mut self, slice: Phase) {
        self.slices.push(Slice {
            rps: slice.rps(),
            p50_us: slice.p50_us(),
            p99_us: slice.p99_us(),
        });
        self.absorb(slice);
    }

    fn absorb(&mut self, other: Phase) {
        self.elapsed += other.elapsed;
        self.backlog_grew |= other.backlog_grew;
        self.lat_us.extend(other.lat_us);
        self.late_us.extend(other.late_us);
        self.requests += other.requests;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.refusals.extend(other.refusals);
    }
}

/// What the phases of one run share: the stream, the batch size, the next
/// batch to send, the path graphs kept for the oracle and the span store.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub stream: &'a Stream,
    pub batch: usize,
    pub next: &'a AtomicUsize,
    pub paths: &'a Mutex<PathSample>,
    pub trace: &'a Trace,
    /// The name of the span recorded around each batch.
    pub span: &'static str,
}

impl Load<'_> {
    /// Sends `batch`'s requests through `caller`, checks the outcomes and
    /// records them into `phase`; returns the send and completion times.
    fn run_batch<C: Caller>(
        &self,
        caller: &mut C,
        k: usize,
        phase: &mut Phase,
        paths: &mut PathSample,
        log: &mut crate::trace::SpanLog<'_>,
    ) -> (Instant, Instant) {
        let (first, batch) = self.stream.batch(k, self.batch);
        let span = log.open(self.span, 0, k as u64);
        let sent = Instant::now();
        let reply = caller.call(batch);
        let done = Instant::now();
        log.close(span, batch.len() as u64);
        phase.requests += batch.len() as u64;
        match reply {
            Ok(outcomes) if outcomes.len() == batch.len() => {
                for (i, outcome) in outcomes.iter().enumerate() {
                    if !self.stream.oracle.matches(first + i, outcome) {
                        phase.failed += 1;
                        if !outcome.is_error() {
                            phase.mismatches += 1;
                        }
                    }
                    paths.offer(first + i, outcome);
                }
            }
            Ok(outcomes) => {
                phase.failed += batch.len() as u64;
                phase.refusals.push(format!(
                    "{} outcomes for {} requests",
                    outcomes.len(),
                    batch.len()
                ));
            }
            Err(reason) => {
                phase.failed += batch.len() as u64;
                phase.refusals.push(reason);
            }
        }
        (sent, done)
    }

    /// A closed loop: each caller sends its next batch as soon as the
    /// previous one completes, for `duration`.
    pub fn closed<C: Caller>(&self, callers: Vec<C>, duration: Duration) -> Phase {
        let start = Instant::now();
        let end = start + duration;
        let mut total = Phase::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .into_iter()
                .map(|mut caller| {
                    scope.spawn(move || {
                        let mut phase = Phase::default();
                        let mut paths = PathSample::new(PATH_SLOTS);
                        let mut log = self.trace.log();
                        while Instant::now() < end {
                            let k = self.next.fetch_add(1, Ordering::Relaxed);
                            let (sent, done) =
                                self.run_batch(&mut caller, k, &mut phase, &mut paths, &mut log);
                            phase.lat_us.push(us(done - sent));
                        }
                        (phase, paths)
                    })
                })
                .collect();
            for h in handles {
                let (phase, paths) = h.join().expect("closed-loop caller panicked");
                total.absorb(phase);
                self.paths
                    .lock()
                    .expect("path sample poisoned")
                    .merge(paths);
            }
        });
        total.elapsed = start.elapsed();
        total
    }

    /// An open loop at `rate` requests per second for `duration`, from at
    /// most `callers.len()` batches in flight. Each batch is timed from
    /// its due time; `limit` is the latency limit that marks a growing
    /// backlog.
    pub fn open<C: Caller>(
        &self,
        callers: Vec<C>,
        rate: f64,
        duration: Duration,
        limit: Duration,
    ) -> Phase {
        let interval = Duration::from_secs_f64(self.batch as f64 / rate);
        let due_batches = (duration.as_secs_f64() / interval.as_secs_f64()) as usize;
        let claimed = AtomicUsize::new(0);
        let base = self.next.load(Ordering::Relaxed);
        let start = Instant::now() + Duration::from_millis(2);
        let mut total = Phase::default();
        let mut lag_tail: Vec<f64> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = callers
                .into_iter()
                .map(|mut caller| {
                    let claimed = &claimed;
                    scope.spawn(move || {
                        let mut phase = Phase::default();
                        let mut paths = PathSample::new(PATH_SLOTS);
                        let mut log = self.trace.log();
                        let mut tail = Vec::new();
                        loop {
                            let i = claimed.fetch_add(1, Ordering::Relaxed);
                            if i >= due_batches {
                                break;
                            }
                            let due = start + interval * i as u32;
                            let free = Instant::now();
                            let on_time = free < due;
                            if on_time {
                                wait_until(due);
                            }
                            let (sent, done) = self.run_batch(
                                &mut caller,
                                base + i,
                                &mut phase,
                                &mut paths,
                                &mut log,
                            );
                            if on_time {
                                phase.late_us.push(us(sent - due));
                            }
                            if i >= due_batches - due_batches / 20 {
                                tail.push(us(sent.saturating_duration_since(due)));
                            }
                            phase.lat_us.push(us(done - due));
                        }
                        (phase, paths, tail)
                    })
                })
                .collect();
            for h in handles {
                let (phase, paths, tail) = h.join().expect("open-loop caller panicked");
                total.absorb(phase);
                lag_tail.extend(tail);
                self.paths
                    .lock()
                    .expect("path sample poisoned")
                    .merge(paths);
            }
        });
        self.next.store(base + due_batches, Ordering::Relaxed);
        total.elapsed = start.elapsed();
        total.backlog_grew = stats::mean(&lag_tail) > us(limit);
        total
    }
}

/// Sleeps until shortly before `due`, then spins: `thread::sleep`
/// overshoots by tens to hundreds of microseconds.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(100);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}
