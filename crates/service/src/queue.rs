//! The bounded ingest queue: chunks in, backpressure out.
//!
//! A plain `Mutex<VecDeque>` with two condvars (`jobs` wakes workers,
//! `space`/`idle` wake producers and drainers). No lock-free cleverness:
//! ingest jobs are whole chunks (~1k records), so queue operations are
//! nanoseconds against milliseconds of parsing per job — contention on
//! this lock is never the bottleneck, and the simple structure is easy
//! to reason about under shutdown.
//!
//! The same workers also run **scan jobs**: a statement too large to
//! scan on its caller's thread hands per-shard scans over through a
//! second deque under the same lock and the same `jobs` condvar
//! ([`IngestQueue::push_scan`]). Scan jobs are unbounded (a statement
//! posts at most `shards − 1`), never count as in-flight ingest, and
//! are popped before chunks — they are short and a caller is waiting.

use ciao_client::ChunkFilterResult;
use ciao_json::RecordChunk;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One unit of ingest work, routed to a shard at enqueue time.
#[derive(Debug)]
pub struct IngestJob {
    /// Enqueue sequence number (0-based, service lifetime).
    pub seq: u64,
    /// Destination shard index.
    pub shard: usize,
    /// When the queue accepted the job — the start of the ingest-ack
    /// latency window (one `Instant::now()` per whole chunk, so it is
    /// stamped unconditionally rather than gated on telemetry).
    pub enqueued_at: Instant,
    /// The raw chunk.
    pub chunk: RecordChunk,
    /// The client's filter result for the chunk.
    pub filter: ChunkFilterResult,
}

/// One shard's scan, handed from a statement's thread to whichever
/// thread pops it first. The closure owns everything it needs (pinned
/// epochs, plan, result channel); its argument is the lane it runs on
/// — `0` for a statement's own thread, `w + 1` for worker `w` — so
/// traces can say where the scan really ran.
pub struct ScanJob(Box<dyn FnOnce(u64) + Send>);

impl ScanJob {
    /// Wraps a scan.
    pub fn new(scan: impl FnOnce(u64) + Send + 'static) -> ScanJob {
        ScanJob(Box::new(scan))
    }

    /// Runs the scan on `lane`.
    pub fn run(self, lane: u64) {
        (self.0)(lane)
    }
}

impl std::fmt::Debug for ScanJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ScanJob")
    }
}

/// What a worker pops.
#[derive(Debug)]
pub enum Work {
    /// A chunk to ingest; [`IngestQueue::complete`] it afterwards.
    Ingest(IngestJob),
    /// A scan to run.
    Scan(ScanJob),
}

/// What an enqueue attempt observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a QueueFull result means the chunk was NOT accepted"]
pub enum EnqueueResult {
    /// The chunk was accepted.
    Enqueued {
        /// Its sequence number.
        seq: u64,
        /// The shard it will be ingested into.
        shard: usize,
    },
    /// The bounded queue is at capacity — the caller must retry, shed,
    /// or switch to [`crate::Service::enqueue_wait`].
    QueueFull {
        /// The configured capacity the queue is pinned at.
        capacity: usize,
    },
}

impl EnqueueResult {
    /// True when the chunk was accepted.
    pub fn is_enqueued(&self) -> bool {
        matches!(self, EnqueueResult::Enqueued { .. })
    }
}

#[derive(Debug, Default)]
struct QueueState {
    jobs: VecDeque<IngestJob>,
    scans: VecDeque<ScanJob>,
    /// Jobs popped but not yet ingested (keeps `drain` honest: an
    /// empty deque with a job mid-ingest is not "drained").
    in_flight: usize,
    next_seq: u64,
    closed: bool,
}

/// The bounded MPMC ingest queue.
#[derive(Debug)]
pub struct IngestQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    /// Signalled when a job arrives or the queue closes.
    jobs: Condvar,
    /// Signalled when capacity frees up.
    space: Condvar,
    /// Signalled when the queue becomes empty with nothing in flight.
    idle: Condvar,
}

impl IngestQueue {
    /// Creates a queue holding at most `capacity` chunks.
    pub fn new(capacity: usize) -> IngestQueue {
        assert!(capacity > 0, "queue capacity must be positive");
        IngestQueue {
            capacity,
            state: Mutex::new(QueueState::default()),
            jobs: Condvar::new(),
            space: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    /// A queue whose first accepted chunk gets sequence `first_seq` —
    /// how a recovered service resumes its lifetime seq line instead
    /// of re-issuing numbers the WAL already holds.
    pub fn with_first_seq(capacity: usize, first_seq: u64) -> IngestQueue {
        let queue = IngestQueue::new(capacity);
        queue.state.lock().unwrap().next_seq = first_seq;
        queue
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued (excluding in-flight).
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap().jobs.len()
    }

    /// Non-blocking enqueue: `QueueFull` when at capacity or closed.
    pub fn push(
        &self,
        shard: usize,
        chunk: RecordChunk,
        filter: ChunkFilterResult,
    ) -> EnqueueResult {
        match self.try_push(shard, chunk, filter) {
            Ok(seq) => EnqueueResult::Enqueued { seq, shard },
            Err(_) => EnqueueResult::QueueFull {
                capacity: self.capacity,
            },
        }
    }

    /// Non-blocking enqueue that hands the job back on failure, so a
    /// caller can retry the same chunk later without cloning it (the
    /// service's blocking enqueue loops over this, waiting for space
    /// *between* attempts rather than while holding its checkpoint
    /// gate).
    pub fn try_push(
        &self,
        shard: usize,
        chunk: RecordChunk,
        filter: ChunkFilterResult,
    ) -> Result<u64, (RecordChunk, ChunkFilterResult)> {
        let mut st = self.state.lock().unwrap();
        if st.closed || st.jobs.len() >= self.capacity {
            return Err((chunk, filter));
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        st.jobs.push_back(IngestJob {
            seq,
            shard,
            enqueued_at: Instant::now(),
            chunk,
            filter,
        });
        self.jobs.notify_one();
        Ok(seq)
    }

    /// The sequence number the next accepted chunk will get, `None`
    /// when a push right now would be refused (full or closed). Only
    /// a caller that excludes every other producer can rely on the
    /// answer; the durable service does so to log a chunk under its
    /// seq *before* handing the chunk to the queue.
    pub fn next_seq_if_space(&self) -> Option<u64> {
        let st = self.state.lock().unwrap();
        (!st.closed && st.jobs.len() < self.capacity).then_some(st.next_seq)
    }

    /// Blocks until the queue has free capacity or is closed; returns
    /// `false` on close. Space is not reserved — a competing producer
    /// can take it first, so callers loop over [`IngestQueue::try_push`].
    pub fn wait_space(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while !st.closed && st.jobs.len() >= self.capacity {
            st = self.space.wait(st).unwrap();
        }
        !st.closed
    }

    /// Hands a scan to the workers. `Err` gives it back when the queue
    /// is closed (no worker may be left to run it).
    pub fn push_scan(&self, job: ScanJob) -> Result<(), ScanJob> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return Err(job);
        }
        st.scans.push_back(job);
        self.jobs.notify_one();
        Ok(())
    }

    /// Takes back a scan no worker has started yet, so the thread that
    /// is waiting for it can run it instead of waiting.
    pub fn try_pop_scan(&self) -> Option<ScanJob> {
        self.state.lock().unwrap().scans.pop_front()
    }

    /// Worker side: blocks for the next piece of work, scans before
    /// chunks; `None` once the queue is closed **and** empty
    /// (drain-then-stop shutdown semantics).
    pub fn pop_wait(&self) -> Option<Work> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(scan) = st.scans.pop_front() {
                return Some(Work::Scan(scan));
            }
            if let Some(job) = st.jobs.pop_front() {
                st.in_flight += 1;
                self.space.notify_one();
                return Some(Work::Ingest(job));
            }
            if st.closed {
                return None;
            }
            st = self.jobs.wait(st).unwrap();
        }
    }

    /// Non-blocking pop (inline-drain mode).
    pub fn try_pop(&self) -> Option<IngestJob> {
        let mut st = self.state.lock().unwrap();
        let job = st.jobs.pop_front();
        if job.is_some() {
            st.in_flight += 1;
            self.space.notify_one();
        }
        job
    }

    /// Marks one popped job as ingested.
    pub fn complete(&self) {
        let mut st = self.state.lock().unwrap();
        st.in_flight -= 1;
        if st.jobs.is_empty() && st.in_flight == 0 {
            self.idle.notify_all();
        }
    }

    /// Blocks until the queue is empty with nothing in flight.
    pub fn wait_idle(&self) {
        let mut st = self.state.lock().unwrap();
        while !(st.jobs.is_empty() && st.in_flight == 0) {
            st = self.idle.wait(st).unwrap();
        }
    }

    /// Closes the queue: pending jobs still drain, new pushes observe
    /// `QueueFull`, and workers exit once the backlog is gone.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap();
        st.closed = true;
        self.jobs.notify_all();
        self.space.notify_all();
    }

    /// Total chunks ever accepted.
    pub fn accepted(&self) -> u64 {
        self.state.lock().unwrap().next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ciao_client::Prefilter;

    fn job_parts() -> (RecordChunk, ChunkFilterResult) {
        let chunk = RecordChunk::from_records(&[r#"{"a":1}"#]).unwrap();
        let filter = Prefilter::new([]).run_chunk(&chunk);
        (chunk, filter)
    }

    #[test]
    fn fills_to_capacity_then_rejects() {
        let q = IngestQueue::new(2);
        for i in 0..2 {
            let (c, f) = job_parts();
            assert_eq!(
                q.push(0, c, f),
                EnqueueResult::Enqueued { seq: i, shard: 0 }
            );
        }
        let (c, f) = job_parts();
        assert_eq!(q.push(0, c, f), EnqueueResult::QueueFull { capacity: 2 });
        assert_eq!(q.depth(), 2);
        assert_eq!(q.accepted(), 2);
    }

    #[test]
    fn next_seq_if_space_predicts_the_push() {
        let q = IngestQueue::with_first_seq(1, 7);
        assert_eq!(q.next_seq_if_space(), Some(7));
        let (c, f) = job_parts();
        assert_eq!(q.try_push(0, c, f).unwrap(), 7);
        assert_eq!(q.next_seq_if_space(), None, "full");
        let _job = q.try_pop().unwrap();
        q.complete();
        assert_eq!(q.next_seq_if_space(), Some(8));
        q.close();
        assert_eq!(q.next_seq_if_space(), None, "closed");
    }

    #[test]
    fn pop_frees_space_fifo() {
        let q = IngestQueue::new(1);
        let (c, f) = job_parts();
        assert!(q.push(3, c, f).is_enqueued());
        let job = q.try_pop().unwrap();
        assert_eq!((job.seq, job.shard), (0, 3));
        let (c, f) = job_parts();
        assert!(q.push(1, c, f).is_enqueued());
        q.complete();
    }

    #[test]
    fn wait_idle_counts_in_flight() {
        let q = IngestQueue::new(4);
        let (c, f) = job_parts();
        assert!(q.push(0, c, f).is_enqueued());
        let _job = q.try_pop().unwrap();
        // Empty deque but one job in flight: not idle yet.
        assert_eq!(q.depth(), 0);
        q.complete();
        q.wait_idle(); // returns immediately now
    }

    #[test]
    fn close_drains_then_stops_workers() {
        let q = IngestQueue::new(4);
        let (c, f) = job_parts();
        assert!(q.push(0, c, f).is_enqueued());
        q.close();
        // Backlog still pops after close...
        assert!(q.pop_wait().is_some());
        q.complete();
        // ...then workers see the end.
        assert!(q.pop_wait().is_none());
        // And producers are refused: non-blocking pushes report full,
        // blocking waiters observe the close instead of hanging.
        let (c, f) = job_parts();
        assert!(!q.push(0, c, f).is_enqueued());
        assert!(!q.wait_space(), "wait_space reports the close");
    }

    #[test]
    fn scans_share_the_queue_without_counting_as_ingest() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let q = IngestQueue::new(1);
        let ran_on = Arc::new(AtomicU64::new(u64::MAX));
        let scan = |ran_on: &Arc<AtomicU64>| {
            let ran_on = Arc::clone(ran_on);
            ScanJob::new(move |lane| ran_on.store(lane, Ordering::SeqCst))
        };
        let (c, f) = job_parts();
        assert!(q.push(0, c, f).is_enqueued());
        // A full chunk queue does not refuse a scan, and the scan is
        // popped first though the chunk arrived first.
        q.push_scan(scan(&ran_on)).unwrap();
        assert_eq!(q.depth(), 1, "depth counts chunks only");
        let Some(Work::Scan(job)) = q.pop_wait() else {
            panic!("scans pop before chunks");
        };
        job.run(3);
        assert_eq!(ran_on.load(Ordering::SeqCst), 3);
        assert_eq!(
            q.next_seq_if_space(),
            None,
            "the chunk still fills the queue"
        );
        assert!(matches!(q.pop_wait(), Some(Work::Ingest(_))));
        q.complete();
        q.wait_idle(); // the scan left no in-flight count behind

        // A posted scan can be taken back by the thread waiting on it.
        q.push_scan(scan(&ran_on)).unwrap();
        q.try_pop_scan().expect("not yet started").run(0);
        assert_eq!(ran_on.load(Ordering::SeqCst), 0);
        assert!(q.try_pop_scan().is_none());

        // Close: a pending scan still drains, a new one is handed back.
        q.push_scan(scan(&ran_on)).unwrap();
        q.close();
        assert!(q.push_scan(scan(&ran_on)).is_err());
        assert!(matches!(q.pop_wait(), Some(Work::Scan(_))));
        assert!(q.pop_wait().is_none());
    }

    #[test]
    fn try_push_returns_the_job_on_a_full_queue() {
        let q = IngestQueue::new(1);
        let (c, f) = job_parts();
        assert!(q.try_push(0, c, f).is_ok());
        let (c, f) = job_parts();
        let (c, f) = q.try_push(0, c, f).expect_err("queue is full");
        // The job came back intact; after space frees it goes in.
        let _job = q.try_pop().unwrap();
        q.complete();
        assert!(q.wait_space());
        assert_eq!(q.try_push(0, c, f).unwrap(), 1);
    }

    #[test]
    fn wait_space_blocks_until_space() {
        use std::sync::Arc;
        let q = Arc::new(IngestQueue::new(1));
        let (c, f) = job_parts();
        assert!(q.push(0, c, f).is_enqueued());
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            let (mut c, mut f) = job_parts();
            // The retry loop the service's blocking enqueue runs.
            loop {
                match q2.try_push(0, c, f) {
                    Ok(seq) => return EnqueueResult::Enqueued { seq, shard: 0 },
                    Err(back) => (c, f) = back,
                }
                if !q2.wait_space() {
                    return EnqueueResult::QueueFull { capacity: 1 };
                }
            }
        });
        // Free the slot; the blocked producer must complete.
        let _job = q.try_pop().unwrap();
        q.complete();
        assert!(producer.join().unwrap().is_enqueued());
    }
}
