//! The in-process closed loop over a `JobExecutor`: keep `depth` jobs
//! outstanding, dispatch one slice batch at a time, take every job that
//! went terminal.

use crate::jobs::Job;
use crate::trace::Tracer;
use esd_core::{JobExecutor, JobHandle, JobOutcome, JobSpec};
use std::time::Instant;

/// One job taken from the executor.
pub struct Finished {
    pub index: usize,
    /// Submit to outcome in hand.
    pub latency_s: f64,
    /// Latency minus the executor's own admission-to-finish wall time.
    pub queue_wait_s: f64,
    pub outcome: JobOutcome,
}

pub struct ClosedLoop {
    pub exec: JobExecutor,
    /// Job indices in submit order, with their prepared specs.
    queue: Vec<(usize, Option<JobSpec>)>,
    next: usize,
    depth: usize,
    in_flight: Vec<(JobHandle, usize, Instant)>,
    pub slices: u64,
    /// Explicit checkpoints every n slices (durable executors built with
    /// automatic checkpoints disabled).
    checkpoint_every: Option<u64>,
}

impl ClosedLoop {
    pub fn new(exec: JobExecutor, jobs: &[Job], order: &[usize], depth: usize) -> Self {
        let queue = order.iter().map(|&i| (i, Some(jobs[i].spec()))).collect();
        ClosedLoop::with_specs(exec, queue, depth)
    }

    pub fn with_specs(
        exec: JobExecutor,
        queue: Vec<(usize, Option<JobSpec>)>,
        depth: usize,
    ) -> Self {
        ClosedLoop {
            exec,
            queue,
            next: 0,
            depth,
            in_flight: Vec::new(),
            slices: 0,
            checkpoint_every: None,
        }
    }

    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n);
        self
    }

    pub fn done(&self) -> bool {
        self.next == self.queue.len() && self.in_flight.is_empty()
    }

    /// Tops up the outstanding jobs, runs one slice batch and hands every
    /// job that went terminal to `on_done`.
    pub fn step(&mut self, tracer: &Tracer, on_done: &mut dyn FnMut(Finished)) {
        while self.in_flight.len() < self.depth && self.next < self.queue.len() {
            let (index, spec) = &mut self.queue[self.next];
            let (index, spec) = (*index, spec.take().expect("each spec is submitted once"));
            let t0 = Instant::now();
            let handle = tracer.span("executor.submit", Some(index), || self.exec.submit(spec));
            self.in_flight.push((handle, index, t0));
            self.next += 1;
        }
        tracer.span("executor.run_slice", None, || self.exec.run_slice());
        self.slices += 1;
        if let Some(n) = self.checkpoint_every {
            if self.slices.is_multiple_of(n) {
                tracer.span("snapshot.checkpoint", None, || {
                    self.exec.checkpoint().expect("replica checkpoint")
                });
            }
        }
        let mut i = 0;
        while i < self.in_flight.len() {
            let (handle, index, t0) = self.in_flight[i];
            if !self.exec.status(handle).is_terminal() {
                i += 1;
                continue;
            }
            self.in_flight.remove(i);
            let outcome = tracer
                .span("executor.take", Some(index), || self.exec.take(handle))
                .expect("a terminal job's outcome is taken once");
            let latency_s = t0.elapsed().as_secs_f64();
            let queue_wait_s = (latency_s - outcome.wall.as_secs_f64()).max(0.0);
            on_done(Finished { index, latency_s, queue_wait_s, outcome });
        }
    }
}
