//! The `service-durable` front end: a `Daemon` on a Unix-domain socket in
//! this process, serving a durable executor, and one client thread that
//! drives two connections with one job in flight each.

use crate::trace::Tracer;
use esd_core::{JobExecutor, JobOutcome};
use esd_service::{
    Daemon, InProcessService, JobRequest, JobTicket, RemoteClient, Service, ServiceError,
};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections the client drives, each with one job in flight.
pub const CONNECTIONS: usize = 2;

/// Queued-job bound of the daemon: above the 2 jobs the closed loop can
/// have outstanding, so a correct run never sees `Overloaded`.
pub const MAX_PENDING: usize = 4;

/// Client sleep between poll rounds; kept under 1 % of p50.
pub const POLL_INTERVAL: Duration = Duration::from_micros(100);

pub struct ServiceRig {
    pub clients: Vec<RemoteClient>,
    server: Option<JoinHandle<Result<(), ServiceError>>>,
    pub durable_dir: PathBuf,
    /// Jobs submitted over the rig's lifetime, warm-up included.
    pub submitted: u64,
}

impl ServiceRig {
    /// Creates the durable directory, binds the daemon, starts its loop
    /// thread and connects the clients.
    pub fn start(dir: &Path) -> Result<ServiceRig, String> {
        let durable_dir = dir.join("daemon");
        let exec = JobExecutor::round_robin()
            .durable_dir(&durable_dir)
            .map_err(|e| format!("durable dir: {e}"))?;
        let service = InProcessService::new(exec).max_pending(MAX_PENDING);
        let sock = dir.join("esd.sock");
        let mut daemon = Daemon::bind_uds(&sock, service).map_err(|e| format!("bind: {e}"))?;
        let server = std::thread::spawn(move || daemon.run());
        let clients = (0..CONNECTIONS)
            .map(|_| RemoteClient::connect_uds(&sock).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceRig { clients, server: Some(server), durable_dir, submitted: 0 })
    }

    /// Shuts the daemon down and joins its thread.
    pub fn stop(mut self) -> Result<(), String> {
        let mut clients = std::mem::take(&mut self.clients);
        let first = clients.remove(0);
        drop(clients);
        first.shutdown_server().map_err(|e| format!("shutdown: {e}"))?;
        self.server
            .take()
            .expect("started rigs hold their thread")
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))
    }
}

/// One job taken over the wire.
pub struct Taken {
    pub index: usize,
    pub latency_s: f64,
    pub queue_wait_s: f64,
    pub polls: u64,
    pub outcome: Result<JobOutcome, String>,
}

/// Client-side counters of one loop.
#[derive(Default)]
pub struct ClientStats {
    pub overloaded: u64,
    pub polls: u64,
}

/// Runs one job to completion on the first connection (the untimed
/// warm-up).
pub fn run_one(rig: &mut ServiceRig, request: JobRequest) -> Result<JobOutcome, String> {
    let client = &mut rig.clients[0];
    let ticket = client.submit(request).map_err(|e| e.to_string())?;
    rig.submitted += 1;
    loop {
        if client.poll(ticket).map_err(|e| e.to_string())?.is_terminal() {
            break;
        }
        std::thread::sleep(POLL_INTERVAL);
    }
    client.take(ticket).map_err(|e| e.to_string())?.ok_or_else(|| "no outcome".to_string())
}

/// The closed loop: each connection submits its next request as soon as
/// its previous job's outcome is in hand.
pub fn closed_loop(
    rig: &mut ServiceRig,
    requests: &mut [(usize, Option<JobRequest>)],
    tracer: &Tracer,
    on_done: &mut dyn FnMut(Taken),
) -> ClientStats {
    struct InFlight {
        index: usize,
        ticket: JobTicket,
        t0: Instant,
        polls: u64,
    }
    let mut stats = ClientStats::default();
    let mut slots: Vec<Option<InFlight>> = (0..rig.clients.len()).map(|_| None).collect();
    let mut next = 0;
    loop {
        let mut idle = true;
        for (c, slot) in slots.iter_mut().enumerate() {
            let client = &mut rig.clients[c];
            if slot.is_none() {
                if next == requests.len() {
                    continue;
                }
                let (index, request) = &mut requests[next];
                let index = *index;
                let request = request.take().expect("each request is submitted once");
                next += 1;
                let t0 = Instant::now();
                match tracer.span("service.submit", Some(index), || client.submit(request)) {
                    Ok(ticket) => {
                        rig.submitted += 1;
                        *slot = Some(InFlight { index, ticket, t0, polls: 0 });
                    }
                    Err(e) => {
                        if matches!(e, ServiceError::Overloaded { .. }) {
                            stats.overloaded += 1;
                        }
                        on_done(Taken {
                            index,
                            latency_s: 0.0,
                            queue_wait_s: 0.0,
                            polls: 0,
                            outcome: Err(format!("submit: {e}")),
                        });
                    }
                }
                idle = false;
                continue;
            }
            let job = slot.as_mut().expect("checked above");
            job.polls += 1;
            stats.polls += 1;
            let status = tracer.span("service.poll", Some(job.index), || client.poll(job.ticket));
            let outcome = match status {
                Ok(s) if !s.is_terminal() => continue,
                Ok(_) => tracer
                    .span("service.take", Some(job.index), || client.take(job.ticket))
                    .map_err(|e| format!("take: {e}"))
                    .and_then(|o| o.ok_or_else(|| "take: no outcome".to_string())),
                Err(e) => Err(format!("poll: {e}")),
            };
            let latency_s = job.t0.elapsed().as_secs_f64();
            let queue_wait_s = match &outcome {
                Ok(o) => (latency_s - o.wall.as_secs_f64()).max(0.0),
                Err(_) => 0.0,
            };
            on_done(Taken { index: job.index, latency_s, queue_wait_s, polls: job.polls, outcome });
            *slot = None;
            idle = false;
        }
        if next == requests.len() && slots.iter().all(Option::is_none) {
            return stats;
        }
        if idle {
            std::thread::sleep(POLL_INTERVAL);
        }
    }
}

/// Jobs held by the daemon's latest durable snapshot: every submitted job
/// except those whose `Submit` record is still in the journal tail. Walks
/// the journal's frames (4-byte length, 8-byte checksum, JSON payload)
/// without decoding them, so the count costs no JSON parsing.
pub fn snapshot_jobs(durable_dir: &Path, submitted: u64) -> Result<u64, String> {
    let journal = std::fs::read_dir(durable_dir)
        .map_err(|e| format!("{}: {e}", durable_dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "log"))
        .ok_or("daemon journal missing")?;
    let bytes = std::fs::read(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let (mut offset, mut tail_submits) = (0usize, 0u64);
    while offset + 12 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let payload = &bytes[offset + 12..(offset + 12 + len).min(bytes.len())];
        if payload.starts_with(b"{\"Submit\"") {
            tail_submits += 1;
        }
        offset += 12 + len;
    }
    Ok(submitted.saturating_sub(tail_submits))
}
