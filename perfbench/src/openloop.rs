//! The open-loop generator: a sleep-paced sender and a blocking receiver
//! thread sharing one connected UDP socket.
//!
//! The sender releases each pre-encoded query when its schedule says it
//! is due, whatever has come back, so a stalled server builds a queue
//! instead of slowing the offered load. Latency runs from the *due* time,
//! which charges a stall to every query it delays; how late the sender
//! itself ran is returned beside it rather than hidden. Pacing uses
//! `thread::sleep` only: a socket receive timeout has jiffy granularity
//! and would put milliseconds of false latency on every query.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::procfs;
use crate::schedule::{index_from_id, lateness_ns, Schedule};
use crate::streams::Stream;

/// How long after the last due time the receiver keeps waiting for
/// stragglers before the remaining queries count as lost.
const DRAIN: Duration = Duration::from_millis(500);
/// How often the blocked receiver looks at the stop flag.
const STOP_POLL: Duration = Duration::from_millis(20);
/// Slot markers in the per-query receive table.
const PENDING: u64 = u64::MAX;
const WRONG: u64 = u64::MAX - 1;

/// What one open-loop pass observed.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub sent: u64,
    /// Queries answered with a response that passed its check.
    pub correct: u64,
    /// Queries whose response failed its check.
    pub wrong: u64,
    /// Queries never answered.
    pub lost: u64,
    /// Datagrams that matched no outstanding query (duplicates or
    /// unknown IDs); any is a program fault.
    pub strays: u64,
    /// Response latency of each correct answer, from its due time, in µs.
    pub latency_us: Vec<f64>,
    /// How late each query was sent, in µs.
    pub lateness_us: Vec<f64>,
    /// From the first due time to the last correct answer.
    pub span: Duration,
    /// Responses the kernel dropped at the generator socket.
    pub client_drops: u64,
}

impl Pass {
    /// Adds a later pass's counts and span to this one's. The per-query
    /// samples are left out, so a run need not hold every segment's.
    pub fn add_counts(&mut self, other: &Pass) {
        self.sent += other.sent;
        self.correct += other.correct;
        self.wrong += other.wrong;
        self.lost += other.lost;
        self.strays += other.strays;
        self.span += other.span;
        self.client_drops += other.client_drops;
    }
}

fn nanos_since(t0: Instant) -> u64 {
    Instant::now().saturating_duration_since(t0).as_nanos() as u64
}

/// Sends `queries` to `target` on `schedule` and checks every answer.
pub fn run(target: SocketAddr, queries: &Stream, schedule: Schedule) -> io::Result<Pass> {
    let socket = UdpSocket::bind("127.0.0.1:0")?;
    socket.connect(target)?;
    let client_port = socket.local_addr()?.port();
    let rx = socket.try_clone()?;
    rx.set_read_timeout(Some(STOP_POLL))?;
    let n = queries.len() as u64;
    let progress = AtomicU64::new(0);
    let finished = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let t0 = Instant::now() + Duration::from_millis(2);

    let (lateness, (slots, strays)) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut slots = vec![PENDING; queries.len()];
            let mut strays = 0u64;
            let mut buf = [0u8; 4096];
            while !stop.load(Ordering::Relaxed) {
                let len = match rx.recv(&mut buf) {
                    Ok(len) => len,
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                    {
                        continue
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        strays += 1;
                        continue;
                    }
                };
                let at = nanos_since(t0);
                if len < 2 {
                    strays += 1;
                    continue;
                }
                let id = u16::from_be_bytes([buf[0], buf[1]]);
                let hint = progress.load(Ordering::Acquire).saturating_sub(1);
                let index = index_from_id(id, hint);
                let Some(slot) = slots.get_mut(index as usize).filter(|s| **s == PENDING) else {
                    strays += 1;
                    continue;
                };
                *slot = if queries.check(index as usize, &buf[..len]) {
                    at
                } else {
                    WRONG
                };
                finished.fetch_add(1, Ordering::Relaxed);
            }
            (slots, strays)
        });

        let mut lateness = Vec::with_capacity(queries.len());
        for i in 0..queries.len() {
            let due = schedule.due_ns(i as u64);
            loop {
                let now = nanos_since(t0);
                if now >= due {
                    break;
                }
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            lateness.push(lateness_ns(due, nanos_since(t0)) as f64 / 1e3);
            // A failed send leaves the slot pending: it counts as lost.
            let _ = socket.send(queries.wire(i));
            progress.store(i as u64 + 1, Ordering::Release);
        }
        let deadline = t0 + Duration::from_nanos(schedule.due_ns(n.saturating_sub(1))) + DRAIN;
        while finished.load(Ordering::Relaxed) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        (lateness, receiver.join().expect("receiver thread panicked"))
    });

    let client_drops = procfs::udp_drops(client_port);
    let mut pass = Pass {
        sent: n,
        strays,
        lateness_us: lateness,
        client_drops,
        ..Pass::default()
    };
    let mut last = 0u64;
    for (i, &slot) in slots.iter().enumerate() {
        match slot {
            PENDING => pass.lost += 1,
            WRONG => pass.wrong += 1,
            at => {
                pass.correct += 1;
                last = last.max(at);
                let due = schedule.due_ns(i as u64);
                pass.latency_us.push(at.saturating_sub(due) as f64 / 1e3);
            }
        }
    }
    pass.span = Duration::from_nanos(last.max(1));
    Ok(pass)
}
