//! Load against the real `cgsim-serve` daemon, started in this process on
//! an ephemeral port.
//!
//! The daemon answers one request per connection (`Connection: close`), so
//! a "connection" of a closed loop is a sequence of connections opened one
//! after another, and each client thread of the open loop holds at most one
//! at a time.

use crate::oracle::Oracle;
use crate::workload::{Slot, Stream};
use cgsim_serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Send one complete request and read the whole response; returns the
/// status and the body.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response without a blank line"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split_ascii_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response without a status"))?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// What happened to one sent request.
#[derive(Clone, Copy, Debug)]
pub struct Outcome {
    /// Template sent.
    pub template: u32,
    /// Ladder step of the slot.
    pub step: u16,
    /// When the request was due (open loop) or sent (closed loop), ns
    /// after the start of the load.
    pub at_ns: u64,
    /// Client-observed latency, ns: from the send, or from the due time
    /// when an open-loop sender was behind schedule, until the whole
    /// response was read.
    pub latency_ns: u64,
    /// How late the request was sent after it was due, ns.
    pub late_ns: u64,
    /// The response's `wall_ns` counter (pool job execution).
    pub wall_ns: u64,
    /// The response's `queue_wait_ns` counter.
    pub queue_ns: u64,
    /// Whether the response matched the oracle.
    pub ok: bool,
}

/// Mismatches seen so far, kept for the report (first few only).
#[derive(Default)]
pub struct Failures {
    count: AtomicUsize,
    first: Mutex<Vec<String>>,
}

impl Failures {
    /// Record one failed request.
    pub fn record(&self, what: String) {
        if self.count.fetch_add(1, Ordering::Relaxed) < 5 {
            self.first
                .lock()
                .expect("failure log lock poisoned by a panicking client")
                .push(what);
        }
    }

    /// Failed requests recorded.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// The first few failure descriptions.
    pub fn first(&self) -> Vec<String> {
        self.first
            .lock()
            .expect("failure log lock poisoned by a panicking client")
            .clone()
    }
}

/// A response kept for checking after the load, so that checking takes no
/// CPU while requests are in flight.
pub struct Pending {
    /// What was sent and measured; `ok` is settled by [`settle`].
    pub outcome: Outcome,
    response: std::io::Result<(u16, Vec<u8>)>,
}

/// Send `slot`, due at `due`. Latency is timed from `due` when the sender
/// was still busy with an earlier request then (`behind`), so that a stall
/// counts against every request it delayed; a sender that was idle and
/// only overslept its timer is timed from the send, since that lateness is
/// the generator's own.
fn send(
    addr: SocketAddr,
    stream: &Stream,
    slot: &Slot,
    start: Instant,
    due: Instant,
    behind: bool,
) -> Pending {
    let sent = Instant::now();
    let response = exchange(addr, &stream.templates[slot.template as usize].bytes);
    let done = Instant::now();
    let from = if behind { due } else { sent };
    Pending {
        outcome: Outcome {
            template: slot.template,
            step: slot.step,
            at_ns: due.saturating_duration_since(start).as_nanos() as u64,
            latency_ns: done.duration_since(from).as_nanos() as u64,
            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
            wall_ns: 0,
            queue_ns: 0,
            ok: false,
        },
        response,
    }
}

/// Check every kept response against the oracle and fill in the outcomes.
pub fn settle(pending: Vec<Pending>, oracle: &Oracle, failures: &Failures) -> Vec<Outcome> {
    pending
        .into_iter()
        .map(|p| {
            let mut outcome = p.outcome;
            let checked = p
                .response
                .map_err(|e| e.to_string())
                .and_then(|(status, body)| oracle.check(outcome.template, status, &body));
            match checked {
                Ok((wall, queue)) => {
                    outcome.wall_ns = wall;
                    outcome.queue_ns = queue;
                    outcome.ok = true;
                }
                Err(why) => failures.record(format!("template {}: {why}", outcome.template)),
            }
            outcome
        })
        .collect()
}

/// Start a daemon with `config` and answer every warm-up template once,
/// checking each answer (a mismatch is recorded in `failures`). Returns the
/// running daemon and the seconds from `Server::start` until the last
/// warm-up answer.
pub fn start_warm(
    config: &ServeConfig,
    stream: &Stream,
    oracle: &Oracle,
    failures: &Failures,
) -> Result<(ServerHandle, f64), String> {
    let start = Instant::now();
    let handle = Server::start(config.clone()).map_err(|e| format!("daemon start: {e}"))?;
    let mut pending = Vec::new();
    for &template in &stream.warm {
        let slot = Slot {
            template,
            due_ns: 0,
            step: 0,
        };
        let now = Instant::now();
        pending.push(send(handle.addr(), stream, &slot, now, now, false));
    }
    let secs = start.elapsed().as_secs_f64();
    settle(pending, oracle, failures);
    Ok((handle, secs))
}

/// Closed loop over one connection: send the stream's slots in order, each
/// after the previous response, until `budget` has passed since `start`,
/// calling `after`
/// with the count of answered requests after each one. Responses are
/// checked afterwards with [`settle`].
pub fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    start: Instant,
    budget: Duration,
    mut after: impl FnMut(usize),
) -> Vec<Pending> {
    let mut pending = Vec::new();
    for slot in stream.slots.iter().cycle() {
        let now = Instant::now();
        if now.duration_since(start) >= budget {
            break;
        }
        pending.push(send(addr, stream, slot, start, now, false));
        after(pending.len());
    }
    pending
}

/// Open loop: send every slot at its due time after `start` from `threads` client
/// threads, each holding at most one connection. A slot whose threads are
/// all still busy when it falls due is sent late, and its latency counts
/// from when it was due. Responses are checked afterwards with [`settle`].
pub fn open_loop(
    addr: SocketAddr,
    stream: &Stream,
    start: Instant,
    slots: &[Slot],
    threads: usize,
) -> Vec<Pending> {
    let next = AtomicUsize::new(0);
    let per_thread: Vec<Vec<Pending>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut outcomes = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            break;
                        };
                        let due = start + Duration::from_nanos(slot.due_ns);
                        let now = Instant::now();
                        let behind = due <= now;
                        if !behind {
                            std::thread::sleep(due - now);
                        }
                        outcomes.push(send(addr, stream, slot, start, due, behind));
                    }
                    outcomes
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    per_thread.into_iter().flatten().collect()
}

/// `serve_cache_hits` and `serve_cache_misses` from the daemon's
/// `/metrics` exposition.
pub fn cache_counters(addr: SocketAddr) -> Result<(u64, u64), String> {
    let (status, body) = exchange(addr, b"GET /metrics HTTP/1.1\r\nHost: perfbench\r\n\r\n")
        .map_err(|e| format!("scrape /metrics: {e}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let text = String::from_utf8_lossy(&body);
    let value = |name: &str| -> u64 {
        text.lines()
            .find_map(|line| {
                let rest = line.strip_prefix(name)?;
                rest.split_ascii_whitespace().next()?.parse().ok()
            })
            .unwrap_or(0)
    };
    Ok((value("serve_cache_hits"), value("serve_cache_misses")))
}
