//! The serve surface: `claire-cli serve --listen <unix socket>`,
//! warmed with every zoo model through each op, then an open loop at
//! a fixed rate (with one `stats` probe per second) and a closed loop
//! of two connections with eight requests outstanding each. All load
//! comes from this process, on at most two threads and two
//! connections at a time.

use crate::ctx::Ctx;
use crate::gen::{RequestStream, Traffic};
use crate::proc;
use crate::stats::{Schedule, Timings};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::process::{Child, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Offered load of the open-loop phase, requests per second: about a
/// quarter of the knee measured on a 2-core host.
const OPEN_RATE: f64 = 150.0;
/// Closed-loop shape: connections × outstanding requests each.
const CLOSED_CONNECTIONS: u64 = 2;
const CLOSED_WINDOW: usize = 8;
/// Share of the serve budget given to the open loop.
const OPEN_SHARE: f64 = 0.6;
/// How long to wait for outstanding answers after a phase ends.
const DRAIN: Duration = Duration::from_secs(20);
/// First id of each request family, so every id in a run is unique.
const WARMUP_ID: u64 = 900_000_000;
const CLOSED_ID: u64 = 100_000_000;

#[derive(Default)]
pub struct ServeResult {
    /// Set-up repetitions: spawn until the warm-up is answered (wall),
    /// and the server's CPU time by then.
    pub setup: Timings,
    /// Open loop: latency of each answered request from its due send
    /// time, ms.
    pub open_due_ms: Vec<f64>,
    /// Open loop: latency from the actual send, ms.
    pub open_sent_ms: Vec<f64>,
    /// Open loop: how late the generator sent each request, ms.
    pub late_ms: Vec<f64>,
    /// Open loop: server CPU time per answered request, µs.
    pub open_cpu_us_per_req: f64,
    /// Closed loop: `ok` answers per second of the phase.
    pub sat_rps: f64,
    /// Closed loop: `ok` answers per second of server CPU time.
    pub sat_per_cpu_s: f64,
    pub closed_ok: u64,
    /// The loaded server's VmHWM once the open loop is answered, MB.
    /// Read there because the open loop's request count is fixed by
    /// its rate and length, while the closed loop's count (and so the
    /// memo state it grows) depends on how fast the host runs.
    pub peak_rss_mb: f64,
    /// The last open-loop `stats` probe's payload.
    pub stats: Option<Value>,
}

/// One line the reader saw, with its arrival time.
struct Received {
    at: Instant,
    line: String,
}

impl Received {
    fn now(line: &[u8]) -> Self {
        Received {
            at: Instant::now(),
            line: String::from_utf8_lossy(line).trim_end().to_owned(),
        }
    }
}

/// Checks answers: one per request, echoing its id, `ok`, and
/// byte-identical (once `id` and `trace_id` are dropped) for
/// byte-identical requests.
#[derive(Default)]
struct Checker {
    /// Request body → first canonical answer.
    answers: BTreeMap<String, String>,
}

impl Checker {
    /// Matches `lines` against the requests `bodies` (id → body);
    /// returns the arrival time of each request's answer, by id.
    fn check(
        &mut self,
        ctx: &mut Ctx,
        bodies: &BTreeMap<u64, String>,
        lines: Vec<Received>,
    ) -> BTreeMap<u64, Instant> {
        let mut seen: BTreeMap<u64, Instant> = BTreeMap::new();
        for r in lines {
            let Ok(value) = serde_json::from_str::<Value>(&r.line) else {
                ctx.tally
                    .fail(format!("unparsable response line: {}", r.line));
                continue;
            };
            let Some(id) = value.get("id").and_then(Value::as_u64) else {
                // Stats probes carry string ids and are checked apart.
                if value.get("op").and_then(Value::as_str) != Some("stats") {
                    ctx.tally
                        .fail(format!("response without a request id: {}", r.line));
                }
                continue;
            };
            let Some(body) = bodies.get(&id) else {
                ctx.tally.fail(format!("response echoes unknown id {id}"));
                continue;
            };
            if seen.insert(id, r.at).is_some() {
                ctx.tally.fail(format!("duplicate response for id {id}"));
                continue;
            }
            if value.get("ok").and_then(Value::as_bool) != Some(true) {
                ctx.tally
                    .fail(format!("request {id} answered not ok: {}", r.line));
                continue;
            }
            let canonical = match value {
                Value::Object(fields) => serde_json::to_string(&Value::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| k != "id" && k != "trace_id")
                        .collect(),
                ))
                .unwrap_or_default(),
                _ => String::new(),
            };
            match self.answers.get(body) {
                None => {
                    self.answers.insert(body.clone(), canonical);
                    ctx.tally.ok();
                }
                Some(first) if *first == canonical => ctx.tally.ok(),
                Some(_) => ctx.tally.fail(format!(
                    "request {id}: answer differs from an identical request's"
                )),
            }
        }
        for id in bodies.keys() {
            if !seen.contains_key(id) {
                ctx.tally.fail(format!("request {id} got no response"));
            }
        }
        seen
    }
}

/// A started server.
struct Server {
    child: Child,
    socket: String,
}

impl Server {
    fn start(ctx: &Ctx, k: usize, observe: bool) -> std::io::Result<Server> {
        let socket = ctx.path(&format!("serve-{k}.sock")).display().to_string();
        let _ = std::fs::remove_file(&socket);
        let mut args = vec!["serve", "--listen", socket.as_str()];
        let events = ctx.path("events.log").display().to_string();
        let metrics = ctx.path("serve-metrics.json").display().to_string();
        if observe {
            args.extend([
                "--event-log",
                events.as_str(),
                "--metrics-json",
                metrics.as_str(),
            ]);
        }
        let child = ctx
            .command(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(ctx.log.try_clone()?)
            .spawn()?;
        Ok(Server { child, socket })
    }

    /// Connects, retrying until the socket is bound.
    fn connect(&self) -> std::io::Result<UnixStream> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match UnixStream::connect(&self.socket) {
                Ok(s) => {
                    s.set_read_timeout(Some(Duration::from_millis(200)))?;
                    return Ok(s);
                }
                Err(e) if Instant::now() > deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }

    /// SIGTERM, then reap; a graceful shutdown exits 0.
    fn stop(self, ctx: &mut Ctx) {
        proc::terminate(&self.child);
        match proc::reap(&self.child) {
            Ok(exit) if exit.code == Some(0) => ctx.tally.ok(),
            Ok(exit) => ctx
                .tally
                .fail(format!("serve exited with {:?} on SIGTERM", exit.code)),
            Err(e) => ctx.tally.fail(format!("cannot reap serve: {e}")),
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `{"id":<id>,` + the body's fields.
fn with_id(id: u64, body: &str) -> String {
    format!("{{\"id\":{id},{}\n", &body[1..])
}

/// Reads lines until `expected` (once known) have arrived or the drain
/// deadline after `done` passes.
fn read_lines(
    reader: &mut BufReader<UnixStream>,
    done: &AtomicBool,
    expected: &AtomicU64,
) -> Vec<Received> {
    let mut out = Vec::new();
    let mut line = Vec::new();
    let mut drain_until: Option<Instant> = None;
    loop {
        if done.load(Ordering::SeqCst) {
            if out.len() as u64 >= expected.load(Ordering::SeqCst) {
                break;
            }
            let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN);
            if Instant::now() > until {
                break;
            }
        }
        // A timeout may leave a partial line in `line`; the next read
        // appends the rest.
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with(b"\n") => {
                out.push(Received::now(&line));
                line.clear();
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    out
}

/// Sends `bodies` over one connection keeping `window` outstanding,
/// until `end` (or until every body is sent when `end` is `None`).
/// Returns the requests sent (id → body) and the lines received.
fn windowed(
    stream: UnixStream,
    mut next: impl FnMut(u64) -> Option<String>,
    first_id: u64,
    window: usize,
    end: Option<Instant>,
) -> (BTreeMap<u64, String>, Vec<Received>) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return (BTreeMap::new(), Vec::new()),
    };
    let mut reader = BufReader::new(stream);
    let mut sent = BTreeMap::new();
    let mut got = Vec::new();
    let mut line = Vec::new();
    let mut outstanding = 0usize;
    let mut i = 0u64;
    let mut open = true;
    let mut last_progress = Instant::now();
    loop {
        while open && outstanding < window {
            if end.is_some_and(|e| Instant::now() >= e) {
                open = false;
                break;
            }
            let Some(body) = next(i) else {
                open = false;
                break;
            };
            let id = first_id + i;
            if writer.write_all(with_id(id, &body).as_bytes()).is_err() {
                open = false;
                break;
            }
            sent.insert(id, body);
            outstanding += 1;
            i += 1;
        }
        if outstanding == 0 || last_progress.elapsed() > DRAIN {
            break;
        }
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with(b"\n") => {
                got.push(Received::now(&line));
                line.clear();
                outstanding -= 1;
                last_progress = Instant::now();
            }
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(_) => break,
        }
    }
    (sent, got)
}

/// Splits a serve budget into open- and closed-loop lengths.
pub fn split(budget: Duration) -> (Duration, Duration) {
    (budget.mul_f64(OPEN_SHARE), budget.mul_f64(1.0 - OPEN_SHARE))
}

/// Runs the serve surface: `setups` server starts (each timed to a
/// warm-up fully answered; the last one takes the load), then an open
/// loop of length `open` and a closed loop of length `closed` (none
/// when zero). `observe` arms the loaded server's event log and
/// metrics export.
pub fn run(
    ctx: &mut Ctx,
    traffic: Traffic,
    (open, closed): (Duration, Duration),
    setups: usize,
    observe: bool,
) -> ServeResult {
    let mut out = ServeResult::default();
    let mut checker = Checker::default();
    let warm = RequestStream::new(ctx.seed, traffic, "warmup", 0).warmup();

    let mut server = None;
    for k in 0..setups {
        let start = Instant::now();
        let s = match Server::start(ctx, k, observe && k + 1 == setups) {
            Ok(s) => s,
            Err(e) => {
                ctx.tally.fail(format!("cannot start serve: {e}"));
                return out;
            }
        };
        let conn = match s.connect() {
            Ok(c) => c,
            Err(e) => {
                ctx.tally.fail(format!("cannot connect to serve: {e}"));
                s.stop(ctx);
                return out;
            }
        };
        let (sent, got) = windowed(conn, |i| warm.get(i as usize).cloned(), WARMUP_ID, 8, None);
        let answered = checker.check(ctx, &sent, got);
        if answered.len() == warm.len() {
            let cpu = proc::cpu_of(s.child.id()).unwrap_or_default();
            out.setup.push(start.elapsed(), cpu);
        }
        if k + 1 < setups {
            s.stop(ctx);
        } else {
            server = Some(s);
        }
    }
    let Some(server) = server else {
        return out;
    };

    open_loop(ctx, &server, traffic, open, &mut checker, &mut out);
    out.peak_rss_mb = proc::vm_hwm_mb(server.child.id()).unwrap_or(0.0);
    if !closed.is_zero() {
        closed_loop(ctx, &server, traffic, closed, &mut checker, &mut out);
    }
    server.stop(ctx);
    out
}

/// The open loop: one request every 1/`OPEN_RATE` s from one
/// connection, plus a `stats` probe each second; a reader thread
/// timestamps answers as they arrive.
fn open_loop(
    ctx: &mut Ctx,
    server: &Server,
    traffic: Traffic,
    length: Duration,
    checker: &mut Checker,
    out: &mut ServeResult,
) {
    let conn = match server.connect() {
        Ok(c) => c,
        Err(e) => return ctx.tally.fail(format!("cannot connect to serve: {e}")),
    };
    let mut writer = match conn.try_clone() {
        Ok(w) => w,
        Err(e) => return ctx.tally.fail(format!("cannot clone the connection: {e}")),
    };
    let mut stream = RequestStream::new(ctx.seed, traffic, "open", 1);
    let done = AtomicBool::new(false);
    let expected = AtomicU64::new(u64::MAX);
    let per_second = OPEN_RATE.round() as u64;
    let mut bodies = BTreeMap::new();
    let mut sent_at = Vec::new();
    let cpu_before = proc::cpu_of(server.child.id());
    let schedule = Schedule::new(Instant::now(), OPEN_RATE);
    let end = schedule.start + length;
    let lines = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_lines(&mut BufReader::new(conn), &done, &expected));
        let mut probes = 0u64;
        let mut i = 0u64;
        loop {
            let due = schedule.due(i);
            if due >= end {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let body = stream.next_request();
            let sent = Instant::now();
            if writer.write_all(with_id(i, &body).as_bytes()).is_err() {
                break;
            }
            sent_at.push(sent);
            bodies.insert(i, body);
            i += 1;
            if i.is_multiple_of(per_second) {
                let probe = format!("{{\"id\":\"stats-{probes}\",\"op\":\"stats\"}}\n");
                if writer.write_all(probe.as_bytes()).is_ok() {
                    probes += 1;
                }
            }
        }
        expected.store(i + probes, Ordering::SeqCst);
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap_or_default()
    });
    let cpu = cpu_since(server, cpu_before);

    // The last stats probe's payload, for the traced run.
    for r in &lines {
        if let Ok(v) = serde_json::from_str::<Value>(&r.line) {
            if v.get("op").and_then(Value::as_str) == Some("stats") {
                if v.get("ok").and_then(Value::as_bool) == Some(true) {
                    out.stats = v.get("stats").cloned();
                } else {
                    ctx.tally
                        .fail(format!("stats probe answered not ok: {}", r.line));
                }
            }
        }
    }
    let answered = checker.check(ctx, &bodies, lines);
    out.open_cpu_us_per_req = cpu.as_secs_f64() * 1e6 / answered.len().max(1) as f64;
    for (id, at) in answered {
        let sent = sent_at[id as usize];
        out.open_due_ms
            .push(schedule.latency(id, at).as_secs_f64() * 1e3);
        out.open_sent_ms
            .push(at.saturating_duration_since(sent).as_secs_f64() * 1e3);
        out.late_ms
            .push(schedule.lateness(id, sent).as_secs_f64() * 1e3);
    }
}

/// The closed loop: `CLOSED_CONNECTIONS` connections, one per thread,
/// each keeping `CLOSED_WINDOW` requests outstanding; throughput is
/// the `ok` answers that arrived within the phase.
fn closed_loop(
    ctx: &mut Ctx,
    server: &Server,
    traffic: Traffic,
    length: Duration,
    checker: &mut Checker,
    out: &mut ServeResult,
) {
    let mut conns = Vec::new();
    for _ in 0..CLOSED_CONNECTIONS {
        match server.connect() {
            Ok(c) => conns.push(c),
            Err(e) => return ctx.tally.fail(format!("cannot connect to serve: {e}")),
        }
    }
    let cpu_before = proc::cpu_of(server.child.id());
    let start = Instant::now();
    let end = start + length;
    let seed = ctx.seed;
    let drive = move |c: u64, conn: UnixStream| {
        let mut stream = RequestStream::new(seed, traffic, &format!("closed-{c}"), 2 + c);
        windowed(
            conn,
            move |_| Some(stream.next_request()),
            CLOSED_ID * (c + 1),
            CLOSED_WINDOW,
            Some(end),
        )
    };
    let results: Vec<_> = std::thread::scope(|scope| {
        let mut conns = conns.into_iter().enumerate();
        let (c0, first) = conns.next().expect("at least one connection");
        let others: Vec<_> = conns
            .map(|(c, conn)| scope.spawn(move || drive(c as u64, conn)))
            .collect();
        let mut all = vec![drive(c0 as u64, first)];
        all.extend(others.into_iter().map(|h| h.join().unwrap_or_default()));
        all
    });
    let cpu = cpu_since(server, cpu_before);
    let mut ok_all = 0u64;
    for (sent, got) in results {
        ok_all += got
            .iter()
            .filter(|r| r.line.contains("\"ok\":true"))
            .count() as u64;
        let in_window = got
            .iter()
            .filter(|r| r.at <= end && r.line.contains("\"ok\":true"))
            .count() as u64;
        out.closed_ok += in_window;
        checker.check(ctx, &sent, got);
    }
    out.sat_rps = out.closed_ok as f64 / length.as_secs_f64();
    out.sat_per_cpu_s = ok_all as f64 / cpu.as_secs_f64().max(1e-3);
}

/// Server CPU time charged since `before` was read.
fn cpu_since(server: &Server, before: Option<Duration>) -> Duration {
    match (before, proc::cpu_of(server.child.id())) {
        (Some(b), Some(a)) => a.saturating_sub(b),
        _ => Duration::ZERO,
    }
}
