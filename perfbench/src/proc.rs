//! Running the program as a subprocess: wall time, CPU time, exit
//! status, output and peak resident memory of each invocation.
//!
//! CPU time is what the gated metrics use: on a virtual machine whose
//! host steals CPU from it, wall times of the same work can double
//! from one minute to the next while the CPU time a process is charged
//! (which excludes stolen time) moves by a few percent.

use std::fs::File;
use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct timeval`.
#[repr(C)]
#[derive(Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

impl Timeval {
    fn duration(self) -> Duration {
        Duration::from_secs(self.sec.max(0) as u64) + Duration::from_micros(self.usec.max(0) as u64)
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
/// `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;

/// How a reaped process ended and what it used.
pub struct Exit {
    /// Exit code; `None` when a signal ended it.
    pub code: Option<i32>,
    /// User plus system CPU time.
    pub cpu: Duration,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

/// One finished invocation.
pub struct Run {
    pub wall: Duration,
    pub cpu: Duration,
    /// Whether the process exited with code 0.
    pub ok: bool,
    pub stdout: Vec<u8>,
    pub peak_rss_mb: f64,
}

/// Runs `cmd` to completion, timing it from spawn to exit. Its
/// stderr is appended to `log`.
pub fn run(mut cmd: Command, log: &File) -> std::io::Result<Run> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(log.try_clone()?);
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let exit = reap(&child)?;
    let wall = start.elapsed();
    read?;
    Ok(Run {
        wall,
        cpu: exit.cpu,
        ok: exit.code == Some(0),
        stdout,
        peak_rss_mb: exit.peak_rss_mb,
    })
}

/// Waits for `child` to exit.
pub fn reap(child: &Child) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let zero = Timeval { sec: 0, usec: 0 };
    let mut usage = Rusage {
        utime: zero,
        stime: zero,
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child, and both pointers
        // refer to live, correctly laid-out locals for the duration of
        // the call.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(Exit {
        code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        cpu: usage.utime.duration() + usage.stime.duration(),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

/// Asks `child` to shut down gracefully (SIGTERM).
pub fn terminate(child: &Child) {
    // SAFETY: sending a signal has no memory-safety preconditions; the
    // pid is our own child, not yet reaped.
    unsafe {
        kill(child.id() as i32, SIGTERM);
    }
}

/// The peak RSS (VmHWM) of a running process, MB.
pub fn vm_hwm_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time a running process has been charged so
/// far, all threads (exited ones included), in clock ticks of 10 ms.
pub fn cpu_of(pid: u32) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some(Duration::from_millis((utime + stime) * 10))
}

/// System-wide CPU ticks: (busy, stolen). The stolen share over a run
/// says how far its wall times are from the program's own cost.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal
    let busy = f.first()? + f.get(1)? + f.get(2)? + f.get(5)? + f.get(6)?;
    Some((busy, *f.get(7)?))
}
