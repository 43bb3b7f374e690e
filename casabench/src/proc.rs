//! Child processes measured from outside: spawn-to-exit wall time, exit
//! status and peak resident set size, read from the kernel's accounting of
//! the reaped child (`wait4`), so the program under test is unchanged.

use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
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

const WNOHANG: i32 = 1;
/// `SIGTERM`: asks casa-serve to drain and exit.
pub const SIGTERM: i32 = 15;
/// `SIGKILL`: ends a child that overran its deadline or was abandoned.
pub const SIGKILL: i32 = 9;

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, or `None` if a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set size in MiB.
    pub peak_rss_mb: f64,
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Whether the deadline ran out and the child was killed.
    pub timed_out: bool,
}

impl Exit {
    /// Exit code 0 within the deadline.
    pub fn success(&self) -> bool {
        self.code == Some(0) && !self.timed_out
    }
}

/// Sends `sig` to the child.
pub fn signal(child: &Child, sig: i32) {
    let pid = child.id() as i32;
    // SAFETY: kill(2) takes plain integers; the pid is our own unreaped
    // child, so it cannot have been recycled for another process.
    unsafe {
        kill(pid, sig);
    }
}

/// Waits for `child` to exit (killing it once `deadline` passes) and
/// reaps it with its resource usage. Polls every millisecond so the
/// caller's wall-clock timing stays within a millisecond of the exit.
pub fn reap(child: Child, deadline: Duration) -> std::io::Result<Exit> {
    let pid = child.id() as i32;
    let start = Instant::now();
    let mut timed_out = false;
    loop {
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: both out-pointers reference live, correctly sized locals
        // (`Rusage` mirrors the kernel's 64-bit layout); the pid is our
        // own child, which only this call reaps.
        let r = unsafe { wait4(pid, &mut status, WNOHANG, &mut usage) };
        if r == pid {
            let code = if status & 0x7f == 0 {
                Some((status >> 8) & 0xff)
            } else {
                None
            };
            let cpu = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
            return Ok(Exit {
                code,
                peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
                cpu_s: cpu(&usage.utime) + cpu(&usage.stime),
                timed_out,
            });
        }
        if r < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        if !timed_out && start.elapsed() > deadline {
            signal(&child, SIGKILL);
            timed_out = true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One timed run of a program to completion.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Spawn-to-exit wall seconds.
    pub wall_s: f64,
    /// How the process ended.
    pub exit: Exit,
}

/// Runs `cmd` to completion with stdout/stderr discarded, timing it from
/// spawn to exit.
pub fn run_timed(cmd: &mut Command, deadline: Duration) -> std::io::Result<Timed> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let start = Instant::now();
    let child = cmd.spawn()?;
    let exit = reap(child, deadline)?;
    Ok(Timed {
        wall_s: start.elapsed().as_secs_f64(),
        exit,
    })
}
