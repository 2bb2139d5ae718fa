//! Host-side measurements of this process: CPU time (user + system,
//! every thread, including threads that already exited) and peak
//! resident set size.
//!
//! CPU time comes from `getrusage(RUSAGE_SELF)`, which reports it at
//! microsecond resolution; `/proc/self/stat` would only give 10 ms
//! clock ticks. Peak RSS comes from `VmHWM` in `/proc/self/status`:
//! `ru_maxrss` would also count the image this process was exec'd from
//! (the `cargo` process that launched the benchmark).

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of Linux/glibc: two timevals followed by fourteen
/// longs this module does not read.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    _rest: [c_long; 14],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage() -> Rusage {
    let mut ru = Rusage {
        ru_utime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        ru_stime: Timeval {
            tv_sec: 0,
            tv_usec: 0,
        },
        _rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` with the C layout
    // declared above, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only into that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    ru
}

/// User + system CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> f64 {
    let ru = rusage();
    let t = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    t(&ru.ru_utime) + t(&ru.ru_stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line in kB");
    kib / 1024.0
}
