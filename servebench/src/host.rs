//! Host facts and the one OS call `std` lacks: reaping a child with its
//! resource usage. Linux on a 64-bit target only; elsewhere the facts
//! read `unknown` and reaping fails loudly.

use std::path::Path;
use std::process::Command;

/// How a reaped child ended and what it used.
#[derive(Debug, Clone, Copy)]
pub struct Reaped {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    /// Peak resident set in KiB (`ru_maxrss`).
    pub maxrss_kib: i64,
    /// User plus system CPU time in seconds.
    pub cpu_s: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    use std::os::raw::{c_char, c_int};

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        pub fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
        pub fn uname(buf: *mut [u8; 390]) -> c_int;
        pub fn statfs(path: *const c_char, buf: *mut [i64; 16]) -> c_int;
    }
}

/// Waits for child `pid` to end and returns its exit and resource usage.
/// The caller must not wait on the same child through `std` as well.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn reap(pid: u32) -> Result<Reaped, String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut status: i32 = 0;
    let mut ru = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and sized as the
        // kernel's `int` and 64-bit `struct rusage` (144 bytes).
        let r = unsafe { sys::wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    Ok(Reaped {
        code,
        maxrss_kib: ru.maxrss,
        cpu_s: secs(ru.utime) + secs(ru.stime),
    })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn reap(_pid: u32) -> Result<Reaped, String> {
    Err("reaping with resource usage needs 64-bit Linux".into())
}

/// The running kernel's release string.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn kernel() -> String {
    let mut buf = [0u8; 390];
    // SAFETY: `buf` is a writable `struct utsname` (six 65-byte fields).
    if unsafe { sys::uname(&mut buf) } != 0 {
        return "unknown".into();
    }
    let release = &buf[130..195];
    let end = release
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(release.len());
    String::from_utf8_lossy(&release[..end]).into_owned()
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn kernel() -> String {
    "unknown".into()
}

/// The filesystem type holding `dir`, by `statfs` magic.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn fs_type(dir: &Path) -> String {
    use std::os::unix::ffi::OsStrExt as _;
    let Ok(path) = std::ffi::CString::new(dir.as_os_str().as_bytes()) else {
        return "unknown".into();
    };
    let mut buf = [0i64; 16];
    // SAFETY: `path` is NUL-terminated and `buf` (128 bytes) is larger
    // than the 120-byte 64-bit `struct statfs`.
    if unsafe { sys::statfs(path.as_ptr(), &mut buf) } != 0 {
        return "unknown".into();
    }
    match buf[0] {
        0xEF53 => "ext4".into(),
        0x0102_1994 => "tmpfs".into(),
        0x5846_5342 => "xfs".into(),
        0x9123_683E => "btrfs".into(),
        0x794C_7630 => "overlayfs".into(),
        0x6969 => "nfs".into(),
        0x6573_5546 => "fuse".into(),
        other => format!("0x{other:x}"),
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn fs_type(_dir: &Path) -> String {
    "unknown".into()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// One line of host metadata: cores, kernel, the journal directory's
/// filesystem, compiler and the checkout's commit (when it is a git
/// checkout at all).
pub fn metadata(journal_dir: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
    } else {
        "none (not a git checkout)".into()
    };
    format!(
        "host: nproc={nproc} kernel={} journal_fs={} rustc=\"{rustc}\" commit={commit}",
        kernel(),
        fs_type(journal_dir)
    )
}
