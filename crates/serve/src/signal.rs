//! SIGTERM/SIGINT handling without a signal-handling dependency.
//!
//! The daemon's whole shutdown protocol is "set one flag": a waker
//! thread polls [`shutdown_requested`] and, once it flips, connects to
//! the daemon's own listener, so the accept loop wakes, sees the flag,
//! stops admitting work, checkpoints in-flight sweeps at the next cell
//! boundary, and exits 0. A signal handler that only stores to an atomic is
//! async-signal-safe, so the raw `signal(2)` registration below (via the
//! libc that `std` already links) is all the machinery needed — no
//! `libc` crate, no signal-hook, no runtime.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide shutdown flag, set by SIGTERM/SIGINT (or
/// [`request_shutdown`]). It stops every server in the process;
/// `POST /shutdown` stops only its own server, through `Server::stop`.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a process-wide shutdown has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests a graceful shutdown, exactly as a SIGTERM would.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Resets the flag — for tests that start several servers in one
/// process.
pub fn reset_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// The shape of a `signal(2)` handler.
#[cfg(unix)]
type Handler = extern "C" fn(i32);

#[cfg(unix)]
extern "C" {
    /// The classic `signal(2)` registration; `std` links libc, so no
    /// crate dependency is needed for this one symbol. The return value
    /// (the previous handler) is declared as `usize` — one register on
    /// every Unix ABI — and ignored.
    fn signal(signum: i32, handler: Handler) -> usize;
}

/// Installs the SIGTERM/SIGINT handlers that flip the shutdown flag.
/// Call once at daemon startup; on non-Unix targets this is a no-op and
/// only `POST /shutdown` triggers graceful shutdown.
pub fn install() {
    #[cfg(unix)]
    {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        // SAFETY: registering an async-signal-safe handler (a single
        // atomic store) for signals whose default would kill us anyway.
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
}
