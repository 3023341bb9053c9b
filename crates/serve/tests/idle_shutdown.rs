//! A daemon with no traffic still shuts down promptly.
//!
//! The accept loop blocks in `accept`, so nothing but a connection wakes
//! it. This test requests a shutdown each supported way — `Server::stop`,
//! `POST /shutdown`, and the process-wide flag a SIGTERM sets — against
//! a daemon that sees no other connection, on a loopback and on an
//! unspecified-address bind, and requires `Server::run` to return within
//! [`BOUND`] of the request.
//!
//! The cases run one after another in a single test: the signal flag is
//! process-wide, so concurrent daemons would stop each other. For the
//! same reason the flag's own round-trip check lives here rather than in
//! the serve crate's unit tests, which run daemons concurrently.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dashlat_serve::{read_addr_file, request, signal, ServeConfig, Server};

/// How long `run` may take to return after a shutdown request. The
/// waker checks the flag every 25 ms; the rest is headroom for a loaded
/// host.
const BOUND: Duration = Duration::from_secs(2);

#[derive(Debug, Clone, Copy)]
enum Trigger {
    Stop,
    PostShutdown,
    SignalFlag,
}

struct Daemon {
    server: Arc<Server>,
    handle: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
    port: u16,
}

fn boot(bind: &str, tag: &str) -> Daemon {
    let dir = std::env::temp_dir().join(format!(
        "dashlat-idle-shutdown-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let server = Arc::new(
        Server::new(ServeConfig {
            addr: format!("{bind}:0"),
            data_dir: dir.clone(),
            workers: 1,
            ..ServeConfig::default()
        })
        .expect("server"),
    );
    let runner = Arc::clone(&server);
    let handle = std::thread::spawn(move || runner.run());
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr = loop {
        if let Ok(a) = read_addr_file(&dir) {
            break a;
        }
        assert!(Instant::now() < deadline, "daemon never published addr");
        std::thread::sleep(Duration::from_millis(5));
    };
    let port = addr
        .parse::<SocketAddr>()
        .unwrap_or_else(|e| panic!("bad addr file {addr:?}: {e}"))
        .port();
    Daemon {
        server,
        handle,
        dir,
        port,
    }
}

/// Requests a shutdown by `trigger` and requires `run` to return within
/// [`BOUND`].
fn shut_down(daemon: Daemon, trigger: Trigger, bind: &str) {
    let start = Instant::now();
    match trigger {
        Trigger::Stop => daemon.server.stop(),
        Trigger::PostShutdown => {
            let addr = format!("127.0.0.1:{}", daemon.port);
            let resp = request(&addr, "POST", "/shutdown", None).expect("POST /shutdown");
            assert_eq!(resp.status, 200, "{resp:?}");
        }
        Trigger::SignalFlag => signal::request_shutdown(),
    }
    while !daemon.handle.is_finished() {
        assert!(
            start.elapsed() < BOUND,
            "{bind} {trigger:?}: run() still serving {BOUND:?} after the request"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.handle.join().expect("join").expect("run ok");
    std::fs::remove_dir_all(&daemon.dir).ok();
}

#[test]
fn run_returns_promptly_after_every_shutdown_request_without_traffic() {
    // The flag itself round-trips.
    signal::reset_for_tests();
    assert!(!signal::shutdown_requested());
    signal::request_shutdown();
    assert!(signal::shutdown_requested());
    signal::reset_for_tests();
    assert!(!signal::shutdown_requested());

    for bind in ["127.0.0.1", "0.0.0.0"] {
        for trigger in [Trigger::Stop, Trigger::PostShutdown, Trigger::SignalFlag] {
            signal::reset_for_tests();
            let daemon = boot(bind, &format!("{bind}-{trigger:?}"));
            shut_down(daemon, trigger, bind);
        }
    }
    signal::reset_for_tests();
}
