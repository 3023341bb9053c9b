//! `POST /shutdown` stops only the server it was sent to.
//!
//! Two daemons run in one process. Shutting one down over HTTP must leave
//! the other serving: the route stops its own server, not the
//! process-wide flag a SIGTERM sets.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dashlat_serve::{read_addr_file, request, ServeConfig, Server};

/// How long a shut-down daemon's `run` may take to return.
const BOUND: Duration = Duration::from_secs(2);

struct Daemon {
    server: Arc<Server>,
    handle: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
    addr: String,
}

fn boot(tag: &str) -> Daemon {
    let dir = std::env::temp_dir().join(format!(
        "dashlat-shutdown-isolation-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let server = Arc::new(
        Server::new(ServeConfig {
            addr: "127.0.0.1:0".into(),
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
    Daemon {
        server,
        handle,
        dir,
        addr,
    }
}

fn wait_for_exit(daemon: Daemon, what: &str) {
    let start = Instant::now();
    while !daemon.handle.is_finished() {
        assert!(
            start.elapsed() < BOUND,
            "{what}: run() still serving {BOUND:?} after shutdown"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.handle.join().expect("join").expect("run ok");
    std::fs::remove_dir_all(&daemon.dir).ok();
}

#[test]
fn post_shutdown_leaves_other_servers_running() {
    let first = boot("first");
    let second = boot("second");

    let resp = request(&first.addr, "POST", "/shutdown", None).expect("POST /shutdown");
    assert_eq!(resp.status, 200, "{resp:?}");
    wait_for_exit(first, "the shut-down server");

    // Give a process-wide stop time to reach the second server's waker.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        !second.handle.is_finished(),
        "the other server's run() returned"
    );
    let health = request(&second.addr, "GET", "/healthz", None).expect("GET /healthz");
    assert_eq!(health.status, 200, "{health:?}");

    second.server.stop();
    wait_for_exit(second, "the other server");
}
