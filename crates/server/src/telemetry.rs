//! The live telemetry plane: observe a running server, not just its
//! shutdown report.
//!
//! Two pieces:
//!
//! * A rolling [`tahoe_obs::BlameTable`] fed by the migration engine's
//!   commit observer ([`tahoe_realmem::MigrationObserver`]) through
//!   `BlameTable::record_copy`, the fold a batch run's digest uses too.
//!   Every committed copy's overlapped/exposed split lands there the
//!   moment it commits, so the worst stall-causing objects are visible
//!   *while* tenants run.
//! * [`TahoeServer::serve_telemetry`] — a `std::net::TcpListener`
//!   text-exposition endpoint (Prometheus style, zero dependencies):
//!   `GET /metrics` returns per-tenant counters, quota state, latency
//!   digests and the blame top-K. On the idle counters the exposition
//!   is bit-identical to what [`ServerReport`](crate::ServerReport)
//!   will snapshot at shutdown. Optionally the serving thread also
//!   journals one `telemetry_json`
//!   snapshot line to a JSONL file on a fixed period, giving
//!   after-the-fact runs a time series without a scraper.
//!
//! The endpoint speaks just enough HTTP/1.0 for `curl`, Prometheus and
//! a bare `TcpStream` to read it: request line parsed for the path,
//! headers ignored, `Connection: close` on every response.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::server::{ServerShared, TahoeServer};

/// Journal snapshot period.
const JOURNAL_EVERY: Duration = Duration::from_millis(100);

/// Blame entries exposed per scrape/snapshot.
const BLAME_TOP_K: usize = 10;

/// Telemetry endpoint configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Bind address. The default `127.0.0.1:0` asks the OS for a free
    /// loopback port; read the actual one from
    /// [`TelemetryHandle::addr`].
    pub addr: String,
    /// When set, append one `telemetry_json` snapshot line to this
    /// JSONL file every 100 ms (plus a final line at stop).
    pub journal: Option<PathBuf>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            addr: "127.0.0.1:0".to_string(),
            journal: None,
        }
    }
}

/// Handle to a running telemetry endpoint. Stop it explicitly with
/// [`stop`](TelemetryHandle::stop); dropping without stopping leaves
/// the serving thread running until the process exits (it holds only an
/// `Arc` on the server state, never a lock across accepts).
pub struct TelemetryHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl TelemetryHandle {
    /// The address the endpoint actually bound (resolves `:0` ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signal the serving thread and join it. Idempotent-safe: the
    /// handle is consumed.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl TahoeServer {
    /// Start the live telemetry endpoint: bind `cfg.addr`, serve
    /// `GET /metrics` text exposition (404 elsewhere), and — when
    /// `cfg.journal` is set — append periodic JSONL snapshots. Returns
    /// the handle with the bound address; call
    /// [`TelemetryHandle::stop`] before or after
    /// [`shutdown`](TahoeServer::shutdown) (the plane reads shared
    /// state and does not pin the server's lifetime).
    pub fn serve_telemetry(&self, cfg: TelemetryConfig) -> std::io::Result<TelemetryHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sh = Arc::clone(&self.sh);
        let join = std::thread::Builder::new()
            .name("tahoe-telemetry".into())
            .spawn(move || serve(sh, listener, cfg, flag))?;
        Ok(TelemetryHandle {
            addr,
            stop,
            join: Some(join),
        })
    }
}

fn serve(
    sh: Arc<ServerShared>,
    listener: TcpListener,
    cfg: TelemetryConfig,
    stop: Arc<AtomicBool>,
) {
    let mut journal = cfg.journal.as_ref().and_then(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
            .ok()
    });
    let mut last_snapshot = Instant::now();
    // First snapshot immediately: short-lived runs get at least one line.
    if let Some(j) = &mut journal {
        let _ = writeln!(j, "{}", sh.telemetry_json(BLAME_TOP_K));
    }
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(&sh, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
        if journal.is_some() && last_snapshot.elapsed() >= JOURNAL_EVERY {
            last_snapshot = Instant::now();
            if let Some(j) = &mut journal {
                let _ = writeln!(j, "{}", sh.telemetry_json(BLAME_TOP_K));
            }
        }
    }
    // Final snapshot so the journal's last line reflects the end state.
    if let Some(j) = &mut journal {
        let _ = writeln!(j, "{}", sh.telemetry_json(BLAME_TOP_K));
        let _ = j.flush();
    }
}

/// Serve one connection: parse the request line just enough to get the
/// path, answer `/metrics` with the exposition, 404 anything else.
fn handle_conn(sh: &Arc<ServerShared>, mut stream: TcpStream) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let mut buf = [0u8; 2048];
    let mut used = 0usize;
    // Read until the end of the request head (or the buffer fills —
    // longer requests cannot change the answer).
    while used < buf.len() {
        match stream.read(&mut buf[used..]) {
            Ok(0) => break,
            Ok(n) => {
                used += n;
                if buf[..used].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let head = String::from_utf8_lossy(&buf[..used]);
    let path = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        ("200 OK", sh.telemetry_text(BLAME_TOP_K))
    } else {
        ("404 Not Found", "not found; try /metrics\n".to_string())
    };
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}
