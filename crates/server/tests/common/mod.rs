//! Helpers the server test binaries share.

use tahoe_memprof::wallclock::WallClockCalibration;
use tahoe_obs::{Emitter, Metrics};
use tahoe_server::{ArbiterMode, QuotaPolicy, ServerConfig, TahoeServer};

pub fn cal() -> WallClockCalibration {
    WallClockCalibration::synthetic(1 << 20, 1 << 24)
}

pub fn config(mode: ArbiterMode, dram_budget: u64, max_queue: usize) -> ServerConfig {
    ServerConfig {
        workers: 2,
        dram_budget,
        nvm_capacity: 1 << 24,
        mode,
        max_queue,
    }
}

pub fn quota_mode() -> ArbiterMode {
    ArbiterMode::Quota(QuotaPolicy::DemandProportional { floor_frac: 0.5 })
}

pub fn server(cfg: ServerConfig) -> TahoeServer {
    TahoeServer::new(cfg, cal(), Emitter::disabled(), Metrics::disabled()).expect("server")
}

/// Run `f` on its own thread; a server that hangs fails the test after
/// a minute instead of hanging the suite.
pub fn within_a_minute<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(60))
        .expect("the server must make progress")
}
