//! [`RealBackend`]: the `mmap` implementation of `tahoe_hms::TierBackend`.
//!
//! Every tier in the config's ordered list gets an arena sized to its
//! spec's capacity. Tier-to-tier copies run through the throttled copy
//! engine with a per-(src,dst)-pair configuration derived from the
//! config's copy-bandwidth matrix (startup latency from
//! `TierSpec::copy_lat_to`: source read vs destination write). If the
//! machine has a second NUMA node the
//! spill-tier arena is bound to it best-effort; otherwise the software
//! throttle alone carries the tier asymmetry. Every arena asks for huge
//! pages alike ([`crate::arena`]); [`BackendStats::huge_page_arenas`]
//! counts those that got the advice through.

use std::time::Instant;

use tahoe_hms::{BackendStats, CopyOutcome, HmsConfig, TierBackend, TierId};
use tahoe_obs::{Emitter, Event, Metrics};

use crate::arena::{MmapArena, Released};
use crate::copy::{throttled_copy, CopyConfig, DEFAULT_CHUNK};
use crate::{numa, sys};

/// Gauge names for the first arenas (metrics keys are `&'static str`).
const MAPPED_GAUGES: [&str; 4] = [
    "realmem.dram.mapped_bytes",
    "realmem.tier1.mapped_bytes",
    "realmem.tier2.mapped_bytes",
    "realmem.tier3.mapped_bytes",
];

/// Real-memory substrate: one [`MmapArena`] per tier plus the throttled
/// copy engine with one throttle per (src, dst) tier pair.
#[derive(Debug)]
pub struct RealBackend {
    /// One arena per tier, fastest first.
    arenas: Vec<MmapArena>,
    /// Row-major n×n copy-engine configs; entry `[from][to]`.
    copy_cfgs: Vec<CopyConfig>,
    epoch: Instant,
    emitter: Emitter,
    metrics: Metrics,
    stats: BackendStats,
}

impl RealBackend {
    /// Map an arena per tier of `config` and derive each ordered
    /// pair's copy-engine throttle: bandwidth from the config's copy
    /// matrix, startup latency from [`TierSpec::copy_lat_to`] — the
    /// `max` of the source's read and the destination's write latency,
    /// so a promotion out of NVM pays NVM's read latency, never its
    /// write latency.
    ///
    /// [`TierSpec::copy_lat_to`]: tahoe_hms::TierSpec::copy_lat_to
    pub fn new(config: &HmsConfig) -> Result<Self, String> {
        Self::with_observability(config, Emitter::disabled(), Metrics::disabled())
    }

    /// [`RealBackend::new`] with an event emitter and metrics attached.
    pub fn with_observability(
        config: &HmsConfig,
        emitter: Emitter,
        metrics: Metrics,
    ) -> Result<Self, String> {
        let ask_huge = sys::thp_mode().honours_advice();
        Self::build(config, emitter, metrics, ask_huge)
    }

    /// [`RealBackend::with_observability`], advising huge pages on its
    /// arenas only if `ask_huge`.
    pub(crate) fn build(
        config: &HmsConfig,
        emitter: Emitter,
        metrics: Metrics,
        ask_huge: bool,
    ) -> Result<Self, String> {
        let epoch = Instant::now();
        let specs = config.tier_specs();
        let n = specs.len();
        let mut arenas = Vec::with_capacity(n);
        for (i, spec) in specs.iter().enumerate() {
            let tier = TierId(i as u8);
            arenas.push(MmapArena::map(tier, &spec.name, spec.capacity, ask_huge)?);
        }
        let huge_page_arenas = arenas.iter().filter(|a| a.huge_pages()).count() as u64;

        // Best-effort hardware asymmetry: DRAM on node 0, the spill tier
        // on the highest node — only when a remote node actually exists.
        // Middle tiers stay unbound; their asymmetry is software-only.
        let topo = numa::probe();
        if let Some(remote) = topo.nvm_node() {
            let (first, rest) = arenas.split_first_mut().expect("n >= 2 tiers");
            if let Some(nd) = numa::bind_to_node(first.base_ptr(), first.mapped_len() as usize, 0) {
                first.set_numa_node(nd as i64);
            }
            let last = rest.last_mut().expect("n >= 2 tiers");
            if let Some(nd) =
                numa::bind_to_node(last.base_ptr(), last.mapped_len() as usize, remote)
            {
                last.set_numa_node(nd as i64);
            }
        }

        let mut copy_cfgs = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                copy_cfgs.push(CopyConfig {
                    bandwidth_gbps: if from == to {
                        f64::INFINITY
                    } else {
                        config.copy_bw_between(TierId(from as u8), TierId(to as u8))
                    },
                    latency_ns: specs[from].copy_lat_to(&specs[to]),
                    chunk_bytes: DEFAULT_CHUNK,
                });
            }
        }

        for arena in &arenas {
            let t = epoch.elapsed().as_nanos() as f64;
            emitter.emit(|| Event::ArenaMapped {
                t,
                tier: arena.tier().label(n),
                bytes: arena.mapped_len(),
                numa_node: arena.numa_node(),
            });
        }
        metrics.gauge_set("realmem.numa_nodes", topo.nodes as f64);
        for (i, arena) in arenas.iter().enumerate() {
            if i == n - 1 {
                metrics.gauge_set("realmem.nvm.mapped_bytes", arena.mapped_len() as f64);
            } else if let Some(name) = MAPPED_GAUGES.get(i) {
                metrics.gauge_set(name, arena.mapped_len() as f64);
            }
        }

        Ok(RealBackend {
            arenas,
            copy_cfgs,
            epoch,
            emitter,
            metrics,
            stats: BackendStats {
                is_real: true,
                huge_page_arenas,
                ..BackendStats::default()
            },
        })
    }

    fn n(&self) -> usize {
        self.arenas.len()
    }

    fn arena(&self, tier: TierId) -> &MmapArena {
        &self.arenas[tier.index()]
    }

    fn arena_mut(&mut self, tier: TierId) -> &mut MmapArena {
        &mut self.arenas[tier.index()]
    }

    /// Every pair's copy-engine throttle, row-major n×n (entry
    /// `[from][to]`): what the background migrator runs with.
    pub fn copy_configs(&self) -> Vec<CopyConfig> {
        self.copy_cfgs.clone()
    }

    /// The copy-engine throttle of one (src, dst) tier pair.
    pub fn copy_config_between(&self, from: TierId, to: TierId) -> CopyConfig {
        self.copy_cfgs[from.index() * self.n() + to.index()]
    }

    /// Override the copy-engine throttle for *every* tier pair (tests,
    /// calibration sweeps).
    pub fn set_copy_config(&mut self, cfg: CopyConfig) {
        for c in &mut self.copy_cfgs {
            *c = cfg;
        }
    }

    /// Override one (src, dst) pair's copy-engine throttle.
    pub fn set_copy_config_between(&mut self, from: TierId, to: TierId, cfg: CopyConfig) {
        let n = self.n();
        self.copy_cfgs[from.index() * n + to.index()] = cfg;
    }

    /// Fold what a free or an allocation released into stats and
    /// metrics.
    fn account_release(&mut self, released: Released) {
        if released.calls == 0 {
            return;
        }
        self.stats.release_calls += released.calls;
        self.stats.released_ranges += released.ranges;
        self.metrics.add("realmem.release_calls", released.calls);
        self.metrics.add("realmem.released_ranges", released.ranges);
    }

    /// Fold one completed copy (in-backend or external) into stats and
    /// metrics.
    fn account_copy(&mut self, out: &CopyOutcome) {
        self.stats.copies += 1;
        self.stats.copied_bytes += out.bytes;
        self.stats.copy_wall_ns += out.wall_ns;
        self.stats.copy_throttle_ns += out.throttle_ns;
        self.metrics.inc("realmem.copies");
        self.metrics.add("realmem.copied_bytes", out.bytes);
    }

    /// Report a copy this backend made itself on its own clock. A copy
    /// the migration thread makes is reported by that thread, beside its
    /// `migration_completed`.
    fn emit_copy(&self, object: u32, from: TierId, to: TierId, out: &CopyOutcome) {
        let t = self.epoch.elapsed().as_nanos() as f64;
        let (bytes, wall_ns, throttle_ns, chunks) =
            (out.bytes, out.wall_ns, out.throttle_ns, out.chunks);
        let n = self.n();
        self.emitter.emit(|| Event::RealCopyDone {
            t,
            object,
            bytes,
            from: from.label(n),
            to: to.label(n),
            wall_ns,
            throttle_ns,
            chunks,
        });
    }
}

impl TierBackend for RealBackend {
    fn name(&self) -> &'static str {
        "mmap"
    }

    fn data_ptr(&mut self, tier: TierId, addr: u64, len: u64) -> Option<*mut u8> {
        self.arena(tier).data_ptr(addr, len)
    }

    fn on_alloc(&mut self, tier: TierId, addr: u64, len: u64) {
        let released = self.arena_mut(tier).on_alloc(addr, len);
        self.account_release(released);
    }

    fn on_free(&mut self, tier: TierId, addr: u64, len: u64) {
        let released = self.arena_mut(tier).on_free(addr, len);
        self.account_release(released);
    }

    fn copy(
        &mut self,
        object: u32,
        from: TierId,
        from_addr: u64,
        to: TierId,
        to_addr: u64,
        len: u64,
    ) -> CopyOutcome {
        let (Some(src), Some(dst)) = (
            self.arena(from).data_ptr(from_addr, len),
            self.arena(to).data_ptr(to_addr, len),
        ) else {
            debug_assert!(false, "copy range out of arena bounds");
            return CopyOutcome::default();
        };
        let cfg = self.copy_config_between(from, to);
        // SAFETY: both ranges were bounds-checked against their arenas,
        // and distinct tiers are distinct mappings, so they cannot
        // overlap.
        let out = unsafe { throttled_copy(src, dst, len, &cfg) };
        self.account_copy(&out);
        self.emit_copy(object, from, to, &out);
        out
    }

    fn record_external_copy(&mut self, outcome: &CopyOutcome) {
        self.account_copy(outcome);
    }

    fn stats(&self) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tahoe_hms::{presets, Hms};

    fn config() -> HmsConfig {
        HmsConfig::new(presets::dram(1 << 20), presets::optane_pmm(1 << 22), 5.0)
            .expect("valid test config")
    }

    fn three_tier_config() -> HmsConfig {
        HmsConfig::with_tiers(
            vec![
                presets::dram(1 << 20),
                presets::cxl(1 << 21),
                presets::optane_pmm(1 << 22),
            ],
            5.0,
        )
        .expect("valid 3-tier config")
    }

    #[test]
    fn backend_resolves_pointers_per_tier() {
        let mut b = RealBackend::new(&config()).unwrap();
        assert_eq!(b.name(), "mmap");
        let d = b.data_ptr(TierId(0), 0, 64).unwrap();
        let n = b.data_ptr(TierId(1), 0, 64).unwrap();
        assert_ne!(d, n, "tiers must be distinct mappings");
        assert!(b.data_ptr(TierId(0), 1 << 20, 1).is_none());
        assert!(b.stats().is_real);
    }

    #[test]
    fn every_arena_takes_the_huge_page_advice_the_host_honours() {
        let b = RealBackend::new(&three_tier_config()).unwrap();
        let want = if sys::thp_mode().honours_advice() {
            3
        } else {
            0
        };
        assert_eq!(
            b.stats().huge_page_arenas,
            want,
            "THP {}",
            sys::thp_mode().label()
        );
    }

    #[test]
    fn a_refused_advice_leaves_working_small_page_arenas_and_says_so() {
        let (emitter, metrics) = (Emitter::disabled(), Metrics::disabled());
        let mut b = RealBackend::build(&config(), emitter, metrics, false).unwrap();
        assert_eq!(b.stats().huge_page_arenas, 0);
        b.set_copy_config(CopyConfig::unthrottled());
        let src = b.data_ptr(TierId(1), 0, 1 << 16).unwrap();
        // SAFETY: `data_ptr` bounds-checked 64 KiB writable bytes at `src`.
        unsafe { src.write_bytes(0x6B, 1 << 16) };
        b.copy(3, TierId(1), 0, TierId(0), 4096, 1 << 16);
        let dst = b.data_ptr(TierId(0), 4096, 1 << 16).unwrap();
        // SAFETY: `data_ptr` bounds-checked 64 KiB readable bytes at `dst`.
        let got = unsafe { std::slice::from_raw_parts(dst, 1 << 16) };
        assert!(got.iter().all(|&x| x == 0x6B));
    }

    #[test]
    fn copy_moves_bytes_between_tiers_and_counts() {
        let mut b = RealBackend::new(&config()).unwrap();
        b.set_copy_config(CopyConfig::unthrottled());
        let src = b.data_ptr(TierId(1), 128, 4096).unwrap();
        // SAFETY: `data_ptr` bounds-checked 4096 writable bytes at `src`.
        unsafe { src.write_bytes(0x77, 4096) };
        let out = b.copy(1, TierId(1), 128, TierId(0), 256, 4096);
        assert_eq!(out.bytes, 4096);
        let dst = b.data_ptr(TierId(0), 256, 4096).unwrap();
        // SAFETY: `data_ptr` bounds-checked 4096 readable bytes at `dst`.
        let got = unsafe { std::slice::from_raw_parts(dst, 4096) };
        assert!(got.iter().all(|&x| x == 0x77));
        let st = b.stats();
        assert_eq!(st.copies, 1);
        assert_eq!(st.copied_bytes, 4096);
        assert!(st.copy_wall_ns > 0.0);
    }

    #[test]
    fn hms_with_real_backend_gives_writable_object_bytes() {
        let mut hms = Hms::new(config());
        hms.set_backend(Box::new(RealBackend::new(&config()).unwrap()));
        assert_eq!(hms.backend_name(), "mmap");
        let id = hms.alloc_object("buf", 8192, TierId(1), false).unwrap();
        {
            let bytes = hms.object_bytes(id).unwrap().expect("real backend");
            assert_eq!(bytes.len(), 8192);
            bytes.fill(0xAB);
        }
        // Migration must physically carry the bytes to the other tier.
        hms.move_object(id, TierId(0)).unwrap();
        let bytes = hms.object_bytes(id).unwrap().expect("real backend");
        assert!(bytes.iter().all(|&x| x == 0xAB));
        assert_eq!(hms.backend_stats().copies, 1);
        assert_eq!(hms.backend_stats().copied_bytes, 8192);
    }

    /// 256 frees of 8 KiB are one 2 MiB batch: one release call where
    /// the kernel takes the batched call (one per range where it does
    /// not), counted in stats and metrics.
    #[test]
    fn frees_are_counted_as_release_calls_and_ranges() {
        let metrics = Metrics::enabled();
        let mut b =
            RealBackend::with_observability(&config(), Emitter::disabled(), metrics.clone())
                .unwrap();
        let len = 8 << 10;
        for i in 0..256 {
            b.on_alloc(TierId(1), i * len, len);
        }
        for i in 0..256 {
            b.on_free(TierId(1), i * len, len);
        }
        let st = b.stats();
        assert_eq!(st.released_ranges, 256);
        assert!(sys::batched_calls_ok(st.release_calls, 256), "{st:?}");
        let snap = metrics.snapshot();
        assert_eq!(
            snap.counter("realmem.release_calls"),
            Some(st.release_calls)
        );
        assert_eq!(snap.counter("realmem.released_ranges"), Some(256));
    }

    #[test]
    fn copy_emits_events() {
        let (emitter, buffer) = Emitter::buffered();
        let mut b =
            RealBackend::with_observability(&config(), emitter, Metrics::enabled()).unwrap();
        b.set_copy_config(CopyConfig::unthrottled());
        b.copy(9, TierId(0), 0, TierId(1), 0, 1024);
        let events = buffer.drain();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec!["arena_mapped", "arena_mapped", "real_copy_done"]
        );
        match events[2] {
            Event::RealCopyDone { object, bytes, .. } => {
                assert_eq!(object, 9);
                assert_eq!(bytes, 1024);
            }
            ref other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn three_tier_backend_maps_and_copies_every_pair() {
        let mut b = RealBackend::new(&three_tier_config()).unwrap();
        b.set_copy_config(CopyConfig::unthrottled());
        // Three distinct mappings.
        let p0 = b.data_ptr(TierId(0), 0, 64).unwrap();
        let p1 = b.data_ptr(TierId(1), 0, 64).unwrap();
        let p2 = b.data_ptr(TierId(2), 0, 64).unwrap();
        assert!(p0 != p1 && p1 != p2 && p0 != p2);
        // Walk bytes down the ladder: DRAM → CXL → NVM.
        // SAFETY: `data_ptr` bounds-checked 512 writable bytes at `p0`.
        unsafe { p0.write_bytes(0x42, 512) };
        b.copy(1, TierId(0), 0, TierId(1), 0, 512);
        b.copy(1, TierId(1), 0, TierId(2), 0, 512);
        // SAFETY: `data_ptr` bounds-checked 512 readable bytes at `p2`.
        let got = unsafe { std::slice::from_raw_parts(p2, 512) };
        assert!(got.iter().all(|&x| x == 0x42));
        assert_eq!(b.stats().copies, 2);
    }

    #[test]
    fn per_pair_copy_configs_derive_from_the_matrix() {
        let cfg = three_tier_config();
        let b = RealBackend::new(&cfg).unwrap();
        let (dram, cxl, nvm) = (presets::dram(1), presets::cxl(1), presets::optane_pmm(1));
        // DRAM↔spill keeps the scalar copy bandwidth.
        let dn = b.copy_config_between(TierId(0), TierId(2));
        assert_eq!(dn.bandwidth_gbps, 5.0);
        // Startup latency is direction-aware: a demotion pays the NVM
        // write latency, a promotion its read latency.
        assert_eq!(dn.latency_ns, nvm.write_lat_ns);
        let nd = b.copy_config_between(TierId(2), TierId(0));
        assert_eq!(nd.latency_ns, nvm.read_lat_ns);
        // Both directions of a derived pair read their own matrix cell.
        let dc = b.copy_config_between(TierId(0), TierId(1));
        assert_eq!(dc.bandwidth_gbps, cfg.copy_bw_between(TierId(0), TierId(1)));
        assert_eq!(dc.latency_ns, dram.read_lat_ns.max(cxl.write_lat_ns));
        let cd = b.copy_config_between(TierId(1), TierId(0));
        assert_eq!(cd.bandwidth_gbps, cfg.copy_bw_between(TierId(1), TierId(0)));
        assert_eq!(cd.latency_ns, cxl.read_lat_ns.max(dram.write_lat_ns));
        // The migrator's matrix holds the same entries.
        assert_eq!(b.copy_configs()[2], dn);
        assert_eq!(b.copy_configs()[6], nd);
    }

    #[test]
    fn pair_override_is_local() {
        let mut b = RealBackend::new(&three_tier_config()).unwrap();
        let before = b.copy_config_between(TierId(0), TierId(2));
        b.set_copy_config_between(TierId(1), TierId(2), CopyConfig::unthrottled());
        assert_eq!(
            b.copy_config_between(TierId(1), TierId(2)),
            CopyConfig::unthrottled()
        );
        assert_eq!(b.copy_config_between(TierId(0), TierId(2)), before);
    }
}
