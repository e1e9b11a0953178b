//! What the benchmark measures: the four workloads, their two scales,
//! and the name, unit and direction of every metric.
//!
//! `BENCHMARK.json` at the repository root repeats the end-to-end and
//! per-layer tables for the driver; `tests/contract.rs` holds the two in
//! agreement.

/// Which clock a metric is read from. Host and virtual time are never
/// mixed in one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Clock {
    /// Wall-clock time or memory of the benchmark process.
    Host,
    /// Simulated time: a pure function of the seed, compared exactly.
    Virtual,
}

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub clock: Clock,
}

/// The eight end-to-end metrics, in print order.
///
/// `delivered_share` and `on_time_share` are the complements of the
/// issue's `failed_share` and `miss_ratio`: the driver divides by a
/// metric's median, so a metric that reads 0 on a healthy run cannot be
/// bounded. Host-time bounds are three times the spread calibration saw
/// (README, "Calibration"). Virtual-time bounds cover the spread the
/// seeded content puts on a metric across seeds; for one seed `compare`
/// treats any worsening as a regression.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "viewers_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        better: "higher",
        bound: 0.01,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "on_time_share",
        unit: "ratio",
        better: "higher",
        bound: 0.05,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "start_latency_ms_mean",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "start_latency_ms_tail10",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        clock: Clock::Virtual,
    },
    EndToEnd {
        name: "virt_makespan_s",
        unit: "s",
        better: "lower",
        bound: 0.10,
        clock: Clock::Virtual,
    },
];

/// Every per-layer metric a traced run prints: `(name, unit, better)`.
/// A metric whose layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str, &str); 65] = [
    ("cluster.service.rep_ms_p50", "ms", "lower"),
    ("cluster.service.rep_ms_p99", "ms", "lower"),
    ("cluster.service.round_us_p50", "us", "lower"),
    ("cluster.service.round_us_p99", "us", "lower"),
    ("cluster.service.idle_round_us_p50", "us", "lower"),
    ("cluster.service.us_per_block", "us", "lower"),
    ("cluster.service.rounds", "count", "lower"),
    ("cluster.service.blocks_fetched", "count", "lower"),
    ("cluster.service.failovers", "count", "lower"),
    ("cluster.service.hedges", "count", "lower"),
    ("cluster.service.hedge_wins", "count", "higher"),
    ("cluster.service.quarantines", "count", "lower"),
    ("cluster.service.read_repairs", "count", "higher"),
    ("cluster.service.scrubbed_blocks", "count", "higher"),
    ("cluster.service.scrub_repaired", "count", "higher"),
    ("cluster.service.restored_blocks", "count", "higher"),
    ("cluster.defense.verify_ratio", "ratio", "lower"),
    ("cluster.defense.scrub_ratio", "ratio", "lower"),
    ("cluster.defense.hedge_ratio", "ratio", "lower"),
    ("cluster.defense.monitor_ratio", "ratio", "lower"),
    ("cluster.defense.all_ratio", "ratio", "lower"),
    ("cluster.defense.verify_us_per_block", "us", "lower"),
    ("cluster.defense.scrub_us_per_block", "us", "lower"),
    ("cluster.scale.us_per_viewer.v8", "us", "lower"),
    ("cluster.scale.us_per_viewer.v16", "us", "lower"),
    ("cluster.scale.us_per_viewer.v32", "us", "lower"),
    ("cluster.scale.us_per_viewer.v64", "us", "lower"),
    ("cluster.cluster.new_ms", "ms", "lower"),
    ("cluster.cluster.ingest_us_per_block", "us", "lower"),
    ("cluster.cluster.rejoin_ms", "ms", "lower"),
    ("cluster.cluster.fsck_member_ms", "ms", "lower"),
    ("cluster.catalog.live_replica_ns", "ns", "lower"),
    ("cluster.placement.choose_ns", "ns", "lower"),
    ("core.admission.admit_ns", "ns", "lower"),
    ("core.admission.release_ns", "ns", "lower"),
    ("core.admission.admits", "count", "higher"),
    ("core.admission.rejects", "count", "lower"),
    ("core.admission.k", "count", "lower"),
    ("core.msm.check_sum_ns", "ns", "lower"),
    ("core.strand.load_cached_ns", "ns", "lower"),
    ("core.strand.load_uncached_ns", "ns", "lower"),
    ("disk.access_ns", "ns", "lower"),
    ("disk.fetch_block_ns", "ns", "lower"),
    ("disk.fnv1a_gb_per_s", "GB/s", "higher"),
    ("disk.ops", "count", "lower"),
    ("disk.busy_virt_s", "s", "lower"),
    ("disk.util", "ratio", "lower"),
    ("disk.positioning_fraction", "ratio", "lower"),
    ("disk.sectors_written", "count", "lower"),
    ("media.frame_payload_ns", "ns", "lower"),
    ("sim.playback.rep_ms_p50", "ms", "lower"),
    ("sim.playback.round_ms_p50", "ms", "lower"),
    ("sim.playback.order_share", "ratio", "lower"),
    ("sim.playback.service_share", "ratio", "lower"),
    ("sim.playback.ns_per_block", "ns", "lower"),
    ("sim.playback.fanout_ms", "ms", "lower"),
    ("obs.events_per_rep", "count", "lower"),
    ("obs.ring_record_ns_per_event", "ns", "lower"),
    ("obs.monitor_fold_ns_per_event", "ns", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("obs.ring_dropped", "count", "lower"),
    ("obs.alerts", "count", "lower"),
    ("obs.flight_dumps", "count", "lower"),
    ("trace.export_ns_per_event", "ns", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
];

/// The four workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WorkloadId {
    VodDefended,
    VodBare,
    VolumeOverload,
    FailoverStorm,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::VodDefended,
        WorkloadId::VodBare,
        WorkloadId::VolumeOverload,
        WorkloadId::FailoverStorm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::VodDefended => "vod_defended",
            WorkloadId::VodBare => "vod_bare",
            WorkloadId::VolumeOverload => "volume_overload",
            WorkloadId::FailoverStorm => "failover_storm",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of the four workloads. Two instances exist: the committed
/// full scale and the `--smoke` scale a reviewer can run in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub smoke: bool,
    /// `vod_*`: member volumes (= titles; two viewers per title).
    pub vod_volumes: usize,
    /// `vod_*`: nominal title length in 100 ms blocks.
    pub vod_blocks: u64,
    /// `failover_storm`: member volumes (= titles = viewers).
    pub storm_volumes: usize,
    pub storm_blocks: u64,
    /// `failover_storm`: members killed; half rejoin with their media,
    /// half wiped.
    pub storm_victims: usize,
    /// `failover_storm`: silent-corruption flips armed under one replica.
    pub storm_flips: u64,
    /// `failover_storm`: round at whose start the first victim is killed
    /// (one more each following round), and the same for the rejoins.
    pub storm_kill_round: u64,
    pub storm_rejoin_round: u64,
    pub overload_clips: usize,
    pub overload_blocks: u64,
    pub overload_streams: usize,
    /// Seeded spread of a clip's length around its nominal, in blocks
    /// either way.
    pub jitter_blocks: u64,
    /// Set-up builds timed after the discarded warm-up build.
    pub setup_builds: usize,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            smoke: false,
            vod_volumes: 64,
            vod_blocks: 100,
            storm_volumes: 32,
            storm_blocks: 80,
            storm_victims: 4,
            storm_flips: 8,
            storm_kill_round: 2,
            storm_rejoin_round: 10,
            overload_clips: 16,
            overload_blocks: 40,
            overload_streams: 100_000,
            jitter_blocks: 2,
            setup_builds: 5,
        }
    }

    /// How long one isolated probe runs.
    pub fn probe_budget(&self) -> std::time::Duration {
        std::time::Duration::from_millis(if self.smoke { 5 } else { 50 })
    }

    pub fn smoke() -> Scale {
        Scale {
            smoke: true,
            vod_volumes: 8,
            vod_blocks: 10,
            storm_volumes: 8,
            storm_blocks: 30,
            storm_victims: 2,
            storm_flips: 2,
            storm_kill_round: 1,
            storm_rejoin_round: 3,
            overload_clips: 4,
            overload_blocks: 10,
            overload_streams: 1_000,
            jitter_blocks: 2,
            setup_builds: 1,
        }
    }
}
