//! Replica placement policies: where a new title's copies land.
//!
//! Placement sees one [`VolumeLoad`] row per member and picks distinct
//! volumes for the requested replica count. The load-aware policies
//! rank members by *live Eq. 18 slack*: the steady-state per-block
//! margin `γ − n·β` each volume would retain if it took one more
//! stream of the reference workload (the `k → ∞` limit of Eq. 18,
//! which round-size adaptation cannot mask). Slack — not stream
//! count — is the paper's own currency for "room on this disk": a
//! volume serving three audio streams has more headroom than one
//! serving three video streams, and Eq. 18 is what knows the
//! difference.

use strandfs_core::admission::{Aggregates, RequestSpec};
use strandfs_core::model::DiskParams;
use strandfs_units::{Nanos, Seconds};

/// The reference request used to compare volume headroom: the standard
/// NTSC video stream ([`strandfs_sim::scenario::standard_video_meta`]).
pub fn standard_spec() -> RequestSpec {
    strandfs_sim::scenario::standard_video_meta().request_spec()
}

/// Eq. 18 slack a volume would retain serving `streams` copies of
/// `spec`: the steady-state per-block margin `γ − n·β`
/// ([`Aggregates::margin`]). Raw round slack ([`Aggregates::slack`]) is
/// not monotone in `n` — the transient-safe round size `k` grows with
/// load and hides the seek overhead — so placement compares the
/// `k → ∞` limit, which adaptation cannot mask. `None` when the load is
/// infeasible (no transient-safe round size exists — the volume cannot
/// take that many streams at all).
pub fn hypothetical_slack(env: &DiskParams, spec: RequestSpec, streams: usize) -> Option<Nanos> {
    let margin = Aggregates::compute(env, &[spec])?.margin(streams.max(1));
    (margin > Seconds::ZERO).then(|| margin.to_nanos())
}

/// One member's standing at placement time.
#[derive(Clone, Copy, Debug)]
pub struct VolumeLoad {
    /// The member index.
    pub volume: usize,
    /// Whether the member is serving (down members never take replicas).
    pub up: bool,
    /// Replicas already placed on the member.
    pub placed: usize,
    /// Steady-state Eq. 18 slack if the member took one more reference
    /// stream ([`hypothetical_slack`] with `placed + 1`); zero when
    /// infeasible.
    pub slack: Nanos,
}

/// How replicas are spread across members.
#[derive(Clone, Copy, Debug)]
pub enum Placement {
    /// Cycle through up members in index order.
    RoundRobin,
    /// Most Eq. 18 slack first (ties: fewest replicas, lowest index).
    LeastLoaded,
    /// [`Placement::LeastLoaded`] ranking, plus extra replicas for hot
    /// titles: a title at or above `hot_threshold` popularity gets
    /// `extra` copies beyond the cluster's base replica count.
    Popularity {
        /// Popularity at or above which a title counts as hot.
        hot_threshold: f64,
        /// Additional replicas a hot title receives.
        extra: usize,
    },
}

impl Placement {
    /// Replica count for a title of the given popularity.
    pub fn replica_count(&self, base: usize, popularity: f64) -> usize {
        match self {
            Placement::Popularity {
                hot_threshold,
                extra,
            } if popularity >= *hot_threshold => base + extra,
            _ => base,
        }
    }

    /// Pick up to `want` distinct up volumes. `cursor` is the
    /// round-robin rotation state (ignored by the load-aware policies).
    /// Returns fewer than `want` when the cluster has fewer up members.
    pub fn choose(&self, cursor: &mut usize, want: usize, loads: &[VolumeLoad]) -> Vec<usize> {
        let mut up: Vec<&VolumeLoad> = loads.iter().filter(|l| l.up).collect();
        if up.is_empty() {
            return Vec::new();
        }
        match self {
            Placement::RoundRobin => {
                let picks = (0..want.min(up.len()))
                    .map(|i| up[(*cursor + i) % up.len()].volume)
                    .collect();
                *cursor = (*cursor + want) % up.len();
                picks
            }
            Placement::LeastLoaded | Placement::Popularity { .. } => {
                up.sort_by(|a, b| {
                    b.slack
                        .cmp(&a.slack)
                        .then(a.placed.cmp(&b.placed))
                        .then(a.volume.cmp(&b.volume))
                });
                up.iter().take(want).map(|l| l.volume).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(slacks: &[(bool, usize, u64)]) -> Vec<VolumeLoad> {
        slacks
            .iter()
            .enumerate()
            .map(|(volume, &(up, placed, ms))| VolumeLoad {
                volume,
                up,
                placed,
                slack: Nanos::from_millis(ms),
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles_over_up_members_only() {
        let l = loads(&[(true, 0, 0), (false, 0, 0), (true, 0, 0)]);
        let p = Placement::RoundRobin;
        let mut cursor = 0;
        assert_eq!(p.choose(&mut cursor, 1, &l), vec![0]);
        assert_eq!(p.choose(&mut cursor, 1, &l), vec![2]);
        assert_eq!(p.choose(&mut cursor, 1, &l), vec![0]);
        // A 2-replica pick never lands both copies on one volume.
        cursor = 0;
        assert_eq!(p.choose(&mut cursor, 2, &l), vec![0, 2]);
    }

    #[test]
    fn least_loaded_prefers_the_most_slack() {
        let l = loads(&[(true, 2, 100), (true, 0, 400), (true, 1, 250)]);
        let mut cursor = 0;
        assert_eq!(
            Placement::LeastLoaded.choose(&mut cursor, 2, &l),
            vec![1, 2]
        );
    }

    #[test]
    fn least_loaded_ties_break_by_placed_then_volume_id() {
        // Equal slack everywhere: fewest-placed wins, then lowest id.
        let l = loads(&[(true, 1, 300), (true, 0, 300), (true, 0, 300)]);
        let mut cursor = 7; // cursor must be ignored by load-aware policies
        assert_eq!(
            Placement::LeastLoaded.choose(&mut cursor, 3, &l),
            vec![1, 2, 0]
        );
        assert_eq!(cursor, 7);
        // Fully symmetric members: stable ascending volume-id order, so
        // placement is deterministic run-to-run regardless of input
        // order quirks.
        let sym = loads(&[(true, 0, 300), (true, 0, 300), (true, 0, 300)]);
        for want in 1..=3 {
            assert_eq!(
                Placement::LeastLoaded.choose(&mut cursor, want, &sym),
                (0..want).collect::<Vec<_>>()
            );
        }
        // Popularity ranks identically to LeastLoaded.
        let pop = Placement::Popularity {
            hot_threshold: 0.8,
            extra: 1,
        };
        assert_eq!(pop.choose(&mut cursor, 3, &l), vec![1, 2, 0]);
    }

    #[test]
    fn popularity_boosts_hot_titles() {
        let p = Placement::Popularity {
            hot_threshold: 0.8,
            extra: 1,
        };
        assert_eq!(p.replica_count(1, 0.9), 2);
        assert_eq!(p.replica_count(1, 0.5), 1);
        assert_eq!(Placement::RoundRobin.replica_count(1, 0.9), 1);
    }

    #[test]
    fn hypothetical_slack_shrinks_with_load_and_runs_out() {
        use strandfs_core::msm::{Msm, MsmConfig};
        use strandfs_disk::{DiskGeometry, GapBounds, SeekModel, SimDisk};
        let msm = Msm::new(
            SimDisk::new(DiskGeometry::vintage_1991(), SeekModel::vintage_1991()),
            MsmConfig::constrained(
                GapBounds {
                    min_sectors: 0,
                    max_sectors: 40_000,
                },
                1,
            ),
        );
        let env = *msm.admission_ref().env();
        let spec = standard_spec();
        let s1 = hypothetical_slack(&env, spec, 1).expect("1 stream fits");
        let s2 = hypothetical_slack(&env, spec, 2).expect("2 streams fit");
        assert!(s2 < s1, "slack must shrink with load: {s1:?} -> {s2:?}");
        // The vintage disk admits n_max = 2 of the standard stream.
        assert_eq!(hypothetical_slack(&env, spec, 3), None);
    }
}
