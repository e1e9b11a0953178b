//! A multi-volume strandfs cluster: many MSM volumes behind one master
//! catalog, with replicated strands and volume-failure failover.
//!
//! A [`cluster::Cluster`] owns N members, each a full [`Mrs`] volume
//! with its own disk, fault plan, journal and Eq. 15–18 admission; a
//! [`catalog::Catalog`] maps every title to its replicas (volume,
//! strands, compiled schedule); and [`placement::Placement`] decides
//! where recordings land — round-robin, least-loaded by live Eq. 18
//! slack, or popularity-aware k-replication.
//!
//! [`service::simulate_cluster`] plays viewers in synchronized rounds.
//! Each member is a *lane* whose own steps touch only its own volume; the
//! run that drives the lanes holds every step that charges another lane:
//! hedges, read-around, scrub repair, re-pins and restore. A member
//! killed by its fault plan is *detected* at the read path, and every
//! stream of a replicated title fails over mid-playback losing zero
//! blocks; unreplicated streams ride the degradation ladder. The member
//! later rejoins through `Msm::recover` + fsck, and lost replicas are
//! re-replicated in the round's slack.
//!
//! [`Mrs`]: strandfs_core::mrs::Mrs

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod cluster;
pub mod placement;
pub mod service;

pub use catalog::{Catalog, ReconcileReport, Replica, ReplicaState, StrandLoc, Title, TitleId};
pub use cluster::{Cluster, ClusterConfig, Member, MemberState, RejoinReport, RestoreProgress};
pub use placement::{hypothetical_slack, standard_spec, Placement, VolumeLoad};
pub use service::{
    simulate_cluster, ClusterAction, ClusterPlayback, ClusterReport, ScriptedAction, VolumeStats,
};
