//! A multi-volume strandfs cluster: many MSM volumes behind one master
//! catalog, with replicated strands and volume-failure failover.
//!
//! The single-volume stack (record → admit → play → degrade → recover)
//! treats one disk as the whole world; this crate is the
//! master/chunkserver split that makes "millions of users" meaningful.
//! A [`cluster::Cluster`] owns N members, each a full [`Mrs`] volume
//! with its own disk, fault plan, journal and Eq. 15–18
//! admission; a [`catalog::Catalog`] maps every title to its replicas
//! (volume, strands, compiled schedule); and [`placement::Placement`]
//! decides where recordings land — round-robin, least-loaded by live
//! Eq. 18 slack, or popularity-aware k-replication.
//!
//! The interesting path is failure. A member killed by its fault plan
//! is *detected*, not announced: the read path surfaces a media error,
//! the serving loop marks the volume down, and every stream playing a
//! replicated title fails over mid-playback to a surviving replica —
//! losing zero blocks, with the visible glitch bounded by its
//! read-ahead. Unreplicated streams ride the existing degradation
//! ladder (silence hole → revoke → re-admit). The member later rejoins
//! through `Msm::recover` + fsck, the catalog reconciles what survived,
//! and lost replicas are re-replicated in the background.
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
