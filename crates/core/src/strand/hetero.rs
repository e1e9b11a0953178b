//! Heterogeneous media blocks (§3.3.3).
//!
//! The paper's alternative to per-medium (homogeneous) strands: store
//! the audio and video covering one block duration *inside the same
//! disk block*. The benefit is implicit inter-media synchronization —
//! one fetch delivers both media, and Eq. 6's single-gap continuity
//! bound applies — at the cost of combining on store and separating on
//! retrieval, and of losing per-medium layout optimization (e.g. audio
//! silence holes).
//!
//! This module defines the on-disk payload format and the
//! combine/separate operations. A heterogeneous strand is an ordinary
//! strand whose `medium` is video (the pacing medium) and whose block
//! payloads use this encoding.

use super::wire::{PutLe, TakeLe};
use crate::error::FsError;

const HETERO_MAGIC: u32 = 0x5342_4c4d; // "MBLS"

/// One heterogeneous block: the video frames and audio samples covering
/// the same block duration.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HeteroBlock {
    /// Concatenated compressed video frames.
    pub video: Vec<u8>,
    /// Concatenated audio samples.
    pub audio: Vec<u8>,
}

impl HeteroBlock {
    /// Combine media into one payload (the store-side processing the
    /// paper notes heterogeneous blocks require).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + self.video.len() + self.audio.len());
        out.put_u32_le(HETERO_MAGIC);
        out.put_u32_le(self.video.len() as u32);
        out.put_u32_le(self.audio.len() as u32);
        out.extend_from_slice(&self.video);
        out.extend_from_slice(&self.audio);
        out
    }

    /// Separate a payload back into its media (the retrieve-side
    /// processing). Trailing sector padding after the declared lengths
    /// is ignored.
    pub fn decode(mut buf: &[u8]) -> Result<HeteroBlock, FsError> {
        if buf.remaining() < 12 {
            return Err(FsError::CorruptIndex {
                what: "hetero block too short",
            });
        }
        if buf.get_u32_le() != HETERO_MAGIC {
            return Err(FsError::CorruptIndex {
                what: "hetero block magic",
            });
        }
        let vlen = buf.get_u32_le() as usize;
        let alen = buf.get_u32_le() as usize;
        if buf.remaining() < vlen + alen {
            return Err(FsError::CorruptIndex {
                what: "hetero block truncated",
            });
        }
        let video = buf[..vlen].to_vec();
        let audio = buf[vlen..vlen + alen].to_vec();
        Ok(HeteroBlock { video, audio })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let b = HeteroBlock {
            video: vec![1, 2, 3, 4, 5],
            audio: vec![9, 8, 7],
        };
        let enc = b.encode();
        assert_eq!(enc.len(), 12 + 5 + 3);
        assert_eq!(HeteroBlock::decode(&enc).unwrap(), b);
    }

    #[test]
    fn round_trip_with_sector_padding() {
        let b = HeteroBlock {
            video: vec![0xAA; 100],
            audio: vec![0xBB; 50],
        };
        let mut enc = b.encode();
        enc.resize(512, 0); // sector padding
        assert_eq!(HeteroBlock::decode(&enc).unwrap(), b);
    }

    #[test]
    fn empty_media_allowed() {
        let b = HeteroBlock::default();
        assert_eq!(HeteroBlock::decode(&b.encode()).unwrap(), b);
    }

    #[test]
    fn corrupt_rejected() {
        let b = HeteroBlock {
            video: vec![1; 10],
            audio: vec![2; 10],
        };
        let mut enc = b.encode();
        enc[0] ^= 0xFF;
        assert!(HeteroBlock::decode(&enc).is_err());
        let enc2 = b.encode();
        assert!(HeteroBlock::decode(&enc2[..16]).is_err());
        assert!(HeteroBlock::decode(&[]).is_err());
    }
}
