//! Media substrate: formats, synthetic codecs, the display device model
//! and silence detection.
//!
//! The 1991 prototype captured NTSC video through UVC compression boards
//! and 8 KB/s audio hardware. This crate replaces that hardware with
//! deterministic synthetic equivalents that expose exactly the quantities
//! the file-system model consumes: frame/sample sizes, recording rates,
//! display durations and device buffer capacities.
//!
//! * [`VideoFormat`] / [`AudioFormat`] — raw media geometry with presets
//!   matching the paper's hardware (NTSC 480×200×12bpp at 30 fps;
//!   telephone-quality 8 kHz audio) and its extrapolations (HDTV).
//! * [`VideoCodec`] — a seeded synthetic compressor producing fixed- or
//!   variable-rate frame sizes plus encode/decode service times.
//! * [`DisplayDevice`] — the paper's display peripheral: per-frame
//!   display durations and `f` internal frame buffers, from which storage
//!   granularity is derived.
//! * [`silence`] — energy-threshold silence detection over synthetic PCM,
//!   feeding the NULL-hole audio layout of strands.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod device;
mod format;
pub mod silence;

pub use codec::{CodecTiming, FrameSizeModel, VideoCodec};
pub use device::{DisplayDevice, RetrievalArchitecture};
pub use format::{AudioFormat, Medium, VideoFormat};
