//! Little-endian wire encoding helpers for on-disk index blocks.
//!
//! A minimal in-repo replacement for the `bytes` crate's `Buf`/`BufMut`:
//! [`PutLe`] appends fixed-width little-endian fields to a `Vec<u8>`, and
//! [`TakeLe`] consumes them from a `&[u8]` cursor (the slice itself
//! advances, so `decode(mut buf: &[u8])` reads fields in declaration
//! order exactly as before).
//!
//! A [`Medium`] is one byte on disk (video 0, audio 1) wherever it is
//! stored: the strand header and the journal's `Begin` record both
//! write it through [`PutLe::put_medium`] and read it back through
//! [`TakeLe::get_medium`].

use strandfs_media::Medium;

/// Append little-endian fields to a growable buffer.
pub trait PutLe {
    /// Append one byte.
    fn put_u8(&mut self, v: u8);
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64);
    /// Append a little-endian IEEE-754 `f64`.
    fn put_f64_le(&mut self, v: f64);
    /// Append a medium's byte: video 0, audio 1.
    fn put_medium(&mut self, m: Medium) {
        self.put_u8(match m {
            Medium::Video => 0,
            Medium::Audio => 1,
        });
    }
}

impl PutLe for Vec<u8> {
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_le_bytes());
    }
}

/// Consume little-endian fields from the front of a byte slice.
///
/// All `get_*` methods panic if the slice is too short; callers must
/// check [`TakeLe::remaining`] first, as the index decoders do.
pub trait TakeLe {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// Consume one byte.
    fn get_u8(&mut self) -> u8;
    /// Consume a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;
    /// Consume a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
    /// Consume a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64;
    /// Consume a little-endian IEEE-754 `f64`.
    fn get_f64_le(&mut self) -> f64;
    /// Consume a medium's byte; `None` for a byte no medium writes.
    fn get_medium(&mut self) -> Option<Medium> {
        match self.get_u8() {
            0 => Some(Medium::Video),
            1 => Some(Medium::Audio),
            _ => None,
        }
    }
}

macro_rules! take_le {
    ($self:ident, $t:ty) => {{
        const N: usize = std::mem::size_of::<$t>();
        let (head, tail) = $self.split_at(N);
        *$self = tail;
        <$t>::from_le_bytes(head.try_into().expect("split_at returns N bytes"))
    }};
}

impl TakeLe for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        take_le!(self, u8)
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        take_le!(self, u16)
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        take_le!(self, u32)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        take_le!(self, u64)
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        take_le!(self, f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_widths() {
        let mut out = Vec::new();
        out.put_u8(0xAB);
        out.put_u16_le(0x1234);
        out.put_u32_le(0xDEAD_BEEF);
        out.put_u64_le(0x0102_0304_0506_0708);
        out.put_f64_le(-1.5);
        assert_eq!(out.len(), 1 + 2 + 4 + 8 + 8);

        let mut buf: &[u8] = &out;
        assert_eq!(buf.remaining(), 23);
        assert_eq!(buf.get_u8(), 0xAB);
        assert_eq!(buf.get_u16_le(), 0x1234);
        assert_eq!(buf.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(buf.get_u64_le(), 0x0102_0304_0506_0708);
        assert_eq!(buf.get_f64_le(), -1.5);
        assert_eq!(buf.remaining(), 0);
    }

    #[test]
    fn layout_is_little_endian() {
        let mut out = Vec::new();
        out.put_u32_le(0x0102_0304);
        assert_eq!(out, vec![0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn a_medium_is_one_byte() {
        let mut out = Vec::new();
        out.put_medium(Medium::Video);
        out.put_medium(Medium::Audio);
        out.put_u8(2);
        assert_eq!(out, vec![0, 1, 2]);
        let mut buf: &[u8] = &out;
        assert_eq!(buf.get_medium(), Some(Medium::Video));
        assert_eq!(buf.get_medium(), Some(Medium::Audio));
        assert_eq!(buf.get_medium(), None);
    }

    #[test]
    fn cursor_advances_the_slice() {
        let data = [1u8, 0, 2, 0];
        let mut buf: &[u8] = &data;
        assert_eq!(buf.get_u16_le(), 1);
        assert_eq!(buf, &[2, 0]);
    }
}
