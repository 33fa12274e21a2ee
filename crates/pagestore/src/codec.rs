//! Little-endian fixed-width encode/decode helpers for on-page layouts.
//!
//! Every on-page structure in this repository (B+-tree nodes, the catalog
//! page) is built from fixed-width integers written at computed
//! offsets.  Centralizing the byte fiddling here keeps the node layout code
//! readable and gives one place to test the encoding.

/// Reads a `u16` at `off`.
#[inline]
pub fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(buf[off..off + 2].try_into().expect("u16 slice"))
}

/// Writes a `u16` at `off`.
#[inline]
pub fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u32` at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("u32 slice"))
}

/// Writes a `u32` at `off`.
#[inline]
pub fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    buf[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// Reads a `u64` at `off`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("u64 slice"))
}

/// Writes a `u64` at `off`.
#[inline]
pub fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Reads an `i64` at `off`.
#[inline]
pub fn get_i64(buf: &[u8], off: usize) -> i64 {
    i64::from_le_bytes(buf[off..off + 8].try_into().expect("i64 slice"))
}

/// Writes an `i64` at `off`.
#[inline]
pub fn put_i64(buf: &mut [u8], off: usize, v: i64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = vec![0u8; 64];
        put_u16(&mut buf, 0, 0xBEEF);
        put_u32(&mut buf, 2, 0xDEADBEEF);
        put_u64(&mut buf, 6, u64::MAX - 3);
        put_i64(&mut buf, 14, i64::MIN + 11);
        assert_eq!(get_u16(&buf, 0), 0xBEEF);
        assert_eq!(get_u32(&buf, 2), 0xDEADBEEF);
        assert_eq!(get_u64(&buf, 6), u64::MAX - 3);
        assert_eq!(get_i64(&buf, 14), i64::MIN + 11);
    }

    #[test]
    fn negative_i64_preserved() {
        let mut buf = vec![0u8; 8];
        for v in [-1i64, i64::MIN, i64::MAX, 0, -(1 << 40)] {
            put_i64(&mut buf, 0, v);
            assert_eq!(get_i64(&buf, 0), v);
        }
    }
}
