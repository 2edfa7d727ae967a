// virtual-path: crates/comm/src/frames.rs
//! Bad fixture: a peer's frame checked with assertions. A short or corrupt
//! frame from another process then panics the whole rank, where the wire
//! library owes its caller a typed `CommError`.

pub fn header(frame: &[f32], len: usize) -> (u32, u32) {
    debug_assert!(len > 0, "a caller's own bug, compiled out of release");
    assert!(frame.len() >= 2, "short frame");
    assert_eq!(frame[0].to_bits() as usize, len);
    assert_ne!(frame[1].to_bits(), u32::MAX);
    match frame[1].to_bits() {
        0 => (len as u32, 0),
        1 => (len as u32, 1),
        n if n < 8 => unreachable!("reserved kind {n}"),
        _ => panic!("unknown frame kind"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_assert_at_will() {
        assert_eq!(super::header(&[f32::from_bits(2), 0.0], 2), (2, 0));
    }
}
