//! Encoded wire sizes of protocol messages.
//!
//! The workspace has no serialization layer — messages travel between
//! party machines as Rust values — so the engine asks each message for the
//! size it *would* have on the wire under one fixed encoding rule:
//!
//! * a 1-byte tag per enum variant ([`TAG`]);
//! * 8 bytes per integer ([`INT`]);
//! * a 4-byte length prefix per variable-length field ([`LEN_PREFIX`]);
//! * byte strings count their bytes, bit vectors pack into ⌈n/8⌉ bytes.
//!
//! A commitment counts its digest and an opening two byte strings; Lamport
//! keys and signatures, MAC tags and authenticated shares count as their
//! own `to_bytes` encoding, and a share holding as its share plus the
//! 16-byte MAC key. A trusted functionality's typed per-party output counts
//! as the `Value` layout it stands in for.
//!
//! [`WireLen::wire_len`] is pure arithmetic over lengths: it never
//! allocates or formats, so counting bytes costs next to nothing even for
//! messages carrying kilobytes of Lamport key material.

/// Bytes of an enum variant tag.
pub const TAG: usize = 1;
/// Bytes of an integer.
pub const INT: usize = 8;
/// Bytes of the length prefix in front of a variable-length field.
pub const LEN_PREFIX: usize = 4;

/// Encoded size of a variable-length field of `n` bytes.
pub const fn bytes_len(n: usize) -> usize {
    LEN_PREFIX + n
}

/// Encoded size of a variable-length field of `n` packed bits.
pub const fn bits_len(n: usize) -> usize {
    LEN_PREFIX + n.div_ceil(8)
}

/// A value with a known encoded size under the module's encoding rule.
pub trait WireLen {
    /// The value's encoded size in bytes.
    fn wire_len(&self) -> usize;
}

impl WireLen for () {
    fn wire_len(&self) -> usize {
        0
    }
}

impl WireLen for bool {
    fn wire_len(&self) -> usize {
        1
    }
}

impl WireLen for u64 {
    fn wire_len(&self) -> usize {
        INT
    }
}

impl WireLen for usize {
    fn wire_len(&self) -> usize {
        INT
    }
}

impl WireLen for Vec<u8> {
    fn wire_len(&self) -> usize {
        bytes_len(self.len())
    }
}

impl WireLen for Vec<bool> {
    fn wire_len(&self) -> usize {
        bits_len(self.len())
    }
}

impl<T: WireLen> WireLen for Option<T> {
    fn wire_len(&self) -> usize {
        TAG + self.as_ref().map_or(0, WireLen::wire_len)
    }
}

impl<A: WireLen, B: WireLen> WireLen for (A, B) {
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len()
    }
}

impl<A: WireLen, B: WireLen, C: WireLen> WireLen for (A, B, C) {
    fn wire_len(&self) -> usize {
        self.0.wire_len() + self.1.wire_len() + self.2.wire_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_and_unit() {
        assert_eq!(().wire_len(), 0);
        assert_eq!(true.wire_len(), 1);
        assert_eq!(7u64.wire_len(), 8);
        assert_eq!(7usize.wire_len(), 8);
    }

    #[test]
    fn byte_strings_count_bytes_plus_prefix() {
        assert_eq!(Vec::<u8>::new().wire_len(), 4);
        assert_eq!(vec![0u8; 100].wire_len(), 104);
    }

    #[test]
    fn bit_vectors_pack() {
        assert_eq!(Vec::<bool>::new().wire_len(), 4);
        assert_eq!(vec![true; 1].wire_len(), 5);
        assert_eq!(vec![true; 8].wire_len(), 5);
        assert_eq!(vec![false; 9].wire_len(), 6);
    }

    #[test]
    fn options_and_tuples() {
        assert_eq!(None::<u64>.wire_len(), 1);
        assert_eq!(Some(3u64).wire_len(), 9);
        assert_eq!((1u64, true).wire_len(), 9);
        assert_eq!((1u64, vec![0u8; 3], false).wire_len(), 8 + 7 + 1);
    }
}
