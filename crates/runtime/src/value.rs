//! The universal value type exchanged between protocols, functionalities and
//! the fairness harness.
//!
//! Protocol outputs in the paper are bit strings or ⊥; we add a scalar
//! variant for convenience (field elements, coin-toss results, indices) and
//! a pair for multi-component outputs.

use core::fmt;

use fair_trace::wire::{bytes_len, WireLen, INT, LEN_PREFIX, TAG};

/// A protocol input/output value.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Value {
    /// ⊥ — no output (abort).
    Bot,
    /// A scalar (field element, coin, index, …).
    Scalar(u64),
    /// An opaque bit string.
    Bytes(Vec<u8>),
    /// An ordered pair of values.
    Pair(Box<Value>, Box<Value>),
    /// An ordered tuple of values (used for per-party output vectors).
    Tuple(Vec<Value>),
}

impl Value {
    /// Convenience constructor for a pair.
    pub fn pair(a: Value, b: Value) -> Value {
        Value::Pair(Box::new(a), Box::new(b))
    }

    /// Whether this value is ⊥.
    pub fn is_bot(&self) -> bool {
        matches!(self, Value::Bot)
    }

    /// Extracts a scalar, if this is one.
    pub fn as_scalar(&self) -> Option<u64> {
        match self {
            Value::Scalar(x) => Some(*x),
            _ => None,
        }
    }

    /// Extracts the byte string, if this is one.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

impl Value {
    /// Canonical, injective byte encoding (tag byte + length-prefixed
    /// parts). Used wherever a value must be signed, MACed or committed to.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Parses a canonical encoding produced by [`Value::encode`]; `None`
    /// on malformed or trailing input.
    pub fn decode(bytes: &[u8]) -> Option<Value> {
        let (v, rest) = Value::decode_prefix(bytes)?;
        if rest.is_empty() {
            Some(v)
        } else {
            None
        }
    }

    fn decode_prefix(bytes: &[u8]) -> Option<(Value, &[u8])> {
        let (&tag, rest) = bytes.split_first()?;
        match tag {
            0 => Some((Value::Bot, rest)),
            1 => {
                if rest.len() < 8 {
                    return None;
                }
                let (x, rest) = rest.split_at(8);
                Some((Value::Scalar(u64::from_be_bytes(x.try_into().ok()?)), rest))
            }
            2 => {
                if rest.len() < 8 {
                    return None;
                }
                let (l, rest) = rest.split_at(8);
                let len = u64::from_be_bytes(l.try_into().ok()?) as usize;
                if rest.len() < len {
                    return None;
                }
                let (b, rest) = rest.split_at(len);
                Some((Value::Bytes(b.to_vec()), rest))
            }
            3 => {
                if rest.len() < 8 {
                    return None;
                }
                let (l, rest) = rest.split_at(8);
                let len = u64::from_be_bytes(l.try_into().ok()?) as usize;
                if rest.len() < len {
                    return None;
                }
                let (ea, rest) = rest.split_at(len);
                let a = Value::decode(ea)?;
                let (b, rest) = Value::decode_prefix(rest)?;
                Some((Value::pair(a, b), rest))
            }
            4 => {
                if rest.len() < 8 {
                    return None;
                }
                let (c, mut rest) = rest.split_at(8);
                let count = u64::from_be_bytes(c.try_into().ok()?) as usize;
                let mut vs = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    if rest.len() < 8 {
                        return None;
                    }
                    let (l, r) = rest.split_at(8);
                    let len = u64::from_be_bytes(l.try_into().ok()?) as usize;
                    if r.len() < len {
                        return None;
                    }
                    let (ev, r) = r.split_at(len);
                    vs.push(Value::decode(ev)?);
                    rest = r;
                }
                Some((Value::Tuple(vs), rest))
            }
            _ => None,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Bot => out.push(0),
            Value::Scalar(x) => {
                out.push(1);
                out.extend_from_slice(&x.to_be_bytes());
            }
            Value::Bytes(b) => {
                out.push(2);
                out.extend_from_slice(&(b.len() as u64).to_be_bytes());
                out.extend_from_slice(b);
            }
            Value::Pair(a, b) => {
                out.push(3);
                let ea = a.encode();
                out.extend_from_slice(&(ea.len() as u64).to_be_bytes());
                out.extend_from_slice(&ea);
                b.encode_into(out);
            }
            Value::Tuple(vs) => {
                out.push(4);
                out.extend_from_slice(&(vs.len() as u64).to_be_bytes());
                for v in vs {
                    let ev = v.encode();
                    out.extend_from_slice(&(ev.len() as u64).to_be_bytes());
                    out.extend_from_slice(&ev);
                }
            }
        }
    }
}

impl Value {
    /// Encoded size of a `Value::Bytes` of `n` bytes.
    pub const fn bytes_wire_len(n: usize) -> usize {
        TAG + bytes_len(n)
    }

    /// Encoded size of a `Value::Pair` of values of the given sizes.
    pub const fn pair_wire_len(a: usize, b: usize) -> usize {
        TAG + a + b
    }

    /// Encoded size of a `Value::Tuple` of values of the given sizes.
    pub fn tuple_wire_len(elems: impl IntoIterator<Item = usize>) -> usize {
        TAG + LEN_PREFIX + elems.into_iter().sum::<usize>()
    }
}

/// One tag byte, then the variant's fields: a scalar is one integer, a byte
/// string is length-prefixed, a pair is its two values back to back, and a
/// tuple is an element count followed by its values. Types that stand in
/// for a `Value` layout size themselves through [`Value::bytes_wire_len`],
/// [`Value::pair_wire_len`] and [`Value::tuple_wire_len`].
impl WireLen for Value {
    fn wire_len(&self) -> usize {
        match self {
            Value::Bot => TAG,
            Value::Scalar(_) => TAG + INT,
            Value::Bytes(b) => Value::bytes_wire_len(b.len()),
            Value::Pair(a, b) => Value::pair_wire_len(a.wire_len(), b.wire_len()),
            Value::Tuple(vs) => Value::tuple_wire_len(vs.iter().map(WireLen::wire_len)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bot => write!(f, "⊥"),
            Value::Scalar(x) => write!(f, "{x}"),
            Value::Bytes(b) => {
                write!(f, "0x")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                Ok(())
            }
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::Tuple(vs) => {
                write!(f, "(")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<u64> for Value {
    fn from(x: u64) -> Value {
        Value::Scalar(x)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Value {
        Value::Bytes(b)
    }
}

impl From<&[u8]> for Value {
    fn from(b: &[u8]) -> Value {
        Value::Bytes(b.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert!(Value::Bot.is_bot());
        assert!(!Value::Scalar(0).is_bot());
        assert_eq!(Value::Scalar(7).as_scalar(), Some(7));
        assert_eq!(Value::Bot.as_scalar(), None);
        assert_eq!(Value::Bytes(vec![1]).as_bytes(), Some(&[1u8][..]));
        assert_eq!(Value::Scalar(1).as_bytes(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Bot.to_string(), "⊥");
        assert_eq!(Value::Scalar(5).to_string(), "5");
        assert_eq!(Value::Bytes(vec![0xab, 0x01]).to_string(), "0xab01");
        assert_eq!(
            Value::pair(Value::Scalar(1), Value::Bot).to_string(),
            "(1, ⊥)"
        );
        assert_eq!(
            Value::Tuple(vec![Value::Scalar(1), Value::Scalar(2)]).to_string(),
            "(1, 2)"
        );
    }

    #[test]
    fn decode_inverts_encode() {
        let samples = vec![
            Value::Bot,
            Value::Scalar(u64::MAX),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0, 1, 255]),
            Value::pair(Value::Bytes(vec![9]), Value::Scalar(1)),
            Value::pair(
                Value::pair(Value::Bot, Value::Scalar(2)),
                Value::Bytes(vec![3]),
            ),
            Value::Tuple(vec![]),
            Value::Tuple(vec![Value::Scalar(1), Value::Bot, Value::Bytes(vec![7, 7])]),
        ];
        for v in samples {
            assert_eq!(Value::decode(&v.encode()), Some(v.clone()), "{v}");
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        assert_eq!(Value::decode(&[]), None);
        assert_eq!(Value::decode(&[9]), None, "unknown tag");
        assert_eq!(Value::decode(&[1, 0, 0]), None, "truncated scalar");
        let mut good = Value::Scalar(5).encode();
        good.push(0);
        assert_eq!(Value::decode(&good), None, "trailing bytes");
        assert_eq!(
            Value::decode(&[2, 0, 0, 0, 0, 0, 0, 0, 9, 1]),
            None,
            "short bytes body"
        );
    }

    #[test]
    fn encoding_is_injective_on_samples() {
        let samples = vec![
            Value::Bot,
            Value::Scalar(0),
            Value::Scalar(1),
            Value::Bytes(vec![]),
            Value::Bytes(vec![0]),
            Value::Bytes(vec![1]),
            Value::Bytes(vec![0, 0]),
            Value::pair(Value::Scalar(1), Value::Scalar(2)),
            Value::pair(Value::Scalar(2), Value::Scalar(1)),
            Value::Tuple(vec![Value::Scalar(1), Value::Scalar(2)]),
            Value::Tuple(vec![Value::pair(Value::Scalar(1), Value::Scalar(2))]),
            Value::Tuple(vec![]),
        ];
        for (i, a) in samples.iter().enumerate() {
            for (j, b) in samples.iter().enumerate() {
                if i != j {
                    assert_ne!(a.encode(), b.encode(), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn wire_len_follows_the_encoding_rule() {
        assert_eq!(Value::Bot.wire_len(), 1);
        assert_eq!(Value::Scalar(u64::MAX).wire_len(), 1 + 8);
        assert_eq!(Value::Bytes(vec![0; 10]).wire_len(), 1 + 4 + 10);
        assert_eq!(
            Value::pair(Value::Scalar(1), Value::Bot).wire_len(),
            1 + 9 + 1
        );
        assert_eq!(
            Value::Tuple(vec![Value::Scalar(1), Value::Bytes(vec![7])]).wire_len(),
            1 + 4 + 9 + 6
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(4u64), Value::Scalar(4));
        assert_eq!(Value::from(vec![1u8, 2]), Value::Bytes(vec![1, 2]));
        assert_eq!(Value::from(&[3u8][..]), Value::Bytes(vec![3]));
    }
}
