//! Property tests for the HTTP request parser: it faces raw network
//! bytes, so the properties that matter are *totality* (never panics, for
//! any input), *faithfulness* (well-formed requests round-trip), and —
//! for the pipelining primitive `split_head` — that walking a buffer of
//! concatenated requests recovers each one exactly, regardless of how
//! the bytes were chopped into reads.

use fair_serve::http::{parse_request, split_head, MAX_HEAD_BYTES};
use proptest::collection;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Totality: arbitrary byte soup yields `Ok` or a typed error —
    /// the parser must never panic on attacker-controlled input.
    #[test]
    fn arbitrary_bytes_never_panic(head in collection::vec(any::<u8>(), 0..2048)) {
        let _ = parse_request(&head);
    }

    /// Totality on *almost-valid* input: a plausible request line with
    /// random target and header bytes spliced in.
    #[test]
    fn fuzzed_targets_and_headers_never_panic(
        target in collection::vec(any::<u8>(), 0..512),
        header in collection::vec(any::<u8>(), 0..256),
    ) {
        let mut head = b"GET /".to_vec();
        head.extend_from_slice(&target);
        head.extend_from_slice(b" HTTP/1.1\r\n");
        head.extend_from_slice(&header);
        head.extend_from_slice(b"\r\n");
        let _ = parse_request(&head);
    }

    /// Faithful round-trip: a well-formed request built from restricted
    /// alphabets parses back to exactly its components.
    #[test]
    fn well_formed_requests_round_trip(
        seg in collection::vec(0..36u8, 1..12),
        key in collection::vec(0..36u8, 1..8),
        value in collection::vec(0..36u8, 0..8),
        hname in collection::vec(0..26u8, 1..10),
        hvalue in collection::vec(0..36u8, 0..12),
    ) {
        let alnum = |digits: &[u8]| -> String {
            digits
                .iter()
                .map(|d| char::from(if *d < 10 { b'0' + d } else { b'a' + d - 10 }))
                .collect()
        };
        let (seg, key, value) = (alnum(&seg), alnum(&key), alnum(&value));
        let (hname, hvalue) = (alnum(&hname), alnum(&hvalue));
        let head = format!("GET /{seg}?{key}={value} HTTP/1.1\r\n{hname}: {hvalue}\r\n");
        let req = parse_request(head.as_bytes()).expect("well-formed request parses");
        prop_assert_eq!(&req.method, "GET");
        prop_assert_eq!(&req.path, &format!("/{seg}"));
        prop_assert_eq!(req.query_param(&key), Some(value.as_str()));
        prop_assert_eq!(req.header(&hname), Some(hvalue.as_str()));
    }

    /// Header splitting: N well-formed header lines all survive, in order.
    #[test]
    fn header_lines_split_correctly(count in 0..20usize) {
        let mut head = String::from("GET / HTTP/1.1\r\n");
        for i in 0..count {
            head.push_str(&format!("x-h{i}: v{i}\r\n"));
        }
        let req = parse_request(head.as_bytes()).expect("parses");
        prop_assert_eq!(req.headers.len(), count);
        for (i, (name, value)) in req.headers.iter().enumerate() {
            prop_assert_eq!(name, &format!("x-h{i}"));
            prop_assert_eq!(value, &format!("v{i}"));
        }
    }

    /// Oversized requests fail with a typed error (never a panic, never
    /// an unbounded allocation): pad the head past the cap.
    #[test]
    fn oversized_requests_are_rejected(extra in 1..4096usize) {
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.resize(MAX_HEAD_BYTES + extra, b'x');
        prop_assert!(parse_request(&head).is_err());
    }

    /// Totality of the pipelining splitter on arbitrary bytes, plus its
    /// progress invariants: the consumed prefix always covers the head,
    /// never exceeds the buffer, and always advances.
    #[test]
    fn split_head_is_total_and_always_advances(buf in collection::vec(any::<u8>(), 0..2048)) {
        if let Some((head_len, consumed)) = split_head(&buf) {
            prop_assert!(head_len < consumed, "terminator is consumed but not in the head");
            prop_assert!(consumed <= buf.len());
            prop_assert!(consumed >= 2, "a terminator is at least \\n\\n");
        }
    }

    /// Pipelining: N well-formed requests concatenated into one buffer
    /// split back into exactly N parseable heads with the right targets,
    /// however the batch is composed — the parser-state-reuse property
    /// the event loop's per-connection buffer relies on.
    #[test]
    fn concatenated_requests_split_back_into_each_head(
        seeds in collection::vec(0..1000u32, 1..8),
        trailing in collection::vec(any::<u8>(), 0..10),
    ) {
        let mut wire = Vec::new();
        for seed in &seeds {
            wire.extend_from_slice(
                format!("GET /estimate?seed={seed} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes(),
            );
        }
        // A torn tail (the next request still in flight) must not
        // disturb the complete heads before it.
        wire.extend_from_slice(b"GET /tor");
        wire.extend_from_slice(&trailing);

        let mut rest: &[u8] = &wire;
        for (i, seed) in seeds.iter().enumerate() {
            let (head_len, consumed) = split_head(rest)
                .unwrap_or_else(|| panic!("request {i} has a complete head"));
            let req = parse_request(&rest[..head_len]).expect("well-formed");
            prop_assert_eq!(&req.path, "/estimate");
            prop_assert_eq!(req.query_param("seed"), Some(seed.to_string().as_str()));
            prop_assert!(req.wants_keep_alive());
            rest = &rest[consumed..];
        }
        // The torn tail never yields a head unless the random bytes
        // happened to complete one; if they did, it must parse totally.
        if let Some((head_len, _)) = split_head(rest) {
            let _ = parse_request(&rest[..head_len]);
        }
    }
}
