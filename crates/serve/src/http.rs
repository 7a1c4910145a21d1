//! A minimal, defensive HTTP/1.1 layer over `std` only.
//!
//! This file is inside fairlint's S2 scope: it parses **untrusted network
//! input**, so every path returns a typed [`ParseError`] instead of
//! panicking — no `unwrap`/`expect`/`panic!`/slice indexing that can trip.
//! Limits are enforced before allocation-heavy work: request heads are
//! capped at [`MAX_HEAD_BYTES`], targets at [`MAX_TARGET_BYTES`], and
//! header counts at [`MAX_HEADERS`]; oversized or malformed input fails
//! fast with a typed error the server maps to `400`/`431`.

use std::sync::Arc;

/// Maximum bytes of request head (request line + headers) accepted.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum header lines accepted.
pub const MAX_HEADERS: usize = 64;
/// Maximum bytes of request target (path + query) accepted.
pub const MAX_TARGET_BYTES: usize = 4096;

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// The target was not an origin-form path or exceeded the cap.
    BadTarget,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line had no `:` separator.
    BadHeader,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ParseError::HeadTooLarge => write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes"),
            ParseError::BadRequestLine => write!(f, "malformed request line"),
            ParseError::BadTarget => write!(f, "malformed request target"),
            ParseError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            ParseError::BadHeader => write!(f, "malformed header line"),
        }
    }
}

/// A parsed request head. Bodies are not modeled — every endpoint this
/// service exposes is parameterized entirely by the target.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Request method, upper-cased as sent (`GET`, `POST`, …).
    pub method: String,
    /// Percent-decoded path component (always starts with `/`).
    pub path: String,
    /// Percent-decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Header `(name, value)` pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Whether the request line claimed HTTP/1.1 or later (anything but
    /// `HTTP/1.0`); drives the keep-alive default.
    pub version_11: bool,
}

impl Request {
    /// First query parameter named `name` (exact match).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked (or defaulted) to keep the connection
    /// open after the response. `Connection: close` always wins; an
    /// explicit `keep-alive` token opts in; otherwise HTTP/1.1 defaults
    /// to keep-alive and HTTP/1.0 to close.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(value) => {
                let mut close = false;
                let mut keep = false;
                for token in value.split(',') {
                    let token = token.trim();
                    close |= token.eq_ignore_ascii_case("close");
                    keep |= token.eq_ignore_ascii_case("keep-alive");
                }
                !close && (keep || self.version_11)
            }
            None => self.version_11,
        }
    }

    /// Whether the request claims to carry a body. Bodies are not modeled
    /// (no endpoint takes one), so the connection layer uses this to fall
    /// back to close-after-response rather than desynchronize the stream.
    pub fn has_body(&self) -> bool {
        let length = self
            .header("content-length")
            .map(|v| v.trim() != "0")
            .unwrap_or(false);
        length || self.header("transfer-encoding").is_some()
    }
}

/// Locates the first complete request head in `buf`, returning
/// `(head_len, consumed)`: the head's byte length (terminator excluded)
/// and the total bytes consumed including the terminator. This is the
/// pipelining primitive — the connection layer parses `buf[..head_len]`,
/// drops `consumed` bytes, and repeats while more full heads are buffered.
///
/// Both `\r\n\r\n` and the lenient bare `\n\n` terminate a head; whichever
/// ends *earliest* wins, so a strictly-terminated head queued behind a
/// leniently-terminated one is never swallowed into its predecessor.
pub fn split_head(buf: &[u8]) -> Option<(usize, usize)> {
    let crlf = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|p| (p, p + 4));
    let lf = buf
        .windows(2)
        .position(|w| w == b"\n\n")
        .map(|p| (p, p + 2));
    match (crlf, lf) {
        (Some((h4, c4)), Some((h2, c2))) => {
            if c2 < c4 {
                Some((h2, c2))
            } else {
                Some((h4, c4))
            }
        }
        (Some(found), None) | (None, Some(found)) => Some(found),
        (None, None) => None,
    }
}

/// Parses a request head (request line + header lines, no body).
/// Total function: for any byte string it returns `Ok` or a typed error.
pub fn parse_request(head: &[u8]) -> Result<Request, ParseError> {
    if head.len() > MAX_HEAD_BYTES {
        return Err(ParseError::HeadTooLarge);
    }
    let text = String::from_utf8_lossy(head);
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().ok_or(ParseError::BadRequestLine)?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts.next().ok_or(ParseError::BadRequestLine)?;
    let target = parts.next().ok_or(ParseError::BadRequestLine)?;
    let version = parts.next().ok_or(ParseError::BadRequestLine)?;
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequestLine);
    }
    if method.is_empty() || !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(ParseError::BadRequestLine);
    }
    if target.len() > MAX_TARGET_BYTES || !target.starts_with('/') {
        return Err(ParseError::BadTarget);
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path);
    if path.bytes().any(|b| b < 0x20) {
        return Err(ParseError::BadTarget);
    }
    let query = raw_query.map(parse_query).unwrap_or_default();

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::TooManyHeaders);
        }
        let (name, value) = line.split_once(':').ok_or(ParseError::BadHeader)?;
        let name = name.trim();
        if name.is_empty() || name.bytes().any(|b| b <= 0x20 || b == b':') {
            return Err(ParseError::BadHeader);
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        version_11: version != "HTTP/1.0",
    })
}

/// Splits `a=1&b=two` into decoded pairs; a key without `=` gets an
/// empty value; empty segments are skipped.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|seg| !seg.is_empty())
        .map(|seg| match seg.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(seg), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space. Invalid escapes are kept
/// literally (lenient — a decoder must never fail on attacker bytes);
/// non-UTF-8 results are replaced lossily.
fn percent_decode(raw: &str) -> String {
    let bytes = raw.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        b @ b'0'..=b'9' => Some(b - b'0'),
        b @ b'a'..=b'f' => Some(b - b'a' + 10),
        b @ b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// A response body: either owned bytes (per-request documents) or a
/// shared reference into the result cache. The shared form is what makes
/// the warm path copy-free — the connection layer serializes the head and
/// hands the `Arc`'d body to a vectored write, so a cache hit never
/// duplicates the payload.
#[derive(Clone, Debug)]
pub enum Body {
    /// Owned bytes.
    Bytes(Vec<u8>),
    /// A shared immutable cached body, served without copying.
    Shared(Arc<Vec<u8>>),
}

impl Body {
    /// The body bytes, whichever representation holds them.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            Body::Bytes(v) => v,
            Body::Shared(a) => a,
        }
    }

    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Extracts owned bytes (clones only when the cache still shares them).
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            Body::Bytes(v) => v,
            Body::Shared(a) => Arc::try_unwrap(a).unwrap_or_else(|a| a.as_ref().clone()),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Body {}

impl From<Vec<u8>> for Body {
    fn from(v: Vec<u8>) -> Body {
        Body::Bytes(v)
    }
}

impl From<String> for Body {
    fn from(s: String) -> Body {
        Body::Bytes(s.into_bytes())
    }
}

impl From<&str> for Body {
    fn from(s: &str) -> Body {
        Body::Bytes(s.as_bytes().to_vec())
    }
}

impl From<Arc<Vec<u8>>> for Body {
    fn from(a: Arc<Vec<u8>>) -> Body {
        Body::Shared(a)
    }
}

/// An HTTP response ready to serialize. The `Connection` header is chosen
/// at serialization time ([`Response::head_bytes`]) — the same response
/// value can close a one-shot connection or ride a keep-alive stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, 404, 429, 503, …).
    pub status: u16,
    /// Extra headers beyond the always-present set.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Body,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Body>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".to_string(), "application/json".to_string())],
            body: body.into(),
        }
    }

    /// A JSON error response `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let body = fair_simlab::json::Json::obj()
            .field("error", fair_simlab::json::Json::str(message))
            .render()
            + "\n";
        Response::json(status, body)
    }

    /// Adds a header, builder-style.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The canonical reason phrase for the status line.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serializes the status line and headers only — custom headers in
    /// order, then `Content-Length`, then the `Connection` disposition,
    /// then the blank line. The body is deliberately absent so the
    /// connection layer can gather head + shared body in one vectored
    /// write without copying cached bytes.
    pub fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).into_bytes();
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(format!("Content-Length: {}\r\n", self.body.len()).as_bytes());
        if keep_alive {
            out.extend_from_slice(b"Connection: keep-alive\r\n\r\n");
        } else {
            out.extend_from_slice(b"Connection: close\r\n\r\n");
        }
        out
    }

    /// Serializes status line, headers (with `Content-Length` and
    /// `Connection: close`), and body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.head_bytes(false);
        out.extend_from_slice(self.body.as_slice());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Request, ParseError> {
        parse_request(s.as_bytes())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nX-A: b\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.query.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("x-a"), Some("b"));
        assert_eq!(req.header("missing"), None);
    }

    #[test]
    fn parses_query_parameters_with_decoding() {
        let req = parse("GET /estimate?exp=e1&trials=100&seed=7&x=a%20b+c HTTP/1.1\r\n").unwrap();
        assert_eq!(req.path, "/estimate");
        assert_eq!(req.query_param("exp"), Some("e1"));
        assert_eq!(req.query_param("trials"), Some("100"));
        assert_eq!(req.query_param("seed"), Some("7"));
        assert_eq!(req.query_param("x"), Some("a b c"));
        assert_eq!(req.query_param("nope"), None);
    }

    #[test]
    fn lenient_on_invalid_percent_escapes() {
        let req = parse("GET /p?k=%zz%2 HTTP/1.1\r\n").unwrap();
        assert_eq!(req.query_param("k"), Some("%zz%2"));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            "",
            "GET\r\n",
            "GET /\r\n",
            "GET / HTTP/2\r\n",
            "GET / HTTP/1.1 extra\r\n",
            "G=T / HTTP/1.1\r\n",
            "GET nopath HTTP/1.1\r\n",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_oversized_and_overfull_heads() {
        let long_target = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_TARGET_BYTES));
        assert_eq!(parse(&long_target), Err(ParseError::BadTarget));
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        assert_eq!(parse(&many), Err(ParseError::TooManyHeaders));
        let huge = vec![b'a'; MAX_HEAD_BYTES + 1];
        assert_eq!(parse_request(&huge), Err(ParseError::HeadTooLarge));
    }

    #[test]
    fn response_serialization_has_length_and_close() {
        let resp = Response::json(200, "{}\n").with_header("X-Cache", "hit");
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("X-Cache: hit\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n\r\n{}\n"));
        let err = Response::error(429, "overloaded");
        assert_eq!(err.status, 429);
        assert_eq!(err.reason(), "Too Many Requests");
        assert!(String::from_utf8(err.body.into_vec())
            .unwrap()
            .contains("overloaded"));
    }

    #[test]
    fn keep_alive_serialization_differs_only_in_connection() {
        let resp = Response::json(200, "{}\n");
        let close = String::from_utf8(resp.head_bytes(false)).unwrap();
        let keep = String::from_utf8(resp.head_bytes(true)).unwrap();
        assert!(close.ends_with("Connection: close\r\n\r\n"));
        assert!(keep.ends_with("Connection: keep-alive\r\n\r\n"));
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
    }

    #[test]
    fn shared_and_owned_bodies_serialize_identically() {
        let bytes = b"{\"v\":1}\n".to_vec();
        let owned = Response::json(200, bytes.clone());
        let shared = Response::json(200, Arc::new(bytes));
        assert_eq!(owned.to_bytes(), shared.to_bytes());
        assert_eq!(owned.body, shared.body);
        assert_eq!(shared.body.len(), 8);
    }

    #[test]
    fn split_head_finds_each_pipelined_head_in_turn() {
        let buf = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nHost: x\r\n\r\ntail";
        let (head_len, consumed) = split_head(buf).unwrap();
        assert_eq!(&buf[..head_len], b"GET /a HTTP/1.1");
        let rest = &buf[consumed..];
        let (head2, consumed2) = split_head(rest).unwrap();
        assert_eq!(&rest[..head2], b"GET /b HTTP/1.1\r\nHost: x");
        assert_eq!(&rest[consumed2..], b"tail");
        assert_eq!(split_head(b"GET / HTTP/1.1\r\nHost"), None);
    }

    #[test]
    fn split_head_prefers_the_earlier_terminator() {
        // A lenient \n\n head queued before a strict \r\n\r\n head must
        // split at the \n\n, not swallow both requests into one head.
        let buf = b"GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n";
        let (head_len, consumed) = split_head(buf).unwrap();
        assert_eq!(&buf[..head_len], b"GET /a HTTP/1.1");
        assert_eq!(consumed, head_len + 2);
    }

    #[test]
    fn keep_alive_detection_follows_version_and_header() {
        let req = |head: &str| parse_request(head.as_bytes()).unwrap();
        assert!(req("GET / HTTP/1.1\r\n").wants_keep_alive());
        assert!(!req("GET / HTTP/1.0\r\n").wants_keep_alive());
        assert!(!req("GET / HTTP/1.1\r\nConnection: close\r\n").wants_keep_alive());
        assert!(req("GET / HTTP/1.0\r\nConnection: keep-alive\r\n").wants_keep_alive());
        assert!(!req("GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n").wants_keep_alive());
        assert!(!req("GET / HTTP/1.1\r\nConnection: CLOSE\r\n").wants_keep_alive());
    }

    #[test]
    fn body_detection_flags_nonzero_length_and_chunked() {
        let req = |head: &str| parse_request(head.as_bytes()).unwrap();
        assert!(!req("GET / HTTP/1.1\r\n").has_body());
        assert!(!req("GET / HTTP/1.1\r\nContent-Length: 0\r\n").has_body());
        assert!(req("GET / HTTP/1.1\r\nContent-Length: 3\r\n").has_body());
        assert!(req("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n").has_body());
    }
}
