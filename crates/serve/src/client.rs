//! A minimal blocking HTTP/1.1 client over `std::net::TcpStream` —
//! just enough for `fair-load`, CI smoke checks, and the e2e tests to
//! talk to a `fair-serve` instance without any external dependency.
//!
//! One reply reader: [`Conn::recv`] frames each reply from its head — by
//! `Content-Length`, or through the incremental [`Dechunker`] when the
//! reply is `Transfer-Encoding: chunked` (`/stream`) — and keeps any bytes
//! past it for the next call. So one keep-alive socket carries pipelined
//! batches ([`Conn::send_many`]) whatever their framing, and the one-shot
//! helpers ([`get`] / [`post`] / [`request`]) are a single `Conn` exchange
//! sent with `Connection: close`. [`HttpReply::body`] is always the
//! logical payload, chunk framing stripped.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed HTTP reply.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// Status code from the status line.
    pub status: u16,
    /// Header `(name, value)` pairs in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Body bytes (everything after the blank line).
    pub body: Vec<u8>,
}

impl HttpReply {
    /// First header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Issues `GET <target>` against `addr` and reads the full reply.
pub fn get(addr: SocketAddr, target: &str) -> std::io::Result<HttpReply> {
    request(addr, "GET", target, Duration::from_secs(30))
}

/// Issues `POST <target>` against `addr` and reads the full reply.
pub fn post(addr: SocketAddr, target: &str) -> std::io::Result<HttpReply> {
    request(addr, "POST", target, Duration::from_secs(30))
}

/// Issues one `Connection: close` request with an explicit socket timeout.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    timeout: Duration,
) -> std::io::Result<HttpReply> {
    let mut conn = Conn::connect(addr, timeout)?;
    let head = request_head(method, target, addr, true);
    conn.stream.write_all(head.as_bytes())?;
    conn.recv()
}

/// Serializes one body-less request head.
fn request_head(method: &str, target: &str, addr: SocketAddr, close: bool) -> String {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\n{connection}\r\n")
}

/// A persistent keep-alive connection to one server.
///
/// Requests go out with `Connection: keep-alive` semantics (HTTP/1.1
/// default). [`send_many`](Conn::send_many) writes a whole pipelined batch
/// in one syscall; call [`recv`](Conn::recv) once per request, in order.
pub struct Conn {
    stream: TcpStream,
    addr: SocketAddr,
    /// Bytes read past the end of the previous reply.
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with `timeout` applied to connect, reads, and writes.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            addr,
            buf: Vec::new(),
        })
    }

    /// Sends one `GET <target>` without waiting for the reply.
    pub fn send(&mut self, target: &str) -> std::io::Result<()> {
        self.send_many(&[target])
    }

    /// Pipelines a batch: every request head in one write. The server
    /// answers them in order; call [`recv`](Conn::recv) once per target.
    pub fn send_many(&mut self, targets: &[&str]) -> std::io::Result<()> {
        let batch: String = targets
            .iter()
            .map(|target| request_head("GET", target, self.addr, false))
            .collect();
        self.stream.write_all(batch.as_bytes())
    }

    /// Reads exactly one reply, keeping any bytes past it for the next
    /// call. The head decides the framing: a `Transfer-Encoding: chunked`
    /// body ends at its terminal chunk (lenient on a mid-stream close:
    /// every complete chunk received is returned); otherwise the body is
    /// `Content-Length` bytes.
    pub fn recv(&mut self) -> std::io::Result<HttpReply> {
        read_reply(&mut self.stream, &mut self.buf)
    }
}

/// Reads one reply from `reader`, with `buf` holding bytes already read
/// past the previous reply on entry and past this one on return.
fn read_reply(reader: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<HttpReply> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        fill(reader, buf)?;
    };
    let (status, headers) = parse_status_and_headers(buf.get(..head_end).unwrap_or_default())?;
    buf.drain(..head_end + 4);
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    };
    let body = if header("transfer-encoding").is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        let mut decoder = Dechunker::new();
        let mut body = Vec::new();
        loop {
            let consumed = decoder.push(buf, &mut body);
            buf.drain(..consumed);
            if decoder.done() {
                break;
            }
            match fill(reader, buf) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
                Err(e) => return Err(e),
            }
        }
        body
    } else {
        let length: usize = header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("reply has neither Content-Length nor chunked framing"))?;
        while buf.len() < length {
            fill(reader, buf)?;
        }
        buf.drain(..length).collect()
    };
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

/// Appends one read's worth of bytes to `buf`; EOF is an error.
fn fill(reader: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = reader.read(&mut chunk)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-reply",
        ));
    }
    buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    Ok(())
}

/// Parses a reply head (status line + headers, no terminator).
fn parse_status_and_headers(head: &[u8]) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
    let head = String::from_utf8_lossy(head);
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty reply"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|line| {
            line.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();
    Ok((status, headers))
}

/// A size line (plus any chunk extensions) longer than this is treated as
/// malformed framing; real size lines are a few bytes.
const MAX_SIZE_LINE: usize = 256;

enum ChunkState {
    /// Accumulating a size line (hex count, optional `;ext` chunk
    /// extensions, CRLF terminator) — possibly across several feeds.
    Size,
    /// Collecting the current chunk's payload; `remaining` bytes to go.
    Data { remaining: usize },
    /// Skipping the CRLF that closes a chunk's payload.
    Skip { left: usize },
    /// Saw the terminal zero-size chunk: consuming trailer lines until the
    /// blank line that ends the message, so a keep-alive socket is left
    /// positioned at the next reply.
    Trailer,
    /// The message (or decoding, on bad framing) is over.
    Done,
}

/// An incremental chunked-transfer decoder.
///
/// Feed it wire bytes in arbitrary pieces with [`push`](Dechunker::push);
/// every chunk that *completes* is appended to the caller's output. The
/// decoder carries its state across feeds, so a size line torn at a read
/// boundary (`"1a;ex"` now, `"t=1\r\n…"` later) or a payload spread over
/// many reads decodes exactly as if the stream had arrived whole.
///
/// Lenient by design, like the rest of this client: chunk extensions after
/// `;` are skipped, malformed framing ends decoding (keeping the decoded
/// prefix) instead of erroring, and a stream cut mid-chunk yields every
/// complete frame received — torn chunks are buffered internally and only
/// flushed once their full payload has arrived.
pub struct Dechunker {
    state: ChunkState,
    line: Vec<u8>,
    chunk: Vec<u8>,
}

impl Default for Dechunker {
    fn default() -> Dechunker {
        Dechunker::new()
    }
}

impl Dechunker {
    /// A decoder at the start of a chunked body.
    pub fn new() -> Dechunker {
        Dechunker {
            state: ChunkState::Size,
            line: Vec::new(),
            chunk: Vec::new(),
        }
    }

    /// Whether the message is over: the terminal chunk and its trailer
    /// section were consumed, or framing was unrecoverably malformed.
    pub fn done(&self) -> bool {
        matches!(self.state, ChunkState::Done)
    }

    /// Feeds `input`, appending every chunk that completes to `out`.
    /// Returns how many input bytes were consumed — always the full input
    /// unless decoding finished partway through it.
    pub fn push(&mut self, input: &[u8], out: &mut Vec<u8>) -> usize {
        let mut pos = 0usize;
        while pos < input.len() {
            match self.state {
                ChunkState::Done => break,
                ChunkState::Size => {
                    let rest = input.get(pos..).unwrap_or_default();
                    match rest.iter().position(|b| *b == b'\n') {
                        Some(nl) => {
                            self.line
                                .extend_from_slice(rest.get(..nl).unwrap_or_default());
                            pos += nl + 1;
                            self.start_chunk();
                        }
                        None => {
                            // The size line is torn at this read boundary;
                            // buffer what we have and resume on the next
                            // feed (bounded — garbage lines cap out).
                            self.line.extend_from_slice(rest);
                            pos = input.len();
                            if self.line.len() > MAX_SIZE_LINE {
                                self.state = ChunkState::Done;
                            }
                        }
                    }
                }
                ChunkState::Data { remaining } => {
                    let avail = input.len() - pos;
                    let take = remaining.min(avail);
                    self.chunk
                        .extend_from_slice(input.get(pos..pos + take).unwrap_or_default());
                    pos += take;
                    if take == remaining {
                        // Chunk complete: only now does it reach the
                        // output, so truncation drops torn chunks whole.
                        out.append(&mut self.chunk);
                        self.state = ChunkState::Skip { left: 2 };
                    } else {
                        self.state = ChunkState::Data {
                            remaining: remaining - take,
                        };
                    }
                }
                ChunkState::Skip { left } => {
                    let avail = input.len() - pos;
                    let take = left.min(avail);
                    pos += take;
                    if take == left {
                        self.state = ChunkState::Size;
                    } else {
                        self.state = ChunkState::Skip { left: left - take };
                    }
                }
                ChunkState::Trailer => {
                    let rest = input.get(pos..).unwrap_or_default();
                    match rest.iter().position(|b| *b == b'\n') {
                        Some(nl) => {
                            self.line
                                .extend_from_slice(rest.get(..nl).unwrap_or_default());
                            pos += nl + 1;
                            // A blank line (bare CRLF) closes the trailer
                            // section; anything else is a trailer header
                            // we skip.
                            if self.line.iter().all(|b| *b == b'\r') {
                                self.state = ChunkState::Done;
                            }
                            self.line.clear();
                        }
                        None => {
                            self.line.extend_from_slice(rest);
                            pos = input.len();
                            if self.line.len() > MAX_SIZE_LINE {
                                self.state = ChunkState::Done;
                            }
                        }
                    }
                }
            }
        }
        pos
    }

    /// Parses the accumulated size line and transitions accordingly.
    fn start_chunk(&mut self) {
        let size_line = String::from_utf8_lossy(&self.line);
        // Chunk extensions (`;` suffix) are allowed by the grammar; the
        // size is everything before the first `;`, sans whitespace/CR.
        let size_hex = size_line.split(';').next().unwrap_or("").trim();
        let state = match usize::from_str_radix(size_hex, 16) {
            // Terminal chunk: swallow the trailer section too, leaving a
            // keep-alive socket at the next reply's first byte.
            Ok(0) => ChunkState::Trailer,
            // Bad framing: stop immediately, keeping the decoded prefix.
            Err(_) => ChunkState::Done,
            Ok(size) => ChunkState::Data { remaining: size },
        };
        self.line.clear();
        self.chunk.clear();
        self.state = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads every reply in `wire`, in order, the way [`Conn::recv`] does.
    fn replies(wire: &[u8], count: usize) -> Vec<std::io::Result<HttpReply>> {
        let mut reader = wire;
        let mut buf = Vec::new();
        (0..count)
            .map(|_| read_reply(&mut reader, &mut buf))
            .collect()
    }

    fn one(wire: &[u8]) -> std::io::Result<HttpReply> {
        replies(wire, 1).remove(0)
    }

    fn dechunk(wire: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        Dechunker::new().push(wire, &mut body);
        body
    }

    #[test]
    fn parses_a_full_reply() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\n\
                    Content-Length: 8\r\n\r\n{\"a\":1}\n";
        let reply = one(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-cache"), Some("hit"));
        assert_eq!(reply.text(), "{\"a\":1}\n");
    }

    #[test]
    fn rejects_malformed_replies() {
        assert!(one(b"not http").is_err());
        assert!(one(b"HTTP/1.1 abc\r\n\r\n").is_err());
        // No framing at all, or a body cut short of its length.
        assert!(one(b"HTTP/1.1 200 OK\r\n\r\nbody").is_err());
        assert!(one(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
    }

    #[test]
    fn dechunks_streaming_replies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                    Transfer-Encoding: chunked\r\n\r\n\
                    b\r\n{\"a\":true}\n\r\n7\r\n{\"b\":1}\r\n0\r\n\r\n";
        let reply = one(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.text(), "{\"a\":true}\n{\"b\":1}");
    }

    #[test]
    fn frames_length_and_chunked_replies_on_one_wire() {
        // Length-framed replies, then a stream, on one keep-alive wire:
        // each reply ends exactly where its head says, and the carryover
        // buffer positions the reader at the next one.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\none\
                     HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n\
                     HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                     3\r\ntwo\r\n0\r\n\r\n\
                     HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nthree";
        let got: Vec<(u16, String)> = replies(wire, 4)
            .into_iter()
            .map(|r| r.map(|r| (r.status, r.text())).unwrap())
            .collect();
        assert_eq!(
            got,
            vec![
                (200, "one".to_string()),
                (404, String::new()),
                (200, "two".to_string()),
                (200, "three".to_string()),
            ]
        );
    }

    #[test]
    fn dechunks_size_lines_with_chunk_extensions() {
        let wire = b"5;ext=1\r\nhello\r\n6 ; a=\"b\" \r\n world\r\n0;last\r\n\r\n";
        assert_eq!(dechunk(wire), b"hello world");
    }

    #[test]
    fn incremental_feed_matches_one_shot_at_every_split_point() {
        // Splitting anywhere — mid size line, mid extension, mid payload,
        // mid trailing CRLF — must decode identically to the whole wire.
        let wire: &[u8] = b"b;x=y\r\n{\"a\":true}\n\r\n7\r\n{\"b\":1}\r\n1a\r\nabcdefghijklmnopqrstuvwxyz\r\n0\r\n\r\n";
        let whole = dechunk(wire);
        assert_eq!(whole, b"{\"a\":true}\n{\"b\":1}abcdefghijklmnopqrstuvwxyz");
        for split in 0..=wire.len() {
            let mut decoder = Dechunker::new();
            let mut out = Vec::new();
            let consumed = decoder.push(wire.get(..split).unwrap_or_default(), &mut out);
            assert_eq!(consumed, split, "prefix fully consumed at split {split}");
            decoder.push(wire.get(split..).unwrap_or_default(), &mut out);
            assert_eq!(out, whole, "split at byte {split} diverged");
            assert!(decoder.done(), "terminal chunk reached at split {split}");
        }
    }

    #[test]
    fn byte_at_a_time_feed_decodes_and_stops_at_terminal_chunk() {
        let wire = b"3\r\nabc\r\n0\r\n\r\ntrailing-garbage";
        let mut decoder = Dechunker::new();
        let mut out = Vec::new();
        let mut consumed = 0usize;
        for b in wire {
            let n = decoder.push(std::slice::from_ref(b), &mut out);
            consumed += n;
            if decoder.done() {
                break;
            }
        }
        assert_eq!(out, b"abc");
        assert!(decoder.done());
        // The terminal chunk's size line ends decoding; bytes past it are
        // left for the caller (the keep-alive carryover buffer).
        assert!(consumed <= wire.len() - b"trailing-garbage".len() + 1);
    }

    #[test]
    fn oversized_size_line_ends_decoding_instead_of_buffering_forever() {
        let mut decoder = Dechunker::new();
        let mut out = Vec::new();
        let garbage = vec![b'f'; 4096];
        decoder.push(&garbage, &mut out);
        assert!(decoder.done());
        assert!(out.is_empty());
    }

    #[test]
    fn truncated_chunk_stream_keeps_complete_frames() {
        // Cut mid-chunk: the complete first chunk survives, the torn
        // second one is dropped.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\nff\r\ntorn";
        let reply = one(raw).unwrap();
        assert_eq!(reply.text(), "hello");
        // Garbage size line: decoded prefix only, no panic.
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
                    5\r\nhello\r\nzz\r\nx\r\n0\r\n\r\n";
        assert_eq!(one(raw).unwrap().text(), "hello");
    }
}
