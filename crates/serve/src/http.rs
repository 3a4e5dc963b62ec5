//! A deliberately small HTTP/1.1 layer: enough protocol to carry JSON
//! requests and responses over [`std::net::TcpStream`], nothing more.
//!
//! Limits are part of the robustness story: headers are capped at
//! [`MAX_HEADER_BYTES`], bodies at [`MAX_BODY_BYTES`], the whole request
//! (head plus body) must arrive within [`IO_TIMEOUT`], and writes carry
//! the same timeout, so a slow or malicious client can tie up one
//! handler thread for a bounded time only — trickling one byte at a time
//! does not extend the deadline.

use std::fmt;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEADER_BYTES: usize = 8 * 1024;
/// Upper bound on a request body, in bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// Deadline for reading a whole request, and the socket write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Why an incoming request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The socket failed or timed out mid-read.
    Io(String),
    /// The request line or headers were not valid HTTP.
    Malformed(String),
    /// Headers or body exceeded the configured caps.
    TooLarge(String),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(m) => write!(f, "i/o: {m}"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// A parsed request: method, path, and the (possibly empty) body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), uppercased as received.
    pub method: String,
    /// Request target path, e.g. `/v1/sweep`.
    pub path: String,
    /// Decoded request body (UTF-8; lossy for robustness).
    pub body: String,
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`.
    pub headers: Vec<(String, String)>,
    /// Response body (JSON everywhere in this service).
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header (e.g. `Retry-After`).
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.to_owned(), value.into()));
        self
    }

    /// The standard reason phrase for the status codes this service emits.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Response",
        }
    }

    /// Serializes the response to wire format and writes it out.
    ///
    /// # Errors
    ///
    /// Returns [`HttpError::Io`] when the socket write fails; the caller
    /// can only log it — the connection is gone.
    pub fn write_to(&self, stream: &mut TcpStream) -> Result<(), HttpError> {
        let mut text = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n",
            self.status,
            self.reason(),
            self.body.len()
        );
        for (name, value) in &self.headers {
            text.push_str(name);
            text.push_str(": ");
            text.push_str(value);
            text.push_str("\r\n");
        }
        text.push_str("\r\n");
        text.push_str(&self.body);
        stream
            .write_all(text.as_bytes())
            .map_err(|e| HttpError::Io(format!("write response: {e}")))
    }
}

/// The [`fase_obs::monotonic_ns`] instant `budget` from now.
pub(crate) fn deadline_after(budget: Duration) -> u64 {
    fase_obs::monotonic_ns().saturating_add(u64::try_from(budget.as_nanos()).unwrap_or(u64::MAX))
}

/// One `read` that may not outlive `deadline_ns` (a
/// [`fase_obs::monotonic_ns`] instant): the socket timeout is set to the
/// time remaining before every call.
fn read_by(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadline_ns: u64,
    what: &str,
) -> Result<usize, HttpError> {
    let left = deadline_ns.saturating_sub(fase_obs::monotonic_ns());
    if left == 0 {
        return Err(HttpError::Io(format!("{what}: request deadline exceeded")));
    }
    stream
        .set_read_timeout(Some(Duration::from_nanos(left)))
        .map_err(|e| HttpError::Io(format!("{what}: {e}")))?;
    stream
        .read(buf)
        .map_err(|e| HttpError::Io(format!("{what}: {e}")))
}

/// Reads until the end-of-headers marker, enforcing [`MAX_HEADER_BYTES`].
fn read_head(stream: &mut TcpStream, deadline_ns: u64) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if let Some(pos) = find_blank_line(&head) {
            let rest = head.split_off(pos + 4);
            return Ok((head, rest));
        }
        if head.len() > MAX_HEADER_BYTES {
            return Err(HttpError::TooLarge(format!(
                "headers exceed {MAX_HEADER_BYTES} bytes"
            )));
        }
        let n = read_by(stream, &mut chunk, deadline_ns, "read headers")?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-headers".into()));
        }
        head.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
}

/// Position of the `\r\n\r\n` end-of-headers marker, if present.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// * [`HttpError::Io`] — socket failure, or the request did not arrive
///   within [`IO_TIMEOUT`].
/// * [`HttpError::Malformed`] — not parseable as an HTTP/1.1 request.
/// * [`HttpError::TooLarge`] — headers or body beyond the caps.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    read_request_within(stream, IO_TIMEOUT)
}

/// [`read_request`] with an explicit whole-request budget.
fn read_request_within(stream: &mut TcpStream, budget: Duration) -> Result<Request, HttpError> {
    let deadline_ns = deadline_after(budget);
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let (head, mut body) = read_head(stream, deadline_ns)?;
    let head = String::from_utf8_lossy(&head).into_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?
        .to_owned();

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length '{value}'")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds {MAX_BODY_BYTES}"
        )));
    }
    while body.len() < content_length {
        let mut chunk = vec![0u8; content_length - body.len()];
        let n = read_by(stream, &mut chunk, deadline_ns, "read body")?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        body: String::from_utf8_lossy(&body).into_owned(),
    })
}

/// Reads and drops whatever the client still sends — at most one
/// request's worth — until it closes or `budget` runs out. Closing a
/// socket with unread input resets the connection, which can destroy a
/// reply the client has not read yet; draining first avoids that.
pub(crate) fn discard_within(stream: &mut TcpStream, budget: Duration) {
    let deadline_ns = deadline_after(budget);
    let mut chunk = [0u8; 4096];
    let mut left = MAX_HEADER_BYTES + MAX_BODY_BYTES;
    while left > 0 {
        match read_by(stream, &mut chunk, deadline_ns, "discard") {
            Ok(0) | Err(_) => return,
            Ok(n) => left = left.saturating_sub(n),
        }
    }
}

/// A client-side response: status, headers, body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response headers, lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// The value of `name` (case-insensitive), if the server sent it.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Minimal blocking HTTP client used by the load generator and tests:
/// one request, `connection: close`, reads the whole response.
///
/// # Errors
///
/// Returns [`HttpError`] when the connection, write, or response parse
/// fails.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<ClientResponse, HttpError> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| HttpError::Io(format!("connect {addr}: {e}")))?;
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let text = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(text.as_bytes())
        .map_err(|e| HttpError::Io(format!("write request: {e}")))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| HttpError::Io(format!("read response: {e}")))?;
    let pos = find_blank_line(&raw)
        .ok_or_else(|| HttpError::Malformed("response has no header terminator".into()))?;
    let payload = raw.split_off(pos + 4);
    let head = String::from_utf8_lossy(&raw).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty response".into()))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line '{status_line}'")))?;
    let headers = lines
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
        })
        .collect();
    Ok(ClientResponse {
        status,
        headers,
        body: String::from_utf8_lossy(&payload).into_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(request_bytes: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bytes = request_bytes.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&bytes).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let parsed = read_request(&mut stream);
        writer.join().unwrap();
        parsed
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip(b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.body, "{\"a\":1}");
    }

    #[test]
    fn parses_get_without_body() {
        let req = roundtrip(b"GET /v1/health HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/health");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_body_declaration() {
        let text = format!(
            "POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let err = roundtrip(text.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge(_)), "{err}");
    }

    #[test]
    fn trickling_client_hits_the_whole_request_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        // One header byte every 50 ms: each read succeeds well within any
        // per-read timeout, so only a whole-request deadline stops it.
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            for byte in b"GET /v1/health HTTP/1.1\r\nx-slow: ".iter().cycle() {
                if done_rx.try_recv().is_ok() || s.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = fase_obs::monotonic_ns();
        let err = read_request_within(&mut stream, Duration::from_millis(200)).unwrap_err();
        let elapsed_ms = fase_obs::monotonic_ns().saturating_sub(started) / 1_000_000;
        done_tx.send(()).unwrap();
        writer.join().unwrap();
        assert!(matches!(err, HttpError::Io(_)), "{err}");
        assert!(elapsed_ms < 1_000, "deadline took {elapsed_ms} ms");
    }

    #[test]
    fn rejects_garbage_request_line() {
        let err = roundtrip(b"\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err}");
    }

    #[test]
    fn client_and_server_speak_to_each_other() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = format!("{}", listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request(&mut stream).unwrap();
            assert_eq!(req.body, "ping");
            // The same ms → whole-seconds rounding the server applies to
            // queue-derived retry hints (ceil, floored at 1 s).
            let hint_ms = 1_750u64;
            Response::json(429, "{\"e\":1}")
                .with_header("Retry-After", hint_ms.div_ceil(1_000).max(1).to_string())
                .write_to(&mut stream)
                .unwrap();
        });
        let reply = client_request(&addr, "POST", "/x", "ping").unwrap();
        server.join().unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.header("retry-after"), Some("2"));
        assert_eq!(reply.body, "{\"e\":1}");
    }
}
