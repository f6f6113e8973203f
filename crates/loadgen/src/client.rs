//! A minimal blocking HTTP/1.1 keep-alive client for the generator's
//! connection workers: one persistent loopback `TcpStream` per worker,
//! one in-flight request at a time. Every response — a load exchange,
//! an admin scrape, a reconfiguration — is read by one head reader,
//! which pulls the status, the framing and the server's `X-Slowdown`
//! and `X-Shed` headers.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// What the generator records about one exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exchange {
    /// HTTP status code.
    pub status: u16,
    /// Server-measured slowdown (`X-Slowdown` header), if present.
    pub slowdown: Option<f64>,
    /// The server announced `Connection: close` — the response itself
    /// is valid, but the connection must not be reused.
    pub closed: bool,
    /// The server shed this request at admission (`X-Shed: 1`): not a
    /// failure, but deliberate overload control — accounted separately
    /// from errors by the generator.
    pub shed: bool,
}

impl Exchange {
    /// A 2xx response.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// One persistent connection to the server under test.
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    /// Connect to `addr` with a read timeout that bounds how long one
    /// exchange may take (a stuck server shows up as an error, not a
    /// hung generator).
    pub fn connect(addr: SocketAddr, read_timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { reader, writer: stream })
    }

    /// Send one request for `class` with the given `cost` and read the
    /// full response (headers + body), keeping the connection alive.
    pub fn exchange(&mut self, class: usize, cost: f64) -> io::Result<Exchange> {
        let head = format!(
            "GET /loadgen?cost={cost:.6} HTTP/1.1\r\nX-Class: {class}\r\nConnection: keep-alive\r\n\r\n"
        );
        self.writer.write_all(head.as_bytes())?;
        let head = read_head(&mut self.reader)?;
        // Drain the body so the next exchange starts at a clean frame.
        let len = head.content_length as u64;
        if io::copy(&mut (&mut self.reader).take(len), &mut io::sink())? < len {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated body"));
        }
        // A close announcement does NOT invalidate this response — the
        // caller records it normally and reconnects before the next one.
        Ok(head.exchange)
    }
}

/// A response head: what an exchange records, plus the body's framing.
struct Head {
    exchange: Exchange,
    /// 0 when absent.
    content_length: usize,
    /// Empty when absent.
    content_type: String,
}

/// Open a fresh connection, send `method target` with
/// `Connection: close`, and read the response head.
fn request_once(
    addr: SocketAddr,
    method: &str,
    target: &str,
    timeout: Duration,
) -> io::Result<(Connection, Head)> {
    let mut conn = Connection::connect(addr, timeout)?;
    let head = format!("{method} {target} HTTP/1.1\r\nConnection: close\r\n\r\n");
    conn.writer.write_all(head.as_bytes())?;
    let head = read_head(&mut conn.reader)?;
    Ok((conn, head))
}

/// Read one response head: the status line and every header up to the
/// blank line. A `Content-Length` that is not a number is an
/// `InvalidData` error: the body's end is then unknown, and a guess
/// would either truncate the body or leave it in the socket to be read
/// as the next response.
fn read_head(reader: &mut impl BufRead) -> io::Result<Head> {
    let invalid = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let exchange = Exchange { status, slowdown: None, closed: false, shed: false };
    let mut head = Head { exchange, content_length: 0, content_type: String::new() };
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
        }
        let header = line.trim();
        if header.is_empty() {
            return Ok(head);
        }
        let Some((name, value)) = header.split_once(':') else { continue };
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            head.content_length = value.parse().map_err(|_| invalid("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            head.exchange.closed = value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("x-shed") {
            head.exchange.shed = value == "1";
        } else if name.eq_ignore_ascii_case("x-slowdown") {
            head.exchange.slowdown = value.parse().ok();
        } else if name.eq_ignore_ascii_case("content-type") {
            head.content_type = value.to_string();
        }
    }
}

/// One admin response pulled by [`get`].
#[derive(Debug, Clone, PartialEq)]
pub struct AdminBody {
    /// HTTP status code.
    pub status: u16,
    /// The `Content-Type` header (empty when absent).
    pub content_type: String,
    /// The full response body.
    pub body: String,
}

/// Issue one `GET {path}` against the server's admin endpoint on a
/// fresh connection (`Connection: close`) and return the status,
/// content type and full body — the generator's mid-run observability
/// scrape (`/metrics/prometheus`, `/trace`, `/trace/control`,
/// `/healthz`).
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<AdminBody> {
    let (mut conn, head) = request_once(addr, "GET", path, timeout)?;
    let mut body = vec![0u8; head.content_length];
    conn.reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(AdminBody { status: head.exchange.status, content_type: head.content_type, body })
}

/// Issue one `PUT /config?{query}` against the server's admin endpoint
/// on a fresh connection (e.g. `query = "deltas=2,1"`) and return the
/// status code — the generator's hot-reconfiguration trigger.
pub fn put_config(addr: SocketAddr, query: &str, timeout: Duration) -> io::Result<u16> {
    let (_, head) = request_once(addr, "PUT", &format!("/config?{query}"), timeout)?;
    Ok(head.exchange.status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_server::{HttpFrontend, PsdServer, ServerConfig};
    use std::sync::Arc;

    fn tiny_server() -> (HttpFrontend, Arc<PsdServer>) {
        let server = Arc::new(PsdServer::start(ServerConfig {
            deltas: vec![1.0, 2.0],
            ..ServerConfig::default()
        }));
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server)).expect("bind");
        (fe, server)
    }

    #[test]
    fn keep_alive_exchanges_reuse_one_connection() {
        let (fe, server) = tiny_server();
        let mut conn = Connection::connect(fe.addr(), Duration::from_secs(5)).expect("connect");
        for i in 0..20 {
            let ex = conn.exchange(i % 2, 1.0).expect("exchange");
            assert!(ex.ok(), "request {i}: status {}", ex.status);
            assert!(ex.slowdown.is_some(), "request {i}: missing X-Slowdown");
        }
        drop(conn);
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        let stats = Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
        let total: u64 = stats.classes.iter().map(|c| c.completed).sum();
        assert_eq!(total, 20, "all exchanges executed");
    }

    /// A listener that answers each of `connections` requests with
    /// `response`, whatever was asked.
    fn scripted(response: &'static str, connections: usize) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for stream in listener.incoming().take(connections) {
                let mut stream = stream.expect("accept");
                let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                let mut line = String::new();
                while reader.read_line(&mut line).is_ok_and(|n| n > 0) && !line.trim().is_empty() {
                    line.clear();
                }
                stream.write_all(response.as_bytes()).expect("respond");
            }
        });
        addr
    }

    /// A `Content-Length` that is not a number leaves the body's end
    /// unknown: both readers refuse the response instead of guessing.
    #[test]
    fn a_malformed_content_length_is_an_error() {
        let addr = scripted("HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\nhello", 2);
        let timeout = Duration::from_secs(5);
        let mut conn = Connection::connect(addr, timeout).expect("connect");
        let err = conn.exchange(0, 1.0).expect_err("exchange accepted Content-Length: abc");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let err = get(addr, "/healthz", timeout).expect_err("get accepted Content-Length: abc");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn drain_closes_idle_keep_alive_connections() {
        let (fe, server) = tiny_server();
        let mut conn = Connection::connect(fe.addr(), Duration::from_secs(5)).expect("connect");
        conn.exchange(0, 1.0).expect("exchange");
        // The connection is idle (kept alive); a drain must not hang.
        assert_eq!(fe.shutdown(Duration::from_secs(5)).expect("drain"), 0);
        Arc::try_unwrap(server).ok().expect("handlers drained").shutdown();
    }
}
