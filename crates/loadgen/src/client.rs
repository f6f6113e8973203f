//! A minimal blocking HTTP/1.1 keep-alive client for the generator's
//! connection workers: one persistent loopback `TcpStream` per worker,
//! one in-flight request at a time, and just enough response parsing to
//! pull the status code and the server's `X-Slowdown` timing header.

use std::io::{self, BufRead, BufReader, Write};
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

        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;

        let mut slowdown = None;
        let mut content_length = 0usize;
        let mut close = false;
        let mut shed = false;
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
            }
            let line = line.trim();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                let value = value.trim();
                if name.eq_ignore_ascii_case("x-slowdown") {
                    slowdown = value.parse().ok();
                } else if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.parse().unwrap_or(0);
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                } else if name.eq_ignore_ascii_case("x-shed") {
                    shed = value == "1";
                }
            }
        }
        // Drain the body so the next exchange starts at a clean frame.
        let mut remaining = content_length;
        while remaining > 0 {
            let chunk = self.reader.fill_buf()?;
            if chunk.is_empty() {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated body"));
            }
            let n = chunk.len().min(remaining);
            self.reader.consume(n);
            remaining -= n;
        }
        // A close announcement does NOT invalidate this response — the
        // caller records it normally and reconnects before the next one.
        Ok(Exchange { status, slowdown, closed: close, shed })
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
    let mut conn = Connection::connect(addr, timeout)?;
    let head = format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n");
    conn.writer.write_all(head.as_bytes())?;
    let mut status_line = String::new();
    if conn.reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut content_type = String::new();
    loop {
        let mut line = String::new();
        if conn.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "truncated head"));
        }
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("content-type") {
                content_type = value.to_string();
            }
        }
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(&mut conn.reader, &mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
    Ok(AdminBody { status, content_type, body })
}

/// Issue one `PUT /config?{query}` against the server's admin endpoint
/// on a fresh connection (e.g. `query = "deltas=2,1"`) and return the
/// status code — the generator's hot-reconfiguration trigger.
pub fn put_config(addr: SocketAddr, query: &str, timeout: Duration) -> io::Result<u16> {
    let mut conn = Connection::connect(addr, timeout)?;
    let head = format!("PUT /config?{query} HTTP/1.1\r\nConnection: close\r\n\r\n");
    conn.writer.write_all(head.as_bytes())?;
    let mut status_line = String::new();
    if conn.reader.read_line(&mut status_line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
    }
    status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))
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
        let fe = HttpFrontend::start("127.0.0.1:0", Arc::clone(&server), 1.0).expect("bind");
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
