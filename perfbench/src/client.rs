//! A minimal blocking HTTP/1.1 keep-alive client for the load generator.
//!
//! Responses are framed by `Content-Length` (the server always sends it).
//!
//! The server answers `Connection: close` on the last request it accepts on
//! one connection ([`KEEPALIVE_MAX_REQUESTS`]). The client never writes past
//! that cap, reconnects when told to close, and resends a request once if
//! the server closes early. Each reconnect is counted, not failed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use adds_serve::http::KEEPALIVE_MAX_REQUESTS;

/// How long a request may wait for its response. The slowest benchmark
/// request takes well under a second.
const ROUNDTRIP_TIMEOUT: Duration = Duration::from_secs(30);

/// One parsed response.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    /// The server will close the connection after this response.
    pub close: bool,
    pub body: Vec<u8>,
}

/// A `POST` request with `body`.
pub fn post(path: &str, body: &[u8]) -> Vec<u8> {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// A `GET` request.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests written on the current connection.
    sent: usize,
    /// The server announced it will close this connection.
    closing: bool,
    /// Connections opened after the first.
    pub reconnects: u64,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: open(addr)?,
            buf: Vec::with_capacity(64 * 1024),
            sent: 0,
            closing: false,
            reconnects: 0,
        })
    }

    fn reconnect(&mut self) -> io::Result<()> {
        self.stream = open(self.addr)?;
        self.buf.clear();
        self.sent = 0;
        self.closing = false;
        self.reconnects += 1;
        Ok(())
    }

    /// Send `req` and wait for its response, reconnecting at the keep-alive
    /// cap and resending once if the server closed early.
    pub fn roundtrip(&mut self, req: &[u8]) -> io::Result<Response> {
        if self.closing || self.sent >= KEEPALIVE_MAX_REQUESTS {
            self.reconnect()?;
        }
        match self.send_recv(req) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                self.reconnect()?;
                self.send_recv(req)
            }
            r => r,
        }
    }

    fn send_recv(&mut self, req: &[u8]) -> io::Result<Response> {
        self.sent += 1;
        self.stream.write_all(req)?;
        loop {
            if let Some(resp) = self.parse()? {
                self.closing = resp.close;
                return Ok(resp);
            }
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn parse(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut len, mut close) = (0usize, false);
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let v = v.trim();
            match k.to_ascii_lowercase().as_str() {
                "content-length" => len = v.parse().map_err(|_| bad("bad content-length"))?,
                "connection" => close = v.eq_ignore_ascii_case("close"),
                _ => {}
            }
        }
        let start = head_end + 4;
        if self.buf.len() < start + len {
            return Ok(None);
        }
        let body = self.buf[start..start + len].to_vec();
        self.buf.drain(..start + len);
        Ok(Some(Response {
            status,
            close,
            body,
        }))
    }
}

fn open(addr: SocketAddr) -> io::Result<TcpStream> {
    let s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.set_read_timeout(Some(ROUNDTRIP_TIMEOUT))?;
    Ok(s)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}
