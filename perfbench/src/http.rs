//! A minimal blocking HTTP/1.1 client for the daemon's API: one request
//! per connection (the daemon answers `Connection: close`), the response
//! read to end of stream.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Per-request connect, read and write timeout.
pub const TIMEOUT: Duration = Duration::from_secs(10);

/// A response: status code and body.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the whole response. Non-2xx statuses are
/// replies, not errors; errors are transport failures and timeouts.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    api_key: Option<&str>,
    body: &[u8],
) -> Result<Reply, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    if let Some(key) = api_key {
        head.push_str(&format!("X-Api-Key: {key}\r\n"));
    }
    head.push_str("\r\n");
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream
        .write_all(&message)
        .map_err(|e| format!("{method} {path}: write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{method} {path}: read: {e}"))?;
    parse_reply(&raw).map_err(|e| format!("{method} {path}: {e}"))
}

fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let text = std::str::from_utf8(raw).map_err(|_| "response is not utf-8".to_owned())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| "response has no header end".to_owned())?;
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    Ok(Reply {
        status,
        body: body.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse_status_and_body() {
        let r = parse_reply(b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\n{}").unwrap();
        assert_eq!(r.status, 201);
        assert_eq!(r.body, "{}");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
        assert!(parse_reply(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn a_request_round_trips_through_a_local_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let (mut seen, mut buf) = (Vec::new(), [0u8; 256]);
            while !seen.windows(4).any(|w| w == b"\r\n\r\n") {
                let n = conn.read(&mut buf).unwrap();
                assert!(n > 0, "client closed early");
                seen.extend_from_slice(&buf[..n]);
            }
            let seen = String::from_utf8(seen).unwrap();
            conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
                .unwrap();
            seen
        });
        let reply = request(addr, "GET", "/healthz", Some("k1"), b"").unwrap();
        let seen = server.join().unwrap();
        assert_eq!((reply.status, reply.body.as_str()), (200, "hello"));
        assert!(seen.starts_with("GET /healthz HTTP/1.1\r\n"));
        assert!(seen.contains("X-Api-Key: k1\r\n"));
    }
}
