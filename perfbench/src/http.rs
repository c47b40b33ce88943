//! A minimal HTTP/1.1 keep-alive client and SSE reader for the
//! in-process server (the responses it reads always carry
//! `Content-Length`, except the open-ended SSE stream).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Round-trip seconds, from writing the request to the last body byte.
    pub rtt: f64,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// 2xx or 304.
    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status) || self.status == 304
    }
}

/// One keep-alive connection, reopened when the server closes it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&self) -> std::io::Result<BufReader<TcpStream>> {
        let s = TcpStream::connect(self.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(BufReader::new(s))
    }

    /// Send one request. A reused connection the server has since closed
    /// is reopened once, transparently.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<Reply> {
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\n");
        for (n, v) in headers {
            head.push_str(&format!("{n}: {v}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let reused = self.conn.is_some();
        match self.exchange(&head, body) {
            Err(_) if reused => {
                self.conn = None;
                self.exchange(&head, body)
            }
            r => r,
        }
    }

    fn exchange(&mut self, head: &str, body: &[u8]) -> std::io::Result<Reply> {
        if self.conn.is_none() {
            self.conn = Some(self.connect()?);
        }
        let conn = self.conn.as_mut().expect("connection just opened");
        let t0 = Instant::now();
        let stream = conn.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let reply = read_reply(conn, t0);
        match &reply {
            Ok(r) if !r.header("connection").is_some_and(|c| c.eq_ignore_ascii_case("close")) => {}
            _ => self.conn = None,
        }
        reply
    }
}

fn read_reply(conn: &mut BufReader<TcpStream>, t0: Instant) -> std::io::Result<Reply> {
    let (status, headers) = read_head(conn)?;
    let len: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    conn.read_exact(&mut body)?;
    Ok(Reply { status, headers, body, rtt: t0.elapsed().as_secs_f64() })
}

fn read_head(conn: &mut impl BufRead) -> std::io::Result<(u16, Vec<(String, String)>)> {
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut line = String::new();
    if conn.read_line(&mut line)? == 0 {
        return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        conn.read_line(&mut line)?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        let (n, v) = l.split_once(':').ok_or_else(|| bad("malformed header"))?;
        headers.push((n.trim().to_string(), v.trim().to_string()));
    }
    Ok((status, headers))
}

/// One SSE event as received: its `event:` name and `data:` payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SseEvent {
    pub event: String,
    pub data: String,
}

/// Follow `GET /runs/{run}/stream` to the server's close. Returns the
/// HTTP status and, on 200, every event in order (`: hb` comments
/// skipped).
pub fn watch(addr: SocketAddr, run: &str) -> std::io::Result<(u16, Vec<SseEvent>)> {
    let s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut conn = BufReader::new(s);
    let req = format!("GET /runs/{run}/stream HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    conn.get_mut().write_all(req.as_bytes())?;
    let (status, _) = read_head(&mut conn)?;
    if status != 200 {
        return Ok((status, Vec::new()));
    }
    let mut text = String::new();
    conn.read_to_string(&mut text)?;
    let mut events = Vec::new();
    for block in text.split("\n\n") {
        let mut event = None;
        let mut data = None;
        for line in block.lines() {
            if let Some(e) = line.strip_prefix("event: ") {
                event = Some(e.to_string());
            } else if let Some(d) = line.strip_prefix("data: ") {
                data = Some(d.to_string());
            }
        }
        if let (Some(event), Some(data)) = (event, data) {
            events.push(SseEvent { event, data });
        }
    }
    Ok((status, events))
}
