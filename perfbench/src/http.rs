//! A minimal keep-alive HTTP/1.1 client for `webdep serve`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
pub struct Response {
    pub status: u16,
    /// The `X-Webdep-Epoch` header, when present.
    pub epoch: Option<u64>,
    pub body: Vec<u8>,
}

impl Response {
    /// The epoch stamped into a JSON body (`{"epoch":N,...}`), which every
    /// successful route puts first.
    pub fn body_epoch(&self) -> Option<u64> {
        let rest = self.body.strip_prefix(b"{\"epoch\":")?;
        let end = rest.iter().position(|b| !b.is_ascii_digit())?;
        std::str::from_utf8(&rest[..end]).ok()?.parse().ok()
    }
}

/// One keep-alive connection.
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Sends `GET target` and reads the whole response.
    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        let req = format!("GET {target} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
        self.reader.get_mut().write_all(req.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut content_length = 0usize;
        let mut epoch = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("truncated head"));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if let Some((name, value)) = l.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| bad("bad length"))?;
                } else if name.eq_ignore_ascii_case("x-webdep-epoch") {
                    epoch = value.trim().parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        Ok(Response {
            status,
            epoch,
            body,
        })
    }
}
